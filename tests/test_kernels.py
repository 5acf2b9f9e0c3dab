"""Properties of the vectorized kernels against their slow oracles: the
dead-time filter against the sequential one, the pair histogram against the
all-pairs outer difference, also with its stepping rounds and chunks cut
short so that every round boundary and chunk edge is crossed, and on both
sides of the merge's density guard; the merge's ranks against
searchsorted."""

import concurrent.futures
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfclab import _kernels, montecarlo, tagcorr
from qfclab._kernels import dead_time_mask, pair_histogram
from qfclab.acceptance import _oracle_dead_time, _oracle_outer

# a small value range makes ties and closely spaced clusters common
_TAG = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)
_SMALL_TAG = st.integers(min_value=-5, max_value=200)


@st.composite
def streams(draw):
    values = draw(st.lists(draw(st.sampled_from([_TAG, _SMALL_TAG])), max_size=200))
    tags = np.sort(np.array(values, dtype=np.int64))
    dead = draw(st.one_of(st.integers(0, 50), st.integers(0, 2 ** 41)))
    return tags, dead


@settings(max_examples=300, deadline=None)
@given(streams())
def test_matches_sequential_oracle(case):
    tags, dead = case
    assert np.array_equal(dead_time_mask(tags, dead), _oracle_dead_time(tags, dead))


@settings(max_examples=200, deadline=None)
@given(streams(), st.integers(1, 7))
def test_dead_time_across_gap_chunks(case, chunk):
    tags, dead = case
    expected = _oracle_dead_time(tags, dead)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_GAP_CHUNK", chunk)
        assert np.array_equal(dead_time_mask(tags, dead), expected)


@settings(max_examples=200, deadline=None)
@given(streams())
def test_kept_tags_are_dead_time_apart(case):
    tags, dead = case
    kept = tags[dead_time_mask(tags, dead)]
    assert np.all(np.diff(kept) >= dead)


@settings(max_examples=200, deadline=None)
@given(streams())
def test_dropped_tags_fall_in_the_dead_time_of_the_last_kept(case):
    tags, dead = case
    keep = dead_time_mask(tags, dead)
    # index of the last kept tag at or before each position, -1 if none
    last = np.maximum.accumulate(np.where(keep, np.arange(len(tags)), -1))
    dropped = np.flatnonzero(~keep)
    before = last[dropped]
    # a drop before any kept tag is a tag earlier than the detector's ready time
    assert np.all(tags[dropped[before < 0]] < -1)
    with_kept = before >= 0
    gap = tags[dropped[with_kept]] - tags[before[with_kept]]
    assert np.all((gap >= 0) & (gap < dead))


@settings(max_examples=200, deadline=None)
@given(streams())
def test_idempotent(case):
    tags, dead = case
    kept = tags[dead_time_mask(tags, dead)]
    assert dead_time_mask(kept, dead).all()


# ---------------------------------------------------------------------------
# pair histogram


@st.composite
def bursty_tags(draw, max_size=80):
    """Sorted int64 tags; on a small value range, or as bursts of equal
    timestamps, many tags share a value and many pairs share a delay."""
    span = draw(st.sampled_from([4, 60, 5_000, 2 ** 40]))
    values = draw(st.lists(st.integers(0, span), max_size=max_size))
    repeats = draw(st.lists(st.integers(1, 12), min_size=len(values),
                            max_size=len(values)))
    if draw(st.booleans()):
        values = np.repeat(values, repeats)
    return np.sort(np.array(values, dtype=np.int64))


@st.composite
def windows(draw, a, b):
    """(tau_min, tau_max, bin_width): left of 0, right of 0 or straddling it,
    or with an edge on the delay of a drawn pair."""
    bin_width = draw(st.integers(1, 40))
    width = bin_width * draw(st.integers(1, 12))
    place = draw(st.sampled_from(["left", "right", "straddle", "edge"]))
    if place == "left":
        tau_min = -width - draw(st.integers(0, 200))
    elif place == "right":
        tau_min = draw(st.integers(0, 200))
    elif place == "straddle":
        tau_min = -draw(st.integers(0, width - 1))
    elif len(a) and len(b):
        delay = int(b[draw(st.integers(0, len(b) - 1))]
                    - a[draw(st.integers(0, len(a) - 1))])
        tau_min = delay if draw(st.booleans()) else delay - width
    else:
        tau_min = 0
    return tau_min, tau_min + width, bin_width


# every case is (a, b, tau_min, tau_max, bin_width, exclude_self)

@st.composite
def cross_cases(draw):
    a = draw(bursty_tags())
    b = draw(bursty_tags())
    return (a, b) + draw(windows(a, b)) + (False,)


@st.composite
def partner_cases(draw):
    """Each tag of a gets its own number of partners in b (zero, one or many)
    at delays inside and outside the window."""
    a = np.sort(np.array(draw(st.lists(st.integers(0, 10 ** 6), max_size=40)),
                         dtype=np.int64))
    bin_width = draw(st.integers(1, 50))
    tau_min = draw(st.integers(-500, 500))
    tau_max = tau_min + bin_width * draw(st.integers(1, 10))
    delays = st.integers(tau_min - 100, tau_max + 100)
    partners = [draw(st.lists(delays, max_size=draw(st.sampled_from([0, 1, 30]))))
                for _ in a]
    b = np.array(sorted(t + d for t, ds in zip(a.tolist(), partners) for d in ds),
                 dtype=np.int64)
    return a, b, tau_min, tau_max, bin_width, False


@st.composite
def auto_cases(draw):
    """exclude_self on bursts of equal tags, at tau_min == 0 and above."""
    a = draw(bursty_tags())
    bin_width = draw(st.integers(1, 40))
    tau_min = draw(st.sampled_from([0, 0, 1, bin_width, draw(st.integers(0, 300))]))
    return a, a, tau_min, tau_min + bin_width * draw(st.integers(1, 12)), bin_width, True


_PAIR_CASES = st.one_of(cross_cases(), partner_cases(), auto_cases())


@settings(max_examples=600, deadline=None)
@given(_PAIR_CASES)
def test_pair_histogram_matches_outer_oracle(case):
    assert np.array_equal(pair_histogram(*case), _oracle_outer(*case))


@settings(max_examples=300, deadline=None)
@given(_PAIR_CASES, st.integers(1, 7))
def test_pair_histogram_across_chunk_boundaries(case, chunk):
    expected = _oracle_outer(*case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "PAIR_CHUNK", chunk)
        assert np.array_equal(pair_histogram(*case), expected)


@settings(max_examples=300, deadline=None)
@given(_PAIR_CASES, st.sampled_from([0, 1, 2]), st.integers(1, 7))
def test_pair_histogram_fallback_after_every_round(case, rounds, chunk):
    # with few stepping rounds, windows of 1, 2 or 3 partners reach the
    # searchsorted-and-gather fallback, on chunks of a few tags
    expected = _oracle_outer(*case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_STEP_ROUNDS", rounds)
        mp.setattr(_kernels, "PAIR_CHUNK", chunk)
        assert np.array_equal(pair_histogram(*case), expected)


@pytest.mark.parametrize("density", [0, 10 ** 9])
@settings(max_examples=300, deadline=None)
@given(_PAIR_CASES, st.sampled_from([0, 1, 2, _kernels._STEP_ROUNDS]),
       st.sampled_from([1, 2, 3, 7, _kernels.PAIR_CHUNK]))
def test_pair_histogram_on_each_side_of_the_merge_guard(density, case, rounds, chunk):
    # density 0 searches every nonempty span, 10**9 merges every span: the
    # properties above, on chunks and rounds cut short, hold on both paths
    expected = _oracle_outer(*case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_MERGE_DENSITY", density)
        mp.setattr(_kernels, "_STEP_ROUNDS", rounds)
        mp.setattr(_kernels, "PAIR_CHUNK", chunk)
        assert np.array_equal(pair_histogram(*case), expected)


@st.composite
def rank_cases(draw):
    """(t, s): a chunk t from -2**40 on, with runs of equal tags, and a span s
    inside [t[0], t[-1]] of 0 to 3 _MERGE_DENSITY tags per tag of t, whose
    values tie those of t or fall between them."""
    base = draw(st.sampled_from([-(2 ** 40), -7, 0, 2 ** 40]))
    spread = draw(st.sampled_from([0, 5, 1_000, 2 ** 41]))
    n = draw(st.sampled_from([1, 2, draw(st.integers(1, 40))]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    t = base + np.sort(rng.integers(0, spread + 1, n))
    if draw(st.booleans()):
        t = np.repeat(t, rng.integers(1, 6, n))[:n]
    per_tag = draw(st.sampled_from([0, 1, _kernels._MERGE_DENSITY,
                                    _kernels._MERGE_DENSITY + 1,
                                    3 * _kernels._MERGE_DENSITY]))
    m = max(per_tag * n + draw(st.integers(-1, 1)), 0) if per_tag else 0
    between = rng.integers(t[0], t[-1] + 1, m)
    tied = t[rng.integers(0, n, m)]
    s = np.where(rng.random(m) < draw(st.sampled_from([0, 0.5, 1])), tied, between)
    return t.astype(np.int64), np.sort(s).astype(np.int64)


@settings(max_examples=400, deadline=None)
@given(rank_cases())
def test_merge_ranks_match_searchsorted(case):
    t, s = case
    assert np.array_equal(_kernels._ranks(t, s), np.searchsorted(s, t, side="left"))


# pair_histogram's domain at tau in [-10, 10): a + tau_min, a + tau_max and
# b within int64 and at most 2**63 - 1 ps apart. Each edge is (a, b) on it,
# which runs, and (a, b) one ps past it, which raises
_I64_MIN, _I64_MAX = -2 ** 63, 2 ** 63 - 1
_DOMAIN_EDGES = {
    "b[-1] - (a[0] + tau_min)": (([0], [0, _I64_MAX - 10]), ([0], [0, _I64_MAX - 9])),
    "a[0] + tau_min": (([_I64_MIN + 10],) * 2, ([_I64_MIN + 9],) * 2),
    "a[-1] + tau_max": (([_I64_MAX - 10],) * 2, ([_I64_MAX - 9],) * 2),
}


@pytest.mark.parametrize("edge", _DOMAIN_EDGES)
def test_pair_histogram_domain_edges(edge):
    on, past = ([np.array(x, dtype=np.int64) for x in ab] for ab in _DOMAIN_EDGES[edge])
    # the one pair inside the window is (a[0], b[0]) at tau = 0
    assert pair_histogram(*on, -10, 10, 5).tolist() == [0, 0, 1, 0]
    with pytest.raises(ValueError, match=r"must lie in int64 and less than 2\*\*63 ps apart"):
        pair_histogram(*past, -10, 10, 5)


# windows that run past the end of b while they are stepped, each with the
# number of pairs it holds: in the first, a = 3 leaves b after its 2 partners
# and a = 0 after its 4; in the auto-correlations, tag i leaves after
# len(a) - 1 - i partners at most (the 6 + 1 are 6 stepped pairs and 1 tie)
_PAST_END = [
    (np.array([0, 3]), np.array([1, 2, 4, 5]), 0, 10, 1, False, 6),
    (np.array([-9, 0, 3]), np.array([1, 2, 4, 5]), -2, 6, 2, False, 8),
    (np.array([0, 1, 1, 3]), None, 0, 10, 1, True, 6 + 1),
    (np.array([0, 1, 2, 3, 3]), None, 1, 10, 3, True, 9),
]


@pytest.mark.parametrize("rounds", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("a, b, tau_min, tau_max, bin_width, exclude_self, pairs",
                         _PAST_END)
def test_pair_histogram_window_runs_past_b(a, b, tau_min, tau_max, bin_width,
                                            exclude_self, pairs, rounds):
    a = a.astype(np.int64)
    b = a if b is None else b.astype(np.int64)
    case = (a, b, tau_min, tau_max, bin_width, exclude_self)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_STEP_ROUNDS", rounds)
        counts = pair_histogram(*case)
    assert counts.sum() == pairs
    assert np.array_equal(counts, _oracle_outer(*case))


def test_pair_histogram_window_edges():
    a = np.array([0, 0, 10], dtype=np.int64)
    b = np.array([5, 5, 15, 25], dtype=np.int64)
    # tau_min is inclusive (the two b = 5 against both a = 0 and b = 15 against
    # a = 10), tau_max exclusive (b = 15 against a = 0, b = 25 against a = 10)
    assert pair_histogram(a, b, 5, 15, 10).tolist() == [5]


def test_pair_histogram_tie_pairs_in_bin_zero():
    # a burst of 4 equal tags has 4 * 3 = 12 ordered distinct pairs at tau = 0;
    # the run of 2 has 2, the singles none
    a = np.array([1, 7, 7, 7, 7, 9, 12, 12], dtype=np.int64)
    counts = pair_histogram(a, a, 0, 2, 1, exclude_self=True)
    assert counts.tolist() == [14, 0]
    assert np.array_equal(counts, _oracle_outer(a, a, 0, 2, 1, exclude_self=True))


@pytest.mark.parametrize("b_same, tau_min", [(False, 0), (True, -10), (False, -10)])
def test_exclude_self_contract(b_same, tau_min):
    a = np.array([0, 5, 5, 12], dtype=np.int64)
    b = a if b_same else a.copy()
    with pytest.raises(ValueError, match="exclude_self"):
        pair_histogram(a, b, tau_min, tau_min + 20, 5, exclude_self=True)


# ---------------------------------------------------------------------------
# the block pool: threaded kernels against their serial path


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: request.param)
    return request.param


def serial(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_usable_cpus", lambda: 1)
        return fn(*args)


def _bursts(rng, n, span, low=-2_000):
    """n sorted tags from `low` on, in runs of 1 to 12 equal timestamps."""
    values = rng.integers(low, span, n)
    return np.sort(np.repeat(values, rng.integers(1, 13, n)))


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_threaded_pair_histogram_matches_serial(workers, chunk, monkeypatch):
    monkeypatch.setattr(_kernels, "PAIR_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    a, b = _bursts(rng, 150, 60_000), _bursts(rng, 150, 60_000)
    # a[::8] leaves about 8 tags of b per tag of a: chunks of 7 and 64 search,
    # where the full a merges
    cases = [(a, b, -500, 500, 20, False), (a, b, -3_000, -1_000, 100, False),
             (a[::8], b, -500, 500, 20, False),
             (a, a, 0, 400, 10, True), (a, a, 30, 600, 30, True)]
    for case in cases:
        got = pair_histogram(*case)
        assert np.array_equal(got, serial(pair_histogram, *case))
        assert np.array_equal(got, _oracle_outer(*case))


def test_auto_ties_across_block_junctions(workers, monkeypatch):
    # runs of 7 equal tags, from below -1 ps on, against chunks of 5: each
    # block junction of 2 or 3 workers cuts a run of ties
    monkeypatch.setattr(_kernels, "PAIR_CHUNK", 5)
    a = np.repeat(np.arange(-40, 61, dtype=np.int64) * 3, 7)
    n_chunks = -(-len(a) // 5)
    assert all(a[i - 1] == a[i] for i in
               (j * n_chunks // workers * 5 for j in range(1, workers)))
    counts = pair_histogram(a, a, 0, 12, 3, exclude_self=True)
    assert counts[0] == 101 * 7 * 6
    assert np.array_equal(counts, serial(pair_histogram, a, a, 0, 12, 3, True))
    assert np.array_equal(counts, _oracle_outer(a, a, 0, 12, 3, True))


def _with_cluster(before, cluster, after, dead=30):
    """Tags below -1 ps, then `before` tags one dead time apart (each kept by
    its gap), a cluster of `cluster` tags dead/4 apart (every 4th kept), and
    `after` tags one dead time apart."""
    parts = [np.array([-7 * dead, -2 * dead, -2], dtype=np.int64),
             np.arange(before) * dead,
             before * dead + np.arange(cluster) * (dead // 4)]
    t = parts[-1][-1] if cluster else (before - 1) * dead
    parts.append(t + dead + np.arange(after) * dead)
    return np.concatenate(parts).astype(np.int64), dead


# (before, cluster, after): the even point of 2 parts, index n // 2 of the
# n tags from -1 ps on, falls at the cluster's first tag, one tag before it,
# inside it, at its last tag, one tag after it, inside a cluster longer than
# the first scan of 1024 gaps, inside a cluster that runs to the end (no cut
# is found), and where there is no cluster
_CLUSTERS = [(1000, 500, 500), (1001, 500, 499), (500, 1000, 500), (0, 1001, 999),
             (0, 1000, 1000), (100, 3000, 200), (1000, 3000, 0), (2000, 0, 2000)]


@pytest.mark.parametrize("before, cluster, after", _CLUSTERS)
def test_threaded_dead_time_matches_serial(workers, before, cluster, after, monkeypatch):
    tags, dead = _with_cluster(before, cluster, after)
    want = _oracle_dead_time(tags, dead)
    assert np.array_equal(serial(dead_time_mask, tags, dead), want)
    monkeypatch.setattr(_kernels, "_DEAD_TIME_PART", 100)
    monkeypatch.setattr(_kernels, "_GAP_CHUNK", 7)
    starts = []
    part = _kernels._dead_time_part
    monkeypatch.setattr(_kernels, "_dead_time_part",
                        lambda t, d, kept: starts.append(int(t[0])) or part(t, d, kept))
    assert np.array_equal(dead_time_mask(tags, dead), want)
    # every part starts with a kept tag, the first part at the first tag
    # from -1 ps on; with 2 parts the cut is the first tag at or after the
    # even point whose gap to its predecessor is at least the dead time
    t = tags[tags >= -1]
    assert starts == sorted(set(starts)) and starts[0] == t[0]
    assert all(want[np.searchsorted(tags, starts)])
    if workers == 2:
        gap_kept = np.flatnonzero(np.diff(t) >= dead) + 1
        cut = gap_kept[gap_kept >= len(t) // 2][:1]
        assert starts == [t[0]] + t[cut].tolist()
        assert len(starts) == (1 if (after, cluster) == (0, 3000) else 2)
    else:
        assert len(starts) == workers or (workers == 3 and after == 0)


def test_small_dead_time_inputs_build_no_pool(monkeypatch):
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
    tags = np.arange(2 * _kernels._DEAD_TIME_PART - 1, dtype=np.int64)
    assert dead_time_mask(tags, 2).sum() == _kernels._DEAD_TIME_PART


def test_map_blocks_in_order_on_the_pool_and_serial_off_the_main_thread(monkeypatch):
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 3)

    def where(lo, hi):
        return lo, hi, threading.current_thread() is threading.main_thread()
    assert _kernels._map_blocks(where, 7) == [(0, 2, False), (2, 4, False), (4, 7, False)]
    assert _kernels._map_blocks(where, 1) == [(0, 1, True)]
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
    out = []
    thread = threading.Thread(target=lambda: out.append(_kernels._map_blocks(where, 7)))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert out == [[(0, 7, False)]]


def test_blocks_under_thread_switching(monkeypatch):
    # more workers than cores and a short switch interval: the parts write
    # disjoint slices of one mask and the blocks their own counts
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(_kernels, "PAIR_CHUNK", 97)
    monkeypatch.setattr(_kernels, "_DEAD_TIME_PART", 500)
    monkeypatch.setattr(_kernels, "_GAP_CHUNK", 61)
    rng = np.random.default_rng(11)
    a, b = _bursts(rng, 2_000, 2_000_000), _bursts(rng, 2_000, 2_000_000)
    want_mask = serial(dead_time_mask, a, 300)
    want_counts = serial(pair_histogram, a, b, -2_000, 2_000, 50)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert np.array_equal(dead_time_mask(a, 300), want_mask)
            assert np.array_equal(pair_histogram(a, b, -2_000, 2_000, 50), want_counts)
    finally:
        sys.setswitchinterval(interval)


def test_public_kernels_stay_on_calling_thread(monkeypatch):
    # perfbench swaps these names for tracer wrappers, which are not
    # thread-safe: the workers must run the private block functions only
    calls = []

    def on_calling_thread(fn):
        def check(*args, **kwargs):
            assert threading.current_thread() is threading.main_thread()
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return check

    for module, name in [(_kernels, "pair_histogram"), (_kernels, "dead_time_mask"),
                         (tagcorr, "pair_histogram")]:
        monkeypatch.setattr(module, name, on_calling_thread(getattr(module, name)))
    submitted = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(self)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_kernels, "PAIR_CHUNK", 256)
    monkeypatch.setattr(_kernels, "_DEAD_TIME_PART", 256)
    rng = np.random.default_rng(5)
    a, b = (montecarlo.TagStream(k, np.sort(rng.integers(0, 10 ** 9, 5_000)), 1e-3)
            for k in range(2))
    tagcorr.coincidence_histogram(a, b, 100, (-10_000, 10_000))
    tagcorr.auto_correlation_histogram(a, 100, (0, 10_000))
    _kernels.dead_time_mask(b.tags, 50_000)
    assert calls == ["pair_histogram", "pair_histogram", "dead_time_mask"]
    # one pool per call, one block per worker
    assert len(submitted) == 6 and len({id(pool) for pool in submitted}) == 3
