"""Properties of the vectorized kernels against their slow oracles: the
dead-time filter against the sequential one, the pair histogram against the
all-pairs outer difference, also with its stepping rounds and chunks cut
short so that every round boundary and chunk edge is crossed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfclab import _kernels
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
