"""Hot inner loops: pair-window histogramming and detector dead time.

Each kernel has a single vectorized numpy implementation. Both are exact:
integer picosecond arithmetic throughout, with slow reference versions kept
in ``acceptance.py`` (``_oracle_outer``/``_oracle_edges`` for the pair
histogram, ``_oracle_dead_time`` for the dead-time filter) and checked by
the acceptance battery and the property tests.

`pair_histogram` finds the first partner of each window by merging a chunk
of tags with its span of the second stream in one stable sort (a tag's
rank is its merged position minus its index), and keeps a searchsorted per
tag only where the span is more than _MERGE_DENSITY times denser than the
chunk. It bins the pairs while it steps through the window: a tag whose
window is empty drops out in the first round, and only the rare tags whose
window holds more than a few partners search for its end and gather the
rest. The auto-correlation at tau_min == 0 needs no search at all: tag i's
window starts at index i + 1, and the ordered pairs j < i of equal
timestamps, all at tau = 0, are added to bin 0 as the sum of L(L+1)/2 over
the runs of L consecutive ties. The first stream is processed in chunks of
PAIR_CHUNK tags, so the per-tag temporaries are sized by the chunk, not by
the stream.

Both kernels run on one block pool, `_map_blocks`: a thread pool of at most
one worker per CPU this process may use, each worker taking one contiguous
block of the work, where numpy releases the GIL. `pair_histogram` hands each
worker a block of chunks with its own int64 counts; `dead_time_mask` cuts
the stream at tags that are always kept and masks each part on its own. The
results are exact integers and masks, so they do not depend on the number
of workers. The public calls stay on the calling thread and the workers run
private functions only; called off the main thread, the pool runs its one
block serially, so pools never nest.
"""

import os
import threading

import numpy as np

PAIR_CHUNK = 1 << 16        # tags of `a` per pair_histogram chunk: bounds its temporaries
_STEP_ROUNDS = 4            # stepping rounds after the first partner, before the fallback
_MERGE_DENSITY = 5          # span tags per chunk tag above which `_ranks` searches: the break-even
_DEAD_TIME_PART = 1 << 18   # fewest tags in a dead_time_mask part: shorter runs stay serial
_GAP_CHUNK = 1 << 16        # gaps per pass of a dead_time_mask part: bounds its temporaries
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(fn, n):
    """[fn(lo, hi)] over min(n, _usable_cpus()) contiguous blocks of range(n),
    in block order, each block on a worker of one thread pool.

    With one worker, or called off the main thread, it returns [fn(0, n)]
    and builds no pool, so pools never nest.
    """
    workers = min(n, _usable_cpus())
    if workers <= 1 or threading.current_thread() is not threading.main_thread():
        return [fn(0, n)]
    # imported here, not with the module: a process that never fills a pool
    # is spared its ~0.6 MiB (logging comes with it)
    from concurrent.futures import ThreadPoolExecutor

    bounds = [j * n // workers for j in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        return [f.result() for f in futures]


def is_sorted(tags):
    """True when the timestamps never decrease (one slice comparison, no
    np.diff temporary)."""
    return not np.any(tags[1:] < tags[:-1])


def _tie_pairs(tags):
    """Ordered pairs j < i with tags[j] == tags[i] in sorted tags: the sum of
    L(L+1)/2 over the runs of L consecutive ``tags[1:] == tags[:-1]``."""
    eq = np.flatnonzero(tags[1:] == tags[:-1])
    if len(eq) == 0:
        return 0
    breaks = np.flatnonzero(np.diff(eq) != 1) + 1
    runs = np.diff(np.concatenate(([0], breaks, [len(eq)])))
    return int((runs * (runs + 1) // 2).sum())


def _check_span(a, b, tau_min, tau_max):
    """pair_histogram's domain check, in Python ints on the end tags."""
    if len(a) and len(b):
        lowest = min(int(a[0]) + int(tau_min), int(b[0]))
        highest = max(int(a[-1]) + int(tau_max), int(b[-1]))
        if lowest < _INT64_MIN or highest > _INT64_MAX or highest - lowest > _INT64_MAX:
            raise ValueError(f"a + tau_min, a + tau_max and b span [{lowest}, {highest}] "
                             "ps; they must lie in int64 and less than 2**63 ps apart")


def pair_histogram(a, b, tau_min, tau_max, bin_width, exclude_self=False):
    """Histogram of the ordered pairs (i, j) with tau = b[j] - a[i] in
    [tau_min, tau_max), binned as (tau - tau_min) // bin_width.

    a and b are sorted int64 ps and the window is a whole number of bins.
    The values a + tau_min, a + tau_max and b must lie in int64 and less
    than 2**63 ps apart, so that no difference the kernel takes wraps;
    anything else raises ValueError (checked on the end tags). The tags of
    a go in chunks of PAIR_CHUNK, and the chunks in contiguous blocks on
    the pool (`_map_blocks`); each block keeps its own int64 counts, and
    the blocks' counts are summed in block order. Per chunk, `_ranks`
    gives lo, the first b at or after a + tau_min: a stable sort merges the
    chunk with the span of b its windows start in, or, where that span
    holds more than _MERGE_DENSITY tags per chunk tag, a searchsorted per
    tag finds lo. The pairs are binned by bincount while each window is
    stepped: round 0 bins the pair (i, lo) of the tags with
    b[lo] < a + tau_max and drops the rest, and each of the _STEP_ROUNDS
    rounds after it moves lo on by one and bins the pairs still inside the
    window. Only the tags still inside it after the last round, those with
    _STEP_ROUNDS + 1 partners or more, search for the window's end and
    gather their remaining pairs by flat index into b.

    exclude_self skips the pairs with i == j and needs ``b is a`` and
    tau_min >= 0; anything else raises ValueError. For tau_min > 0 no
    self-pair is in the window. For tau_min == 0 the window of tag i starts
    at index i + 1 without a search, and the ordered tie pairs j < i, all at
    tau = 0, go to bin 0 in closed form (`_tie_pairs`, on the calling
    thread).
    """
    if exclude_self and (b is not a or tau_min < 0):
        raise ValueError("exclude_self needs b to be a and tau_min >= 0")
    _check_span(a, b, tau_min, tau_max)
    tau_min, width = np.int64(tau_min), np.int64(tau_max) - np.int64(tau_min)
    bin_width = np.int64(bin_width)
    counts = np.zeros(int(width // bin_width), dtype=np.int64)
    if len(a) == 0 or len(b) == 0:
        return counts
    after_self = exclude_self and tau_min == 0
    if after_self:
        counts[0] += _tie_pairs(a)
    chunk = PAIR_CHUNK

    def block(lo, hi):
        return _pair_counts(a, b, lo * chunk, min(hi * chunk, len(a)), chunk,
                            tau_min, width, bin_width, after_self)

    for part in _map_blocks(block, -(-len(a) // chunk)):
        counts += part
    return counts


def _pair_counts(a, b, start, stop, chunk, tau_min, width, bin_width, after_self):
    """The pair counts of the tags a[start:stop], in chunks of ``chunk``
    tags: one block of `pair_histogram`, which states the method."""
    nbins = int(width // bin_width)
    counts = np.zeros(nbins, dtype=np.int64)
    for first in range(start, stop, chunk):
        t = a[first:min(first + chunk, stop)] + tau_min
        if after_self:
            lo = np.arange(first + 1, first + 1 + len(t))
        else:
            # every lo of the chunk lies in [off, end]: rank t in that span only
            off, end = np.searchsorted(b, t[[0, -1]], side="left")
            lo = _ranks(t, b[off:end])
            lo += off
        for _ in range(_STEP_ROUNDS + 1):
            # lo never decreases, so the windows that have run past b are a suffix
            inside = int(np.searchsorted(lo, len(b)))
            rel = b[lo[:inside]] - t[:inside]
            live = np.flatnonzero(rel < width)
            counts += np.bincount(rel[live] // bin_width, minlength=nbins)
            lo, t = lo[live] + 1, t[live]
        n = np.searchsorted(b, t + width, side="left") - lo
        starts = np.cumsum(n) - n
        j = np.arange(int(n.sum())) + np.repeat(lo - starts, n)
        counts += np.bincount((b[j] - np.repeat(t, n)) // bin_width, minlength=nbins)
    return counts


def _ranks(t, s):
    """np.searchsorted(s, t, side="left") for sorted int64 t and s, every s
    in [t[0], t[-1]] and t[-1] - t[0] < 2**63.

    With at most _MERGE_DENSITY tags of s per tag of t, the ranks come from
    one merge: the chunk-relative uint64 keys 2 (t - t[0]) and
    2 (s - t[0]) + 1 put each t before the s of equal value (the "left"
    rule), a stable sort (timsort) merges the two sorted runs in linear
    time, and the position of the i-th even key minus i is the rank of
    t[i]. Denser s is searched, since the merge reads all of it. The keys
    are a fresh array per call: freed before the window is stepped, their
    memory serves its temporaries (a key array kept for a whole block
    raised tag_analysis' peak RSS twice as much).
    """
    n, m = len(t), len(s)
    if m > _MERGE_DENSITY * n:
        return np.searchsorted(s, t, side="left")
    keys = np.empty(n + m, np.uint64)
    # differences taken in uint64 wrap back to the exact offsets below 2**63
    t0 = t[:1].view(np.uint64)
    np.subtract(t.view(np.uint64), t0, out=keys[:n])
    np.subtract(s.view(np.uint64), t0, out=keys[n:])
    keys <<= 1
    keys[n:] |= 1
    keys.sort(kind="stable")
    keys &= 1
    ranks = np.flatnonzero(keys == 0)
    ranks -= np.arange(n)
    return ranks


def dead_time_mask(tags, dead_ps):
    """Keep-mask of a non-paralyzable dead time applied to sorted int64 tags.

    A tag is kept when it comes at least ``dead_ps`` after the last kept tag;
    the detector starts ready at ``-1 - dead_ps``, so the first kept tag is
    the first one at or after -1 ps. ``tags + dead_ps`` must fit in int64.

    The kept set is the orbit of the first kept tag under
    ``nxt(i) = searchsorted(tags, tags[i] + dead_ps)``. A tag whose gap to its
    predecessor is at least ``dead_ps`` is always kept, so the stream splits
    into clusters of closer tags, each starting with a kept tag, and a chain
    leaves its cluster only by landing on the next cluster's first tag. The
    chains of all clusters are followed at once by pointer doubling:
    O(n log L) for a longest chain of L kept tags.

    A stream of at least 2 * _DEAD_TIME_PART tags from -1 ps on is cut into
    one part per worker, each cut at the first cluster start at or after an
    even point, and the parts are masked on the pool (`_map_blocks`). A
    part starts with a kept tag and its chains end at its last tag, so the
    parts' masks join into the mask of the whole stream.
    """
    dead = int(dead_ps)
    keep = np.zeros(len(tags), dtype=np.bool_)
    first = int(np.searchsorted(tags, -1, side="left"))
    t = tags[first:]
    kept = keep[first:]
    parts = min(_usable_cpus(), len(t) // _DEAD_TIME_PART)
    cuts = [0]
    for k in range(1, parts):
        cut = _cluster_start(t, max(k * len(t) // parts, cuts[-1] + 1), dead)
        if cut < len(t):
            cuts.append(cut)
    cuts.append(len(t))

    def block(lo, hi):
        i, j = cuts[lo], cuts[hi]
        _dead_time_part(t[i:j], dead, kept[i:j])

    _map_blocks(block, len(cuts) - 1)
    return keep


def _cluster_start(t, p, dead):
    """The first index q >= p of t, p >= 1, whose gap t[q] - t[q-1] is at
    least dead; len(t) if there is none. The scan grows by doubling, so it
    reads little more than the gaps before q."""
    step = 1024
    while p < len(t):
        gaps = np.flatnonzero(np.diff(t[p - 1:p + step]) >= dead)
        if len(gaps):
            return p + int(gaps[0])
        p += step
        step *= 2
    return len(t)


def _dead_time_part(t, dead, kept):
    """Writes into ``kept`` the keep-mask of the tags t, whose first tag is
    kept: one part of `dead_time_mask`, which states the method."""
    kept[:1] = True
    # gaps by chunks: on a worker thread, a part-sized int64 temporary would
    # stay in the thread's malloc arena and raise the process's peak RSS
    for i in range(1, len(t), _GAP_CHUNK):
        np.greater_equal(np.diff(t[i - 1:i + _GAP_CHUNK]), dead, out=kept[i:i + _GAP_CHUNK])
    # a tag kept by its gap whose successor is also kept by its gap is a
    # cluster of one; only members of longer clusters need chain following
    lone = kept.copy()
    lone[:-1] &= kept[1:]
    idx = np.flatnonzero(~lone)
    if len(idx) == 0:
        return
    # jump table over positions in idx, ending in a sink: a chain that leaves
    # its cluster lands on the next cluster's first tag, which is kept anyway
    sink = len(idx)
    starts = np.flatnonzero(kept[idx])
    ends = np.repeat(np.append(starts[1:], sink), np.diff(starts, append=sink))
    # members of a cluster are contiguous in idx, so positions shift as indices do
    nxt = np.searchsorted(t, t[idx] + dead, side="left")
    jump = np.arange(sink) + (nxt - idx)
    g = np.append(np.where(jump < ends, jump, sink), sink)
    frontier = starts[g[starts] != sink]
    # after k rounds g jumps 2^k steps and frontier holds every chain member
    # found so far whose jump has not yet run into the sink
    while len(frontier):
        reached = g[frontier]
        kept[idx[reached]] = True
        g = g[g]
        frontier = np.concatenate([frontier, reached])
        frontier = frontier[g[frontier] != sink]


def backend_name():
    return "numpy"
