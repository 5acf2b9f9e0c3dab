"""Hot inner loops: pair-window histogramming and detector dead time.

Each kernel has a single vectorized numpy implementation. Both are exact:
integer picosecond arithmetic throughout, with slow reference versions kept
in ``acceptance.py`` (``_oracle_outer``/``_oracle_edges`` for the pair
histogram, ``_oracle_dead_time`` for the dead-time filter) and checked by
the acceptance battery and the property tests.

`pair_histogram` runs one searchsorted per tag for the first partner of its
window and bins the pairs while it steps through the window: a tag whose
window is empty drops out in the first round, and only the rare tags whose
window holds more than a few partners search for its end and gather the
rest. The auto-correlation at tau_min == 0 needs no search at all: tag i's
window starts at index i + 1, and the ordered pairs j < i of equal
timestamps, all at tau = 0, are added to bin 0 as the sum of L(L+1)/2 over
the runs of L consecutive ties. The first stream is processed in chunks of
PAIR_CHUNK tags, so the per-tag temporaries are sized by the chunk, not by
the stream.
"""

import numpy as np

PAIR_CHUNK = 1 << 18    # tags of a per pass of pair_histogram: bounds its temporaries
_STEP_ROUNDS = 4        # stepping rounds after the first partner, before the fallback


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


def pair_histogram(a, b, tau_min, tau_max, bin_width, exclude_self=False):
    """Histogram of the ordered pairs (i, j) with tau = b[j] - a[i] in
    [tau_min, tau_max), binned as (tau - tau_min) // bin_width.

    a and b are sorted int64 ps and the window is a whole number of bins.
    The tags of a go in chunks of PAIR_CHUNK. Per chunk, one searchsorted
    gives lo, the first b at or after a + tau_min. The pairs are binned by
    bincount while each window is stepped: round 0 bins the pair (i, lo)
    of the tags with b[lo] < a + tau_max and drops the rest, and each of
    the _STEP_ROUNDS rounds after it moves lo on by one and bins the pairs
    still inside the window. Only the tags still inside it after the last
    round, those with _STEP_ROUNDS + 1 partners or more, search for the
    window's end and gather their remaining pairs by flat index into b.

    exclude_self skips the pairs with i == j and needs ``b is a`` and
    tau_min >= 0; anything else raises ValueError. For tau_min > 0 no
    self-pair is in the window. For tau_min == 0 the window of tag i starts
    at index i + 1 without a search, and the ordered tie pairs j < i, all at
    tau = 0, go to bin 0 in closed form (`_tie_pairs`).
    """
    if exclude_self and (b is not a or tau_min < 0):
        raise ValueError("exclude_self needs b to be a and tau_min >= 0")
    tau_min, width = np.int64(tau_min), np.int64(tau_max) - np.int64(tau_min)
    bin_width = np.int64(bin_width)
    nbins = int(width // bin_width)
    counts = np.zeros(nbins, dtype=np.int64)
    if len(a) == 0 or len(b) == 0:
        return counts
    after_self = exclude_self and tau_min == 0
    if after_self:
        counts[0] += _tie_pairs(a)
    for start in range(0, len(a), PAIR_CHUNK):
        t = a[start:start + PAIR_CHUNK] + tau_min
        if after_self:
            lo = np.arange(start + 1, start + 1 + len(t))
        else:
            # every lo of the chunk lies in [off, stop]: search that span only
            off, stop = np.searchsorted(b, t[[0, -1]], side="left")
            lo = np.searchsorted(b[off:stop], t, side="left")
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
    """
    dead = int(dead_ps)
    keep = np.zeros(len(tags), dtype=np.bool_)
    first = int(np.searchsorted(tags, -1, side="left"))
    t = tags[first:]
    kept = keep[first:]
    kept[:1] = True
    kept[1:] = np.diff(t) >= dead
    # a tag kept by its gap whose successor is also kept by its gap is a
    # cluster of one; only members of longer clusters need chain following
    lone = kept.copy()
    lone[:-1] &= kept[1:]
    idx = np.flatnonzero(~lone)
    if len(idx) == 0:
        return keep
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
    return keep


def backend_name():
    return "numpy"
