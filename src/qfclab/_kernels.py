"""Hot inner loops: pair-window histogramming and detector dead time.

Each kernel has a single vectorized numpy implementation. Both are exact:
integer picosecond arithmetic throughout, with slow reference versions kept
in ``acceptance.py`` (``_oracle_outer``/``_oracle_edges`` for the pair
histogram, ``_oracle_dead_time`` for the dead-time filter) and checked by
the acceptance battery and the property tests.
"""

import numpy as np


def is_sorted(tags):
    """True when the timestamps never decrease (one slice comparison, no
    np.diff temporary)."""
    return not np.any(tags[1:] < tags[:-1])


def pair_histogram(a, b, tau_min, tau_max, bin_width, exclude_self=False):
    """Windowed pair histogram via searchsorted + ragged gather.

    Counts ordered pairs (i, j) with tau = b[j] - a[i] in [tau_min, tau_max),
    binned as (tau - tau_min) // bin_width. When exclude_self is set, a and b
    must be the same array and pairs with i == j are skipped.
    """
    tau_min, tau_max = np.int64(tau_min), np.int64(tau_max)
    bin_width = np.int64(bin_width)
    nbins = int((tau_max - tau_min) // bin_width)
    counts = np.zeros(nbins, dtype=np.int64)
    if len(a) == 0 or len(b) == 0:
        return counts
    chunk = 1_000_000
    for start in range(0, len(a), chunk):
        aa = a[start:start + chunk]
        lo = np.searchsorted(b, aa + tau_min, side="left")
        hi = np.searchsorted(b, aa + tau_max, side="left")
        n = hi - lo
        total = int(n.sum())
        if total == 0:
            continue
        # flat indices of all matching b entries for every a in this chunk
        rep = np.repeat(np.arange(len(aa)), n)
        offs = np.arange(total) - np.repeat(np.cumsum(n) - n, n)
        j = np.repeat(lo, n) + offs
        tau = b[j] - aa[rep]
        if exclude_self:
            keep = j != (rep + start)
            tau = tau[keep]
        bins = (tau - tau_min) // bin_width
        counts += np.bincount(bins, minlength=nbins).astype(np.int64)
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
