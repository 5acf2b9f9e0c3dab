"""Coincidence analysis of time-tag streams.

The correlator counts ordered pairs (t_a, t_b) with tau = t_b - t_a inside a
half-open window [tau_min, tau_max) with `_kernels.pair_histogram`. The
start of each tag's window in the sorted second stream comes from one
stable sort per chunk, which merges the chunk's shifted tags with the span
of the second stream they fall in; where that span is much denser than the
chunk (`_kernels._MERGE_DENSITY`), a searchsorted per tag finds it instead.
The pairs are binned while the window is stepped from there, so the tags
with an empty window drop out in the first round; only tags with more than
a few partners search for the window's end.
The auto-correlation does no search: a tag's window starts at the next tag,
and the pairs of equal timestamps, all at tau = 0, are counted in closed
form. The kernel takes the first stream in chunks of
`_kernels.PAIR_CHUNK` tags, so its temporaries stay bounded, and runs
contiguous blocks of chunks on the block pool of `_kernels._map_blocks`,
one worker per usable CPU, each with its own counts; the call itself stays
on the calling thread, and the summed counts are the same for any number
of workers.
Bins are half-open [lower, upper), tau sign is t_b - t_a, and histograms are
never symmetrized.

Large jobs can be split over disjoint time slices of the first stream with
an overlap margin of the window width on the second; the per-slice
histograms sum to exactly the single-pass result (each ordered pair lands in
exactly one slice), which is what `coincidence_histogram_sliced` does and
the test suite verifies bin-for-bin. It puts the chunks of all its slices
through one pool call, not one `pair_histogram` per slice.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import (PAIR_CHUNK, _check_span, _map_blocks, _pair_counts, is_sorted,
                       pair_histogram)
from .fock import UndefinedCorrelationError


@dataclass(frozen=True)
class CoincidenceHistogram:
    """tau-binned pair counts; bins tile [tau_min, tau_max) exactly."""

    bin_width_ps: int
    tau_min_ps: int
    tau_max_ps: int
    counts: np.ndarray
    acquisition_time_s: float
    singles: dict

    @property
    def n_bins(self):
        return len(self.counts)

    def bin_centers_ps(self):
        return self.tau_min_ps + self.bin_width_ps * (np.arange(self.n_bins) + 0.5)


@dataclass(frozen=True)
class CorrelationResult:
    g2: float
    sigma: float
    peak_bin_range: tuple
    baseline_bin_count: int

    def __post_init__(self):
        if self.g2 < 0 or self.sigma < 0:
            raise ValueError("g2 and sigma must be >= 0")


@dataclass(frozen=True)
class RateMetrics:
    s_hz: float
    n_hz: float
    snr: float
    eta_ext: float
    eta_int: float
    low_signal: bool = False


def _validate_window(bin_width_ps, tau_range, min_bins=3):
    tau_min, tau_max = int(tau_range[0]), int(tau_range[1])
    bin_width = int(bin_width_ps)
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    if tau_max <= tau_min:
        raise ValueError("degenerate tau range")
    if (tau_max - tau_min) % bin_width != 0:
        raise ValueError("tau range must be an integer number of bins")
    n_bins = (tau_max - tau_min) // bin_width
    if n_bins < min_bins:
        raise ValueError(f"tau range must span at least {min_bins} bins")
    return tau_min, tau_max, bin_width


def _check_sorted(tags):
    if not is_sorted(tags):
        raise ValueError("tag stream is not sorted")


def coincidence_histogram(a, b, bin_width_ps, tau_range):
    """Cross-correlation histogram between two streams.

    Counts every ordered pair with tau = t_b - t_a in [tau_min, tau_max),
    binned as (tau - tau_min) // bin_width. Identical-channel input is
    accepted; pairs at tau = 0 then land in the bin containing zero.
    """
    tau_min, tau_max, bin_width = _validate_window(bin_width_ps, tau_range)
    _check_sorted(a.tags)
    _check_sorted(b.tags)
    counts = pair_histogram(a.tags, b.tags, tau_min, tau_max, bin_width)
    return CoincidenceHistogram(bin_width, tau_min, tau_max, counts,
                                max(a.duration_s, b.duration_s),
                                {"a": len(a.tags), "b": len(b.tags)})


def coincidence_histogram_sliced(a, b, bin_width_ps, tau_range, n_slices):
    """Slice-parallel form of coincidence_histogram; exactly equal results.

    The first stream is partitioned into n_slices contiguous time windows;
    the second is cut with a margin of the tau window so no pair is lost or
    double-counted. Summing the per-slice histograms reproduces the
    single-pass computation bin-for-bin. The chunks of every slice go
    through one call of the block pool, each counted against its slice's
    span of the second stream by `_kernels._pair_counts`.
    """
    tau_min, tau_max, bin_width = _validate_window(bin_width_ps, tau_range)
    _check_sorted(a.tags)
    _check_sorted(b.tags)
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    _check_span(a.tags, b.tags, tau_min, tau_max)   # before a_k + tau_min can wrap
    n_bins = (tau_max - tau_min) // bin_width
    # integer ps edges ending where TagStream bounds its tags
    edges = [a.duration_ps * k // n_slices for k in range(n_slices + 1)]
    chunks = []     # (slice of a, its span of b, first tag of the chunk)
    for k in range(n_slices):
        a_lo, a_hi = np.searchsorted(a.tags, [edges[k], edges[k + 1]])
        if a_lo == a_hi:
            continue
        a_k = a.tags[a_lo:a_hi]
        b_lo = np.searchsorted(b.tags, a_k[0] + tau_min)
        b_hi = np.searchsorted(b.tags, a_k[-1] + tau_max)
        if b_lo < b_hi:
            chunks += [(a_k, b.tags[b_lo:b_hi], first)
                       for first in range(0, len(a_k), PAIR_CHUNK)]
    window = (np.int64(tau_min), np.int64(tau_max) - np.int64(tau_min), np.int64(bin_width))

    def block(lo, hi):
        counts = np.zeros(n_bins, dtype=np.int64)
        for a_k, b_k, first in chunks[lo:hi]:
            counts += _pair_counts(a_k, b_k, first, min(first + PAIR_CHUNK, len(a_k)),
                                   PAIR_CHUNK, *window, False)
        return counts

    total = np.zeros(n_bins, dtype=np.int64)
    for part in _map_blocks(block, len(chunks)):
        total += part
    return CoincidenceHistogram(bin_width, tau_min, tau_max, total,
                                max(a.duration_s, b.duration_s),
                                {"a": len(a.tags), "b": len(b.tags)})


def auto_correlation_histogram(a, bin_width_ps, tau_range):
    """Delay histogram of distinct tag pairs within one stream.

    Positive-tau convention: tau_range must lie in [0, inf). Self-pairs (a
    tag with itself) are excluded; distinct tags at equal timestamps count.
    Dead-time suppression near tau = 0 shows up as a notch and is reported
    as-is, never corrected.
    """
    tau_min, tau_max, bin_width = _validate_window(bin_width_ps, tau_range)
    if tau_min < 0:
        raise ValueError("auto-correlation uses the positive-tau convention")
    _check_sorted(a.tags)
    counts = pair_histogram(a.tags, a.tags, tau_min, tau_max, bin_width,
                            exclude_self=True)
    return CoincidenceHistogram(bin_width, tau_min, tau_max, counts,
                                a.duration_s, {"a": len(a.tags), "b": len(a.tags)})


def _auto_peak_bins(counts):
    """Contiguous run of bins around the maximum at half prominence."""
    imax = int(np.argmax(counts))
    base = float(np.median(counts))
    half = base + 0.5 * (counts[imax] - base)
    if counts[imax] <= base:
        return imax, imax  # flat histogram; single-bin fallback
    lo = imax
    while lo > 0 and counts[lo - 1] >= half:
        lo -= 1
    hi = imax
    while hi < len(counts) - 1 and counts[hi + 1] >= half:
        hi += 1
    return lo, hi


_BASELINE_GAP_FWHM = 5.0


def g2_from_histogram(hist, peak_window=None):
    """Normalized correlation: mean peak-bin rate over mean baseline rate.

    peak_window: explicit (lo_ps, hi_ps) tau window, or None to use the
    contiguous bins within the half-maximum of the tallest peak (single
    max bin if no prominence). Baseline bins are those farther than 5 peak
    widths from the peak center, so peak tails cannot bias the reference;
    if that leaves none, all non-peak bins are used. The quoted sigma is
    Poisson propagation g2 * sqrt(1/C_peak + 1/C_base) (peak and baseline
    counts are disjoint, so no covariance term).
    """
    counts = hist.counts
    centers = hist.bin_centers_ps()
    if peak_window is not None:
        lo_ps, hi_ps = peak_window
        if lo_ps < hist.tau_min_ps or hi_ps > hist.tau_max_ps:
            raise ValueError("peak window outside the histogram range")
        peak_mask = (centers >= lo_ps) & (centers <= hi_ps)
        if not peak_mask.any():
            raise ValueError("peak window contains no bins")
        idx = np.nonzero(peak_mask)[0]
        lo, hi = int(idx[0]), int(idx[-1])
    else:
        lo, hi = _auto_peak_bins(counts)
        peak_mask = np.zeros(hist.n_bins, dtype=bool)
        peak_mask[lo:hi + 1] = True

    peak_center = 0.5 * (centers[lo] + centers[hi])
    width = max(float(centers[hi] - centers[lo] + hist.bin_width_ps),
                float(hist.bin_width_ps))
    base_mask = np.abs(centers - peak_center) > _BASELINE_GAP_FWHM * width
    base_mask &= ~peak_mask
    if not base_mask.any():
        base_mask = ~peak_mask
    if not base_mask.any():
        raise ValueError("no baseline bins outside the peak window")

    c_peak = float(counts[peak_mask].sum())
    c_base = float(counts[base_mask].sum())
    if c_base == 0:
        raise UndefinedCorrelationError("baseline has zero counts")
    g2 = (c_peak / peak_mask.sum()) / (c_base / base_mask.sum())
    sigma = g2 * np.sqrt(1.0 / c_peak + 1.0 / c_base) if c_peak > 0 else 0.0
    return CorrelationResult(g2, float(sigma),
                             (int(centers[lo] - hist.bin_width_ps / 2),
                              int(centers[hi] + hist.bin_width_ps / 2)),
                             int(base_mask.sum()))


def cauchy_schwarz_test(cross, auto_a=2.0, auto_b=2.0):
    """Classicality bound check: cross g2 against sqrt(auto_a * auto_b).

    Defaults bound both auto-correlations by the thermal value 2. Returns
    (violated, sigma_violation) where violation requires strictly exceeding
    the bound and sigma_violation = (g2 - bound) / sigma.
    """
    if auto_a <= 0 or auto_b <= 0:
        raise ValueError("auto-correlation bounds must be positive")
    if cross.sigma <= 0:
        raise ValueError("cross-correlation sigma must be positive")
    bound = float(np.sqrt(auto_a * auto_b))
    sigma_violation = (cross.g2 - bound) / cross.sigma
    return cross.g2 > bound, sigma_violation


def _as_rate(x):
    if hasattr(x, "rate_hz"):
        return x.rate_hz
    return float(x)


def rate_metrics(with_input, without_input, flux_hz, losses, mode_matching=None,
                 with_etalon=False):
    """Detection-rate summary: SNR and external/internal efficiencies.

    Accepts TagStreams or plain rates. snr = S/N; eta_ext =
    (S - N) / (flux * eta_loss); eta_int = eta_ext / mode_matching. When the
    input makes no measurable difference (S < N) the efficiencies clamp to
    zero and the low_signal flag is set instead of going negative.
    """
    s = _as_rate(with_input)
    n = _as_rate(without_input)
    if flux_hz <= 0:
        raise ValueError("flux must be positive")
    if n <= 0:
        raise ValueError("noise rate must be positive for an SNR")
    if mode_matching is None:
        mode_matching = losses.mode_matching
    low = s < n
    if low:
        warnings.warn("rate with input below rate without input; efficiencies clamped to 0",
                      stacklevel=2)
        eta_ext = 0.0
    else:
        eta_ext = (s - n) / (flux_hz * losses.eta_loss(with_etalon))
    return RateMetrics(s, n, s / n, eta_ext, eta_ext / mode_matching, low)


def power_law_fit(points, subtract_floor=0.0):
    """Least-squares slope of log(rate - floor) against log(power).

    Returns (exponent, standard_error). Points that go nonpositive after
    floor subtraction are dropped with a warning; fewer than three
    surviving points is an error.
    """
    pts = [(float(p), float(r)) for p, r in points]
    if len(pts) < 3:
        raise ValueError("need at least three points")
    if any(p <= 0 for p, _ in pts):
        raise ValueError("powers must be positive")
    kept = [(p, r - subtract_floor) for p, r in pts if r - subtract_floor > 0]
    if len(kept) < len(pts):
        warnings.warn(f"dropped {len(pts) - len(kept)} nonpositive points after "
                      "floor subtraction", stacklevel=2)
    if len(kept) < 3:
        raise ValueError("fewer than three points survive floor subtraction")
    x = np.log([p for p, _ in kept])
    y = np.log([r for _, r in kept])
    n = len(x)
    xm = x - x.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ y) / sxx
    resid = y - y.mean() - slope * xm
    if n > 2:
        stderr = math.sqrt(float(resid @ resid) / (n - 2) / sxx)
    else:
        stderr = 0.0
    return slope, stderr
