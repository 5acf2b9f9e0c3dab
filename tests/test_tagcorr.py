import warnings

import numpy as np
import pytest

from qfclab.fock import UndefinedCorrelationError
from qfclab.montecarlo import TagStream
from qfclab.tagcorr import (CoincidenceHistogram, CorrelationResult,
                            auto_correlation_histogram, cauchy_schwarz_test,
                            coincidence_histogram, coincidence_histogram_sliced,
                            g2_from_histogram, power_law_fit, rate_metrics)
from qfclab.config import bundled_losses


def stream(tags, duration_s=1.0, channel=0):
    return TagStream(channel, np.asarray(tags, dtype=np.int64), duration_s)


def poisson_stream(rate_hz, duration_s, seed, channel=0):
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate_hz * duration_s)
    return stream(np.sort(rng.integers(0, int(duration_s * 1e12), n)),
                  duration_s, channel)


def brute_force(a, b, tau_min, tau_max, bin_width):
    nbins = (tau_max - tau_min) // bin_width
    counts = np.zeros(nbins, dtype=np.int64)
    for ta in a:
        for tb in b:
            tau = tb - ta
            if tau_min <= tau < tau_max:
                counts[(tau - tau_min) // bin_width] += 1
    return counts


class TestHistogram:
    def test_single_pair(self):
        hist = coincidence_histogram(stream([0]), stream([100]), 165, (-825, 825))
        assert hist.counts.sum() == 1
        assert hist.counts[(100 + 825) // 165] == 1

    def test_identical_streams_zero_bin(self):
        s = stream([10, 500, 900])
        hist = coincidence_histogram(s, s, 165, (-825, 825))
        zero_bin = (0 + 825) // 165
        assert hist.counts[zero_bin] >= 3  # the tau = 0 self-products

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            na, nb = rng.integers(0, 300, 2)
            a = np.sort(rng.integers(0, 50_000, na))
            b = np.sort(rng.integers(0, 50_000, nb))
            hist = coincidence_histogram(stream(a), stream(b), 100, (-2000, 2000))
            assert np.array_equal(hist.counts,
                                  brute_force(a, b, -2000, 2000, 100))

    def test_bursts_and_ties(self):
        a = np.repeat([1000, 2000], 50)
        b = np.repeat([1000, 2100], 40)
        hist = coincidence_histogram(stream(a), stream(b), 100, (-500, 500))
        assert np.array_equal(hist.counts, brute_force(a, b, -500, 500, 100))

    def test_half_open_bins(self):
        # tau exactly at the range max is excluded; at min included
        hist = coincidence_histogram(stream([0]), stream([500]), 100, (-500, 500))
        assert hist.counts.sum() == 0
        hist = coincidence_histogram(stream([500]), stream([0]), 100, (-500, 500))
        assert hist.counts[0] == 1

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        a = np.sort(rng.integers(0, 10 ** 6, 400))
        b = np.sort(rng.integers(0, 10 ** 6, 400))
        h1 = coincidence_histogram(stream(a, 2.0), stream(b, 2.0), 50, (-1000, 1000))
        h2 = coincidence_histogram(stream(a + 777, 2.0), stream(b + 777, 2.0),
                                   50, (-1000, 1000))
        assert np.array_equal(h1.counts, h2.counts)

    def test_validation(self):
        good = stream([1, 2, 3])
        with pytest.raises(ValueError):
            coincidence_histogram(good, good, 0, (-100, 100))
        with pytest.raises(ValueError):
            coincidence_histogram(good, good, 100, (100, 100))
        with pytest.raises(ValueError):
            coincidence_histogram(good, good, 100, (-100, 100))  # 2 bins only
        with pytest.raises(ValueError):
            coincidence_histogram(good, good, 100, (-150, 100))  # not tiling

    def test_sliced_equals_single_pass(self):
        # 131067e-12 s * 1e12 is just below 131,067, so truncating it instead
        # of rounding as TagStream does would lose the tag at 131,066 ps
        last = stream([131_066], 131_067e-12)
        cases = [(poisson_stream(50_000, 2.0, 1), poisson_stream(50_000, 2.0, 2),
                  (2, 5, 16)),
                 (last, last, (1, 2))]
        for a, b, slice_counts in cases:
            full = coincidence_histogram(a, b, 100, (-10_000, 10_000))
            assert full.counts.sum() > 0
            for n_slices in slice_counts:
                sliced = coincidence_histogram_sliced(a, b, 100, (-10_000, 10_000),
                                                      n_slices)
                assert np.array_equal(full.counts, sliced.counts)

    # bins of 1e17 ps over (-1e17, 2e17): a + tau_max leaves int64 from
    # a = 2**63 - 2e17 on; the first pair is the last in range, the others
    # past it (the last with the span of b of every slice empty)
    _EDGE = 2 ** 63 - 2 * 10 ** 17

    @pytest.mark.parametrize("a, b, counts", [
        ([_EDGE - 1], [_EDGE + 99], [0, 1, 0]),
        ([_EDGE], [_EDGE + 100], None),
        ([9_100_000_000_000_000_000], [9_100_000_000_000_000_100], None),
        ([9_200_000_000_000_000_000], [0], None),
    ])
    def test_sliced_meets_single_pass_at_the_int64_edge(self, a, b, counts):
        a, b = stream(a, 9.223e6), stream(b, 9.223e6, channel=1)
        window = (10 ** 17, (-10 ** 17, 2 * 10 ** 17))
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no int64 wrap, not even a warning
            if counts is not None:
                full = coincidence_histogram(a, b, *window)
                assert full.counts.tolist() == counts
            else:
                with pytest.raises(ValueError, match="must lie in int64") as single:
                    coincidence_histogram(a, b, *window)
            for n_slices in (1, 2, 3):
                if counts is not None:
                    sliced = coincidence_histogram_sliced(a, b, *window, n_slices)
                    assert np.array_equal(sliced.counts, full.counts)
                    continue
                with pytest.raises(ValueError) as info:
                    coincidence_histogram_sliced(a, b, *window, n_slices)
                assert str(info.value) == str(single.value)

    def test_unsorted_stream_rejected(self):
        with pytest.raises(ValueError, match="timestamps must be sorted"):
            stream([0, 300, 200])
        ok = stream([0, 200, 300])
        bad = stream([0, 200, 300])
        bad.tags[1:] = [300, 200]   # a stream that was sorted when it was built
        for call in (lambda: coincidence_histogram(bad, ok, 100, (-500, 500)),
                     lambda: coincidence_histogram(ok, bad, 100, (-500, 500)),
                     lambda: coincidence_histogram_sliced(bad, ok, 100, (-500, 500), 2),
                     lambda: coincidence_histogram_sliced(ok, bad, 100, (-500, 500), 2),
                     lambda: auto_correlation_histogram(bad, 100, (0, 500))):
            with pytest.raises(ValueError, match="tag stream is not sorted"):
                call()


class TestAutoCorrelation:
    def test_two_tags(self):
        hist = auto_correlation_histogram(stream([0, 500]), 100, (0, 1000))
        assert hist.counts.sum() == 1
        assert hist.counts[5] == 1

    def test_poisson_flat(self):
        s = poisson_stream(200_000, 2.0, 3)
        hist = auto_correlation_histogram(s, 1000, (0, 50_000))
        mean = hist.counts.mean()
        assert np.all(np.abs(hist.counts - mean) < 6 * np.sqrt(mean))

    def test_modulated_stream_bunches(self):
        # doubly-stochastic oracle: strong intensity modulation gives g2(0) > 1
        rng = np.random.default_rng(12)
        duration, block = 2.0, 1e-6
        n_blocks = int(duration / block)
        intensity = rng.choice([0.0, 2.0], size=n_blocks)  # on/off source
        counts = rng.poisson(intensity * 100_000 * block)
        tags = []
        for k in np.nonzero(counts)[0]:
            tags.append(rng.uniform(k * block * 1e12, (k + 1) * block * 1e12,
                                    counts[k]))
        s = stream(np.sort(np.concatenate(tags)).astype(np.int64), duration)
        hist = auto_correlation_histogram(s, 100_000, (0, 10_000_000))
        g2_0 = hist.counts[0] / hist.counts[-20:].mean()
        assert g2_0 > 1.5

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            auto_correlation_histogram(stream([0, 10]), 10, (-100, 100))


def manual_histogram(counts, bin_width=100, tau_min=None):
    counts = np.asarray(counts, dtype=np.int64)
    if tau_min is None:
        tau_min = -(len(counts) // 2) * bin_width
    return CoincidenceHistogram(bin_width, tau_min,
                                tau_min + bin_width * len(counts), counts, 1.0,
                                {"a": 0, "b": 0})


class TestG2:
    def test_arithmetic_example(self):
        # peak bin of 50 over 10 baseline bins of 10: g2 = 5,
        # sigma = 5*sqrt(1/50 + 1/100) (error-propagation oracle)
        hist = manual_histogram([10] * 5 + [50] + [10] * 5)
        res = g2_from_histogram(hist, peak_window=(0, 100))
        assert res.g2 == pytest.approx(5.0)
        assert res.sigma == pytest.approx(5 * np.sqrt(1 / 50 + 1 / 100))
        assert res.baseline_bin_count == 10

    def test_flat_histogram(self):
        rng = np.random.default_rng(2)
        hist = manual_histogram(rng.poisson(1000, size=101))
        res = g2_from_histogram(hist, peak_window=(-50, 50))
        assert res.g2 == pytest.approx(1.0, abs=0.15)

    def test_auto_peak_detection(self):
        counts = np.full(201, 20)
        counts[99:102] = [220, 400, 230]
        res = g2_from_histogram(manual_histogram(counts))
        lo, hi = res.peak_bin_range
        # bump sits in bins 99..101 of a tau_min = -10000, width-100 grid
        assert lo <= -100 and hi >= 200  # detected window covers all three bins
        assert res.g2 > 10

    def test_zero_baseline_signaled(self):
        hist = manual_histogram([0] * 5 + [50] + [0] * 5)
        with pytest.raises(UndefinedCorrelationError):
            g2_from_histogram(hist, peak_window=(0, 100))

    def test_independent_poisson_g2_is_one(self):
        a = poisson_stream(300_000, 2.0, 31)
        b = poisson_stream(250_000, 2.0, 32)
        hist = coincidence_histogram(a, b, 1000, (-100_000, 100_000))
        res = g2_from_histogram(hist, peak_window=(-5000, 5000))
        assert abs(res.g2 - 1.0) < 5 * res.sigma

    def test_sigma_scales_inverse_sqrt_time(self):
        # quadrupling acquisition at fixed physics scales all counts by 4
        counts = np.full(101, 50)
        counts[50] = 500
        r1 = g2_from_histogram(manual_histogram(counts), peak_window=(-50, 50))
        r4 = g2_from_histogram(manual_histogram(counts * 4), peak_window=(-50, 50))
        assert r4.g2 == pytest.approx(r1.g2)
        assert r4.sigma == pytest.approx(r1.sigma / 2)


class TestCauchySchwarz:
    def test_reference_violation(self):
        res = CorrelationResult(4.9, 0.5, (0, 0), 10)
        violated, nsig = cauchy_schwarz_test(res, 2.0, 2.0)
        assert violated
        assert nsig == pytest.approx(5.8)

    def test_classical_case(self):
        violated, _ = cauchy_schwarz_test(CorrelationResult(1.0, 0.1, (0, 0), 10))
        assert not violated

    def test_boundary_not_violated(self):
        violated, nsig = cauchy_schwarz_test(CorrelationResult(2.0, 0.1, (0, 0), 10))
        assert not violated
        assert nsig == pytest.approx(0.0)

    def test_monotone_in_g2(self):
        flags = [cauchy_schwarz_test(CorrelationResult(g, 0.2, (0, 0), 5))[0]
                 for g in np.linspace(0.5, 6.0, 40)]
        assert flags == sorted(flags)  # False..False,True..True

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            cauchy_schwarz_test(CorrelationResult(3.0, 0.0, (0, 0), 1))


class TestRateMetrics:
    def test_snr_arithmetic(self):
        m = rate_metrics(100.0, 40.0, flux_hz=1e6, losses=bundled_losses())
        assert m.snr == pytest.approx(2.5)

    def test_efficiency_chain(self):
        losses = bundled_losses()
        flux = 6e6
        eta_loss = losses.eta_loss(with_etalon=True)
        s = flux * eta_loss * 0.055 + 4000.0
        m = rate_metrics(s, 4000.0, flux_hz=flux, losses=losses, with_etalon=True)
        assert m.eta_ext == pytest.approx(0.055)
        # oracle: internal/external ratio through the mode matching
        assert m.eta_int == pytest.approx(0.055 / losses.mode_matching)
        assert m.eta_int == pytest.approx(0.105)
        assert m.snr > 2

    def test_low_signal_clamped(self):
        with pytest.warns(UserWarning, match="clamped"):
            m = rate_metrics(30.0, 40.0, flux_hz=1e6, losses=bundled_losses())
        assert m.eta_ext == 0.0 and m.low_signal

    def test_stream_inputs(self):
        a = poisson_stream(5000, 2.0, 41)
        b = poisson_stream(1000, 2.0, 42)
        m = rate_metrics(a, b, flux_hz=1e6, losses=bundled_losses())
        assert m.snr == pytest.approx(a.rate_hz / b.rate_hz)


class TestPowerLawFit:
    def test_exact_quadratic(self):
        exp, err = power_law_fit([(1, 1), (2, 4), (3, 9)])
        assert exp == pytest.approx(2.0, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-9)

    def test_exact_linear(self):
        exp, _ = power_law_fit([(1, 2), (2, 4), (4, 8)])
        assert exp == pytest.approx(1.0, abs=1e-12)

    def test_floor_subtraction(self):
        pts = [(p, 13.0 + 3.0 * p ** 2) for p in (1, 2, 4, 8)]
        exp, _ = power_law_fit(pts, subtract_floor=13.0)
        assert exp == pytest.approx(2.0, abs=1e-12)

    def test_nonpositive_dropped_with_warning(self):
        pts = [(1, 5.0), (2, 40.0), (4, 160.0), (8, 640.0)]
        with pytest.warns(UserWarning, match="dropped"):
            exp, _ = power_law_fit(pts, subtract_floor=7.0)
        assert exp == pytest.approx(np.polyfit(
            np.log([2, 4, 8]), np.log([33, 153, 633]), 1)[0])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            power_law_fit([(1, 1), (2, 4)])
        with pytest.raises(ValueError):
            with pytest.warns(UserWarning):
                power_law_fit([(1, 1.0), (2, 1.0), (3, 1.0)], subtract_floor=1.0)
