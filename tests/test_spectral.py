from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from qfclab.config import (bundled_losses, bundled_model, narrowline_filter,
                           uv_bandpass, uv_etalon, uv_spectrometer, uv_stack)
from qfclab.spectral import (C_NM_GHZ, SpectralFilter, _sinc2_shape,
                             band_fraction, cascade_rate, conversion_efficiency,
                             detected_signal_rate, energy_gap, inband_floor_rate,
                             noise_rate, noise_spectrum, sfg_output_wavelength,
                             spdc_signal_wavelength, stack_transmission)


@pytest.fixture(scope="module")
def model():
    return bundled_model()


@pytest.fixture(scope="module")
def losses():
    return bundled_losses()


class TestWavelengths:
    def test_upconversion_anchor(self):
        # oracle: direct reciprocal sum
        expected = 1.0 / (1.0 / 1311.0 + 1.0 / 514.5)
        got = sfg_output_wavelength(1311.0, 514.5)
        assert got == pytest.approx(expected, abs=1e-12)
        assert 369.4 <= got <= 369.6

    def test_zero_pump_energy_limit(self):
        assert sfg_output_wavelength(1311.0, 1e15) == pytest.approx(1311.0, rel=1e-10)

    def test_symmetric_arguments(self):
        assert sfg_output_wavelength(514.5, 1311.0) == sfg_output_wavelength(1311.0, 514.5)

    def test_pair_partner_anchor(self):
        expected = 1.0 / (1.0 / 514.5 - 1.0 / 1311.0)
        got = spdc_signal_wavelength(514.5, 1311.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert 846.5 <= got <= 847.5

    def test_degenerate_point(self):
        assert spdc_signal_wavelength(514.5, 1029.0) == pytest.approx(1029.0, abs=1e-9)

    def test_near_pump_flagged(self):
        with pytest.warns(UserWarning, match="validity"):
            out = spdc_signal_wavelength(514.5, 514.6)
        assert out > 1e6  # far outside the band but still returned

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sfg_output_wavelength(-1.0, 514.5)
        with pytest.raises(ValueError):
            spdc_signal_wavelength(514.5, 514.5)

    def test_energy_gap_anchor(self):
        # oracle: hc/lambda differences
        ev, thz = energy_gap(369.5, 1311.0)
        assert ev == pytest.approx(2.4097, abs=2e-3)
        assert thz == pytest.approx(582.67, abs=0.5)
        assert abs(ev - 2.41) / 2.41 < 0.02
        assert abs(thz - 582.6) / 582.6 < 0.02

    def test_energy_gap_zero_and_antisymmetry(self):
        assert energy_gap(500.0, 500.0) == (0.0, 0.0)
        f = energy_gap(369.5, 1311.0)
        b = energy_gap(1311.0, 369.5)
        assert f[0] == pytest.approx(-b[0]) and f[1] == pytest.approx(-b[1])

    def test_shared_pump_closure(self, model):
        # both processes share the pump: 1/ls + 1/lo = 2/lp
        assert abs(1 / model.lambda_signal_nm + 1 / model.lambda_output_nm
                   - 2 / model.lambda_pump_nm) < 1e-9


class TestSinc2Shape:
    def test_shape_values(self, model):
        bw = model.noise_bandwidth_ghz
        assert _sinc2_shape(0.0, bw) == 1.0
        # oracle: root of sinc^2 = 1/2 puts the half maximum at +-bw/2
        x_half = brentq(lambda x: (np.sin(x) / x) ** 2 - 0.5, 1.0, 2.0)
        alpha = 2.0 * x_half / bw
        for dnu in (-bw / 2, bw / 2):
            assert _sinc2_shape(dnu, bw) == pytest.approx(0.5, rel=1e-9)
        # first null at alpha * dnu = pi
        assert _sinc2_shape(np.pi / alpha, bw) == pytest.approx(0.0, abs=1e-12)
        grid = np.linspace(-3 * bw, 3 * bw, 301)
        r = _sinc2_shape(grid, bw)
        assert np.all((r >= 0) & (r <= 1))
        assert np.count_nonzero(r == 1.0) == 1  # only at dnu = 0


class TestEfficiency:
    def test_zero_power(self, model, losses):
        assert conversion_efficiency(0.0, model) == 0.0

    def test_calibration_anchors(self, model, losses):
        assert conversion_efficiency(200.0, model) == pytest.approx(0.105, abs=1e-12)
        assert conversion_efficiency(200.0, model, internal=False, losses=losses) \
            == pytest.approx(0.055, abs=1e-12)

    def test_monotone_below_turnover(self, model):
        # oracle: numeric scan below the peak of P_eff = P*exp(-c*P), at 1/c
        turnover = 1.0 / model.uv_absorption_per_mw
        assert turnover == pytest.approx(500.0)
        grid = np.linspace(1.0, turnover - 1.0, 200)
        eta = conversion_efficiency(grid, model)
        assert np.all(np.diff(eta) > 0)

    def test_bounds_and_ordering(self, model, losses):
        grid = np.linspace(0.0, 2000.0, 100)
        ei = conversion_efficiency(grid, model)
        ee = conversion_efficiency(grid, model, internal=False, losses=losses)
        assert np.all((ei >= 0) & (ei <= 1))
        assert np.all(ee <= ei + 1e-15)

    def test_negative_power_rejected(self, model):
        with pytest.raises(ValueError):
            conversion_efficiency(-1.0, model)


class TestFilters:
    def test_etalon_on_resonance(self, model):
        et = uv_etalon(model)
        assert stack_transmission([et], et.center_ghz) == pytest.approx(0.50)

    def test_etalon_half_fsr(self, model):
        # oracle: direct Airy evaluation times the single-order envelope
        et = uv_etalon(model)
        f = et.fsr_ghz / et.fwhm_ghz
        airy = 0.5 / (1 + (2 * f / np.pi) ** 2 * np.sin(np.pi * 170.0 / 340.0) ** 2)
        env = np.exp(-4 * np.log(2) * (170.0 / 340.0) ** 2)
        expected = airy * env  # = 1.613e-4
        got = et.transmission_at_offset(170.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.613e-4, rel=1e-3)

    def test_etalon_bare_airy_option(self, model):
        et = SpectralFilter.etalon(model.lambda_output_nm,
                                   order_envelope_fwhm_ghz=np.inf)
        assert et.transmission_at_offset(170.0) == pytest.approx(3.2262e-4, rel=1e-3)

    def test_bandpass_out_of_band(self, model):
        bp = uv_bandpass(model)
        pump_ghz = C_NM_GHZ / model.lambda_pump_nm
        assert stack_transmission([bp], pump_ghz) / bp.peak_transmission <= 1e-22

    def test_lorentzian_and_gaussian_shapes(self, model):
        line = narrowline_filter(model)
        assert line.transmission_at_offset(0.0) == 1.0
        assert line.transmission_at_offset(0.01) == pytest.approx(0.5)
        vbg = SpectralFilter.vbg_nm(847.0, 1.0, peak_transmission=0.9)
        assert vbg.transmission_at_offset(0.0) == pytest.approx(0.9)
        assert vbg.transmission_at_offset(vbg.fwhm_ghz / 2) == pytest.approx(0.45)

    def test_stack_multiplicative_commutative(self, model):
        stack = [uv_bandpass(model), uv_etalon(model)]
        nu = model.output_center_ghz + np.linspace(-7000, 7000, 501)
        fwd = stack_transmission(stack, nu)
        rev = stack_transmission(stack[::-1], nu)
        single = stack[0].transmission_at_offset(nu - stack[0].center_ghz) \
            * stack[1].transmission_at_offset(nu - stack[1].center_ghz)
        assert np.array_equal(fwd, rev)
        assert np.allclose(fwd, single, rtol=1e-15)

    def test_filter_validation(self):
        with pytest.raises(ValueError):
            SpectralFilter.etalon(370.0, fsr_ghz=5.0, fwhm_ghz=6.0)
        with pytest.raises(ValueError):
            SpectralFilter("bandpass", 370.0, 100.0)   # missing OD
        with pytest.raises(ValueError):
            SpectralFilter("comb", 370.0, 1.0)


class TestNoiseModel:
    def test_dark_floor_exact(self, model):
        assert noise_rate(0.0, uv_stack(model), model) == model.dark_count_rate_hz

    def test_narrowline_anchor(self, model):
        got = noise_rate(200.0, (uv_bandpass(model), narrowline_filter(model)),
                         model, include_detector=False)
        assert got == pytest.approx(1.3, abs=0.3)

    def test_scaling_exponents_deterministic(self, model):
        powers = [25, 50, 100, 200, 400]
        from qfclab.tagcorr import power_law_fit
        unf = [(p, noise_rate(p, uv_stack(model), model)) for p in powers]
        eta = [(p, noise_rate(p, uv_stack(model, etalon=True), model)) for p in powers]
        exp_u, _ = power_law_fit(unf, subtract_floor=13.0)
        exp_e, _ = power_law_fit(eta, subtract_floor=13.0)
        assert 1.85 <= exp_u <= 2.15
        assert 0.85 <= exp_e <= 1.15

    def test_pure_quadratic_slope_exact(self, model):
        # with linear terms and dark counts zeroed the log-log slope is 2
        stripped = replace(model, noise_floor_density_hz_per_ghz_mw=0.0,
                           detector_stray_hz_per_mw=0.0, dark_count_rate_hz=0.0)
        from qfclab.tagcorr import power_law_fit
        pts = [(p, noise_rate(p, uv_stack(stripped), stripped)) for p in (10, 50, 250)]
        exp, _ = power_law_fit(pts)
        assert abs(exp - 2.0) < 1e-6

    def test_monotone_in_power_and_fwhm(self, model):
        stack = uv_stack(model, etalon=True)
        rates = [noise_rate(p, stack, model) for p in (0, 10, 50, 100, 300)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        widths = (2.0, 5.5, 12.0, 40.0)
        r = [noise_rate(100.0, (uv_bandpass(model),
                                SpectralFilter.etalon(model.lambda_output_nm,
                                                      fwhm_ghz=w)), model)
             for w in widths]
        assert all(b >= a for a, b in zip(r, r[1:]))

    def test_rate_is_spectral_quadrature(self, model):
        # decomposition consistency: components sum to the reported rate
        stack = uv_stack(model, etalon=True)
        total = noise_rate(150.0, stack, model)
        parts = (cascade_rate(150.0, stack, model)
                 + inband_floor_rate(150.0, stack, model)
                 + model.dark_count_rate_hz + model.detector_stray_hz_per_mw * 150.0)
        assert total == pytest.approx(parts, rel=1e-12)

    def test_negative_power_rejected(self, model):
        with pytest.raises(ValueError):
            noise_rate(-5.0, (), model)


class TestDetectedRate:
    def test_zero_flux_is_pure_noise(self, model, losses):
        dark_only = replace(model, input_flux_hz=0.0)
        stack = uv_stack(model, etalon=True)
        assert detected_signal_rate(dark_only, 100.0, losses, stack) \
            == pytest.approx(noise_rate(100.0, stack, model))

    def test_snr_above_two_at_anchor(self, model, losses):
        stack = uv_stack(model, etalon=True)
        s = detected_signal_rate(model, 200.0, losses, stack)
        n = noise_rate(200.0, stack, model)
        assert s / n > 2.0

    def test_detector_efficiency_linearity(self, model, losses):
        stack = uv_stack(model, etalon=True)
        doubled = replace(losses, detector_efficiency=2 * losses.detector_efficiency)
        n = noise_rate(120.0, stack, model)
        d1 = detected_signal_rate(model, 120.0, losses, stack) - n
        d2 = detected_signal_rate(model, 120.0, doubled, stack) - n
        assert d2 / d1 == pytest.approx(2.0, rel=1e-12)


class TestSpectrum:
    def test_peak_at_operating_wavelength(self, model):
        lam0 = model.lambda_output_nm
        edges = np.arange(lam0 - 4.0, lam0 + 4.05, 0.1)
        spec = noise_spectrum(200.0, uv_stack(model) + (uv_spectrometer(model),),
                              model, edges)
        assert abs(spec.peak_wavelength_nm() - lam0) <= 0.2
        # with no filters at all the maximum still sits at the band center
        bare = noise_spectrum(200.0, (), model, edges)
        assert abs(bare.peak_wavelength_nm() - lam0) <= 0.2

    def test_roundoff_bins_read_zero(self, model):
        # the noise_spectrum scenario's fine grid: outside the bandpass the
        # model rate is ~0, and 7 bins at 372.84-373.44 nm held 7e-13 to
        # 2.4e-12 Hz of FFT round-off
        lam0 = model.lambda_output_nm
        edges = np.arange(lam0 - 4.0, lam0 + 4.05, 0.1)
        spec = noise_spectrum(200.0, uv_stack(model) + (uv_spectrometer(model),),
                              model, edges)
        centers = spec.centers_nm
        band = (centers > 372.8) & (centers < 373.5)
        assert band.sum() == 7
        assert np.all(spec.rates_hz[band] == 0.0)
        assert np.all(spec.rates_hz >= 0.0)

    def test_integral_matches_rate_model(self, model):
        # quadrature-consistency oracle: binned spectrum integral equals the
        # rate model minus dark counts (stray bypasses the spectrometer and
        # accounts for the <1% allowance)
        lam0 = model.lambda_output_nm
        edges = np.arange(lam0 - 4.0, lam0 + 4.05, 0.1)
        spec = noise_spectrum(200.0, uv_stack(model) + (uv_spectrometer(model),),
                              model, edges)
        total = float(spec.rates_hz.sum())
        rate = noise_rate(200.0, uv_stack(model), model) - model.dark_count_rate_hz
        assert abs(total / rate - 1.0) < 0.01

    def test_etalon_supresses_peak_to_floor(self, model):
        lam0 = model.lambda_output_nm
        edges = lam0 - 0.25 + 0.5 * np.arange(-8, 10)
        kw = dict(floor_per_bin_hz=40.0)
        res = uv_spectrometer(model)
        unf = noise_spectrum(200.0, uv_stack(model) + (res,), model, edges, **kw)
        eta = noise_spectrum(200.0, uv_stack(model, etalon=True) + (res,), model,
                             edges, **kw)
        assert unf.peak_to_floor() / eta.peak_to_floor() >= 100.0

    def test_empty_grid_rejected(self, model):
        with pytest.raises(ValueError):
            noise_spectrum(100.0, (), model, [369.5])
        with pytest.raises(ValueError):
            noise_spectrum(100.0, (), model, [370.0, 369.0])


class TestLossBudget:
    def test_eta_loss_chain(self, losses):
        base = 0.78 * 0.69 * 0.14
        assert losses.eta_loss() == pytest.approx(base)
        assert losses.eta_loss(with_etalon=True) == pytest.approx(base * 0.5)

    def test_validation(self, losses):
        with pytest.raises(ValueError):
            replace(losses, external_optics=0.0)
        with pytest.raises(ValueError):
            replace(losses, fiber_coupling=1.2)

    def test_band_fraction_bounds(self, model):
        f = band_fraction(uv_stack(model, etalon=True), model.lambda_output_nm,
                          model.noise_bandwidth_ghz)
        assert 0.0 < f < 0.01  # narrow comb passes a tiny broadband fraction
        f_bp = band_fraction(uv_stack(model), model.lambda_output_nm,
                             model.noise_bandwidth_ghz)
        assert 0.5 < f_bp < 0.8


# ---------------------------------------------------------------------------
# slow oracles for the closed-form rates and the FFT spectrometer blur

def _oracle_grid(filters, nu0, bandwidth_ghz):
    # per-call quadrature grid: 0.25 GHz over +-3.2 bandwidths, refined at
    # 1/40 of the width around every narrow non-etalon filter in the span
    half = 3.2 * bandwidth_ghz
    grids = [np.arange(nu0 - half, nu0 + half, 0.25)]
    for f in filters:
        if f.kind in ("etalon", "gaussian_spectrometer"):
            continue
        if f.fwhm_ghz < 5.0 and abs(f.center_ghz - nu0) < half:
            grids.append(np.arange(f.center_ghz - 80 * f.fwhm_ghz,
                                   f.center_ghz + 80 * f.fwhm_ghz, f.fwhm_ghz / 40.0))
    return np.unique(np.concatenate(grids))


def _oracle_sinc2(dnu, bandwidth_ghz):
    x = 2.0 * 1.39155737825151 / bandwidth_ghz * dnu
    return np.sinc(x / np.pi) ** 2


def _oracle_rates(p, filters, model):
    """(cascade, floor) rates at one pump power: the density times the stack,
    trapezoid-integrated on a freshly built grid."""
    nu0 = model.output_center_ghz
    bw = model.noise_bandwidth_ghz
    nu = _oracle_grid(filters, nu0, bw)
    dnu = nu - nu0
    t = stack_transmission(filters, nu)
    dens = model.noise_quad_hz_per_mw2 * p ** 2 * _oracle_sinc2(dnu, bw) \
        / (np.pi * bw / (2.0 * 1.39155737825151))
    floor = np.where(np.abs(dnu) <= 1.5 * bw,
                     model.noise_floor_density_hz_per_ghz_mw * p, 0.0)
    return float(np.trapezoid(dens * t, nu)), float(np.trapezoid(floor * t, nu))


def _oracle_band_fraction(filters, center_nm, bandwidth_ghz):
    nu0 = C_NM_GHZ / center_nm
    nu = _oracle_grid(filters, nu0, bandwidth_ghz)
    area = np.trapezoid(_oracle_sinc2(nu - nu0, bandwidth_ghz)
                        * stack_transmission(filters, nu), nu)
    return float(area / (np.pi * bandwidth_ghz / (2.0 * 1.39155737825151)))


_ORACLE_STACKS = ("bandpass", "bandpass+etalon", "bandpass+line", "none", "vbg",
                  "offcenter_line", "airy_comb")


def _oracle_stack(name, model):
    lam0 = model.lambda_output_nm
    return {
        "bandpass": uv_stack(model),
        "bandpass+etalon": uv_stack(model, etalon=True),
        "bandpass+line": (uv_bandpass(model), narrowline_filter(model)),
        "none": (),
        "vbg": (SpectralFilter.vbg_nm(lam0, 1.0),),
        "offcenter_line": (SpectralFilter.line_mhz(lam0 + 0.4, 300.0),),
        "airy_comb": (SpectralFilter.etalon(lam0, order_envelope_fwhm_ghz=np.inf),),
    }[name]


_ORACLE_POWERS = (0.0, 1e-3, 25.0, 200.0, 400.0, 1000.0)


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


class TestClosedFormOracle:
    @pytest.mark.parametrize("name", _ORACLE_STACKS)
    def test_rates_match_per_call_quadrature(self, model, name):
        stack = _oracle_stack(name, model)
        for p in _ORACLE_POWERS:
            casc, floor = _oracle_rates(p, stack, model)
            detector = model.dark_count_rate_hz + model.detector_stray_hz_per_mw * p
            assert _close(cascade_rate(p, stack, model), casc), p
            assert _close(inband_floor_rate(p, stack, model), floor), p
            assert _close(noise_rate(p, stack, model), casc + floor + detector), p
            assert _close(noise_rate(p, stack, model, include_detector=False),
                          casc + floor), p
        assert noise_rate(0.0, stack, model) == model.dark_count_rate_hz

    @pytest.mark.parametrize("name", _ORACLE_STACKS)
    def test_band_fraction_matches_quadrature(self, model, name):
        stack = _oracle_stack(name, model)
        for center_nm, bw in ((model.lambda_output_nm, model.noise_bandwidth_ghz),
                              (model.lambda_output_nm + 0.3, 2000.0)):
            assert _close(band_fraction(stack, center_nm, bw),
                          _oracle_band_fraction(stack, center_nm, bw))

    @pytest.mark.parametrize("name", _ORACLE_STACKS)
    def test_array_powers_equal_scalar_calls(self, model, name):
        stack = _oracle_stack(name, model)
        powers = np.array(_ORACLE_POWERS)
        for fn in (cascade_rate, inband_floor_rate, noise_rate):
            got = fn(powers, stack, model)
            assert isinstance(got, np.ndarray) and got.shape == powers.shape
            assert np.array_equal(got, [fn(p, stack, model) for p in powers])
            assert type(fn(25.0, stack, model)) is float
        grid = powers.reshape(2, 3)
        assert np.array_equal(noise_rate(grid, stack, model),
                              noise_rate(powers, stack, model).reshape(2, 3))

    def test_detected_rate_accepts_power_arrays(self, model, losses):
        stack = uv_stack(model, etalon=True)
        powers = np.array(_ORACLE_POWERS)
        got = detected_signal_rate(model, powers, losses, stack)
        assert np.array_equal(got, [detected_signal_rate(model, p, losses, stack)
                                    for p in powers])

    def test_negative_entry_rejected(self, model):
        powers = np.array([0.0, 10.0, -1e-9])
        for fn in (cascade_rate, inband_floor_rate, noise_rate):
            with pytest.raises(ValueError):
                fn(powers, uv_stack(model), model)
            with pytest.raises(ValueError):
                fn(-1.0, uv_stack(model), model)

    def test_bandwidth_change_follows_the_oracle(self, model):
        narrow = replace(model, noise_bandwidth_ghz=4000.0)
        for stack in (uv_stack(model), uv_stack(model, etalon=True)):
            base = noise_rate(200.0, stack, model)
            got = noise_rate(200.0, stack, narrow)
            assert got != base
            casc, floor = _oracle_rates(200.0, stack, narrow)
            want = casc + floor + narrow.dark_count_rate_hz \
                + narrow.detector_stray_hz_per_mw * 200.0
            assert _close(got, want)


def _oracle_spectrum(p, filters, model, edges, floor_per_bin_hz=0.0):
    """noise_spectrum with the spectrometer blur as a direct-space filter."""
    from scipy.ndimage import gaussian_filter1d
    from qfclab.spectral import _optical_density
    edges = np.asarray(edges, dtype=float)
    stack = [f for f in filters if f.kind != "gaussian_spectrometer"]
    res = [f.fwhm_ghz for f in filters if f.kind == "gaussian_spectrometer"]
    fwhm = res[0] if res else 0.15 * C_NM_GHZ / model.lambda_output_nm ** 2
    sigma = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    nu_edges = C_NM_GHZ / edges
    nu = np.arange(nu_edges.min() - 5 * sigma, nu_edges.max() + 5 * sigma, 0.25)
    dens = _optical_density(nu, p, model) * stack_transmission(stack, nu)
    dens = gaussian_filter1d(dens, sigma / 0.25, mode="constant")
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(nu))])
    cum_at = np.interp(nu_edges, nu, cum)
    return np.abs(cum_at[:-1] - cum_at[1:]) + floor_per_bin_hz


class TestSpectrumBlurOracle:
    @pytest.mark.parametrize("grid", ("coarse", "fine"))
    @pytest.mark.parametrize("stack_name", ("bandpass", "bandpass+etalon", "bare"))
    def test_fft_blur_matches_direct_filter(self, model, grid, stack_name):
        lam0 = model.lambda_output_nm
        if grid == "coarse":
            edges, floor = lam0 - 0.25 + 0.5 * np.arange(-8, 10), 40.0
        else:
            edges, floor = np.arange(lam0 - 4.0, lam0 + 4.05, 0.1), 0.0
        stack = {"bandpass": uv_stack(model) + (uv_spectrometer(model),),
                 "bandpass+etalon": uv_stack(model, etalon=True) + (uv_spectrometer(model),),
                 "bare": ()}[stack_name]
        got = noise_spectrum(200.0, stack, model, edges, floor_per_bin_hz=floor).rates_hz
        want = _oracle_spectrum(200.0, stack, model, edges, floor_per_bin_hz=floor)
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()
