from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from qfclab import spectral
from qfclab.config import (bundled_losses, bundled_model, narrowline_filter,
                           uv_bandpass, uv_etalon, uv_spectrometer, uv_stack)
from qfclab.montecarlo import ScenarioConfig, branch_rates
from qfclab.scenarios import (Scenario, compute_noise_sweep, compute_snr_sweep,
                              idler_channel, output_channel, signal_channel)
from qfclab.spectral import (_GL_NODES, _GL_WEIGHTS, C_NM_GHZ, SpectralFilter,
                             _panel_edges, _sinc2_shape, _stack_integrals,
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
# oracles for the stack overlaps, the closed-form rates and the FFT
# spectrometer blur

def _oracle_grid(filters, nu0, bandwidth_ghz):
    # the former production grid: 0.25 GHz over +-3.2 bandwidths, refined at
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


def _oracle_norm(bandwidth_ghz):
    return np.pi * bandwidth_ghz / (2.0 * 1.39155737825151)


def _oracle_rates(p, filters, model):
    """(cascade, floor) rates at one pump power: the density times the stack,
    trapezoid-integrated on the former 0.25 GHz grid."""
    nu0 = model.output_center_ghz
    bw = model.noise_bandwidth_ghz
    nu = _oracle_grid(filters, nu0, bw)
    dnu = nu - nu0
    t = stack_transmission(filters, nu)
    dens = model.noise_quad_hz_per_mw2 * p ** 2 * _oracle_sinc2(dnu, bw) / _oracle_norm(bw)
    floor = np.where(np.abs(dnu) <= 1.5 * bw,
                     model.noise_floor_density_hz_per_ghz_mw * p, 0.0)
    return float(np.trapezoid(dens * t, nu)), float(np.trapezoid(floor * t, nu))


def _oracle_band_fraction(filters, center_nm, bandwidth_ghz):
    nu0 = C_NM_GHZ / center_nm
    nu = _oracle_grid(filters, nu0, bandwidth_ghz)
    area = np.trapezoid(_oracle_sinc2(nu - nu0, bandwidth_ghz)
                        * stack_transmission(filters, nu), nu)
    return float(area / _oracle_norm(bandwidth_ghz))


def _refined_integrals(filters, center_ghz, bandwidth_ghz):
    """(sinc2, floor) by 16 Gauss-Legendre nodes on each half of every panel
    of `_panel_edges`. The nodes are offsets from the band centre and each
    filter is evaluated at its own detuning, so, unlike the production rule,
    no node is rounded to an absolute frequency (~811,000 GHz, where one ulp
    is 1.2e-10 GHz)."""
    edges = _panel_edges(filters, center_ghz, bandwidth_ghz)
    edges = np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])])) - center_ghz
    x, w = np.polynomial.legendre.leggauss(16)
    sinc2 = floor = 0.0
    blocks = -(-len(edges) // 50_000)  # bounded memory for the bare Airy comb
    for a, b in zip(np.array_split(edges[:-1], blocks), np.array_split(edges[1:], blocks)):
        half = 0.5 * (b - a)[:, None]
        dnu = (a[:, None] + half * (x + 1.0)).ravel()
        weights = (half * w).ravel()
        t = np.ones_like(dnu)
        for f in filters:
            t = t * f.transmission_at_offset(dnu + (center_ghz - f.center_ghz))
        sinc2 += np.dot(weights, _oracle_sinc2(dnu, bandwidth_ghz) * t)
        floor += np.dot(weights, np.where(np.abs(dnu) <= 1.5 * bandwidth_ghz, t, 0.0))
    return sinc2 / _oracle_norm(bandwidth_ghz), floor


def _flat_top_integrals(filters, center_ghz, bandwidth_ghz):
    """(sinc2, floor) in closed form for no filter or one bandpass centred on
    the band: int_0^X sin^2(u)/u^2 du = Si(2X) - sin^2(X)/X."""
    from scipy.special import sici

    alpha = 2.0 * 1.39155737825151 / bandwidth_ghz

    def central(half_width):  # unit-area sinc^2 inside +-half_width
        x = alpha * half_width
        return 2.0 / np.pi * (sici(2.0 * x)[0] - np.sin(x) ** 2 / x)

    span, extent = 3.2 * bandwidth_ghz, 3.0 * bandwidth_ghz
    if not filters:
        return central(span), extent
    (f,) = filters
    assert f.kind == "bandpass" and f.center_ghz == center_ghz and f.fwhm_ghz <= extent
    peak, leak, width = f.peak_transmission, 10.0 ** -f.out_of_band_od, f.fwhm_ghz
    sinc2 = peak * (leak * central(span) + (1.0 - leak) * central(0.5 * width))
    return sinc2, peak * width + peak * leak * (extent - width)


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


def _oracle_cases(model):
    """(name, stack, band centre in GHz, bandwidth) for every oracle stack and
    both signal-channel stacks, at the device's band and at a narrower
    off-centre one."""
    out = []
    stacks = [(n, _oracle_stack(n, model), model.lambda_output_nm) for n in _ORACLE_STACKS]
    stacks += [(f"signal{'+vbg' * v}", signal_channel(model, vbg=v).filters,
                model.lambda_signal_nm) for v in (False, True)]
    for name, stack, lam in stacks:
        for center_nm, bw in ((lam, model.noise_bandwidth_ghz), (lam + 0.3, 2000.0)):
            out.append((name, stack, C_NM_GHZ / center_nm, bw))
    return out


_ORACLE_POWERS = (0.0, 1e-3, 25.0, 200.0, 400.0, 1000.0)


def _close(got, want, rel=1e-12):
    return abs(got - want) <= rel * abs(want)


# the former 0.25 GHz grid misses each bandpass and floor edge by up to
# half a step, and under-resolves the far tails of narrow lines: up to
# 1.8e-5 relative on these stacks (5.7e-5 on the 4 nm signal bandpass)
_TRAPEZOID_REL = 1e-4


class TestClosedFormOracle:
    @pytest.mark.parametrize("name", _ORACLE_STACKS)
    def test_rates_match_per_call_quadrature(self, model, name):
        stack = _oracle_stack(name, model)
        for p in _ORACLE_POWERS:
            casc, floor = _oracle_rates(p, stack, model)
            detector = model.dark_count_rate_hz + model.detector_stray_hz_per_mw * p
            assert _close(cascade_rate(p, stack, model), casc, _TRAPEZOID_REL), p
            assert _close(inband_floor_rate(p, stack, model), floor, _TRAPEZOID_REL), p
            assert _close(noise_rate(p, stack, model), casc + floor + detector,
                          _TRAPEZOID_REL), p
            assert _close(noise_rate(p, stack, model, include_detector=False),
                          casc + floor, _TRAPEZOID_REL), p
        assert noise_rate(0.0, stack, model) == model.dark_count_rate_hz

    @pytest.mark.parametrize("name", _ORACLE_STACKS)
    def test_band_fraction_matches_quadrature(self, model, name):
        stack = _oracle_stack(name, model)
        for center_nm, bw in ((model.lambda_output_nm, model.noise_bandwidth_ghz),
                              (model.lambda_output_nm + 0.3, 2000.0)):
            assert _close(band_fraction(stack, center_nm, bw),
                          _oracle_band_fraction(stack, center_nm, bw), _TRAPEZOID_REL)

    def test_overlaps_match_refined_panels(self, model):
        # 2x the panels and 2x the nodes agree to 1e-10; the narrow-line
        # stacks are limited by the rounding of each node's absolute frequency
        for name, stack, center, bw in _oracle_cases(model):
            got = _stack_integrals(stack, center, bw)
            want = _refined_integrals(stack, center, bw)
            for g, w in zip(got, want):
                assert _close(g, w, 1e-10), (name, bw, g, w)

    def test_flat_top_overlaps_match_closed_form(self, model):
        bw = model.noise_bandwidth_ghz
        cases = [((), model.output_center_ghz, bw), ((), model.output_center_ghz, 2000.0),
                 (uv_stack(model), model.output_center_ghz, bw)]
        signal = signal_channel(model).filters
        cases += [(signal, signal[0].center_ghz, w) for w in (bw, 2000.0)]
        for stack, center, width in cases:
            got = _stack_integrals(stack, center, width)
            for g, w in zip(got, _flat_top_integrals(stack, center, width)):
                assert _close(g, w), (stack, width, g, w)

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
            detector = narrow.dark_count_rate_hz + narrow.detector_stray_hz_per_mw * 200.0
            casc, floor = _oracle_rates(200.0, stack, narrow)
            assert _close(got, casc + floor + detector, _TRAPEZOID_REL)
            sinc2, floor = _refined_integrals(stack, narrow.output_center_ghz, 4000.0)
            want = narrow.noise_quad_hz_per_mw2 * 200.0 ** 2 * sinc2 \
                + narrow.noise_floor_density_hz_per_ghz_mw * 200.0 * floor + detector
            assert _close(got, want, 1e-10)


class TestQuadratureRule:
    def test_nodes_are_gauss_legendre(self):
        x, w = np.polynomial.legendre.leggauss(8)
        assert np.max(np.abs(_GL_NODES - x)) <= 1e-15
        assert np.max(np.abs(_GL_WEIGHTS - w)) <= 1e-15

    def test_panels_cut_at_every_discontinuity(self, model):
        center, bw = model.output_center_ghz, model.noise_bandwidth_ghz
        stack = uv_stack(model, etalon=True) + (narrowline_filter(model),)
        edges = _panel_edges(stack, center, bw)
        assert edges[0] == center - 3.2 * bw and edges[-1] == center + 3.2 * bw
        assert np.all(np.diff(edges) > 0)
        bp = stack[0]
        for cut in (center - 1.5 * bw, center + 1.5 * bw,
                    bp.center_ghz - 0.5 * bp.fwhm_ghz, bp.center_ghz + 0.5 * bp.fwhm_ghz,
                    center, center + 0.0025, center - 0.0025 * 2 ** 18):
            assert np.any(edges == cut), cut
        widths = np.diff(edges)
        assert widths.max() <= bw / 20 * (1 + 1e-12)
        near = np.abs(0.5 * (edges[1:] + edges[:-1]) - center) < 5 * 340.0
        assert widths[near].max() <= 2.75 * (1 + 1e-12)

    def test_scenario_stacks_use_few_nodes(self, monkeypatch, model, losses):
        """Every stack the scenarios integrate (the noise and SNR sweeps, the
        narrowline anchor and the coincidence channels' pair acceptance) is
        integrated on at most 16,384 nodes; the former 0.25 GHz grid used
        336,384. The bare Airy comb of `_ORACLE_STACKS` is exempt: with an
        inf envelope every tooth across the span is resolved (~245k nodes),
        which is correct but slow, and no scenario uses it."""
        lengths = []
        inner = spectral.stack_transmission

        def recorded(filters, frequency_ghz):
            lengths.append(np.size(frequency_ghz))
            return inner(filters, frequency_ghz)

        monkeypatch.setattr(spectral, "stack_transmission", recorded)
        noise = Scenario("ns", "noise_sweep", {"n_seeds": 1})
        compute_snr_sweep(model, losses, Scenario("snr", "snr_sweep").params, seed=1)
        compute_noise_sweep(model, losses, noise.params, seed=1)
        for channels in ({"signal": signal_channel(model), "idler": idler_channel(model)},
                         {"signal": signal_channel(model, vbg=True),
                          "output": output_channel(model, losses)}):
            branch_rates(ScenarioConfig(200.0, 1.0, 1, channels), model)
        assert len(lengths) == 8
        assert max(lengths) <= 16_384, lengths


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
