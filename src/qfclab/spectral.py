"""Deterministic device physics: energy bookkeeping, conversion efficiency
with pump-induced saturation, spectral filters, and the pump-power scaling
of the background counts.

Unit conventions, fixed at this module's boundary: vacuum wavelengths in nm,
frequencies in GHz (THz only where a signature says so), pump powers in mW,
lengths in mm, poling period in um, rates in Hz. Everything here is a pure
function of immutable inputs and safe for concurrent use.

Background-count model
----------------------
Three components, calibrated against the bundled device anchors:

* a pair-cascade component quadratic in pump power, spectrally shaped like
  the phase-matching response (sinc^2, FWHM = ``noise_bandwidth_ghz``),
* a weak in-band luminescence floor linear in pump power, spectrally flat,
* a detector-path term (dark counts plus stray fluorescence linear in pump
  power) that never passes through the spectral filter stack.

Neither the spectral shapes nor the filter transmissions depend on pump
power, so the rate through a stack is closed form in P:

    noise_rate(P) = quad * P^2 * S + floor_density * P * F + dark + stray * P

S is the stack's overlap with the unit-area sinc^2 band and F its overlap
with the unit-density flat floor (GHz), both over +-3.2 bandwidths. Both
come from one Gauss-Legendre quadrature per call (``_stack_integrals``):
8 nodes on each panel of ``_panel_edges``. The panel edges land on every
discontinuity of the integrand (the floor's edges and both edges of every
bandpass), and the panels shrink around etalon teeth and peaked filters,
so each panel holds a smooth piece and the overlaps are exact to ~1e-10
relative: a few thousand nodes for the device's stacks. An etalon with an
inf envelope (a bare Airy comb) is resolved tooth by tooth over the whole
span, ~245k nodes: correct, but slow. The rate functions take a scalar
pump power (returning a float) or an array of powers (returning an array
of the same shape, one quadrature for all of them); any negative power
raises ValueError.

`noise_spectrum` is the one other path through the same densities. It
keeps a uniform 0.25 GHz grid because its FFT spectrometer blur needs
equal steps; a test holds its binned total to the rate model within 1%.

The analytic quadratic coefficient describes the cascade in its low-gain
regime; the event-level generator (montecarlo) instead scales the cascade
as pump_power * conversion_efficiency(pump_power), which bends below
quadratic once conversion saturates. The two agree only at low gain:
through the UV stack, the generator's cascade (its 's+o' and 'o_only'
branches) over `cascade_rate` tends to 1 as P -> 0 but is 0.945 at 25 mW,
0.801 at 100 mW, 0.646 at 200 mW and 0.428 at 400 mW. So at 200 mW, where
`coincidence_so` and the narrowline anchor sit, the simulated UV background
is 35% below the one the noise gates check. Choosing one law is item 3 of
ROADMAP.md.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

C_NM_GHZ = 2.99792458e8          # c expressed as nm * GHz
HC_EV_NM = 1239.8419843320025    # h*c/e in eV*nm
_HALF_SINC2 = 1.39155737825151   # sinc^2(x) = 1/2 at this x
_LN16 = 4.0 * math.log(2.0)


# ---------------------------------------------------------------------------
# wavelength / energy bookkeeping

def sfg_output_wavelength(lambda_input_nm, lambda_pump_nm):
    """Upconverted wavelength from photon-energy addition: 1/lo = 1/li + 1/lp."""
    if lambda_input_nm <= 0 or lambda_pump_nm <= 0:
        raise ValueError("wavelengths must be positive")
    return 1.0 / (1.0 / lambda_input_nm + 1.0 / lambda_pump_nm)


_SIGNAL_VALIDITY_NM = (250.0, 5000.0)


def spdc_signal_wavelength(lambda_pump_nm, lambda_idler_nm):
    """Energy-conserving partner of a pair: 1/ls = 1/lp - 1/li.

    Requires lambda_idler > lambda_pump (otherwise no energy-conserving
    partner exists). Results far outside the device band are returned but
    flagged with a warning.
    """
    if lambda_pump_nm <= 0:
        raise ValueError("pump wavelength must be positive")
    if lambda_idler_nm <= lambda_pump_nm:
        raise ValueError("idler wavelength must exceed the pump wavelength")
    ls = 1.0 / (1.0 / lambda_pump_nm - 1.0 / lambda_idler_nm)
    if not _SIGNAL_VALIDITY_NM[0] <= ls <= _SIGNAL_VALIDITY_NM[1]:
        warnings.warn(f"partner wavelength {ls:.4g} nm outside the model validity "
                      f"window {_SIGNAL_VALIDITY_NM}", stacklevel=2)
    return ls


def energy_gap(lambda_a_nm, lambda_b_nm):
    """Signed photon-energy difference as (eV, THz)."""
    if lambda_a_nm <= 0 or lambda_b_nm <= 0:
        raise ValueError("wavelengths must be positive")
    inv = 1.0 / lambda_a_nm - 1.0 / lambda_b_nm
    return HC_EV_NM * inv, C_NM_GHZ * inv / 1e3


# ---------------------------------------------------------------------------
# device model / loss budget / filters

@dataclass(frozen=True)
class ConverterModel:
    """All physical parameters of the waveguide converter.

    eta_nor_per_mw_mm2 is the normalized conversion coefficient entering
    sin^2(sqrt(eta_nor * P_eff) * L) with L in mm;
    uv_absorption_per_mw is the saturation coefficient of
    P_eff = P * exp(-c * P) (phenomenological pump-induced UV absorption).
    Background coefficients are detector-plane values (fixed path losses
    folded in); see the module docstring for the component layout.
    poling_period_um describes the device only: the phase-matching band
    enters the model through its sinc^2 FWHM, noise_bandwidth_ghz.
    Fields have no defaults; the device's values come from
    config.bundled_model() or a config file.
    """

    length_mm: float
    poling_period_um: float
    lambda_input_nm: float
    lambda_pump_nm: float
    eta_nor_per_mw_mm2: float
    uv_absorption_per_mw: float
    pair_rate_per_mw: float
    noise_bandwidth_ghz: float
    noise_quad_hz_per_mw2: float
    noise_floor_density_hz_per_ghz_mw: float
    detector_stray_hz_per_mw: float
    input_flux_hz: float
    dark_count_rate_hz: float

    def __post_init__(self):
        if self.length_mm <= 0 or self.poling_period_um <= 0:
            raise ValueError("length and poling period must be positive")
        for name in ("eta_nor_per_mw_mm2", "uv_absorption_per_mw", "pair_rate_per_mw",
                     "noise_quad_hz_per_mw2", "noise_floor_density_hz_per_ghz_mw",
                     "detector_stray_hz_per_mw", "input_flux_hz", "dark_count_rate_hz"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def lambda_output_nm(self):
        return sfg_output_wavelength(self.lambda_input_nm, self.lambda_pump_nm)

    @property
    def lambda_signal_nm(self):
        return spdc_signal_wavelength(self.lambda_pump_nm, self.lambda_input_nm)

    @property
    def output_center_ghz(self):
        return C_NM_GHZ / self.lambda_output_nm


@dataclass(frozen=True)
class LossBudget:
    """Multiplicative transmission chain between crystal facet and detector.

    mode_matching is the waveguide in-coupling fraction; it links the
    external and internal efficiencies (eta_ext = eta_int * mode_matching)
    and is deliberately not part of eta_loss, which covers only the
    detection path: bulk optics, fiber coupling, detector efficiency and,
    when present, the narrow etalon. The device's budget is
    config.bundled_losses(); fields have no defaults.
    """

    external_optics: float
    fiber_coupling: float
    detector_efficiency: float
    etalon_transmission: float
    mode_matching: float

    def __post_init__(self):
        for name in ("external_optics", "fiber_coupling", "detector_efficiency",
                     "etalon_transmission", "mode_matching"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")

    def eta_loss(self, with_etalon=False):
        t = self.external_optics * self.fiber_coupling * self.detector_efficiency
        if with_etalon:
            t *= self.etalon_transmission
        return t


FILTER_KINDS = ("etalon", "bandpass", "vbg", "lorentzian_line", "gaussian_spectrometer")


@dataclass(frozen=True)
class SpectralFilter:
    """Transmission-vs-frequency model for one optical element.

    kinds: etalon (Airy comb times a single-order selection envelope),
    bandpass (flat top, out-of-band 10^-OD), vbg and gaussian_spectrometer
    (Gaussian), lorentzian_line (Lorentzian, e.g. an atomic transition used
    as a filter).

    The etalon envelope models the downstream single-transverse-mode
    coupling, which accepts only the interference order aligned with the
    optical axis; its FWHM defaults to one free spectral range. Set
    order_envelope_fwhm_ghz = inf for a bare Airy comb.
    """

    kind: str
    center_nm: float
    fwhm_ghz: float
    fsr_ghz: float = None
    peak_transmission: float = 1.0
    out_of_band_od: float = None
    order_envelope_fwhm_ghz: float = None

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.center_nm <= 0 or self.fwhm_ghz <= 0:
            raise ValueError("center and fwhm must be positive")
        if not 0.0 < self.peak_transmission <= 1.0:
            raise ValueError("peak_transmission must be in (0, 1]")
        if self.kind == "etalon":
            if self.fsr_ghz is None or not 0 < self.fwhm_ghz < self.fsr_ghz:
                raise ValueError("etalon requires 0 < fwhm < fsr")
        if self.kind == "bandpass" and self.out_of_band_od is None:
            raise ValueError("bandpass requires out_of_band_od")

    @property
    def center_ghz(self):
        return C_NM_GHZ / self.center_nm

    @property
    def finesse(self):
        if self.kind != "etalon":
            raise ValueError("finesse is defined for etalons only")
        return self.fsr_ghz / self.fwhm_ghz

    # -- constructors for the common elements -------------------------------
    @classmethod
    def etalon(cls, center_nm, fsr_ghz=340.0, fwhm_ghz=5.5, peak_transmission=0.50,
               order_envelope_fwhm_ghz=None):
        return cls("etalon", center_nm, fwhm_ghz, fsr_ghz=fsr_ghz,
                   peak_transmission=peak_transmission,
                   order_envelope_fwhm_ghz=order_envelope_fwhm_ghz)

    @classmethod
    def bandpass_nm(cls, center_nm, fwhm_nm, peak_transmission=1.0, out_of_band_od=22.0):
        return cls("bandpass", center_nm, fwhm_nm * C_NM_GHZ / center_nm ** 2,
                   peak_transmission=peak_transmission, out_of_band_od=out_of_band_od)

    @classmethod
    def vbg_nm(cls, center_nm, fwhm_nm, peak_transmission=0.9):
        return cls("vbg", center_nm, fwhm_nm * C_NM_GHZ / center_nm ** 2,
                   peak_transmission=peak_transmission)

    @classmethod
    def line_mhz(cls, center_nm, fwhm_mhz, peak_transmission=1.0):
        return cls("lorentzian_line", center_nm, fwhm_mhz / 1e3,
                   peak_transmission=peak_transmission)

    @classmethod
    def spectrometer_nm(cls, center_nm, resolution_fwhm_nm=0.15):
        return cls("gaussian_spectrometer", center_nm,
                   resolution_fwhm_nm * C_NM_GHZ / center_nm ** 2)

    # ------------------------------------------------------------------------
    def transmission_at_offset(self, dnu_ghz):
        """Transmission at a detuning (GHz) from this filter's own center."""
        dnu = np.asarray(dnu_ghz, dtype=float)
        if self.kind == "etalon":
            coeff = (2.0 * self.finesse / np.pi) ** 2
            t = self.peak_transmission / (1.0 + coeff * np.sin(np.pi * dnu / self.fsr_ghz) ** 2)
            env = self.order_envelope_fwhm_ghz
            if env is None:
                env = self.fsr_ghz
            if np.isfinite(env):
                t = t * np.exp(-_LN16 * (dnu / env) ** 2)
            return t
        if self.kind == "bandpass":
            floor = self.peak_transmission * 10.0 ** (-self.out_of_band_od)
            return np.where(np.abs(dnu) <= 0.5 * self.fwhm_ghz,
                            self.peak_transmission, floor)
        if self.kind in ("vbg", "gaussian_spectrometer"):
            return self.peak_transmission * np.exp(-_LN16 * (dnu / self.fwhm_ghz) ** 2)
        # lorentzian_line
        return self.peak_transmission / (1.0 + (2.0 * dnu / self.fwhm_ghz) ** 2)


def stack_transmission(filters, frequency_ghz):
    """Product of all filter transmissions at absolute frequency (GHz).

    Commutative/multiplicative by construction: order never matters.
    """
    freq = np.asarray(frequency_ghz, dtype=float)
    t = np.ones_like(freq)
    for f in filters:
        t = t * f.transmission_at_offset(freq - f.center_ghz)
    return t


# ---------------------------------------------------------------------------
# conversion efficiency

def _pump_powers(pump_power_mw):
    p = np.asarray(pump_power_mw, dtype=float)
    if np.any(p < 0):
        raise ValueError("pump power must be >= 0")
    return p


def _scalar_or_array(x):
    # a scalar pump power gives a float, an array of powers an array
    return float(x) if np.ndim(x) == 0 else x


def conversion_efficiency(pump_power_mw, model, internal=True, losses=None):
    """Pump-power-dependent conversion efficiency.

    internal=True gives the in-waveguide efficiency
    sin^2(sqrt(eta_nor * P_eff) * L) with the saturating effective power
    P_eff = P * exp(-c * P); internal=False multiplies by the mode-matching
    fraction of the loss budget, referencing the efficiency to photons at
    the input facet instead. Detection-path losses are never included here.
    """
    p = _pump_powers(pump_power_mw)
    p_eff = p * np.exp(-model.uv_absorption_per_mw * p)
    eta = np.sin(np.sqrt(model.eta_nor_per_mw_mm2 * p_eff) * model.length_mm) ** 2
    if not internal:
        if losses is None:
            raise ValueError("external efficiency requires a LossBudget (mode_matching)")
        eta = eta * losses.mode_matching
    return _scalar_or_array(eta)


# ---------------------------------------------------------------------------
# background-count model

def _sinc2_shape(dnu_ghz, bandwidth_ghz):
    # unit-peak phase-matching band sinc^2(alpha * dnu) with FWHM bandwidth_ghz
    alpha = 2.0 * _HALF_SINC2 / bandwidth_ghz
    x = alpha * np.asarray(dnu_ghz, dtype=float)
    out = np.ones_like(x)
    np.divide(np.sin(x), x, out=out, where=x != 0)
    return np.square(out, out=out)


def _shape_norm_ghz(bandwidth_ghz):
    # integral of the unit-peak sinc^2 shape over all frequencies
    return np.pi * bandwidth_ghz / (2.0 * _HALF_SINC2)

_FLOOR_EXTENT = 1.5       # flat floor spans +- this many bandwidths
_BASE_STEP_GHZ = 0.25     # noise_spectrum's grid step; resolves 5.5 GHz etalon teeth
_GRID_SPAN = 3.2          # quadrature span in bandwidths
_SMOOTH_PANELS = 20       # panels per bandwidth where the integrand is smooth
_ETALON_ZONE = 5.0        # etalon envelope FWHMs resolved tooth by tooth

# 8-point Gauss-Legendre rule on [-1, 1] (numpy.polynomial.legendre.leggauss(8));
# literal, so importing the package does not load numpy.polynomial
_GL_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                      -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                      0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                        0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                        0.22238103445337443, 0.10122853629037706])


def _panel_edges(filters, center_ghz, bandwidth_ghz):
    """Ascending panel edges over the quadrature span, +-_GRID_SPAN bandwidths.

    Every discontinuity of the integrand is an edge: the span's ends, the
    floor's edges and both edges of every bandpass. The edges also cut
    around each peaked filter (vbg, line, spectrometer): at its centre and
    at +-fwhm * 2^k / 8 for k = 0, 1, ... while that is below the smooth
    panel width, bandwidth / _SMOOTH_PANELS. Between cuts the panels are
    at most that wide, and within +-_ETALON_ZONE envelope FWHMs of an
    etalon (all of the span for an inf envelope) at most half a tooth.
    """
    half = _GRID_SPAN * bandwidth_ghz
    lo, hi = center_ghz - half, center_ghz + half
    smooth = bandwidth_ghz / _SMOOTH_PANELS
    floor = _FLOOR_EXTENT * bandwidth_ghz
    cuts = [lo, hi, center_ghz - floor, center_ghz + floor]
    zones = []  # (start, stop, widest panel) for the etalon teeth
    for f in filters:
        c = f.center_ghz
        if f.kind == "bandpass":
            cuts += [c - 0.5 * f.fwhm_ghz, c + 0.5 * f.fwhm_ghz]
        elif f.kind == "etalon":
            env = f.fsr_ghz if f.order_envelope_fwhm_ghz is None else f.order_envelope_fwhm_ghz
            reach = _ETALON_ZONE * env
            zones.append((c - reach, c + reach, 0.5 * f.fwhm_ghz))
            cuts += [c - reach, c + reach]
        else:
            cuts.append(c)
            w = f.fwhm_ghz / 8.0
            while w < smooth:
                cuts += [c - w, c + w]
                w *= 2.0
    cuts = np.unique(np.clip(cuts, lo, hi))
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        width = min([smooth] + [h for start, stop, h in zones if start < mid < stop])
        pieces.append(np.linspace(a, b, math.ceil((b - a) / width) + 1)[:-1])
    pieces.append(cuts[-1:])
    return np.concatenate(pieces)


def _stack_integrals(filters, center_ghz, bandwidth_ghz):
    """Pump-independent overlaps of a filter stack with the background band.

    Returns (sinc2, floor): the stack transmission integrated against the
    unit-area sinc^2 band (FWHM bandwidth_ghz, centered at center_ghz) and
    against the unit-density flat floor spanning +-_FLOOR_EXTENT bandwidths
    (GHz), both over +-_GRID_SPAN bandwidths. Gauss-Legendre quadrature, 8
    nodes on each panel of `_panel_edges`. Every discontinuity of the
    integrand is a panel edge, so each panel holds a smooth piece, and 16
    nodes on halved panels agree to 1e-10 relative; near a 20 MHz line that
    is the rounding of the nodes' absolute frequencies (1.2e-10 GHz at
    811 THz).
    """
    edges = _panel_edges(filters, center_ghz, bandwidth_ghz)
    half = 0.5 * np.diff(edges)[:, None]
    # the offset into each panel keeps its full relative precision, so each
    # node's absolute frequency is rounded once
    nu = (edges[:-1, None] + half * (_GL_NODES + 1.0)).ravel()
    weights = (half * _GL_WEIGHTS).ravel()
    t = stack_transmission(filters, nu)
    dnu = nu - center_ghz
    sinc2 = np.dot(weights, _sinc2_shape(dnu, bandwidth_ghz) * t) \
        / _shape_norm_ghz(bandwidth_ghz)
    floor = np.dot(weights, np.where(np.abs(dnu) <= _FLOOR_EXTENT * bandwidth_ghz, t, 0.0))
    return float(sinc2), float(floor)


def _optical_density(nu_ghz, pump_power_mw, model):
    """In-band background spectral density (Hz/GHz) at the detector plane."""
    dnu = nu_ghz - model.output_center_ghz
    bw = model.noise_bandwidth_ghz
    quad_total = model.noise_quad_hz_per_mw2 * pump_power_mw ** 2
    dens = quad_total * _sinc2_shape(dnu, bw) / _shape_norm_ghz(bw)
    floor = model.noise_floor_density_hz_per_ghz_mw * pump_power_mw
    dens = dens + np.where(np.abs(dnu) <= _FLOOR_EXTENT * bw, floor, 0.0)
    return dens


def cascade_rate(pump_power_mw, filters, model):
    """Quadratic cascade background through a filter stack (Hz)."""
    p = _pump_powers(pump_power_mw)
    sinc2, _ = _stack_integrals(filters, model.output_center_ghz, model.noise_bandwidth_ghz)
    return _scalar_or_array(model.noise_quad_hz_per_mw2 * p ** 2 * sinc2)


def inband_floor_rate(pump_power_mw, filters, model):
    """Flat in-band luminescence floor through a filter stack (Hz)."""
    p = _pump_powers(pump_power_mw)
    _, floor = _stack_integrals(filters, model.output_center_ghz, model.noise_bandwidth_ghz)
    return _scalar_or_array(model.noise_floor_density_hz_per_ghz_mw * p * floor)


def noise_rate(pump_power_mw, filters, model, include_detector=True):
    """Detector count rate without any input light (Hz).

    Closed form in pump power P (mW):
    quad * P^2 * S + floor_density * P * F [+ dark + stray * P], where S and
    F are the stack's overlaps with the unit-area sinc^2 band and the flat
    floor, from one quadrature whatever the number of powers. P is a scalar
    (returns a float) or an array (returns an array, element k equal to the
    scalar call at P[k]); any P < 0 raises ValueError, and P = 0 gives the
    dark rate exactly.

    include_detector=True adds the detector-path terms (dark counts and
    stray fluorescence that bypasses the spectral stack); set it False for
    projections where a narrow spectral acceptor replaces the detector,
    e.g. estimating the background an atomic line would admit.
    """
    p = _pump_powers(pump_power_mw)
    sinc2, floor = _stack_integrals(filters, model.output_center_ghz,
                                    model.noise_bandwidth_ghz)
    rate = model.noise_quad_hz_per_mw2 * p ** 2 * sinc2 \
        + model.noise_floor_density_hz_per_ghz_mw * p * floor
    if include_detector:
        rate = rate + (model.dark_count_rate_hz + model.detector_stray_hz_per_mw * p)
    return _scalar_or_array(rate)


def band_fraction(filters, center_nm, bandwidth_ghz):
    """Fraction of a sinc^2 band (FWHM bandwidth, centered at center_nm)
    that a filter stack transmits. Pump-power independent."""
    return _stack_integrals(filters, C_NM_GHZ / center_nm, bandwidth_ghz)[0]


def _converted_input_rate(model, pump_power_mw, losses, filters):
    # the converted-input term of detected_signal_rate, without the noise
    with_etalon = any(f.kind == "etalon" for f in filters)
    eta_ext = conversion_efficiency(pump_power_mw, model, internal=False, losses=losses)
    return model.input_flux_hz * losses.eta_loss(with_etalon) * eta_ext


def detected_signal_rate(model, pump_power_mw, losses, filters):
    """Predicted detector rate with the nominal input flux present (Hz).

    input_flux * eta_loss * eta_ext(P) + noise_rate(P); the etalon factor
    joins eta_loss only when an etalon is actually in the stack. P may be
    a scalar or an array of powers, as for noise_rate.
    """
    return _converted_input_rate(model, pump_power_mw, losses, filters) \
        + noise_rate(pump_power_mw, filters, model)


# ---------------------------------------------------------------------------
# spectrally resolved background

@dataclass(frozen=True)
class BinnedSpectrum:
    """Per-bin detector rates over a wavelength grid (ascending nm edges)."""

    edges_nm: np.ndarray
    rates_hz: np.ndarray
    pump_power_mw: float
    resolution_fwhm_nm: float
    floor_per_bin_hz: float

    @property
    def centers_nm(self):
        return 0.5 * (self.edges_nm[:-1] + self.edges_nm[1:])

    def peak_bin(self):
        return int(np.argmax(self.rates_hz))

    def peak_wavelength_nm(self):
        return float(self.centers_nm[self.peak_bin()])

    def peak_to_floor(self, exclude_nm=3.3):
        """Max bin over the median of bins detuned more than exclude_nm."""
        center = self.centers_nm[self.peak_bin()]
        outer = self.rates_hz[np.abs(self.centers_nm - center) > exclude_nm]
        if len(outer) == 0:
            raise ValueError("no bins outside the exclusion window")
        floor = float(np.median(outer))
        if floor <= 0:
            raise ValueError("spectrum floor is zero; set a floor_per_bin")
        return float(self.rates_hz.max()) / floor


DEFAULT_RESOLUTION_FWHM_NM = 0.15
_SMOOTH_LENGTHS = 30 ** 64  # n <= 2^64 divides this exactly when n = 2^a 3^b 5^c


def _gaussian_blur(y, sigma_bins):
    """y convolved with a normalised Gaussian kernel (radius int(4 sigma + 0.5)
    bins) with zeros beyond both ends, by FFT; same length as y."""
    radius = int(4.0 * sigma_bins + 0.5)
    x = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma_bins * sigma_bins) * x ** 2)
    kernel /= kernel.sum()
    n = y.size + 2 * radius
    while _SMOOTH_LENGTHS % n:  # the next 5-smooth length, fast for numpy's FFT
        n += 1
    full = np.fft.irfft(np.fft.rfft(y, n) * np.fft.rfft(kernel, n), n)
    return full[radius:radius + y.size]


def noise_spectrum(pump_power_mw, filters, model, grid_edges_nm, floor_per_bin_hz=0.0):
    """Background spectrum binned onto a wavelength grid (Hz per bin).

    The in-band optical density is passed through the stack, convolved with
    the spectrometer response (a gaussian_spectrometer entry in `filters` if
    present, else 0.15 nm FWHM), integrated over each grid bin, and offset
    by the instrument floor. grid_edges_nm are ascending bin edges.
    """
    edges = np.asarray(grid_edges_nm, dtype=float)
    if edges.size < 2:
        raise ValueError("grid must contain at least two bin edges")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("grid edges must be strictly ascending")

    stack = [f for f in filters if f.kind != "gaussian_spectrometer"]
    spectrometers = [f for f in filters if f.kind == "gaussian_spectrometer"]
    if spectrometers:
        res_fwhm_ghz = spectrometers[0].fwhm_ghz
    else:
        res_fwhm_ghz = DEFAULT_RESOLUTION_FWHM_NM * C_NM_GHZ / model.lambda_output_nm ** 2
    sigma_ghz = res_fwhm_ghz / (2.0 * math.sqrt(2.0 * math.log(2.0)))

    nu_edges = C_NM_GHZ / edges          # descending
    lo = nu_edges.min() - 5 * sigma_ghz
    hi = nu_edges.max() + 5 * sigma_ghz
    nu = np.arange(lo, hi, _BASE_STEP_GHZ)
    dens = _optical_density(nu, pump_power_mw, model) * stack_transmission(stack, nu)
    dens = _gaussian_blur(dens, sigma_ghz / _BASE_STEP_GHZ)

    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(nu))])
    cum_at = np.interp(nu_edges, nu, cum)
    # per-bin integral; wavelength bin k spans nu_edges[k+1] .. nu_edges[k]
    rates = cum_at[:-1] - cum_at[1:]
    # bins below 1e-12 of the peak hold FFT round-off, not model rate
    rates = np.where(rates < 1e-12 * rates.max(), 0.0, rates) + floor_per_bin_hz
    return BinnedSpectrum(edges, rates, pump_power_mw,
                          res_fwhm_ghz * model.lambda_output_nm ** 2 / C_NM_GHZ,
                          floor_per_bin_hz)
