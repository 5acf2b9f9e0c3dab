"""Device calibration: the bundled parameter set, config files, and fitting.

The bundled calibration is derived at call time, in closed form, from a
small set of device anchor values (internal efficiency 10.5% and external
5.5% at 200 mW pump, 13 Hz dark counts, 1.3 Hz background inside a 20 MHz
line at 200 mW, a 50%-transmission etalon with 340 GHz FSR and 5.5 GHz
width), so the anchors hold exactly rather than to rounded constants.
`bundled_model` and `bundled_losses` are the only source of the device
numbers: the parameter dataclasses carry no defaults, and a config file
must name every field.

Config files are flat JSON with a schema_version key; every artifact the
scenario runner emits embeds the content hash of the active config.
"""

import hashlib
import json
import math
import numbers
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .spectral import (ConverterModel, LossBudget, SpectralFilter, _shape_norm_ghz,
                       conversion_efficiency, noise_rate)

SCHEMA_VERSION = 1

# device anchor values
ETA_INT_AT_200MW = 0.105
ETA_EXT_AT_200MW = 0.055
DARK_COUNTS_HZ = 13.0
NARROWLINE_HZ = 1.3          # background within the 20 MHz acceptor at 200 mW
NARROWLINE_FWHM_MHZ = 20.0
ETALON_FSR_GHZ = 340.0
ETALON_FWHM_GHZ = 5.5
ETALON_PEAK_T = 0.50
UV_BANDPASS_FWHM_NM = 6.0
UV_BANDPASS_OD = 22.0


class CalibrationError(RuntimeError):
    pass


def _calibrated_eta_nor(length_mm, uv_absorption_per_mw, target=ETA_INT_AT_200MW,
                        at_mw=200.0):
    # root of sin^2(sqrt(eta_nor * P_eff) * L) = target on the first monotonic
    # branch (argument of sin below pi/2)
    p_eff = at_mw * math.exp(-uv_absorption_per_mw * at_mw)
    return (math.asin(math.sqrt(target)) / length_mm) ** 2 / p_eff


def _calibrated_noise_quad(bandwidth_ghz, target=NARROWLINE_HZ, at_mw=200.0,
                           line_fwhm_ghz=NARROWLINE_FWHM_MHZ / 1e3):
    # flat density at band center through a unit-peak Lorentzian of area
    # (pi/2)*fwhm must equal the target rate
    shape_norm = _shape_norm_ghz(bandwidth_ghz)
    line_area = 0.5 * np.pi * line_fwhm_ghz
    return target * shape_norm / (at_mw ** 2 * line_area)


def bundled_model():
    """ConverterModel whose coefficients reproduce the device anchors exactly."""
    length_mm, uv_abs = 9.6, 0.002
    bandwidth = 13140.0
    eta_nor = _calibrated_eta_nor(length_mm, uv_abs)
    quad = _calibrated_noise_quad(bandwidth)
    losses = bundled_losses()
    eta_lin_per_mw = eta_nor * length_mm ** 2   # low-gain eta_int slope
    pair_rate = quad / (eta_lin_per_mw * losses.eta_loss(with_etalon=False))
    return ConverterModel(
        length_mm=length_mm,
        poling_period_um=2.535,
        lambda_input_nm=1311.0,
        lambda_pump_nm=514.5,
        eta_nor_per_mw_mm2=eta_nor,
        uv_absorption_per_mw=uv_abs,
        pair_rate_per_mw=pair_rate,
        noise_bandwidth_ghz=bandwidth,
        noise_quad_hz_per_mw2=quad,
        noise_floor_density_hz_per_ghz_mw=1.0 / bandwidth,
        detector_stray_hz_per_mw=20.0,
        input_flux_hz=6.0e6,
        dark_count_rate_hz=DARK_COUNTS_HZ,
    )


def bundled_losses():
    """Detection-path budget: 78% bulk optics, 69% fiber, 14% detector,
    50% etalon when present; mode matching set by the external/internal
    efficiency ratio."""
    return LossBudget(external_optics=0.78, fiber_coupling=0.69,
                      detector_efficiency=0.14, etalon_transmission=ETALON_PEAK_T,
                      mode_matching=ETA_EXT_AT_200MW / ETA_INT_AT_200MW)


def uv_bandpass(model):
    return SpectralFilter.bandpass_nm(model.lambda_output_nm, UV_BANDPASS_FWHM_NM,
                                      peak_transmission=1.0,
                                      out_of_band_od=UV_BANDPASS_OD)


def uv_etalon(model):
    return SpectralFilter.etalon(model.lambda_output_nm, fsr_ghz=ETALON_FSR_GHZ,
                                 fwhm_ghz=ETALON_FWHM_GHZ,
                                 peak_transmission=ETALON_PEAK_T)


def narrowline_filter(model):
    """The ionic transition treated as an ideal 20 MHz Lorentzian acceptor."""
    return SpectralFilter.line_mhz(model.lambda_output_nm, NARROWLINE_FWHM_MHZ)


def uv_spectrometer(model, resolution_fwhm_nm=0.15):
    return SpectralFilter.spectrometer_nm(model.lambda_output_nm, resolution_fwhm_nm)


def uv_stack(model, etalon=False):
    stack = [uv_bandpass(model)]
    if etalon:
        stack.append(uv_etalon(model))
    return tuple(stack)


# ---------------------------------------------------------------------------
# serialization

def config_to_dict(model, losses):
    return {
        "schema_version": SCHEMA_VERSION,
        "converter": asdict(model),
        "loss_budget": asdict(losses),
    }


def _config_section(data, section, cls):
    if section not in data:
        raise ValueError(f"config has no {section!r} section")
    values = data[section]
    if not isinstance(values, dict):
        raise ValueError(f"config section {section!r} must be an object")
    fields = cls.__dataclass_fields__.keys()
    missing, unknown = sorted(fields - values.keys()), sorted(values.keys() - fields)
    if missing or unknown:
        raise ValueError(f"config section {section!r}: missing keys {missing}, "
                         f"unknown keys {unknown}")
    for key, value in values.items():
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ValueError(f"config section {section!r}: key {key!r} must be a "
                             f"finite number, got {value!r}")
    return cls(**values)


def config_from_dict(data):
    """(ConverterModel, LossBudget) from a config dict; every field of both
    sections must be present as a finite JSON number, and no other key, else
    ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unrecognized schema_version {version!r}")
    return (_config_section(data, "converter", ConverterModel),
            _config_section(data, "loss_budget", LossBudget))


def config_hash(data):
    """Content hash of a config dict (order-independent, 12 hex chars)."""
    canon = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canon).hexdigest()[:12]


def save_config(path, model, losses, force=False):
    path = Path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass force=True to overwrite")
    data = config_to_dict(model, losses)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return config_hash(data)


def load_config(path):
    return config_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# anchor fitting

_MODEL_FIELDS = set(ConverterModel.__dataclass_fields__)
_LOSS_FIELDS = set(LossBudget.__dataclass_fields__)
_PUMP_OBSERVABLES = ("eta_int", "eta_ext", "narrowline_noise", "noise_unfiltered",
                     "noise_etalon")


def _evaluate_observable(name, model, losses):
    if "@" in name:
        key, arg = name.split("@", 1)
        p = float(arg)
    else:
        key, p = name, None
    if p is None and key in _PUMP_OBSERVABLES:
        raise CalibrationError(f"anchor {name!r} needs a pump power, "
                               f"e.g. {key}@200")
    if key == "eta_int":
        return conversion_efficiency(p, model, internal=True)
    if key == "eta_ext":
        return conversion_efficiency(p, model, internal=False, losses=losses)
    if key == "dark":
        return model.dark_count_rate_hz
    if key == "narrowline_noise":
        stack = (uv_bandpass(model), narrowline_filter(model))
        return noise_rate(p, stack, model, include_detector=False)
    if key == "noise_unfiltered":
        return noise_rate(p, uv_stack(model, etalon=False), model)
    if key == "noise_etalon":
        return noise_rate(p, uv_stack(model, etalon=True), model)
    if key == "etalon_peak":
        return uv_etalon(model).peak_transmission
    raise CalibrationError(f"unknown observable {name!r}")


def calibrate(anchors, free_params, model=None, losses=None):
    """Least-squares fit of named parameters to named observable anchors.

    anchors: list of (observable, target) pairs, e.g. ("eta_int@200", 0.105).
    free_params: field names of ConverterModel or LossBudget to vary.
    Returns (model, losses, residuals) where residuals maps each anchor to
    its relative miss after the fit. Requires at least as many anchors as
    free parameters; duplicate conflicting anchors are split in the
    least-squares sense rather than rejected.
    """
    from scipy.optimize import least_squares  # imported here: scipy is slow to import
    model = model if model is not None else bundled_model()
    losses = losses if losses is not None else bundled_losses()
    for name in free_params:
        if name not in _MODEL_FIELDS and name not in _LOSS_FIELDS:
            raise CalibrationError(f"unknown parameter {name!r}")
    if len(anchors) < len(free_params):
        raise CalibrationError(
            f"underdetermined fit: {len(free_params)} free parameters but only "
            f"{len(anchors)} anchors; add {len(free_params) - len(anchors)} anchors")

    def apply(x):
        m, l = model, losses
        for name, v in zip(free_params, np.exp(x)):
            if name in _MODEL_FIELDS:
                m = replace(m, **{name: float(v)})
            else:
                l = replace(l, **{name: float(min(v, 1.0))})
        return m, l

    def residual_list(m, l):
        return [(_evaluate_observable(name, m, l) - target) / max(abs(target), 1e-12)
                for name, target in anchors]

    def residual_report(m, l):
        # duplicate anchors stay separate in the fit; the report keys them
        out = {}
        for (name, _), r in zip(anchors, residual_list(m, l)):
            key = name if name not in out else f"{name}#{sum(k.startswith(name) for k in out)}"
            out[key] = r
        return out

    if free_params:
        x0 = []
        for name in free_params:
            v = getattr(model, name) if name in _MODEL_FIELDS else getattr(losses, name)
            if v <= 0:
                v = 1e-6
            x0.append(np.log(v))

        def fun(x):
            return np.array(residual_list(*apply(x)))

        fit = least_squares(fun, np.array(x0), xtol=1e-14, ftol=1e-14, gtol=1e-14)
        model, losses = apply(fit.x)
        resid = residual_report(model, losses)
        if not fit.success:
            raise CalibrationError(f"fit did not converge; best residuals {resid}")
    else:
        resid = residual_report(model, losses)

    return model, losses, resid
