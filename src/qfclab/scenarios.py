"""Scenario runner: wires the physics, generator and analysis modules into
reproducible figure-style studies with CSV artifacts.

Scenario kinds:

* efficiency_sweep  conversion efficiency vs pump power
* snr_sweep         simulated signal-to-noise vs pump power, narrow filtering
* noise_sweep       background scaling vs pump power, with/without etalon
* noise_spectrum    spectrally resolved background, with/without etalon
* coincidence_si    signal/infrared pair correlations at low pump
* coincidence_so    signal/upconverted-output correlations at high pump
* fock_demo         cascaded-state amplitudes from the Fock engine

Every scenario is deterministic for a fixed manifest seed: per-scenario
seeds derive from sha256(global_seed, scenario name), and all randomness
flows through numpy Generators seeded from those. CSV artifacts embed the
tool version, the seed and the content hash of the active calibration.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import (bundled_losses, bundled_model, config_hash, config_to_dict,
                     load_config, narrowline_filter, uv_spectrometer, uv_stack)
from .fock import CouplingParams, FockBasis, cascaded_evolution
from .montecarlo import ChannelConfig, ScenarioConfig, generate_streams
from .spectral import (LossBudget, SpectralFilter, _converted_input_rate,
                       conversion_efficiency, noise_rate, noise_spectrum)
from .tagcorr import (cauchy_schwarz_test, coincidence_histogram,
                      g2_from_histogram, power_law_fit)


class ScenarioError(ValueError):
    pass


def _is_number(value):
    """An int or a finite float, as JSON gives them; not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an int beyond the float range
        return False


_AT_LEAST_0 = ("a number >= 0", lambda v: _is_number(v) and v >= 0)
_ABOVE_0 = ("a number > 0", lambda v: _is_number(v) and v > 0)
_COUNT = ("an integer >= 1", lambda v: _is_number(v) and isinstance(v, int) and v >= 1)
_SWEEP = ("a non-empty list of numbers >= 0", lambda v: (
    isinstance(v, (list, tuple)) and len(v) > 0 and all(map(_AT_LEAST_0[1], v))))
# power_law_fit needs three powers > 0, and distinct ones to fit a slope
_FIT = ("a list of numbers > 0, 3 or more of them distinct", lambda v: (
    isinstance(v, (list, tuple)) and all(map(_ABOVE_0[1], v)) and len(set(v)) >= 3))
_WINDOW = {"bin_width_ps": (165, *_COUNT), "window_ns": (20.0, *_ABOVE_0)}

# {kind: {key: (default, what it must be, check)}}: the only keys each kind
# accepts, and the values it runs with where a key is not given
_PARAMS = {
    "efficiency_sweep": {"powers_mw": (tuple(12.5 * k for k in range(0, 33)), *_SWEEP)},
    "snr_sweep": {
        "powers_mw": ((25, 50, 75, 100, 125, 150, 175, 200, 250, 300, 350, 400), *_SWEEP),
        "acquisition_s": (5.0, *_ABOVE_0),
        "etalon": (True, "true or false", lambda v: isinstance(v, bool))},
    "noise_sweep": {"powers_mw": ((25, 40, 63, 100, 158, 251, 400), *_FIT),
                    "acquisition_s": (5.0, *_ABOVE_0), "n_seeds": (20, *_COUNT)},
    "noise_spectrum": {"pump_power_mw": (200.0, *_AT_LEAST_0),
                       "floor_per_bin_hz": (40.0, *_ABOVE_0)},
    "coincidence_si": {"pump_power_mw": (0.4, *_AT_LEAST_0),
                       "duration_s": (30.0, *_ABOVE_0), **_WINDOW},
    "coincidence_so": {"pump_power_mw": (200.0, *_AT_LEAST_0),
                       "duration_s": (20.0, *_ABOVE_0), **_WINDOW},
    "fock_demo": {"pump_amplitudes": ((0.005, 0.00707, 0.01, 0.01414, 0.02), *_FIT),
                  "kappa": (1.0, *_ABOVE_0), "gamma": (1.0, *_ABOVE_0),
                  "interaction_time": (1.0, *_ABOVE_0), "n_max": (3, *_COUNT)},
}
KINDS = tuple(_PARAMS)
_MAX_WINDOW_BINS = 2 ** 20      # the most bins of a coincidence scenario's histogram


def _window_problem(p):
    """What is wrong with a coincidence window, or None: 4 to _MAX_WINDOW_BINS
    bins (the ratio compared before round()), and window plus duration under 2**63 ps."""
    ratio = p["window_ns"] * 1e3 / p["bin_width_ps"]
    shown = f"params 'window_ns' {p['window_ns']!r} and 'bin_width_ps' {p['bin_width_ps']}"
    if not 1.5 <= ratio <= _MAX_WINDOW_BINS // 2 + 0.5:
        return (f"{shown} give window_ns * 1e3 / bin_width_ps = {ratio:g}; 2 * round() "
                f"of it must be 4 to {_MAX_WINDOW_BINS} bins")
    width_ps = 2 * round(ratio) * p["bin_width_ps"]
    if width_ps >= 2 ** 63 or width_ps + p["duration_s"] * 1e12 >= 2 ** 63:
        return (f"{shown} give a {width_ps} ps window; with 'duration_s' "
                f"{p['duration_s']!r} it must span less than 2**63 ps")


@dataclass
class Scenario:
    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ScenarioError(f"scenario {self.name!r}: params must be an object")
        table = _PARAMS[self.kind]
        where = f"scenario {self.name!r} ({self.kind})"
        unknown = sorted(set(self.params) - set(table))
        if unknown:
            raise ScenarioError(f"{where}: unknown params {unknown}; "
                                f"accepted {list(table)}")
        resolved = {key: default for key, (default, _, _) in table.items()} | self.params
        for key, (_, wanted, valid) in table.items():
            if not valid(resolved[key]):
                raise ScenarioError(f"{where}: param {key!r} must be {wanted}, "
                                    f"got {resolved[key]!r}")
        if "window_ns" in table and (problem := _window_problem(resolved)):
            raise ScenarioError(f"{where}: {problem}")
        self.params = resolved


@dataclass
class RunManifest:
    scenarios: list
    seed: int = 12345
    output_dir: str = "out"
    config_path: str = None
    schema_version: int = 1

    def __post_init__(self):
        if self.schema_version != 1:
            raise ScenarioError(f"unrecognized manifest schema_version "
                                f"{self.schema_version!r}")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ScenarioError("scenario names must be unique within a manifest")


def _scenario_from_dict(index, entry):
    if not isinstance(entry, dict):
        raise ScenarioError(f"manifest scenario #{index} {entry!r} is not an object")
    for key in ("name", "kind"):
        if key not in entry:
            raise ScenarioError(f"manifest scenario #{index} {entry!r} has no {key!r}")
    if not isinstance(entry["name"], str):
        raise ScenarioError(f"manifest scenario #{index} {entry!r}: 'name' must be "
                            "a string")
    return Scenario(entry["name"], entry["kind"], entry.get("params", {}))


def manifest_from_dict(data):
    if not isinstance(data, dict):
        raise ScenarioError(f"manifest must be a JSON object, got {type(data).__name__}")
    entries = data.get("scenarios", [])
    if not isinstance(entries, list):
        raise ScenarioError(f"manifest 'scenarios' must be a list, got "
                            f"{type(entries).__name__}")
    scenarios = [_scenario_from_dict(i, entry) for i, entry in enumerate(entries)]
    return RunManifest(scenarios, seed=data.get("seed", 12345),
                       output_dir=data.get("output_dir", "out"),
                       config_path=data.get("config_path"),
                       schema_version=data.get("schema_version", 1))


def load_manifest(path):
    return manifest_from_dict(json.loads(Path(path).read_text()))


def default_manifest(output_dir="out", seed=12345):
    """One scenario per kind, quick desk-scale defaults."""
    return RunManifest([Scenario(k, k) for k in KINDS], seed=seed,
                       output_dir=output_dir)


def derive_seed(global_seed, name):
    digest = hashlib.sha256(f"{global_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# ---------------------------------------------------------------------------
# channel setups for the coincidence scenarios

def signal_channel(model, vbg=False):
    filters = [SpectralFilter.bandpass_nm(model.lambda_signal_nm, 4.0,
                                          peak_transmission=0.95, out_of_band_od=6.0)]
    if vbg:
        filters.append(SpectralFilter.vbg_nm(model.lambda_signal_nm, 1.0,
                                             peak_transmission=0.9))
    losses = LossBudget(external_optics=0.78, fiber_coupling=0.69,
                        detector_efficiency=0.45, etalon_transmission=0.5,
                        mode_matching=0.5)
    return ChannelConfig(losses=losses, filters=tuple(filters),
                         dark_hz=300.0, luminescence_hz_per_mw=100.0)


def idler_channel(model):
    losses = LossBudget(external_optics=0.78, fiber_coupling=0.69,
                        detector_efficiency=0.10, etalon_transmission=0.5,
                        mode_matching=0.5)
    return ChannelConfig(losses=losses, filters=(),
                         dark_hz=20_000.0, luminescence_hz_per_mw=200.0)


def output_channel(model, losses, etalon=False):
    return ChannelConfig(losses=losses, filters=uv_stack(model, etalon=etalon),
                         dark_hz=model.dark_count_rate_hz,
                         luminescence_hz_per_mw=model.detector_stray_hz_per_mw)


# ---------------------------------------------------------------------------
# checks

def _check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _fmt(x):
    return format(float(x), ".6g")


# ---------------------------------------------------------------------------
# scenario computations (pure; file writing happens in run_scenario)

def compute_efficiency_sweep(model, losses, params, seed):
    powers = params["powers_mw"]
    p_mw = np.asarray(powers, dtype=float)
    eta_int = conversion_efficiency(p_mw, model, internal=True)
    eta_ext = conversion_efficiency(p_mw, model, internal=False, losses=losses)
    rows = list(zip(powers, eta_int.tolist(), eta_ext.tolist()))
    ei200 = conversion_efficiency(200.0, model, internal=True)
    ee200 = conversion_efficiency(200.0, model, internal=False, losses=losses)
    max_ei = max(r[1] for r in rows)
    checks = [
        _check("eta_ext_200mw", abs(ee200 - 0.055) <= 0.005,
               f"eta_ext(200 mW) = {_fmt(ee200)} (target 0.055 +- 0.005)"),
        _check("eta_int_200mw", abs(ei200 - 0.105) <= 0.010,
               f"eta_int(200 mW) = {_fmt(ei200)} (target 0.105 +- 0.010)"),
        _check("eta_int_below_pulsed_ceiling", max_ei < 0.30,
               f"max eta_int over sweep = {_fmt(max_ei)} (< 0.30)"),
    ]
    return {"tables": {"efficiency": (("pump_mw", "eta_int", "eta_ext"), rows)},
            "checks": checks}


def compute_snr_sweep(model, losses, params, seed):
    powers, t_acq = params["powers_mw"], params["acquisition_s"]
    stack = uv_stack(model, etalon=params["etalon"])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    p_mw = np.asarray(powers, dtype=float)
    # detected_signal_rate's sum, with the stack integrated once for both
    n_models = noise_rate(p_mw, stack, model)
    s_models = _converted_input_rate(model, p_mw, losses, stack) + n_models
    rows = []
    for p, s_model, n_model in zip(powers, s_models.tolist(), n_models.tolist()):
        s_sim = rng.poisson(s_model * t_acq) / t_acq
        n_sim = rng.poisson(n_model * t_acq) / t_acq
        # a short acquisition can count no noise: its SNR is then inf, or
        # nan when it counts nothing at all
        snr_sim = s_sim / n_sim if n_sim else (math.inf if s_sim else math.nan)
        rows.append((p, s_sim, n_sim, snr_sim, s_model / n_model))
    below = [r for r in rows if r[0] <= 200.0]
    above = [r for r in rows if r[0] >= 200.0]
    ok_below = all(r[3] >= 2.0 for r in below)
    sim_above = [r[3] for r in above]
    ok_above = all(b < a for a, b in zip(sim_above, sim_above[1:]))
    checks = [
        _check("snr_above_2_up_to_200mw", ok_below,
               "simulated SNR >= 2 for all P <= 200 mW: "
               + ", ".join(f"{r[0]:g}:{r[3]:.2f}" for r in below)),
        _check("snr_degrades_beyond_200mw", ok_above,
               "simulated SNR strictly decreasing for P >= 200 mW: "
               + ", ".join(f"{r[0]:g}:{r[3]:.2f}" for r in above)),
    ]
    return {"tables": {"snr": (("pump_mw", "rate_with_input_hz", "rate_without_hz",
                                "snr_sim", "snr_model"), rows)},
            "checks": checks}


def compute_noise_sweep(model, losses, params, seed):
    powers, t_acq, n_seeds = params["powers_mw"], params["acquisition_s"], params["n_seeds"]
    floor = model.dark_count_rate_hz
    tables = {}
    checks = []
    slope_rows = []
    for label, etalon, (lo, hi) in (("unfiltered", False, (1.85, 2.15)),
                                    ("etalon", True, (0.85, 1.15))):
        stack = uv_stack(model, etalon=etalon)
        rates = noise_rate(np.asarray(powers, dtype=float), stack, model)
        rows = [(p, r) for p, r in zip(powers, rates)]
        tables[f"rates_{label}"] = (("pump_mw", "noise_hz"), rows)
        exps = []
        for s in range(n_seeds):
            rng = np.random.default_rng(np.random.SeedSequence((seed, label == "etalon", s)))
            sampled = rng.poisson(rates * t_acq) / t_acq
            exp, err = power_law_fit(list(zip(powers, sampled)), subtract_floor=floor)
            exps.append(exp)
            slope_rows.append((label, s, exp, err))
        exps = np.array(exps)
        ok = bool(np.all((exps >= lo) & (exps <= hi)))
        checks.append(_check(
            f"noise_exponent_{label}", ok,
            f"{label}: fitted exponents over {n_seeds} seeds span "
            f"[{exps.min():.3f}, {exps.max():.3f}] (required [{lo}, {hi}])"))
    tables["fitted_exponents"] = (("stack", "seed", "exponent", "stderr"), slope_rows)

    n0 = noise_rate(0.0, uv_stack(model), model)
    line = noise_rate(200.0, (uv_stack(model)[0], narrowline_filter(model)),
                      model, include_detector=False)
    checks.append(_check("dark_floor", n0 == model.dark_count_rate_hz,
                         f"noise(P=0) = {_fmt(n0)} Hz (dark rate exactly)"))
    checks.append(_check("narrowline_noise", abs(line - 1.3) <= 0.3,
                         f"20 MHz-line background at 200 mW = {_fmt(line)} Hz "
                         "(target 1.3 +- 0.3)"))
    return {"tables": tables, "checks": checks}


def compute_noise_spectrum(model, losses, params, seed):
    p, floor = params["pump_power_mw"], params["floor_per_bin_hz"]
    lam0 = model.lambda_output_nm
    res = uv_spectrometer(model)

    coarse = lam0 - 0.25 + 0.5 * np.arange(-8, 10)
    spectra = {}
    for label, etalon in (("unfiltered", False), ("etalon", True)):
        stack = uv_stack(model, etalon=etalon) + (res,)
        spectra[label] = noise_spectrum(p, stack, model, coarse, floor_per_bin_hz=floor)

    ratio_u = spectra["unfiltered"].peak_to_floor()
    ratio_e = spectra["etalon"].peak_to_floor()
    reduction = ratio_u / ratio_e

    fine_edges = np.arange(lam0 - 4.0, lam0 + 4.05, 0.1)
    fine = noise_spectrum(p, uv_stack(model) + (res,), model, fine_edges)
    peak_nm = fine.peak_wavelength_nm()

    # independent envelope oracle: box-clipped sinc^2 sampled at bin centers
    from .config import uv_bandpass
    from .spectral import C_NM_GHZ, _sinc2_shape
    centers = fine.centers_nm
    dnu = C_NM_GHZ / centers - C_NM_GHZ / lam0
    oracle = _sinc2_shape(dnu, model.noise_bandwidth_ghz)
    oracle[np.abs(dnu) > 0.5 * uv_bandpass(model).fwhm_ghz] = 0.0
    corr = float(np.corrcoef(fine.rates_hz, oracle)[0, 1])

    rows = [(c, u, e) for c, u, e in zip(spectra["unfiltered"].centers_nm,
                                         spectra["unfiltered"].rates_hz,
                                         spectra["etalon"].rates_hz)]
    fine_rows = list(zip(fine.centers_nm, fine.rates_hz, oracle))
    checks = [
        _check("spectrum_peak_position", abs(peak_nm - 369.5) <= 0.3,
               f"peak at {peak_nm:.3f} nm (expected 369.5 +- 0.3)"),
        _check("spectrum_sinc2_envelope", corr >= 0.99,
               f"correlation with phase-matching envelope = {corr:.5f} (>= 0.99)"),
        _check("etalon_peak_suppression", reduction >= 100.0,
               f"peak-to-floor reduced {reduction:.0f}x by the etalon "
               f"({ratio_u:.0f} -> {ratio_e:.1f}; required >= 100x)"),
    ]
    return {"tables": {"spectrum": (("wavelength_nm", "unfiltered_hz_per_bin",
                                     "etalon_hz_per_bin"), rows),
                       "spectrum_fine": (("wavelength_nm", "rate_hz_per_bin",
                                          "envelope_oracle"), fine_rows)},
            "checks": checks}


def _coincidence_common(model, losses, params, seed, high_pump):
    p, duration = params["pump_power_mw"], params["duration_s"]
    bin_ps = params["bin_width_ps"]
    half_ps = round(params["window_ns"] * 1e3 / bin_ps) * bin_ps

    other = "output" if high_pump else "idler"
    channels = {"signal": signal_channel(model, vbg=high_pump),
                other: output_channel(model, losses) if high_pump else idler_channel(model)}
    scenario = ScenarioConfig(pump_power_mw=p, duration_s=duration, seed=seed,
                              channels=channels)
    streams = generate_streams(scenario, model)
    hist = coincidence_histogram(streams["signal"], streams[other], bin_ps,
                                 (-half_ps, half_ps))
    corr = g2_from_histogram(hist)
    violated, nsig = cauchy_schwarz_test(corr)
    meta = {"pump_power_mw": float(p), "duration_s": float(duration),
            "singles_signal_hz": float(streams["signal"].rate_hz),
            f"singles_{other}_hz": float(streams[other].rate_hz),
            "g2": float(corr.g2), "sigma": float(corr.sigma),
            "cs_violated": bool(violated), "cs_sigma": float(nsig)}
    note = (f"# bin_width_ps={hist.bin_width_ps} "
            f"tau_range_ps=[{hist.tau_min_ps},{hist.tau_max_ps}) "
            f"acquisition_s={hist.acquisition_time_s:g} "
            f"singles_a={hist.singles['a']} singles_b={hist.singles['b']}\n")
    rows = list(zip(hist.bin_centers_ps(), hist.counts))
    return corr, violated, nsig, {"tables": {"histogram": (("tau_ps", "counts"), rows)},
                                  "table_comments": {"histogram": note}, "meta": meta}


def compute_coincidence_si(model, losses, params, seed):
    corr, violated, nsig, result = _coincidence_common(model, losses, params, seed,
                                                       high_pump=False)
    margin = (corr.g2 - 10.0) / corr.sigma if corr.sigma > 0 else math.inf
    checks = [
        _check("g2_signal_idler_above_10", corr.g2 > 10.0 and margin >= 3.0,
               f"g2 = {corr.g2:.1f} +- {corr.sigma:.1f} "
               f"({margin:.1f} sigma above 10; required > 10 at >= 3 sigma)"),
        _check("cauchy_schwarz_violated_si", violated,
               f"classicality bound exceeded by {nsig:.1f} sigma"),
    ]
    return {**result, "checks": checks}


def compute_coincidence_so(model, losses, params, seed):
    corr, violated, nsig, result = _coincidence_common(model, losses, params, seed,
                                                       high_pump=True)
    checks = [
        _check("g2_signal_output_above_2", corr.g2 > 2.0,
               f"g2 = {corr.g2:.2f} +- {corr.sigma:.2f} (required > 2)"),
        _check("cauchy_schwarz_violated_so", violated and nsig >= 5.0,
               f"classicality bound exceeded by {nsig:.1f} sigma (required >= 5)"),
    ]
    return {**result, "checks": checks}


def compute_fock_demo(model, losses, params, seed):
    amps, t = params["pump_amplitudes"], params["interaction_time"]
    kappa, gamma = params["kappa"], params["gamma"]
    basis = FockBasis(n_max=params["n_max"])
    rows = []
    for a in amps:
        st = cascaded_evolution(basis, CouplingParams(kappa, gamma, a, t))
        a_pair = abs(st.amplitude(1, 1, 0))
        a_conv = abs(st.amplitude(1, 0, 1))
        rows.append((a, a * a, a_pair, a_conv, a_conv / a_pair,
                     st.population(1, 0, 1)))
    exponent, err = power_law_fit([(r[1], r[5]) for r in rows])
    ratio_err = max(abs(r[4] / (kappa * r[0] * t) - 1.0) for r in rows)
    checks = [
        _check("converted_population_quadratic", abs(exponent - 2.0) <= 0.02,
               f"population exponent vs pump power = {exponent:.4f} +- {err:.4f} "
               "(expected 2.0)"),
        _check("amplitude_ratio_linear_in_pump", ratio_err <= 0.01,
               f"amplitude ratio matches kappa*A*t within {ratio_err:.2%}"),
    ]
    return {"tables": {"amplitudes": (("pump_amplitude", "pump_power_au",
                                       "amp_pair", "amp_converted",
                                       "amp_ratio", "pop_converted"), rows)},
            "checks": checks}


_COMPUTE = {
    "efficiency_sweep": compute_efficiency_sweep,
    "snr_sweep": compute_snr_sweep,
    "noise_sweep": compute_noise_sweep,
    "noise_spectrum": compute_noise_spectrum,
    "coincidence_si": compute_coincidence_si,
    "coincidence_so": compute_coincidence_so,
    "fock_demo": compute_fock_demo,
}


# ---------------------------------------------------------------------------
# artifact output

def _write_table(path, comment, columns, rows):
    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return format(float(v), ".12g")
        return str(v)

    with open(path, "w", newline="") as fh:
        fh.write(comment)
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


def read_table(path):
    """Read back a scenario CSV: (meta_comment, columns, float rows)."""
    with open(path) as fh:
        comment = ""
        line = fh.readline()
        while line.startswith("#"):
            comment += line
            line = fh.readline()
        columns = line.strip().split(",")
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            vals = []
            for v in line.split(","):
                try:
                    vals.append(float(v))
                except ValueError:
                    vals.append(v)
            rows.append(vals)
    return comment, columns, rows


def run_scenario(scenario, model=None, losses=None, output_dir="out",
                 global_seed=12345):
    """Execute one scenario: artifacts on disk plus a summary record of it and its params.

    Artifacts are deterministic for a fixed manifest seed. A ValueError of
    the computation is raised as a ScenarioError naming the scenario and its
    kind. On write failure, this scenario's partial outputs are removed.
    """
    model = model if model is not None else bundled_model()
    losses = losses if losses is not None else bundled_losses()
    compute = _COMPUTE[scenario.kind]
    seed = derive_seed(global_seed, scenario.name)
    try:
        result = compute(model, losses, scenario.params, seed)
    except ValueError as exc:
        raise ScenarioError(f"scenario {scenario.name!r} ({scenario.kind}): {exc}") from exc

    cfg_hash = config_hash(config_to_dict(model, losses))
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    comment = (f"# qfclab v{__version__} scenario={scenario.name} "
               f"kind={scenario.kind} seed={seed} config={cfg_hash}\n")

    written = []
    try:
        for table_name, (columns, rows) in result["tables"].items():
            path = outdir / f"{scenario.name}_{table_name}.csv"
            extra = result.get("table_comments", {}).get(table_name, "")
            # registered before writing, so a write that fails midway is removed
            written.append(path)
            _write_table(path, comment + extra, columns, rows)
        summary = {
            "name": scenario.name,
            "kind": scenario.kind,
            "seed": seed,
            "config": cfg_hash,
            "version": __version__,
            "checks": result["checks"],
            "passed": all(c["passed"] for c in result["checks"]),
            "meta": result.get("meta", {}),
            "params": scenario.params,
            "artifacts": [p.name for p in written],
        }
        spath = outdir / f"{scenario.name}_summary.json"
        written.append(spath)
        spath.write_text(json.dumps(summary, indent=2, sort_keys=True,
                                    default=float) + "\n")
    except Exception:
        for p in written:
            try:
                p.unlink()
            except OSError:
                pass
        raise
    return summary


def run_manifest(manifest, model=None, losses=None):
    """Run every scenario in a manifest; returns the list of summaries."""
    if manifest.config_path:
        model, losses = load_config(manifest.config_path)
    summaries = []
    for sc in manifest.scenarios:
        summaries.append(run_scenario(sc, model=model, losses=losses,
                                      output_dir=manifest.output_dir,
                                      global_seed=manifest.seed))
    return summaries
