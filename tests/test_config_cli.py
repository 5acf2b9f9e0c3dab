import ast
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import asdict, replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

import qfclab
from qfclab import cli, scenarios, spectral
from qfclab._kernels import pair_histogram
from qfclab.config import (CalibrationError, _calibrated_eta_nor, bundled_losses,
                           bundled_model, calibrate, config_from_dict, config_hash,
                           config_to_dict, load_config, save_config, uv_stack)
from qfclab.scenarios import (Scenario, ScenarioError, compute_snr_sweep,
                              default_manifest, manifest_from_dict, read_table,
                              run_scenario)
from qfclab.spectral import conversion_efficiency, detected_signal_rate, noise_rate


@pytest.fixture(scope="module")
def model():
    return bundled_model()


@pytest.fixture(scope="module")
def losses():
    return bundled_losses()


# bundled_model() field values, pinned when the calibration spelled the
# unit-area sinc^2 norm as a literal instead of spectral._shape_norm_ghz;
# eta_nor (and pair_rate, derived from it) since then moved to the correctly
# rounded closed-form root, 1 ulp below the old bracketing root-find
_PINNED_BUNDLED_MODEL = {
    "length_mm": 9.6,
    "poling_period_um": 2.535,
    "lambda_input_nm": 1311.0,
    "lambda_pump_nm": 514.5,
    "eta_nor_per_mw_mm2": 8.813664923135374e-06,
    "uv_absorption_per_mw": 0.002,
    "pair_rate_per_mw": 250713.01606914843,
    "noise_bandwidth_ghz": 13140.0,
    "noise_quad_hz_per_mw2": 15.344318770979738,
    "noise_floor_density_hz_per_ghz_mw": 7.610350076103501e-05,
    "detector_stray_hz_per_mw": 20.0,
    "input_flux_hz": 6000000.0,
    "dark_count_rate_hz": 13.0,
}


def _params_keys_read(func):
    """The keys func reads as params["key"], with those of the scenarios
    helpers it passes params on to."""
    keys = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "params":
            keys.add(node.slice.value)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and any(getattr(arg, "id", None) == "params" for arg in node.args)):
            keys |= _params_keys_read(getattr(scenarios, node.func.id))
    return keys


# today's default of every scenario param, as the compute_* functions held
# them, then values each key refuses (wrong types and out of range) and the
# edge values it accepts
_PARAM_CASES = {
    "efficiency_sweep": {
        "powers_mw": ([12.5 * k for k in range(0, 33)],
                      ["abc", 100, None, [], [100, -1], [100, "x"], [math.nan], [True]],
                      [[0], [0, 0], [2 ** 1000]])},
    "snr_sweep": {
        "powers_mw": ([25, 50, 75, 100, 125, 150, 175, 200, 250, 300, 350, 400],
                      ["abc", [], [100, -0.5], [100, math.inf]], [[0], [100, 100]]),
        "acquisition_s": (5.0, ["5", None, True, 0, -1.0, math.inf, math.nan], [1e-9, 5]),
        "etalon": (True, [1, 0, "true", None], [False])},
    "noise_sweep": {
        "powers_mw": ([25, 40, 63, 100, 158, 251, 400],
                      ["abc", [], [25, 100], [25, 100, 100.0], [0, 25, 100], [-25, 25, 100],
                       [25, 100, "400"]],
                      [[25, 100, 400], [25, 25, 100, 400]]),
        "acquisition_s": (5.0, ["5", 0, -5.0], [0.5]),
        "n_seeds": (20, ["x", None, 2.0, True, 0, -1, 2 ** 1100], [1])},
    "noise_spectrum": {
        "pump_power_mw": (200.0, ["200", None, -0.5, math.nan], [0, 1e4]),
        "floor_per_bin_hz": (40.0, ["40", [40], -1, 0, math.inf], [1e-9])},
    "coincidence_si": {
        "pump_power_mw": (0.4, ["200", None, -0.5], [0]),
        "duration_s": (30.0, ["x", None, True, 0, math.inf], [0.5]),
        "bin_width_ps": (165, [165.0, False, "165", 0, -165], [1, 10_000]),
        "window_ns": (20.0, [[20], "20", -20.0, 0, math.nan], [2])},
    "coincidence_so": {
        "pump_power_mw": (200.0, ["200", None, -0.5], [0]),
        "duration_s": (20.0, ["x", None, True, 0, math.inf], [0.5]),
        "bin_width_ps": (165, [165.0, False, "165", 0, -165], [1, 10_000]),
        "window_ns": (20.0, [[20], "20", -20.0, 0, math.nan], [2])},
    "fock_demo": {
        "pump_amplitudes": ([0.005, 0.00707, 0.01, 0.01414, 0.02],
                            ["abc", [], [0.01, 0.02], [0.01, 0.01, 0.02], [0, 0.01, 0.02],
                             [-0.01, 0.01, 0.02]],
                            [[0.01, 0.01, 0.02, 0.03]]),
        "kappa": (1.0, ["1", None, 0, -1.0], [0.5]),
        "gamma": (1.0, ["1", None, 0, -1.0], [2]),
        "interaction_time": (1.0, ["1", None, 0, -1.0], [0.1]),
        "n_max": (3, ["3", None, 3.0, True, 0, -1], [1, 4])},
}
_PARAM_KEYS = [(kind, key) for kind, keys in _PARAM_CASES.items() for key in keys]


class TestBundledCalibration:
    def test_shared_norm_leaves_model_unchanged(self, model):
        literal_norm = np.pi * 13140.0 / (2.0 * 1.39155737825151)
        quad = 1.3 * literal_norm / (200.0 ** 2 * 0.5 * np.pi * 0.02)
        assert model.noise_quad_hz_per_mw2 == quad
        assert asdict(model) == _PINNED_BUNDLED_MODEL

    @pytest.mark.parametrize("length_mm", [1.0, 9.6, 40.0])
    @pytest.mark.parametrize("uv_abs", [0.0, 0.002, 0.01])
    @pytest.mark.parametrize("target", [0.01, 0.105, 0.5, 0.9])
    def test_closed_form_root(self, length_mm, uv_abs, target):
        # oracles: the bracketing root-find the closed form replaced, held to
        # its own documented bound, and a 50-digit evaluation of the same root
        got = _calibrated_eta_nor(length_mm, uv_abs, target=target)
        assert type(got) is float
        p_eff = 200.0 * math.exp(-uv_abs * 200.0)
        xtol = 1e-18
        root = brentq(lambda e: np.sin(np.sqrt(e * p_eff) * length_mm) ** 2 - target,
                      1e-12, (0.5 * np.pi / length_mm) ** 2 / p_eff, xtol=xtol)
        assert abs(got - root) <= xtol + 4 * np.finfo(float).eps * abs(root)
        with mpmath.workdps(50):
            p_eff_mp = 200 * mpmath.exp(-mpmath.mpf(uv_abs) * 200)
            exact = (mpmath.asin(mpmath.sqrt(mpmath.mpf(target)))
                     / mpmath.mpf(length_mm)) ** 2 / p_eff_mp
            assert abs(mpmath.mpf(got) - exact) <= 4 * math.ulp(got)


class TestConfigFiles:
    def test_round_trip(self, tmp_path, model, losses):
        path = tmp_path / "cal.json"
        h = save_config(path, model, losses)
        m2, l2 = load_config(path)
        assert m2 == model and l2 == losses
        assert h == config_hash(config_to_dict(m2, l2))

    def test_hash_key_order_independent(self, model, losses):
        d = config_to_dict(model, losses)
        scrambled = json.loads(json.dumps(d))
        scrambled["converter"] = dict(reversed(list(scrambled["converter"].items())))
        assert config_hash(d) == config_hash(scrambled)

    def test_refuse_overwrite(self, tmp_path, model, losses):
        path = tmp_path / "cal.json"
        save_config(path, model, losses)
        with pytest.raises(FileExistsError):
            save_config(path, model, losses)
        save_config(path, model, losses, force=True)

    @pytest.mark.parametrize("breakage, named", [
        (lambda d: d["converter"].pop("pair_rate_per_mw"), "pair_rate_per_mw"),
        (lambda d: d["loss_budget"].update(bogus_gain=2.0), "bogus_gain"),
        (lambda d: d.pop("loss_budget"), "loss_budget"),
    ], ids=["missing_key", "unknown_key", "missing_section"])
    def test_incomplete_config_rejected(self, tmp_path, model, losses, breakage, named):
        path = tmp_path / "cal.json"
        data = config_to_dict(model, losses)
        breakage(data)
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=named):
            load_config(path)
        rc = cli.main(["run", "--scenario", "efficiency_sweep", "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("section, key", [
        *(("converter", k) for k in spectral.ConverterModel.__dataclass_fields__),
        *(("loss_budget", k) for k in spectral.LossBudget.__dataclass_fields__)])
    @pytest.mark.parametrize("value", ["9.6", None, True, [0.5], math.nan, math.inf],
                             ids=["string", "null", "bool", "list", "nan", "inf"])
    def test_value_not_a_finite_number_rejected(self, model, losses, section, key, value):
        data = config_to_dict(model, losses)
        data[section][key] = value
        with pytest.raises(ValueError, match=rf"section '{section}': key '{key}'"):
            config_from_dict(data)

    def test_string_value_exits_config(self, tmp_path, model, losses):
        path = tmp_path / "cal.json"
        data = config_to_dict(model, losses)
        data["converter"]["length_mm"] = "9.6"
        path.write_text(json.dumps(data))
        rc = cli.main(["run", "--scenario", "efficiency_sweep", "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG

    def test_unknown_schema_rejected(self, tmp_path, model, losses):
        path = tmp_path / "cal.json"
        save_config(path, model, losses)
        data = json.loads(path.read_text())
        data["schema_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema_version"):
            load_config(path)

    @pytest.mark.parametrize("data", [[1], "cal", None])
    def test_top_level_not_an_object(self, data):
        with pytest.raises(ValueError, match="config must be a JSON object"):
            config_from_dict(data)


class TestCalibrate:
    def test_single_anchor_matches_root_find(self, model, losses):
        # oracle: independent 1-D root-find for the efficiency coefficient
        start = replace(model, eta_nor_per_mw_mm2=5e-6)
        fitted, _, resid = calibrate([("eta_int@200", 0.105)],
                                     ["eta_nor_per_mw_mm2"], start, losses)
        p_eff = 200.0 * np.exp(-model.uv_absorption_per_mw * 200.0)
        oracle = brentq(
            lambda e: np.sin(np.sqrt(e * p_eff) * model.length_mm) ** 2 - 0.105,
            1e-12, (0.5 * np.pi / model.length_mm) ** 2 / p_eff)
        assert fitted.eta_nor_per_mw_mm2 == pytest.approx(oracle, rel=1e-6)
        assert abs(resid["eta_int@200"]) < 1e-8

    def test_zero_free_params_identity(self, model, losses):
        m, l, resid = calibrate([("eta_int@200", 0.105)], [], model, losses)
        assert m == model and l == losses
        assert abs(resid["eta_int@200"]) < 1e-9

    def test_underdetermined(self, model, losses):
        with pytest.raises(CalibrationError, match="underdetermined"):
            calibrate([("eta_int@200", 0.105)],
                      ["eta_nor_per_mw_mm2", "uv_absorption_per_mw"], model, losses)

    def test_conflicting_duplicates_split(self, model, losses):
        m, _, resid = calibrate([("eta_int@200", 0.10), ("eta_int@200", 0.11)],
                                ["eta_nor_per_mw_mm2"], model, losses)
        got = conversion_efficiency(200.0, m)
        assert 0.10 < got < 0.11
        assert resid["eta_int@200"] != 0.0

    @pytest.mark.parametrize("observable", ["eta_int", "eta_ext", "narrowline_noise",
                                            "noise_unfiltered", "noise_etalon"])
    def test_pump_dependent_anchor_needs_power(self, model, losses, observable):
        for free in ([], ["eta_nor_per_mw_mm2"]):
            with pytest.raises(CalibrationError, match=observable):
                calibrate([(observable, 0.1)], free, model, losses)

    def test_unknown_names(self, model, losses):
        with pytest.raises(CalibrationError):
            calibrate([("bogus@1", 1.0)], [], model, losses)
        with pytest.raises(CalibrationError):
            calibrate([("eta_int@200", 0.1)], ["bogus_param"], model, losses)


class TestScenarios:
    def test_model_studies_write_nothing_to_stdout(self, tmp_path, model, losses, capfd):
        # the benchmark reads a traced run's last stdout line as its result,
        # so the library itself must print nothing; params as its smoke run
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", Path(__file__).parents[1] / "perfbench" / "bench_workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        studies = workloads.ModelStudies
        manifest = scenarios.RunManifest(
            [Scenario(k, k, dict(studies.smoke_params.get(k, {}))) for k in studies.kinds],
            seed=1, output_dir=str(tmp_path / "out"))
        capfd.readouterr()
        summaries = scenarios.run_manifest(manifest, model=model, losses=losses)
        assert [s["kind"] for s in summaries] == list(studies.kinds)
        assert capfd.readouterr().out == ""

    def test_deterministic_artifacts(self, tmp_path, model, losses):
        sc = Scenario("eff", "efficiency_sweep")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_scenario(sc, model, losses, output_dir=out1, global_seed=7)
        run_scenario(sc, model, losses, output_dir=out2, global_seed=7)
        a = (out1 / "eff_efficiency.csv").read_bytes()
        b = (out2 / "eff_efficiency.csv").read_bytes()
        assert a == b

    def test_deterministic_fine_spectrum(self, tmp_path, model, losses):
        sc = Scenario("ns", "noise_spectrum")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_scenario(sc, model, losses, output_dir=out1, global_seed=7)
        run_scenario(sc, model, losses, output_dir=out2, global_seed=7)
        a = (out1 / "ns_spectrum_fine.csv").read_bytes()
        b = (out2 / "ns_spectrum_fine.csv").read_bytes()
        assert a == b

    def test_seed_changes_simulated_output(self, tmp_path, model, losses):
        sc = Scenario("snr", "snr_sweep")
        run_scenario(sc, model, losses, output_dir=tmp_path / "s1", global_seed=1)
        run_scenario(sc, model, losses, output_dir=tmp_path / "s2", global_seed=2)
        a = (tmp_path / "s1" / "snr_snr.csv").read_bytes()
        b = (tmp_path / "s2" / "snr_snr.csv").read_bytes()
        assert a != b

    def test_csv_round_trip(self, tmp_path, model, losses):
        sc = Scenario("eff", "efficiency_sweep")
        summary = run_scenario(sc, model, losses, output_dir=tmp_path, global_seed=7)
        comment, cols, rows = read_table(tmp_path / "eff_efficiency.csv")
        assert summary["config"] in comment
        assert cols == ["pump_mw", "eta_int", "eta_ext"]
        eta = conversion_efficiency(rows[16][0], model)
        assert rows[16][1] == pytest.approx(eta, rel=1e-12)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ScenarioError, match=r"'bad'.*'powers_mw' must be a non-empty "
                                                r"list.*, got \[\]"):
            Scenario("bad", "snr_sweep", params={"powers_mw": []})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario("x", "bogus_kind")

    def test_unknown_params_rejected(self, tmp_path):
        data = {"schema_version": 1, "output_dir": str(tmp_path / "o"),
                "scenarios": [{"name": "snr", "kind": "snr_sweep",
                               "params": {"acquisiton_s": 5.0, "powers_mw": [100],
                                          "etalons": False}}]}
        with pytest.raises(ScenarioError, match=r"'snr'.*\['acquisiton_s', 'etalons'\]"):
            manifest_from_dict(data)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(data))
        assert cli.main(["run", "--manifest", str(mpath)]) == cli.EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_params_must_be_an_object(self):
        with pytest.raises(ScenarioError, match="params"):
            Scenario("fd", "fock_demo", params=[("n_max", 3)])

    @pytest.mark.parametrize("kind", scenarios.KINDS)
    def test_param_keys_are_the_keys_compute_reads(self, kind):
        assert set(scenarios._PARAMS[kind]) == _params_keys_read(scenarios._COMPUTE[kind])
        # the defaults live in the table only
        assert "params.get" not in Path(scenarios.__file__).read_text()

    def test_param_table_covers_every_kind_and_key(self):
        assert {kind: set(keys) for kind, keys in _PARAM_CASES.items()} \
            == {kind: set(keys) for kind, keys in scenarios._PARAMS.items()}

    @pytest.mark.parametrize("kind, key", _PARAM_KEYS)
    def test_param_table(self, kind, key):
        default, refused, accepted = _PARAM_CASES[kind][key]
        got = Scenario("sc", kind).params[key]
        # a missing key runs at today's default, types and all (CSV cells
        # print an int and a float differently)
        assert repr(list(got) if isinstance(got, tuple) else got) == repr(default)
        for value in refused:
            with pytest.raises(ScenarioError) as info:
                Scenario("sc", kind, {key: value})
            assert str(info.value) == (f"scenario 'sc' ({kind}): param {key!r} must be "
                                       f"{scenarios._PARAMS[kind][key][1]}, got {value!r}")
        for value in accepted:
            assert Scenario("sc", kind, {key: value}).params[key] == value

    def test_summary_records_the_resolved_params(self, tmp_path, model, losses):
        sc = Scenario("fd", "fock_demo", {"n_max": 4})
        run_scenario(sc, model, losses, output_dir=tmp_path, global_seed=7)
        data = json.loads((tmp_path / "fd_summary.json").read_text())
        assert data["params"] == {"pump_amplitudes": [0.005, 0.00707, 0.01, 0.01414, 0.02],
                                  "kappa": 1.0, "gamma": 1.0, "interaction_time": 1.0,
                                  "n_max": 4}

    def test_duplicate_names_rejected(self):
        from qfclab.scenarios import RunManifest
        with pytest.raises(ScenarioError, match="unique"):
            RunManifest([Scenario("a", "fock_demo"), Scenario("a", "fock_demo")])

    def test_failed_write_leaves_no_partial_csv(self, tmp_path, monkeypatch,
                                                model, losses):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cell cannot be formatted")

        def compute(model, losses, params, seed):
            return {"tables": {"a": (("x",), [(1.0,)]),
                               "b": (("x",), [(1.0,), (Unprintable(),)])},
                    "checks": []}

        monkeypatch.setitem(scenarios._COMPUTE, "fock_demo", compute)
        with pytest.raises(RuntimeError, match="cannot be formatted"):
            run_scenario(Scenario("e", "fock_demo"), model, losses, output_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_snr_sweep_integrates_the_stack_once(self, monkeypatch, model, losses):
        calls = []
        integrals = spectral._stack_integrals

        def counted(*args):
            calls.append(args)
            return integrals(*args)

        monkeypatch.setattr(spectral, "_stack_integrals", counted)
        result = compute_snr_sweep(model, losses, Scenario("snr", "snr_sweep").params,
                                   seed=1)
        assert len(calls) == 1
        monkeypatch.undo()
        # the model SNR keeps the bits of detected_signal_rate / noise_rate
        rows = result["tables"]["snr"][1]
        p_mw = np.array([r[0] for r in rows], dtype=float)
        stack = uv_stack(model, etalon=True)
        expected = detected_signal_rate(model, p_mw, losses, stack) \
            / noise_rate(p_mw, stack, model)
        assert [r[4] for r in rows] == expected.tolist()

    def test_fock_demo_summary(self, tmp_path, model, losses):
        sc = Scenario("fd", "fock_demo")
        summary = run_scenario(sc, model, losses, output_dir=tmp_path, global_seed=7)
        assert summary["passed"]
        data = json.loads((tmp_path / "fd_summary.json").read_text())
        assert data["kind"] == "fock_demo"
        assert all(c["passed"] for c in data["checks"])


class TestCli:
    def test_version_and_help(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--version"])
        assert "qfclab" in capsys.readouterr().out

    def test_run_single_scenario(self, tmp_path, capsys):
        rc = cli.main(["run", "--scenario", "efficiency_sweep",
                       "--out", str(tmp_path), "--seed", "3"])
        assert rc == 0
        assert (tmp_path / "efficiency_sweep_summary.json").exists()
        assert "efficiency_sweep: ok" in capsys.readouterr().out

    def test_run_unknown_scenario(self, tmp_path):
        rc = cli.main(["run", "--scenario", "nope", "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG

    def test_env_output_override(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("QFCLAB_OUT", str(env_dir))
        rc = cli.main(["run", "--scenario", "fock_demo", "--out",
                       str(tmp_path / "ignored")])
        assert rc == 0
        assert (env_dir / "fock_demo_summary.json").exists()

    def test_convert_round_trip(self, tmp_path):
        from qfclab.montecarlo import TagStream
        from qfclab.tagio import write_qtag
        rng = np.random.default_rng(0)
        s = TagStream(1, np.sort(rng.integers(0, 10 ** 12, 1000)), 1.0)
        src = tmp_path / "a.qtag"
        write_qtag(src, s)
        assert cli.main(["convert", str(src), str(tmp_path / "a.csv")]) == 0
        assert cli.main(["convert", str(tmp_path / "a.csv"),
                         str(tmp_path / "b.qtag")]) == 0
        assert src.read_bytes() == (tmp_path / "b.qtag").read_bytes()

    def test_convert_round_trip_without_tags(self, tmp_path):
        from qfclab.montecarlo import TagStream
        from qfclab.tagio import write_qtag
        src = tmp_path / "empty.qtag"
        write_qtag(src, TagStream(3, np.array([], dtype=np.int64), 1.5))
        assert cli.main(["convert", str(src), str(tmp_path / "x.csv")]) == 0
        assert cli.main(["convert", str(tmp_path / "x.csv"),
                         str(tmp_path / "y.qtag")]) == 0
        assert src.read_bytes() == (tmp_path / "y.qtag").read_bytes()

    def test_cold_path_imports_no_scipy(self, tmp_path):
        from qfclab.montecarlo import TagStream
        from qfclab.tagio import write_qtag
        src = tmp_path / "a.qtag"
        write_qtag(src, TagStream(2, np.array([0, 7, 7, 10 ** 9]), 2.0))
        script = (
            "import sys\n"
            "import qfclab.cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert scipy_modules() == [], scipy_modules()[:5]\n"
            "src, csv, dst, out = sys.argv[1:]\n"
            "assert qfclab.cli.main(['convert', src, csv]) == 0\n"
            "assert qfclab.cli.main(['convert', csv, dst]) == 0\n"
            "assert scipy_modules() == [], scipy_modules()[:5]\n"
            "from qfclab import acceptance, config, scenarios\n"
            "model, losses = config.bundled_model(), config.bundled_losses()\n"
            "scenarios.run_manifest(scenarios.RunManifest(\n"
            "    [scenarios.Scenario('eff', 'efficiency_sweep')], output_dir=out))\n"
            "assert acceptance.check_efficiency_calibration(model, losses).passed\n"
            "assert acceptance.check_fock_engine(model, losses).passed\n"
            "assert scipy_modules() == [], scipy_modules()[:5]\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(qfclab.__file__).parents[1])]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        proc = subprocess.run(
            [sys.executable, "-c", script, str(src), str(tmp_path / "a.csv"),
             str(tmp_path / "b.qtag"), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert src.read_bytes() == (tmp_path / "b.qtag").read_bytes()

    def test_import_loads_no_thread_pool(self):
        # the block pool imports concurrent.futures when it first runs, so
        # runs that never fill one (model studies, Fock) do not pay for it;
        # the quadrature's Gauss-Legendre rule is literal, so numpy.polynomial
        # (~5 ms) is not loaded either
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(qfclab.__file__).parents[1])]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        script = ("import sys\nimport qfclab, qfclab.cli\n"
                  "assert 'concurrent.futures' not in sys.modules\n"
                  "assert 'numpy.polynomial' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("field, value", [("channel", 2 ** 16),
                                              ("duration_ps", 2 ** 64)])
    def test_convert_rejects_header_overflow(self, tmp_path, capsys, field, value):
        # a CSV that reads fine can hold a channel or a duration that the
        # .qtag header (u16 channel, u64 duration) cannot
        channel, duration = {"channel": (value, 1000), "duration_ps": (3, value)}[field]
        src, dst = tmp_path / "x.csv", tmp_path / "y.qtag"
        src.write_text(f"# qtag-csv v1 duration_ps={duration} channels={channel} "
                       f"durations_ps={duration}\nchannel,timestamp_ps\n{channel},5\n")
        assert cli.main(["convert", str(src), str(dst)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {dst}: {field} {value} does not fit the header "
                       f"(0 to {value - 1})"]
        assert not dst.exists()

    def test_convert_bad_extension(self, tmp_path):
        (tmp_path / "x.txt").write_text("")
        rc = cli.main(["convert", str(tmp_path / "x.txt"), str(tmp_path / "y.qtag")])
        assert rc == cli.EXIT_CONFIG

    def test_calibrate_anchor_without_power(self, capsys):
        for extra in ([], ["--free", "eta_nor_per_mw_mm2"]):
            assert cli.main(["calibrate", "--anchor", "eta_int=0.1", *extra]) \
                == cli.EXIT_CONFIG
            assert "'eta_int'" in capsys.readouterr().err

    def test_calibrate_writes_config(self, tmp_path, capsys):
        out = tmp_path / "cal.json"
        rc = cli.main(["calibrate", "--anchor", "eta_int@200=0.105",
                       "--free", "eta_nor_per_mw_mm2", "--write", str(out)])
        assert rc == 0
        assert out.exists()
        rc = cli.main(["calibrate", "--anchor", "eta_int@200=0.105",
                       "--write", str(out)])
        assert rc == cli.EXIT_CONFIG  # refuses overwrite without --force

    def test_verify_empty_manifest(self, tmp_path, capsys):
        mpath = tmp_path / "empty.json"
        mpath.write_text(json.dumps({"schema_version": 1, "scenarios": []}))
        rc = cli.main(["verify", "--manifest", str(mpath)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no scenarios" in out

    def test_verify_corrupted_calibration_fails(self, tmp_path, capsys):
        # negative control: a broken efficiency coefficient must fail the
        # efficiency gate and name it in the report
        model = replace(bundled_model(), eta_nor_per_mw_mm2=2e-5)
        path = tmp_path / "bad.json"
        save_config(path, model, bundled_losses())
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({
            "schema_version": 1,
            "scenarios": [{"name": "eff", "kind": "efficiency_sweep"}],
            "config_path": str(path)}))
        rc = cli.main(["verify", "--manifest", str(mpath)])
        assert rc == cli.EXIT_FAIL
        out = capsys.readouterr().out
        assert "[FAIL] efficiency-calibration" in out

    def test_run_manifest_from_file(self, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps({
            "schema_version": 1, "seed": 5, "output_dir": str(tmp_path / "o"),
            "scenarios": [{"name": "fd", "kind": "fock_demo"},
                          {"name": "eff", "kind": "efficiency_sweep"}]}))
        rc = cli.main(["run", "--manifest", str(mpath)])
        assert rc == 0
        assert (tmp_path / "o" / "fd_summary.json").exists()
        assert (tmp_path / "o" / "eff_summary.json").exists()


class TestManifest:
    @pytest.mark.parametrize("data, match", [
        ([1], "manifest must be a JSON object, got list"),
        ({"scenarios": {"fd": "fock_demo"}}, "'scenarios' must be a list, got dict"),
        ({"scenarios": [1]}, "scenario #0 1 is not an object"),
        ({"scenarios": [{"name": "fd", "kind": "fock_demo"}, ["eff"]]},
         r"scenario #1 \['eff'\] is not an object"),
        ({"scenarios": [{"name": ["fd"], "kind": "fock_demo"}]},
         "scenario #0 .*'name' must be a string"),
    ])
    def test_structure_errors_are_named(self, data, match):
        with pytest.raises(ScenarioError, match=match):
            manifest_from_dict(data)

    @pytest.mark.parametrize("option, data", [
        ("--config", [1]),
        ("--manifest", [1]),
        ("--manifest", {"schema_version": 1, "scenarios": [1]}),
    ])
    def test_cli_structure_error_exits_config_without_traceback(self, tmp_path,
                                                                option, data):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(qfclab.__file__).parents[1])]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        proc = subprocess.run(
            [sys.executable, "-m", "qfclab.cli", "run", option, str(path),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["coincidence_si", "coincidence_so"])
    @pytest.mark.parametrize("params, ratio", [
        ({"window_ns": 0.1}, "0.606061"),
        ({"window_ns": 1.49, "bin_width_ps": 1000}, "1.49"),
        ({"window_ns": 20, "bin_width_ps": 10 ** 6}, "0.02"),
        # past 2**20 bins: the first window over, and windows whose ratio
        # is past the float range or whose round() would be
        ({"window_ns": math.nextafter(524288.5, math.inf), "bin_width_ps": 1000},
         "524289"),
        ({"window_ns": 524289, "bin_width_ps": 1000}, "524289"),
        ({"window_ns": 1e300}, "6.06061e+300"),
        ({"window_ns": 1e306}, "inf"),
    ])
    def test_window_out_of_range_is_named(self, kind, params, ratio):
        data = {"scenarios": [{"name": "cc", "kind": kind, "params": params}]}
        bin_ps = params.get("bin_width_ps", 165)
        shown = f"{params['window_ns']!r} and 'bin_width_ps' {bin_ps}"
        with pytest.raises(ScenarioError, match=re.escape(
                f"scenario 'cc' ({kind}): params 'window_ns' {shown} give "
                f"window_ns * 1e3 / bin_width_ps = {ratio}; 2 * round() of it must be "
                "4 to 1048576 bins")):
            manifest_from_dict(data)

    @pytest.mark.parametrize("params, half_bins", [
        ({"window_ns": 1.5, "bin_width_ps": 1000}, 2),      # round(1.5) is 2: 4 bins
        ({"window_ns": 0.33}, 2),                           # round(0.33e3 / 165) is 2
        ({"window_ns": 524288.5, "bin_width_ps": 1000}, 2 ** 19),   # 2**20 bins
    ])
    def test_window_in_range_is_accepted(self, params, half_bins):
        m = manifest_from_dict({"scenarios": [{"name": "cc", "kind": "coincidence_so",
                                               "params": params}]})
        params = m.scenarios[0].params
        assert round(params["window_ns"] * 1e3 / params["bin_width_ps"]) == half_bins

    @pytest.mark.parametrize("kind, duration_s", [("coincidence_si", 30),
                                                  ("coincidence_so", 20)])
    def test_window_past_int64_is_named(self, kind, duration_s):
        # a 4-bin window of bin_ps and tags in [0, duration): pair_histogram
        # needs 4 * bin_ps + duration_ps within 2**63 ps, so bin_ps = edge is
        # the first refused (one ps short of the kernel's own limit) and
        # edge + 1 past that limit; the float sum's rounding takes the last
        # accepted down to 1024 ps below the edge
        edge = (2 ** 63 - duration_s * 10 ** 12) // 4
        tags = np.array([0, duration_s * 10 ** 12 - 1])
        for bin_ps in (edge - 1024, edge, edge + 1):
            params = {"bin_width_ps": bin_ps, "window_ns": 2 * bin_ps / 1e3}
            if bin_ps < edge:
                assert Scenario("cc", kind, params).params["bin_width_ps"] == bin_ps
                continue
            with pytest.raises(ScenarioError, match=re.escape(
                    f"scenario 'cc' ({kind}): params 'window_ns' {params['window_ns']!r} "
                    f"and 'bin_width_ps' {bin_ps} give a {4 * bin_ps} ps window; with "
                    f"'duration_s' {float(duration_s)} it must span less than 2**63 ps")):
                Scenario("cc", kind, params)
        with pytest.raises(ValueError, match="must lie in int64"):
            pair_histogram(tags, tags, -2 * (edge + 1), 2 * (edge + 1), edge + 1)
        assert pair_histogram(tags, tags, -2 * edge, 2 * edge, edge).sum() == 4

    @pytest.mark.parametrize("kind, params", [
        ("noise_sweep", {"n_seeds": "x"}),
        ("efficiency_sweep", {"powers_mw": "abc"}),
        ("fock_demo", {"n_max": -1}),
        ("coincidence_so", {"window_ns": 1e306}),
        ("coincidence_so", {"window_ns": 0.1}),
        ("coincidence_so", {"bin_width_ps": 0}),
        ("coincidence_si", {"duration_s": None}),
        ("coincidence_so", {"duration_s": "x"}),
        ("snr_sweep", {"etalon": "yes"}),
    ])
    def test_cli_bad_param_exits_config_without_traceback(self, tmp_path, kind, params):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"scenarios": [
            {"name": "sc", "kind": kind, "params": params}]}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(qfclab.__file__).parents[1])]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        proc = subprocess.run(
            [sys.executable, "-m", "qfclab.cli", "run", "--manifest", str(path),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(f"error: scenario 'sc' ({kind}): "), proc.stderr
        assert repr(next(iter(params))) in lines[0]
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_cli_error_after_the_param_checks_names_the_scenario(self, tmp_path):
        # the params are valid, but with the pump off and 10 ms of light the
        # histogram's baseline is empty, which g2_from_histogram refuses
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"scenarios": [
            {"name": "dark", "kind": "coincidence_si",
             "params": {"pump_power_mw": 0, "duration_s": 0.01}}]}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(qfclab.__file__).parents[1])]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        proc = subprocess.run(
            [sys.executable, "-m", "qfclab.cli", "run", "--manifest", str(path),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: scenario 'dark' (coincidence_si): baseline has zero counts"], proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_snr_sweep_without_noise_counts_reports_its_checks(self, tmp_path):
        # 1 ms acquisitions at seed 40: at 25 mW neither count sees a tag
        # (SNR nan), and at 50 and 75 mW only the noise count sees none (inf)
        manifest = manifest_from_dict({
            "seed": 40, "output_dir": str(tmp_path),
            "scenarios": [{"name": "snr", "kind": "snr_sweep",
                           "params": {"acquisition_s": 0.001}}]})
        [summary] = scenarios.run_manifest(manifest)
        assert [c["name"] for c in summary["checks"]] == [
            "snr_above_2_up_to_200mw", "snr_degrades_beyond_200mw"]
        assert not summary["passed"]
        _, _, rows = read_table(tmp_path / "snr_snr.csv")
        snr = {p: (s, n, q) for p, s, n, q, _ in rows}
        assert snr[25][:2] == (0, 0) and math.isnan(snr[25][2])
        assert snr[50][1] == snr[75][1] == 0 and snr[50][2] == snr[75][2] == math.inf
        for s, n, q in snr.values():
            if n:
                assert q == pytest.approx(s / n, rel=1e-11)

    def test_default_covers_all_kinds(self):
        from qfclab.scenarios import KINDS
        m = default_manifest()
        assert sorted(s.kind for s in m.scenarios) == sorted(KINDS)

    def test_bad_schema_version(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            manifest_from_dict({"schema_version": 2, "scenarios": []})

    @pytest.mark.parametrize("entry, key", [({"kind": "fock_demo"}, "name"),
                                            ({"name": "fd"}, "kind")])
    def test_scenario_without_name_or_kind(self, tmp_path, entry, key):
        data = {"schema_version": 1, "output_dir": str(tmp_path / "o"),
                "scenarios": [{"name": "eff", "kind": "efficiency_sweep"}, entry]}
        with pytest.raises(ScenarioError, match=rf"#1 .*'{key}'"):
            manifest_from_dict(data)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(data))
        assert cli.main(["run", "--manifest", str(mpath)]) == cli.EXIT_CONFIG
        assert cli.main(["verify", "--manifest", str(mpath)]) == cli.EXIT_CONFIG
