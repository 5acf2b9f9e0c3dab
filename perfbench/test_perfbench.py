"""Tests of the benchmark harness: smoke runs of every workload, the metric
names and units it emits, and the span bookkeeping of the tracer."""

import functools
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench_trace  # noqa: E402

WORKLOADS = ("model_studies", "coincidence_runs", "tag_analysis", "fock_truncation")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _per_layer():
    names = {}
    for f in ("noise_rate", "detected_signal_rate", "band_fraction"):
        names.update({f"spectral.{f}.calls": "count", f"spectral.{f}.busy_s": "s"})
    names.update({"spectral.noise_spectrum.calls": "count",
                  "spectral.noise_spectrum.busy_s": "s",
                  "spectral.noise_spectrum.bins": "count"})
    names.update({"montecarlo.generate_streams.calls": "count",
                  "montecarlo.generate_streams.busy_s": "s",
                  "montecarlo.generate_streams.self_s": "s",
                  "montecarlo.generate_streams.tags_out": "count",
                  "montecarlo.generate_streams.slices": "count",
                  "kernels.dead_time_mask.busy_s": "s",
                  "kernels.dead_time_mask.tags_in": "count",
                  "kernels.dead_time_mask.dropped_frac": "ratio",
                  "kernels.pair_histogram.calls": "count",
                  "kernels.pair_histogram.busy_s": "s",
                  "kernels.pair_histogram.tags_in": "count",
                  "kernels.pair_histogram.pairs_binned": "count"})
    for f in ("coincidence_histogram", "coincidence_histogram_sliced",
              "auto_correlation_histogram", "g2_from_histogram"):
        names[f"tagcorr.{f}.busy_s"] = "s"
    names["tagcorr.power_law_fit.calls"] = "count"
    for f in ("read_qtag", "write_qtag", "read_csv", "write_csv"):
        names.update({f"tagio.{f}.busy_s": "s", f"tagio.{f}.tags": "count",
                      f"tagio.{f}.bytes": "B"})
    names.update({"fock.evolve.calls": "count", "fock.evolve.busy_s": "s",
                  "fock.evolve.max_dim": "count",
                  "fock.observables_with_truncation_check.calls": "count",
                  "fock.observables_with_truncation_check.busy_s": "s"})
    for kind in ("efficiency_sweep", "snr_sweep", "noise_sweep", "noise_spectrum",
                 "coincidence_si", "coincidence_so", "fock_demo"):
        names[f"scenarios.{kind}.busy_s"] = "s"
    names.update({"scenarios.run_scenario.self_s": "s",
                  "config.bundled_model.busy_s": "s",
                  "process.cpu_s": "s", "trace.overhead_frac": "ratio",
                  "trace.coverage_frac": "ratio"})
    return names


PER_LAYER = _per_layer()


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@functools.cache
def _smoke(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("record "))


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert any(m["name"] == "setup_s" and m["better"] == "lower"
               for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result, record = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["failed_frac"] == 0.0
    assert record["machine"]["nproc"] >= 1 and record["machine"]["numpy"]
    assert len(record["wall_samples_s"]) >= 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    result, record = _smoke(workload, 1)
    assert result["correct"] and result["failed"] == 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    # a metric whose function is gone is listed, never silently dropped
    assert set(units) | set(record["missing_metrics"]) == set(PER_LAYER)
    assert all(PER_LAYER[k] == u for k, u in units.items())
    assert result["metrics"]["trace.coverage_frac"]["value"] > 0.9


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "tag_analysis", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def _spans():
    def leaf(x):
        return x + 1

    tracer = bench_trace.Tracer()
    inner = tracer.wrap("kernel", leaf, lambda a, k, out: {"max_dim": out, "items": 2})
    outer = tracer.wrap("outer", lambda: inner(1) + inner(4))
    assert outer() == 7
    return tracer.spans


def test_aggregate_self_time_and_counters():
    spans = _spans()
    agg = bench_trace.aggregate([spans, spans])
    assert agg["kernel"]["calls"] == 4 and agg["outer"]["calls"] == 2
    assert agg["kernel"]["max_dim"] == 5 and agg["kernel"]["items"] == 8
    child = sum(s.duration for s in spans if s.name == "kernel")
    assert agg["outer"]["self_s"] == pytest.approx(2 * (spans[0].duration - child))
    assert bench_trace.coverage_s(spans) == pytest.approx(spans[0].duration)


def _bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "qfclab" or name.startswith("qfclab.")
            for attr, value in vars(mod).items() if callable(value)}


def test_install_wraps_every_binding_and_undo_restores(monkeypatch):
    for module, _, _ in bench_trace.PLAN:
        importlib.import_module(f"qfclab.{module}")
    before = _bindings()
    planned = bench_trace.PLAN + (("tagio", "no_such_function", None),)
    monkeypatch.setattr(bench_trace, "PLAN", planned)
    tracer = bench_trace.Tracer()
    undo, missing = bench_trace.install(tracer)
    try:
        during = _bindings()
        assert "tagio.no_such_function" in missing
        originals = {id(before[("qfclab." + m, f)]) for m, f, _ in planned
                     if ("qfclab." + m, f) in before}
        assert originals
        assert not any(id(v) in originals for v in during.values())
        metrics, absent = bench_trace.layer_metrics([tracer.spans], ["tagio.read_qtag"])
        assert "tagio.read_qtag.bytes" in absent and "tagio.read_qtag.bytes" not in metrics
    finally:
        undo()
    assert _bindings() == before
