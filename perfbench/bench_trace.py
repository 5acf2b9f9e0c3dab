"""Outside-in tracing of qfclab: spans recorded around its public functions.

The program itself carries no instrumentation. `install` replaces each
function in `PLAN` by a wrapper that records a span (name, start, end,
parent span, counters). The wrapper goes on every attribute of a loaded
``qfclab`` module that is bound to the original function, so calls made
through a caller's own binding (``qfclab.tagcorr.pair_histogram``,
``qfclab.montecarlo.dead_time_mask``, ``qfclab.fock.evolve`` inside
``cascaded_evolution``) are seen too. Scenario computations are wrapped in
the runner's kind table, one span name per kind.

Spans are kept in memory; `aggregate` and `layer_metrics` turn them into
the per-layer metrics of BENCHMARK.json when the run ends. A function that
no longer exists is reported as missing instead of failing the run.
"""

import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import wraps
from importlib import import_module


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one phase of a run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counters = count(args, kwargs, out)
            return out
        return traced


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _slices(args, kwargs, out):
    from qfclab import montecarlo
    slice_s = getattr(montecarlo, "_SLICE_S", 1.0)
    duration = _arg(args, kwargs, 0, "scenario").duration_s
    return {"tags_out": sum(len(s.tags) for s in out.values()),
            "slices": max(1, math.ceil(duration / slice_s))}


def _dead_time(args, kwargs, out):
    n = len(_arg(args, kwargs, 0, "tags"))
    return {"tags_in": n, "dropped": n - int(out.sum())}


def _pairs(args, kwargs, out):
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    return {"tags_in": len(a) + (0 if b is a else len(b)),
            "pairs_binned": int(out.sum())}


def _tags_read(args, kwargs, out):
    streams = out if isinstance(out, list) else [out]
    return {"tags": sum(len(s.tags) for s in streams),
            "bytes": _file_bytes(args, kwargs)}


def _tags_written(args, kwargs, out):
    streams = args[1] if len(args) > 1 else kwargs.get("stream", kwargs.get("streams"))
    streams = streams if isinstance(streams, (list, tuple)) else [streams]
    return {"tags": sum(len(s.tags) for s in streams),
            "bytes": _file_bytes(args, kwargs)}


# (module, function, counter) for every wrapped public function
PLAN = (
    ("spectral", "noise_rate", None),
    ("spectral", "detected_signal_rate", None),
    ("spectral", "noise_spectrum", lambda a, k, out: {"bins": len(out.rates_hz)}),
    ("spectral", "band_fraction", None),
    ("montecarlo", "generate_streams", _slices),
    ("_kernels", "dead_time_mask", _dead_time),
    ("_kernels", "pair_histogram", _pairs),
    ("tagcorr", "coincidence_histogram", None),
    ("tagcorr", "coincidence_histogram_sliced", None),
    ("tagcorr", "auto_correlation_histogram", None),
    ("tagcorr", "g2_from_histogram", None),
    ("tagcorr", "power_law_fit", None),
    ("tagio", "read_qtag", _tags_read),
    ("tagio", "write_qtag", _tags_written),
    ("tagio", "read_csv", _tags_read),
    ("tagio", "write_csv", _tags_written),
    ("fock", "evolve", lambda a, k, out: {"max_dim": len(out.amplitudes)}),
    ("fock", "observables_with_truncation_check", None),
    ("scenarios", "run_scenario", None),
    ("config", "bundled_model", None),
)

SCENARIO_KINDS = ("efficiency_sweep", "snr_sweep", "noise_sweep", "noise_spectrum",
                  "coincidence_si", "coincidence_so", "fock_demo")

# spans that only contain layer spans; coverage counts what runs inside them
CONTAINERS = ("scenarios.",)


def _qfclab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qfclab" or name.startswith("qfclab."))]


def install(tracer):
    """Wrap every planned function; returns (undo callable, missing span names)."""
    restore = []
    missing = []
    for module, func, count in PLAN:
        name = f"{module}.{func}"
        try:
            original = getattr(import_module(f"qfclab.{module}"), func)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        wrapper = tracer.wrap(name, original, count)
        for mod in _qfclab_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    restore.append((mod, attr, original))
    table = getattr(import_module("qfclab.scenarios"), "_COMPUTE", {})
    for kind in SCENARIO_KINDS:
        original = table.get(kind)
        if original is None:
            missing.append(f"scenarios.{kind}")
            continue
        table[kind] = tracer.wrap(f"scenarios.{kind}", original)
        restore.append((table, kind, original))

    def undo():
        for target, key, original in reversed(restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
    return undo, missing


def _child_time(spans):
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    return child_time


def aggregate(phases):
    """Per span name over all phases (span lists): calls, busy_s, self_s and
    summed (or max_*) counters."""
    out = {}
    for spans in phases:
        child_time = _child_time(spans)
        for i, s in enumerate(spans):
            agg = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += s.duration
            agg["self_s"] += s.duration - child_time[i]
            for key, value in s.counters.items():
                if key.startswith("max_"):
                    agg[key] = max(agg.get(key, 0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
    return out


def coverage_s(spans):
    """Time inside named layers: outermost non-container spans plus the
    self time of the scenario runner (its CSV and summary writing)."""
    def is_container(s):
        return s.name.startswith(CONTAINERS)

    total = 0.0
    child_time = _child_time(spans)
    for i, s in enumerate(spans):
        if s.name == "scenarios.run_scenario":
            total += s.duration - child_time[i]
        elif not is_container(s):
            p = s.parent
            while p >= 0 and is_container(spans[p]):
                p = spans[p].parent
            if p < 0:
                total += s.duration
    return total


def _ratio(num, den):
    def f(agg):
        return agg[num] / agg[den] if agg.get(den) else 0.0
    return f


# (metric name, unit, span name, field or callable on the span's aggregate)
LAYER_METRICS = (
    ("spectral.noise_rate.calls", "count", "spectral.noise_rate", "calls"),
    ("spectral.noise_rate.busy_s", "s", "spectral.noise_rate", "busy_s"),
    ("spectral.detected_signal_rate.calls", "count", "spectral.detected_signal_rate", "calls"),
    ("spectral.detected_signal_rate.busy_s", "s", "spectral.detected_signal_rate", "busy_s"),
    ("spectral.noise_spectrum.calls", "count", "spectral.noise_spectrum", "calls"),
    ("spectral.noise_spectrum.busy_s", "s", "spectral.noise_spectrum", "busy_s"),
    ("spectral.noise_spectrum.bins", "count", "spectral.noise_spectrum", "bins"),
    ("spectral.band_fraction.calls", "count", "spectral.band_fraction", "calls"),
    ("spectral.band_fraction.busy_s", "s", "spectral.band_fraction", "busy_s"),
    ("montecarlo.generate_streams.calls", "count", "montecarlo.generate_streams", "calls"),
    ("montecarlo.generate_streams.busy_s", "s", "montecarlo.generate_streams", "busy_s"),
    ("montecarlo.generate_streams.self_s", "s", "montecarlo.generate_streams", "self_s"),
    ("montecarlo.generate_streams.tags_out", "count", "montecarlo.generate_streams", "tags_out"),
    ("montecarlo.generate_streams.slices", "count", "montecarlo.generate_streams", "slices"),
    ("kernels.dead_time_mask.busy_s", "s", "_kernels.dead_time_mask", "busy_s"),
    ("kernels.dead_time_mask.tags_in", "count", "_kernels.dead_time_mask", "tags_in"),
    ("kernels.dead_time_mask.dropped_frac", "ratio", "_kernels.dead_time_mask",
     _ratio("dropped", "tags_in")),
    ("kernels.pair_histogram.calls", "count", "_kernels.pair_histogram", "calls"),
    ("kernels.pair_histogram.busy_s", "s", "_kernels.pair_histogram", "busy_s"),
    ("kernels.pair_histogram.tags_in", "count", "_kernels.pair_histogram", "tags_in"),
    ("kernels.pair_histogram.pairs_binned", "count", "_kernels.pair_histogram",
     "pairs_binned"),
    ("tagcorr.coincidence_histogram.busy_s", "s", "tagcorr.coincidence_histogram", "busy_s"),
    ("tagcorr.coincidence_histogram_sliced.busy_s", "s",
     "tagcorr.coincidence_histogram_sliced", "busy_s"),
    ("tagcorr.auto_correlation_histogram.busy_s", "s",
     "tagcorr.auto_correlation_histogram", "busy_s"),
    ("tagcorr.g2_from_histogram.busy_s", "s", "tagcorr.g2_from_histogram", "busy_s"),
    ("tagcorr.power_law_fit.calls", "count", "tagcorr.power_law_fit", "calls"),
) + tuple(
    (f"tagio.{fn}.{q}", unit, f"tagio.{fn}", q)
    for fn in ("read_qtag", "write_qtag", "read_csv", "write_csv")
    for q, unit in (("busy_s", "s"), ("tags", "count"), ("bytes", "B"))
) + (
    ("fock.evolve.calls", "count", "fock.evolve", "calls"),
    ("fock.evolve.busy_s", "s", "fock.evolve", "busy_s"),
    ("fock.evolve.max_dim", "count", "fock.evolve", "max_dim"),
    ("fock.observables_with_truncation_check.calls", "count",
     "fock.observables_with_truncation_check", "calls"),
    ("fock.observables_with_truncation_check.busy_s", "s",
     "fock.observables_with_truncation_check", "busy_s"),
) + tuple(
    (f"scenarios.{kind}.busy_s", "s", f"scenarios.{kind}", "busy_s")
    for kind in SCENARIO_KINDS
) + (
    ("scenarios.run_scenario.self_s", "s", "scenarios.run_scenario", "self_s"),
    ("config.bundled_model.busy_s", "s", "config.bundled_model", "busy_s"),
)

# run-level metrics, filled in by the harness rather than from spans
RUN_METRICS = (
    ("process.cpu_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
)


def layer_metrics(phases, missing):
    """{metric: (value, unit)} for every layer metric whose span exists, and
    the sorted list of metrics left out because their function is gone."""
    agg = aggregate(phases)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    metrics = {}
    absent = []
    for metric, unit, span, how in LAYER_METRICS:
        if span in missing:
            absent.append(metric)
            continue
        a = agg.get(span, empty)
        value = how(a) if callable(how) else a.get(how, 0)
        metrics[metric] = (value, unit)
    return metrics, sorted(absent)
