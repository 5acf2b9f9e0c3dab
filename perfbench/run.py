#!/usr/bin/env python3
"""qfclab benchmark: one workload per process, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload model_studies --seed 1 --seconds 20 --trace 0

Workloads (see bench_workloads.py): model_studies, coincidence_runs,
tag_analysis, fock_truncation.

--trace 0  times the workload with tracing off and reports the end-to-end
           metrics: wall_s (median wall time of one pass over the timed
           region), setup_s (median, over this process and fresh
           interpreters, of process start to ready: import qfclab, the
           bundled model, the inputs made and written) and peak_rss_mb.
--trace 1  runs the same untraced passes, then one pass with every layer
           wrapped (bench_trace.py), and reports the per-layer metrics,
           process.cpu_s, trace.overhead_frac and trace.coverage_frac.
--smoke    small inputs, for the harness's own tests.

Passes repeat until --seconds have gone by, two at least. Every pass is
checked outside its timed region; the checks give `attempted` and `failed`
(failed checks over attempted checks is the run's failed fraction). The
last line of standard output is the result as JSON; the line before it,
starting with "record ", holds the machine facts, input sizes, samples and
check details. The package is imported from src/ of this checkout; without
it the benchmark exits with status 2.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_trace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("model_studies", "coincidence_runs", "tag_analysis", "fock_truncation")
SETUP_PROBES = 2          # fresh interpreters timed besides this process
MIN_PASSES = 2


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import qfclab from this checkout's src/, or return None."""
    if not (SRC / "qfclab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import qfclab
    if Path(qfclab.__file__).resolve().parent != (SRC / "qfclab").resolve():
        return None
    return qfclab


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "qfclab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts(qfclab):
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "backend": qfclab.backend_name(), "blas_threads": blas_threads(),
            "git_commit": git_commit(), "src_sha256": source_digest()}


def probe_setup(args):
    """Time the set-up of this workload in fresh interpreters, one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def timed_passes(workload, seconds, checks):
    walls, cpus = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        c0 = time.process_time()
        t0 = time.perf_counter()
        out = workload.run()
        t1 = time.perf_counter()
        c1 = time.process_time()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        checks.extend(workload.check(out))
    return walls, cpus


def traced_call(fn):
    """Call fn with every layer wrapped: (result, seconds, spans, missing)."""
    tracer = bench_trace.Tracer()
    undo, missing = bench_trace.install(tracer)
    try:
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
    finally:
        undo()
    return out, elapsed, tracer.spans, missing


def run(args, workdir):
    qfclab = import_package()
    if qfclab is None:
        print(f"perfbench: no qfclab package under {SRC}", file=sys.stderr)
        return 2
    import bench_workloads

    workload = bench_workloads.WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
    if args.setup_probe:
        workload.setup()
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    setup_spans, missing = [], []
    if args.trace:
        _, _, setup_spans, missing = traced_call(workload.setup)
    else:
        workload.setup()
    setup_samples = [time.perf_counter() - _T0]

    checks = []
    walls, cpus = timed_passes(workload, args.seconds, checks)
    wall_s = statistics.median(walls)
    record = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
              "trace": args.trace, "machine": machine_facts(qfclab),
              "inputs": workload.inputs(), "wall_samples_s": walls,
              "cpu_samples_s": cpus}

    if args.trace:
        out, traced_wall, spans, _ = traced_call(workload.run)
        checks.extend(workload.check(out))
        metrics, absent = bench_trace.layer_metrics([setup_spans, spans], missing)
        run_level = {"process.cpu_s": statistics.median(cpus),
                     "trace.overhead_frac": traced_wall / wall_s - 1.0,
                     "trace.coverage_frac": bench_trace.coverage_s(spans) / traced_wall}
        metrics.update({name: (run_level[name], unit)
                        for name, unit in bench_trace.RUN_METRICS})
        record.update(traced_wall_s=traced_wall, missing_metrics=absent,
                      missing_functions=missing)
        if absent:
            print(f"perfbench: wrapped functions gone, metrics left out: {absent}",
                  file=sys.stderr)
    else:
        setup_samples += probe_setup(args)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": (wall_s, "s"),
                   "setup_s": (statistics.median(setup_samples), "s"),
                   "peak_rss_mb": (rss_mb, "MiB")}
        record["setup_samples_s"] = setup_samples

    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)
    record.update(workload.record(), checks_attempted=len(checks),
                  checks_failed=len(failed), failed_frac=len(failed) / len(checks),
                  failed_checks=[(n, d) for n, _, d in failed])

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print("record " + json.dumps(record, default=str))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
