"""Command-line interface.

Subcommands:
    run        execute scenarios from a manifest (or the built-in defaults)
    calibrate  fit model parameters to named anchors and write a config file
    verify     run the acceptance battery, print a pass/fail table
    convert    translate tag files between the binary format and CSV

Exit codes: 0 success, 1 acceptance/check failure, 2 configuration error.
The QFCLAB_OUT environment variable overrides the output directory.
"""

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .config import (CalibrationError, bundled_losses, bundled_model,
                     calibrate, load_config, save_config)
from .scenarios import (ScenarioError, default_manifest, load_manifest,
                        run_manifest)
from .tagio import TagFormatError, read_csv, read_qtag, write_csv, write_qtag

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _outdir(args, manifest=None):
    env = os.environ.get("QFCLAB_OUT")
    if env:
        return env
    if args.out:
        return args.out
    if manifest is not None:
        return manifest.output_dir
    return "out"


def _load_calibration(args):
    if args.config:
        return load_config(args.config)
    return bundled_model(), bundled_losses()


def cmd_run(args):
    if args.manifest:
        manifest = load_manifest(args.manifest)
    else:
        manifest = default_manifest()
    if args.seed is not None:
        manifest.seed = args.seed
    if args.scenario:
        keep = [s for s in manifest.scenarios if s.name in args.scenario]
        missing = set(args.scenario) - {s.name for s in keep}
        if missing:
            print(f"error: unknown scenario(s) {sorted(missing)}", file=sys.stderr)
            return EXIT_CONFIG
        manifest.scenarios = keep
    manifest.output_dir = _outdir(args, manifest)
    if args.config:
        manifest.config_path = args.config
    model, losses = _load_calibration(args)

    summaries = run_manifest(manifest, model=model, losses=losses)
    failed = 0
    for summary in summaries:
        status = "ok" if summary["passed"] else "FAILED"
        print(f"{summary['name']}: {status} "
              f"({len(summary['artifacts'])} artifacts in {manifest.output_dir})")
        for c in summary["checks"]:
            print(f"  [{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}")
        if not summary["passed"]:
            failed += 1
    return EXIT_FAIL if failed else EXIT_OK


def cmd_calibrate(args):
    anchors = []
    for entry in args.anchor:
        if "=" not in entry:
            print(f"error: anchor {entry!r} must look like name=value", file=sys.stderr)
            return EXIT_CONFIG
        name, value = entry.split("=", 1)
        anchors.append((name.strip(), float(value)))
    model, losses = _load_calibration(args)
    try:
        model, losses, residuals = calibrate(anchors, args.free, model, losses)
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for name, r in residuals.items():
        print(f"residual {name}: {r:+.3e} (relative)")
    if args.write:
        try:
            h = save_config(args.write, model, losses, force=args.force)
        except FileExistsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"wrote {args.write} (config {h})")
    return EXIT_OK


def cmd_verify(args):
    from .acceptance import run_all, run_for_manifest
    model, losses = _load_calibration(args)
    if args.manifest:
        manifest = load_manifest(args.manifest)
        if manifest.config_path and not args.config:
            model, losses = load_config(manifest.config_path)
        results = run_for_manifest(manifest, model=model, losses=losses)
    else:
        results = run_all(model=model, losses=losses)
    n_fail = sum(not r.passed for r in results)
    print(f"\n{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_FAIL if n_fail else EXIT_OK


def cmd_convert(args):
    src, dst = Path(args.src), Path(args.dst)
    try:
        if src.suffix == ".qtag" and dst.suffix == ".csv":
            write_csv(dst, read_qtag(src))
        elif src.suffix == ".csv" and dst.suffix == ".qtag":
            streams = read_csv(src)
            if len(streams) != 1:
                print("error: binary files hold one channel; CSV has "
                      f"{len(streams)}", file=sys.stderr)
                return EXIT_CONFIG
            write_qtag(dst, streams[0])
        else:
            print("error: convert expects .qtag<->.csv", file=sys.stderr)
            return EXIT_CONFIG
    except (TagFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {dst}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qfclab",
        description="Simulator and analysis toolchain for IR-to-UV photon "
                    "frequency conversion")
    parser.add_argument("--version", action="version", version=f"qfclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenarios from a manifest")
    p_run.add_argument("--manifest", help="manifest JSON (defaults to built-ins)")
    p_run.add_argument("--scenario", action="append",
                       help="run only this scenario (repeatable)")
    p_run.add_argument("--seed", type=int, default=None, help="global seed override")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--config", help="calibration config JSON")
    p_run.set_defaults(func=cmd_run)

    p_cal = sub.add_parser("calibrate", help="fit parameters to anchors")
    p_cal.add_argument("--anchor", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="observable anchor, e.g. eta_int@200=0.105")
    p_cal.add_argument("--free", action="append", default=[], metavar="PARAM",
                       help="parameter to vary, e.g. eta_nor_per_mw_mm2")
    p_cal.add_argument("--config", help="starting calibration config JSON")
    p_cal.add_argument("--write", help="output config path")
    p_cal.add_argument("--force", action="store_true",
                       help="overwrite an existing config file")
    p_cal.set_defaults(func=cmd_calibrate)

    p_ver = sub.add_parser("verify", help="run the acceptance battery")
    p_ver.add_argument("--manifest", help="restrict checks to a manifest's kinds")
    p_ver.add_argument("--config", help="calibration config JSON")
    p_ver.add_argument("--out", help=argparse.SUPPRESS)
    p_ver.set_defaults(func=cmd_verify)

    p_conv = sub.add_parser("convert", help="tag file conversion (.qtag <-> .csv)")
    p_conv.add_argument("src")
    p_conv.add_argument("dst")
    p_conv.set_defaults(func=cmd_convert)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
