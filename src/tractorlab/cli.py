"""Batch orchestration: run verification suites on a metric and emit reports.

    tractorlab run --metric round_sphere --suite all --points 20 --seed 7 \
        --report out.json --format json

Exit code 0 iff every check passes, 1 if a check fails, and 2 for bad input
(usage, a repeated `--param`, metric spec, parameters, n above 10, a polynomial
degree above 3, expressions, tolerance overrides, a metric with no frame of its
signature at a sampled point), which is reported as one `tractorlab: error: ...`
line.  Reports are deterministic for a fixed (config, seed) apart from the timing
field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__, expr, jets, metrics, suites


class UsageError(ValueError):
    """Bad command-line input that argparse cannot check by itself."""


def parse_params(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        if key in out:
            raise UsageError(f"--param {key} is given more than once")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        out[key] = parsed
    return out


def parse_tol_overrides(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--tol-override expects check=value, got {pair!r}")
        key, value = pair.split("=", 1)
        if key not in suites.META:
            raise UsageError(f"unknown check id {key!r}")
        try:
            tol = float(value)
        except ValueError:
            raise UsageError(f"tolerance for {key} must be a number, got {value!r}") from None
        if not tol >= 1e-12:
            raise UsageError(f"tolerance for {key} must be >= 1e-12, got {tol}")
        out[key] = tol
    return out


def _int_at_least(low, text):
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text):
    return _int_at_least(1, text)


def non_negative_int(text):
    return _int_at_least(0, text)


def build_report(args):
    params = parse_params(args.param)
    tolerances = parse_tol_overrides(args.tol_override)
    try:
        suite_names = suites.expand_suites(args.suite)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    metric = metrics.load_metric(args.metric, **params)
    start = time.time()
    results = suites.run_suites(
        metric, suite_names, seed=args.seed, npoints=args.points, tolerances=tolerances,
    )
    elapsed = time.time() - start
    report = {
        "environment": {
            "version": __version__,
            "seed": args.seed,
            "backend": jets.backend_name(),
            "numpy": np.__version__,
            "timing_s": round(elapsed, 3),
        },
        "config": {
            "metric": args.metric,
            "params": params,
            "suites": suite_names,
            "points": args.points,
            "tol_overrides": tolerances,
        },
        "checks": [r.to_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
    return report, results


def format_text(report):
    lines = []
    env = report["environment"]
    lines.append(
        f"tractorlab {env['version']} | metric={report['config']['metric']} "
        f"seed={env['seed']} points={report['config']['points']} backend={env['backend']}"
    )
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(
            f"[{status}] {c['suite']}/{c['check_id']}: max={c['max_residual']:.3e} "
            f"tol={c['tolerance']:.1e}  ({c['law']})"
        )
        if not c["passed"]:
            lines.append(f"       worst point: {c.get('worst_point')}")
            for k, v in (c.get("block_diff") or {}).items():
                lines.append(f"       block {k}: {v:.3e}")
        if c.get("note"):
            lines.append(f"       note: {c['note']}")
    n_pass = sum(1 for c in report["checks"] if c["passed"])
    lines.append(f"{n_pass}/{len(report['checks'])} checks passed")
    return "\n".join(lines)


def emit_report(report, path=None, fmt="json"):
    text = json.dumps(report, indent=2, sort_keys=True) if fmt == "json" else format_text(report)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(prog="tractorlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run verification suites on a metric")
    run.add_argument("--metric", required=True,
                     help=f"catalog name ({', '.join(metrics.CATALOG)}) or spec file path")
    run.add_argument("--param", action="append", metavar="K=V",
                     help="metric parameter (factor=..., amplitude=..., seed=..., degree=..., "
                          "mass=..., n=...)")
    run.add_argument("--suite", action="append", default=None,
                     help=f"suite name or 'all' ({', '.join(suites.SUITES)})")
    run.add_argument("--points", type=positive_int, default=20)
    run.add_argument("--seed", type=non_negative_int, default=0)
    run.add_argument("--tol-override", action="append", metavar="CHECK=TOL")
    run.add_argument("--report", default=None, help="write the report to this path")
    run.add_argument("--format", choices=("json", "text"), default="json")
    run.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    args = parser.parse_args(argv)

    if args.suite is None:
        args.suite = ["all"]
    try:
        report, _ = build_report(args)
    except (UsageError, metrics.MetricError, expr.ExprError) as exc:
        print(f"tractorlab: error: {exc}", file=sys.stderr)
        return 2
    if args.report:
        emit_report(report, args.report, args.format)
    if not args.quiet:
        print(format_text(report))
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
