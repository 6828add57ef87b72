"""tractorlab benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 tractorbench/run.py --workload verdict-schwarzschild --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, never from an installed copy.  BENCHMARK.json fixes the environment
(one BLAS thread, TRACTORLAB_THREADS and TRACTORLAB_PURE unset).

With `--trace 0` the run times fresh-interpreter set-ups, then whole rounds
(one verdict each) while the next one fits in `--seconds`, and prints the
end-to-end metrics: setup_s, verdict_s, cpu_s and peak_rss_mb.  With
`--trace 1` it times one untraced round, then one traced round, and prints
the per-layer metrics together with the tracing overhead.  Either way the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; details and trace files go to
tractorbench/out/.  See tractorbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
# accounting tolerance of the traced round: self times must add up to its wall time
ACCOUNTING_TOL = 1e-6


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_package():
    """Import tractorlab from this checkout's src/ or exit with code 2."""
    if not (SRC / "tractorlab" / "__init__.py").is_file():
        log(f"tractorbench: no tractorlab sources under {SRC}; run from a source checkout")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import tractorlab

    if not Path(tractorlab.__file__).resolve().is_relative_to(SRC.resolve()):
        log(f"tractorbench: imported {tractorlab.__file__}, not the checkout's copy")
        sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (suite seed, sample points, poly_perturbation seeds)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="time budget of the set-up samples and timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and load the workload's metrics, print 'ready', exit")
    parser.add_argument("--out", default=str(HERE / "out"), help="directory for run outputs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def fresh_setup_s(args):
    """Wall time from spawning a fresh interpreter until the workload is set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--out", args.out, "--setup-only"]
    cmd += ["--tiny"] if args.tiny else []
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed (exit {code})")
    return elapsed


def timed_round(wl, r):
    """(inputs, output, wall_s, cpu_s) of round r; inputs are built before the clock starts."""
    inputs = wl.prepare(r)
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    out = wl.round(inputs)
    return inputs, out, time.perf_counter() - w0, time.process_time() - c0


def kernel_timings():
    """Jet kernel cost per call at the shapes the pipelines use.

    Each sample repeats the call for at least 20 ms; the figure is the best
    of five samples.
    """
    import numpy as np
    from tractorlab import jets

    alg = jets.algebra(4, 3)
    rng = np.random.default_rng(0)
    out = {}
    for kernel, batches, shape in (("mul", (1, 64, 1024), ()), ("matmul", (1, 16, 128), (6, 6))):
        fn = alg.mul if kernel == "mul" else alg.matmul
        for b in batches:
            x = rng.normal(size=(b, *shape, alg.ncoef))
            y = rng.normal(size=(b, *shape, alg.ncoef))
            t0 = time.perf_counter()
            fn(x, y)
            reps = max(1, int(0.02 / (time.perf_counter() - t0)))
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(reps):
                    fn(x, y)
                best = min(best, (time.perf_counter() - t0) / reps)
            out[f"kernel.{kernel}.b{b}_us"] = (best * 1e6, "us")
    return out


def run_timed(wl, args):
    """Set-up samples, then whole rounds while the next one fits in --seconds."""
    start = time.perf_counter()
    setup = [fresh_setup_s(args) for _ in range(2 if args.tiny else SETUP_SAMPLES)]
    walls, cpus = [], []
    attempted = failed = 0
    messages = []
    r = 0
    while True:
        inputs, out, wall, cpu = timed_round(wl, r)
        walls.append(wall)
        cpus.append(cpu)
        a, f, m = wl.round_ops(inputs, out)
        attempted, failed, messages = attempted + a, failed + f, messages + m
        del inputs, out
        r += 1
        log(f"{wl.name}: round {r} {wall:.3f} s wall, {cpu:.3f} s cpu")
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    a, f, m = wl.run_probes()
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {"rounds_wall_s": walls, "rounds_cpu_s": cpus, "setup_samples_s": setup}
    return metrics, attempted + a, failed + f, messages + m, [], detail


def run_traced(wl, args, out_dir):
    import numpy as np
    import spans
    from tractorlab import jets, suites

    inputs0, out0, untraced, _ = timed_round(wl, 0)
    a0, f0, m0 = wl.round_ops(inputs0, out0)
    del inputs0, out0

    tracer = spans.Tracer()
    inst = spans.instrument(tracer)
    try:
        setup_root = tracer.enter(tracer.key("bench", "setup"))
        wl.setup()
        tracer.exit(setup_root)
        setup_stats = tracer.per_key(setup_root, len(tracer.start))
        inputs = wl.prepare(1)
        gc.collect()
        tracer.counters.clear()
        tracer.shapes.clear()
        root = tracer.enter(tracer.key("bench", "round"))
        out = wl.round(inputs)
        tracer.exit(root)
        round_span = (root, len(tracer.start))
    finally:
        inst.restore()
    a1, f1, m1 = wl.round_ops(inputs, out)

    suite_of = {cid: name for name, jobs in suites.SUITES.items() for cid, _ in jobs}
    layer, stats = spans.layer_metrics(tracer, round_span, suite_of)
    traced = layer["trace.verdict_s"][0]
    layer["trace.untraced_verdict_s"] = (untraced, "s")
    layer["trace.overhead_s"] = (traced - untraced, "s")
    layer["metrics.load.s"] = (setup_stats.get(("metrics", "load_metric"), (0, 0.0, 0.0))[1], "s")
    layer.update(kernel_timings())

    stem = out_dir / f"{wl.name}-seed{args.seed}"
    tracer.write(stem)
    check_s = {op[len("check:"):]: t for (lyr, op), (_, t, _) in stats.items()
               if lyr == "suites" and op.startswith("check:")}
    spans.write_summary(f"{stem}-trace.json", layer, stats, tracer, {
        "workload": wl.name, "seed": args.seed, "backend": jets.backend_name(),
        "numpy": np.__version__, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "check_inclusive_s": check_s,
    })
    a2, f2, m2 = wl.run_probes()
    share = layer["trace.accounted_share"][0]
    problems = [] if abs(share - 1.0) <= ACCOUNTING_TOL else [
        f"layer self times cover {share:.9f} of the traced round"]
    return layer, a0 + a1 + a2, f0 + f1 + f2, m0 + m1 + m2, problems, {}


def main(argv=None):
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.tiny, out_dir)
    if args.setup_only:
        wl.setup()
        print("ready", flush=True)
        return 0

    # failed operations are counted; `problems` are faults of the run itself
    metrics, attempted, failed, messages, problems, detail = (
        run_traced(wl, args, out_dir) if args.trace else run_timed(wl, args))
    for m in messages + problems:
        log(f"FAILED {m}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(dict(result, **detail), fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
