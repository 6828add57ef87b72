"""Tests of the benchmark itself: run from the repository root with

    python3 -m pytest tractorbench -q

The smoke tests run every workload at tiny size, the way BENCHMARK.json
runs it, and check the printed result line against BENCHMARK.json.  The
probe tests feed each correctness probe a deliberately wrong value and show
that it fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402
from tractorlab import metrics  # noqa: E402
from tractorlab.geometry import Geometry  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd, workload, trace, out_dir, seed=3):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                              "--trace", str(trace), "--tiny", "--out", str(out_dir)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_result_line(tmp_path, workload, trace):
    result = result_line(run_bench(ROOT, workload, trace, tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if trace:
        assert abs(result["metrics"]["trace.accounted_share"]["value"] - 1.0) < 1e-6
        assert list(tmp_path.glob("*-trace.json")) and list(tmp_path.glob("*-spans.npz"))
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])


def test_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero with no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0, tmp_path / "out")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- probes fail on wrong values ----------------------------------------------


def _check(cid, passed=True, residual=1e-15, tol=1e-8, note=None):
    out = {"check_id": cid, "passed": passed, "max_residual": residual, "tolerance": tol}
    if note:
        out["note"] = note
    return out


def test_check_ops():
    ids = ["a", "b", "c"]
    good = [_check(c) for c in ids]
    assert probes.check_ops(good, ids)[:2] == (3, 0)
    wrong = [
        good[:2],                                   # a check did not run
        good + [_check("a")],                       # a check ran twice
        [_check("a", passed=False)] + good[1:],     # a check failed
        [_check("a", residual=float("inf"))] + good[1:],
        [_check("a", note="error: boom")] + good[1:],
        good + [_check("d")],                       # a check nobody asked for
    ]
    for checks in wrong:
        assert probes.check_ops(checks, ids)[1] >= 1, checks


def test_cli_report():
    report = {"passed": True, "checks": [{"passed": True}] * 2}
    assert probes.cli_report(0, report, "2/2 checks passed", 2).ok
    assert not probes.cli_report(1, report, "2/2 checks passed", 2).ok
    assert not probes.cli_report(0, report, "1/2 checks passed", 2).ok
    assert not probes.cli_report(0, dict(report, passed=False), "2/2 checks passed", 2).ok
    assert not probes.cli_report(0, report, "3/3 checks passed", 3).ok


def test_equivalence():
    assert probes.equivalence(1e-15).ok
    assert not probes.equivalence(2e-8).ok
    assert not probes.equivalence(float("nan")).ok


def test_single_map():
    m = "reverse=True, lower=g, s_ell=1, s_rho=-1"
    other = "reverse=False, lower=g, s_ell=1, s_rho=-1"
    note = f"map: {m}"
    assert probes.map_from_note(note) == m
    assert probes.single_map([m, probes.map_from_note(note)], m).ok
    assert not probes.single_map([m, other], m).ok
    assert not probes.single_map([m, None], m).ok
    assert not probes.single_map([other], m).ok
    assert not probes.single_map([], m).ok


def _geom(name, point, **params):
    return Geometry(metrics.load_metric(name, **params), point)


def _v(a):
    return np.asarray(a)[..., 0]


def test_schwarzschild_probe():
    p = (0.1, 2.3, 2.1, 2.7)
    geom = _geom("schwarzschild", p)
    args = (_v(geom.riemann1), _v(geom.g(0)), _v(geom.ginv(0)), p)
    assert probes.schwarzschild(*args, 1.0).ok
    assert not probes.schwarzschild(*args, 1.001).ok  # wrong mass
    bent = args[0].copy()
    bent[1, 0, 1, 0] *= 1.001
    assert not probes.schwarzschild(bent, *args[1:], 1.0).ok


def test_round_sphere_probe():
    geom = _geom("round_sphere", (0.1, -0.2, 0.3, 0.05))
    weyl, schouten, g = geom.weyl, _v(geom.schouten1), _v(geom.g(0))
    assert probes.round_sphere(weyl, schouten, g).ok
    assert not probes.round_sphere(weyl, -schouten, g).ok  # opposite sign convention
    assert not probes.round_sphere(weyl + 1e-6, schouten, g).ok


def test_flat_probe():
    geom = _geom("flat_euclidean", (0.1, -0.2, 0.3, 0.05))
    tensors = {"riemann": geom.riemann1, "weyl": geom.weyl}
    assert probes.flat(tensors).ok
    tensors["weyl"] = geom.weyl + 1e-9
    assert not probes.flat(tensors).ok


def test_christoffel_probe():
    metric = metrics.load_metric("poly_perturbation", seed=5)
    p = (0.05, -0.1, 0.12, 0.2)
    gamma = _v(Geometry(metric, p).gamma2)

    def g_at(x):
        return _v(metric.g(tuple(x), 0))

    assert probes.christoffel_fd(gamma, g_at, p).ok
    assert not probes.christoffel_fd(np.swapaxes(gamma, 0, 1), g_at, p).ok  # index order
    assert not probes.christoffel_fd(gamma * 1.001, g_at, p).ok
