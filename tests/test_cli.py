"""CLI: suite runs, report schema, determinism, tolerance overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tractorlab import cli, metrics


def run_cli(tmp_path, *args):
    report_path = tmp_path / "report.json"
    code = cli.main(["run", "--report", str(report_path), "--quiet", *args])
    return code, json.loads(report_path.read_text())


def test_flat_equivalence_suite_passes(tmp_path):
    code, report = run_cli(
        tmp_path, "--metric", "flat_euclidean", "--suite", "tractor-equivalence",
        "--points", "20", "--seed", "1",
    )
    assert code == 0
    assert report["passed"]
    flagship = next(c for c in report["checks"] if c["check_id"] == "flagship-equivalence")
    assert flagship["max_residual"] < 1e-10


BAD_SPECS = {
    "key": "[components]\ng_0 = 1\n",
    "domain-key": "[domain]\nx7 = 0, 1\n",
    "reversed-domain": "[domain]\nx0 = 1, 0\n",
    "coordinate": "[components]\ng_00 = 1 + x9\n",
}


def test_unknown_suite_and_check(capsys):
    for args in (["--suite", "nope"], ["--tol-override", "bogus=1e-9"],
                 ["--tol-override", "flagship-equivalence=1e-15"]):
        assert cli.main(["run", "--metric", "flat_euclidean", *args, "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("tractorlab: error: ")


@pytest.mark.parametrize("args", [
    ["--metric", "flat_euclidean", "--tol-override", "metricity=abc"],
    ["--metric", "poly_perturbation", "--param", "amplitude=abc"],
    ["--metric", "poly_perturbation", "--param", "bogus=1"],
    ["--metric", "poly_perturbation", "--param", "seed"],
    ["--metric", "schwarzschild", "--param", "n=5"],
    ["--metric", "conformally_flat", "--param", "factor=x0 +"],
    *[["--metric", f"spec:{name}"] for name in BAD_SPECS],
])
def test_bad_input_is_a_one_line_error_with_exit_code_2(args, tmp_path, capsys):
    if args[1].startswith("spec:"):
        path = tmp_path / "bad.ini"
        path.write_text("[metric]\nn=4\n" + BAD_SPECS[args[1][len("spec:"):]])
        args = ["--metric", str(path)]
    code = cli.main(["run", *args, "--suite", "riemann-laws", "--points", "1", "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("tractorlab: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["--param", "mass=1", "--param", "mass=2"],
    ["--param", "mass=1", "--param", "mass=1"],
])
def test_a_repeated_param_is_a_usage_error(args, capsys):
    code = cli.main(["run", "--metric", "schwarzschild", *args, "--suite", "riemann-laws",
                     "--points", "1", "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == "tractorlab: error: --param mass is given more than once\n"


@pytest.mark.parametrize("args", [
    ["--metric", "round_sphere", "--param", "n=11"],
    ["--metric", "flat_minkowski", "--param", "n=40"],
    ["--metric", "poly_perturbation", "--param", "n=1000"],
    ["--metric", "conformally_flat", "--param", "n=2"],
    ["--metric", "spec"],
])
def test_a_dimension_over_the_cap_is_refused_before_any_jet_table_is_built(
        args, tmp_path, capsys, monkeypatch):
    """A dimension above `metrics.MAX_DIMENSION` (or below 3) is a one-line error
    with exit code 2, raised before any jet table or multi-index list of that
    size is built: no large algebra is built here."""
    from tractorlab import fields, jets

    def guard(real):
        def guarded(n, order):
            assert 3 <= n <= metrics.MAX_DIMENSION, f"built a table for n = {n}"
            return real(n, order)
        return guarded
    monkeypatch.setattr(jets, "algebra", guard(jets.algebra))
    monkeypatch.setattr(jets, "_multi_indices", guard(jets._multi_indices))
    fields._exponents.cache_clear()
    if args[1] == "spec":
        path = tmp_path / "big.ini"
        path.write_text("[metric]\nn=11\n[components]\ng_00 = 1\n")
        args = ["--metric", str(path)]
    code = cli.main(["run", *args, "--suite", "riemann-laws", "--points", "1", "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("tractorlab: error: ") and err.count("\n") == 1
    assert f"3..{metrics.MAX_DIMENSION}" in err


@pytest.mark.parametrize("degree", [metrics.MAX_POLY_DEGREE + 1, 50, 10**6])
def test_a_polynomial_degree_over_the_cap_is_refused_before_the_builder_runs(
        degree, capsys, monkeypatch):
    """A poly_perturbation degree above `metrics.MAX_POLY_DEGREE` is a one-line error
    with exit code 2, raised before any polynomial is drawn: no large one is built."""
    real = metrics.random_polynomial

    def guarded(rng, n, degree=3, scale=1.0):
        assert degree <= metrics.MAX_POLY_DEGREE, f"drew a polynomial of degree {degree}"
        return real(rng, n, degree, scale)
    monkeypatch.setattr(metrics, "random_polynomial", guarded)
    assert metrics.load_metric("poly_perturbation", degree=metrics.MAX_POLY_DEGREE, n=3)
    code = cli.main(["run", "--metric", "poly_perturbation", "--param", f"degree={degree}",
                     "--suite", "riemann-laws", "--points", "1", "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("tractorlab: error: ") and err.count("\n") == 1
    assert f"degree must be in 0..{metrics.MAX_POLY_DEGREE}, got {degree}" in err


def test_a_metric_with_no_frame_at_a_sample_point_exits_2(tmp_path, capsys):
    # Lorentzian at every point (it passes the signature check), but g_00 = x1 > 0
    # puts the first frame pivot at the wrong sign wherever x1 > 0
    path = tmp_path / "frame.ini"
    path.write_text("[metric]\nn=4\nsignature=lorentzian\n[components]\n"
                    "g_00 = x1\ng_01 = 1\ng_11 = 0\ng_22 = 1\ng_33 = 1\n")
    code = cli.main(["run", "--metric", str(path), "--suite", "riemann-laws",
                     "--points", "5", "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("tractorlab: error: vielbein factorization at point (")
    assert "pivot 0" in err and err.count("\n") == 1


def test_a_metric_with_the_wrong_signature_only_near_a_corner_exits_2(tmp_path, capsys):
    # g_00 < 0 only where x0 + x1 + x2 + x3 > 3.5: the signature check's 20
    # samples miss that corner of the box, and its corner (0.9, 0.9, 0.9, 0.9) hits it
    path = tmp_path / "corner.ini"
    path.write_text("[metric]\nn=4\n[components]\n"
                    "g_00 = 3.5 - (x0 + x1 + x2 + x3)\ng_11 = 1\ng_22 = 1\ng_33 = 1\n")
    metric = metrics.metric_from_spec(metrics.parse_metric_file(path))
    assert (metrics.sample_points(metric, 20, np.random.default_rng(0)).sum(axis=1) < 3.5).all()
    code = cli.main(["run", "--metric", str(path), "--suite", "riemann-laws",
                     "--points", "1", "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("tractorlab: error: ") and err.count("\n") == 1
    assert "fails signature check at (0.9, 0.9, 0.9, 0.9)" in err


OUTSIDE_THE_DOMAIN = {
    "ln(x0)": "ln of a jet with non-positive value, got -0.8",
    "sqrt(x0)": "sqrt of a jet with non-positive value, got -0.8",
    "exp(x0)^400": "eigenvalue 3.231e-148 is (near) zero",
}


@pytest.mark.parametrize("g00", sorted(OUTSIDE_THE_DOMAIN))
def test_a_metric_outside_its_domain_is_a_one_line_error_at_one_point(g00, tmp_path, capsys):
    # x0 < 0 on part of the box; exp(x0)^400 is positive but 3e-148 at x0 = -0.85
    path = tmp_path / "domain.ini"
    path.write_text(f"[metric]\nn=4\n[components]\ng_00 = {g00}\ng_11 = 1\ng_22 = 1\ng_33 = 1\n")
    code = cli.main(["run", "--metric", str(path), "--suite", "riemann-laws",
                     "--points", "3", "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("tractorlab: error: ") and err.count("\n") == 1
    assert OUTSIDE_THE_DOMAIN[g00] in err and "at (-0.849" in err and "array(" not in err


NON_FINITE = {
    "overflowing-param": ["--metric", "conformally_flat", "--param", "factor=1000*x0"],
    "overflowing-spec": ["--metric", "spec"],
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_a_metric_that_is_not_finite_is_a_one_line_error(case, tmp_path):
    # exp(2000) and exp(exp(exp(30 x0))) overflow: the run, in a process of its
    # own so that numpy's warnings reach its stderr, exits 2 with one error line
    args = NON_FINITE[case]
    if args[1] == "spec":
        path = tmp_path / "huge.ini"
        path.write_text("[metric]\nn=4\n[components]\n"
                        "g_00 = exp(exp(exp(x0*30)))\ng_11 = 1\ng_22 = 1\ng_33 = 1\n")
        args = ["--metric", str(path)]
    pythonpath = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run([sys.executable, "-m", "tractorlab.cli", "run", *args, "--suite",
                           "riemann-laws", "--points", "3", "--quiet"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("tractorlab: error: ") and proc.stderr.count("\n") == 1
    assert "is not finite at (" in proc.stderr and "g_00 = inf" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_failing_check_reports_worst_point(tmp_path):
    # an absurdly tight tolerance forces honest failures with diagnostics
    # (the Bianchi check uses finite differences, so its residual is genuine)
    code, report = run_cli(
        tmp_path, "--metric", "poly_perturbation", "--param", "seed=3",
        "--suite", "cartan-gauge", "--points", "4", "--seed", "2",
        "--tol-override", "bianchi=1e-12",
    )
    assert code == 1
    assert not report["passed"]
    failing = next(c for c in report["checks"] if not c["passed"])
    assert failing["check_id"] == "bianchi"
    assert failing["worst_point"] is not None
    assert "block_diff" in failing


def test_determinism_modulo_timing(tmp_path):
    args = ["--metric", "poly_perturbation", "--param", "seed=5",
            "--suite", "riemann-laws", "--points", "5", "--seed", "9"]
    _, r1 = run_cli(tmp_path, *args)
    _, r2 = run_cli(tmp_path, *args)
    r1["environment"].pop("timing_s")
    r2["environment"].pop("timing_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_every_check_has_a_unique_law():
    from tractorlab import suites

    laws = [meta["law"] for meta in suites.META.values()]
    assert len(laws) == len(set(laws))
    for check_id, meta in suites.META.items():
        assert meta["law"], check_id
        assert meta["tol"] >= 1e-12


def test_metric_file_via_cli(tmp_path):
    path = tmp_path / "m.ini"
    path.write_text(
        "[metric]\nname=filemetric\nn=4\nsignature=euclidean\n"
        "[components]\ng_00=1\ng_11=1\ng_22=1\ng_33=1 + 0.1*x0^2\n"
        "[domain]\nx0=-0.5,0.5\nx1=-0.5,0.5\nx2=-0.5,0.5\nx3=-0.5,0.5\n"
    )
    code, report = run_cli(
        tmp_path, "--metric", str(path), "--suite", "riemann-laws", "--points", "4", "--seed", "1"
    )
    assert code == 0
    assert report["checks"][0]["metric"] == "filemetric"


def test_text_format(tmp_path, capsys):
    report_path = tmp_path / "r.txt"
    code = cli.main([
        "run", "--metric", "flat_euclidean", "--suite", "cartan-gauge",
        "--points", "4", "--seed", "0", "--report", str(report_path), "--format", "text",
    ])
    assert code == 0
    text = report_path.read_text()
    assert "[PASS]" in text
    out = capsys.readouterr().out
    assert "checks passed" in out


@pytest.mark.parametrize("points", ["0", "-3"])
def test_points_below_one_is_a_usage_error(points, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--metric", "flat_euclidean", "--suite", "riemann-laws",
                  "--points", points, "--quiet"])
    assert exc.value.code == 2
    assert "--points" in capsys.readouterr().err


def test_a_negative_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--metric", "flat_euclidean", "--suite", "riemann-laws",
                  "--points", "3", "--seed", "-1", "--quiet"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_an_unknown_suite_next_to_all_is_a_usage_error(capsys):
    code = cli.main(["run", "--metric", "flat_euclidean", "--suite", "all", "--suite", "bogus",
                     "--points", "1", "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("tractorlab: error: unknown suite 'bogus'") and err.count("\n") == 1
