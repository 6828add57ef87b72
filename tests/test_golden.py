"""Golden reports: a full verdict at 5 points, seed 7, on four catalog metrics
reproduces the stored reports.  Every field of every check is compared
exactly except `max_residual`, which may move by roundoff: 1e-10 absolute,
1e-14 for the flagship oracle.

The files in tests/data/golden hold the `checks` of
`tractorlab run --metric <name> --suite all --points 5 --seed 7 --format json`.
Regenerate them only when a change is meant to alter a report, and say why.
"""

import json
from pathlib import Path

import pytest

from tractorlab import metrics, suites

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
EXACT = ("check_id", "suite", "law", "points", "tolerance", "passed", "note")
ROUNDOFF = {"flagship-equivalence": 1e-14}


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_report_matches_golden(path):
    golden = json.loads(path.read_text())
    results = suites.run_suites(metrics.load_metric(golden["metric"]), "all",
                                seed=golden["seed"], npoints=golden["points"])
    checks = [r.to_dict() for r in results]
    assert [c["check_id"] for c in checks] == [g["check_id"] for g in golden["checks"]]
    for got, want in zip(checks, golden["checks"]):
        assert {k: got.get(k) for k in EXACT} == {k: want[k] for k in EXACT}
        tol = ROUNDOFF.get(want["check_id"], 1e-10)
        assert abs(got["max_residual"] - want["max_residual"]) <= tol, want["check_id"]


def test_golden_covers_four_catalog_metrics():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == [
        "flat_euclidean", "poly_perturbation", "round_sphere", "schwarzschild"]
