"""Suite registry sanity and metric-specific witnesses through the runner."""

from tractorlab import metrics, suites


def test_registry_shape():
    expected = {
        "riemann-laws", "cartan-gauge", "dressing-k1", "dressing-residual",
        "tractor-equivalence", "tractor-weyl", "brst-algebra", "brst-nilpotency",
    }
    assert set(suites.SUITES) == expected
    seen = set()
    for name, checks in suites.SUITES.items():
        assert checks, name
        for cid, fn in checks:
            assert cid not in seen
            seen.add(cid)
            assert suites.META[cid]["suite"] == name


def test_sphere_einstein_witness_via_runner(sphere):
    results = suites.run_suites(sphere, ["tractor-weyl", "dressing-k1"], seed=4, npoints=6)
    assert all(r.passed for r in results)
    witness = next(r for r in results if r.check_id == "ae-witness")
    assert "parallel tractor verified" in witness.note


def test_tolerance_override_applies(bumpy):
    ctx = suites.Context(bumpy, seed=1, npoints=4, tolerances={"metricity": 1e-3})
    assert ctx.tol("metricity") == 1e-3
    assert ctx.tol("frame-residuals") == suites.META["frame-residuals"]["tol"]


def test_unknown_suite_raises(bumpy):
    import pytest

    with pytest.raises(ValueError):
        suites.run_suites(bumpy, ["not-a-suite"], seed=0, npoints=2)


def test_context_rejects_fewer_than_one_point(bumpy):
    import pytest

    with pytest.raises(ValueError, match="npoints"):
        suites.Context(bumpy, seed=0, npoints=0)
    with pytest.raises(ValueError, match="npoints"):
        suites.run_suites(bumpy, ["riemann-laws"], seed=0, npoints=0)
