"""Suite registry sanity, the point sweep, and metric-specific witnesses through
the runner."""

import numpy as np
import pytest

from tractorlab import suites, tractor


def test_registry_shape():
    expected = {
        "riemann-laws", "cartan-gauge", "dressing-k1", "dressing-residual",
        "tractor-equivalence", "tractor-weyl", "brst-algebra", "brst-nilpotency",
    }
    assert set(suites.SUITES) == expected
    seen = set()
    for name, checks in suites.SUITES.items():
        assert checks, name
        for cid, _ in checks:
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
    with pytest.raises(ValueError):
        suites.run_suites(bumpy, ["not-a-suite"], seed=0, npoints=2)


def test_context_rejects_fewer_than_one_point(bumpy):
    with pytest.raises(ValueError, match="npoints"):
        suites.Context(bumpy, seed=0, npoints=0)
    with pytest.raises(ValueError, match="npoints"):
        suites.run_suites(bumpy, ["riemann-laws"], seed=0, npoints=0)


def test_context_rejects_a_negative_seed(bumpy):
    with pytest.raises(ValueError, match="seed"):
        suites.Context(bumpy, seed=-1, npoints=2)


def test_points_field_counts_the_points_each_check_samples(flat):
    results = suites.run_suites(
        flat, ["riemann-laws", "cartan-gauge", "tractor-equivalence"], seed=3, npoints=20
    )
    points = {r.check_id: r.points for r in results}
    assert points["fd-oracle"] == 3  # min(3, points)
    assert points["schouten-weyl-law"] == 6  # max(4, points // 3)
    assert points["flagship-equivalence"] == 20
    assert points["soldering-metric"] == 10  # max(5, points // 2)
    assert points["convention-calibration"] == 5
    assert points["sigma-pairing"] == 0  # draws group elements, no chart points


EXPECTED_COUNTS = {
    "all": {1: 1, 7: 7, 20: 20},
    "half": {1: 5, 7: 5, 20: 10},
    "third": {1: 4, 7: 4, 20: 6},
    "quarter": {1: 3, 7: 3, 20: 5},
    "few": {1: 1, 7: 3, 20: 3},
}


@pytest.mark.parametrize("npoints", [1, 7, 20])
@pytest.mark.parametrize("rule", sorted(EXPECTED_COUNTS))
def test_sweep_tracks_a_residual_at_each_point_of_its_rule(flat, rule, npoints):
    assert set(suites.COUNTS) == set(EXPECTED_COUNTS)
    count = EXPECTED_COUNTS[rule][npoints]

    def stub(p):
        # a list result: the array dominates the maximum, the dict fills the blocks
        x = np.asarray(p)
        return [10.0 * x, {"sum": x.sum(axis=-1), "first": x[..., :1] * np.ones(2)}]

    seen = []

    def residual(p):
        seen.append(p)
        return stub(p)

    ctx = suites.Context(flat, seed=2, npoints=npoints)
    tr = ctx.sweep(ctx.rng("stub"), residual, rule)
    assert len(seen) == 1  # one call on the whole batch
    assert ctx.points_drawn == len(seen[0]) == count

    direct = suites.Context(flat, seed=2, npoints=npoints)
    pts = direct.points(direct.rng("stub"), count)
    assert np.array_equal(seen[0], pts)
    # the worst point is the first one with the largest residual of any block or element
    per_point = [max(np.abs(10.0 * x).max(), abs(x.sum()), abs(x[0])) for x in pts]
    worst = int(np.argmax(per_point))
    assert tr.max == per_point[worst] and tr.worst == tuple(pts[worst])
    assert tr.blocks == {"sum": max(abs(x.sum()) for x in pts), "first": max(abs(x[0]) for x in pts)}
    assert tr.note is None


def test_a_nan_residual_fails_its_check_at_its_point(flat):
    """A NaN at one point is the worst residual: the check fails and names that point."""
    ctx = suites.Context(flat, seed=2, npoints=4)
    pts = suites.Context(flat, seed=2, npoints=4).points(ctx.rng("metricity"))

    def stub_check(ctx, rng):
        def residual(p):
            at_second = np.all(np.asarray(p) == pts[1], axis=-1)
            return {"block": np.where(at_second, np.nan, 1e-16)}
        return ctx.sweep(rng, residual, "all")

    result = suites.run_check(ctx, "metricity", stub_check)
    assert np.isnan(result.max_residual) and not result.passed
    assert result.worst_point == tuple(pts[1])
    assert np.isnan(result.block_diff["block"])


def test_tracker_keeps_the_first_nan_and_the_block_maxima():
    tr = suites.Tracker()
    pts = np.arange(6.0).reshape(3, 2)
    tr.add(pts, {"a": [1.0, 3.0, 3.0], "b": [[0.5], [2.0], [-4.0]]})
    assert (tr.max, tr.worst, tr.blocks) == (4.0, (4.0, 5.0), {"a": 3.0, "b": 4.0})
    tr.add(pts, [np.array([np.nan, 1.0, np.nan])])
    tr.add(pts, np.array([9.0, 9.0, 9.0]))
    assert np.isnan(tr.max) and tr.worst == (0.0, 1.0)


def test_error_note_names_the_exception(flat, monkeypatch):
    from tractorlab import oracle

    def broken(*args, **kwargs):
        raise ZeroDivisionError("forced failure")

    monkeypatch.setattr(oracle, "fd_first", broken)
    results = suites.run_suites(flat, ["riemann-laws"], seed=0, npoints=4)
    failed = [r for r in results if not r.passed]
    assert [r.check_id for r in failed] == ["fd-oracle"]
    assert failed[0].note == "error: ZeroDivisionError: forced failure"
    assert failed[0].max_residual == float("inf")


def _count_calibrations(monkeypatch, replacement=None):
    from tractorlab import tractor

    calls = []
    calibrate = replacement or tractor.calibrate_convention_map

    def counted(*args, **kwargs):
        calls.append(1)
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(tractor, "calibrate_convention_map", counted)
    return calls


def test_calibration_is_computed_once_per_run(bumpy, monkeypatch):
    calls = _count_calibrations(monkeypatch)
    ctx = suites.Context(bumpy, seed=5, npoints=4)
    results = [suites.run_check(ctx, cid, fn) for cid, fn in suites.SUITES["tractor-equivalence"]]
    assert all(r.passed for r in results)
    cmap = ctx.calibration()
    assert len(calls) == 1
    note = next(r.note for r in results if r.check_id == "convention-calibration")
    assert note == (f"map: reverse={cmap.reverse}, lower={cmap.lower}, "
                    f"s_ell={cmap.s_ell}, s_rho={cmap.s_rho}")


def test_failed_calibration_fails_every_check_that_needs_the_map(bumpy, monkeypatch):
    from tractorlab import tractor

    def broken(*args, **kwargs):
        raise tractor.CalibrationError("no convention map matches both Weyl laws")

    calls = _count_calibrations(monkeypatch, broken)
    results = suites.run_suites(bumpy, ["tractor-equivalence"], seed=5, npoints=4)
    assert len(calls) == 1
    for r in results:
        assert not r.passed
        assert r.note == "error: CalibrationError: no convention map matches both Weyl laws"


def test_one_calibration_rescaling():
    # the suites and the flagship oracle calibrate under the same rescaling
    assert suites.DEFAULT_Z is tractor.DEFAULT_Z
