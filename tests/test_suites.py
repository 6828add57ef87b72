"""Suite registry sanity, the point sweep, and metric-specific witnesses through
the runner."""

import numpy as np
import pytest

from reference import k1_erasure_loop
from tractorlab import cartan, dressing, jets, metrics, suites, tractor
from tractorlab.fields import field_matmul
from tractorlab.geometry import Geometry


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

    monkeypatch.setattr(oracle, "fd_grad", broken)
    results = suites.run_suites(flat, ["riemann-laws"], seed=0, npoints=4)
    failed = [r for r in results if not r.passed]
    assert [r.check_id for r in failed] == ["fd-oracle"]
    assert failed[0].note == "error: ZeroDivisionError: forced failure"
    assert failed[0].max_residual == float("inf")


def test_frame_residuals_fail_with_an_inverse_exact_to_order_1_only(monkeypatch):
    """One Newton step from the value's inverse gets the value right and orders 2
    and 3 wrong: the frame residuals compare whole order-3 jets, so they fail."""
    frame = dict(suites.SUITES["riemann-laws"])["frame-residuals"]

    def run():  # a fresh metric each time: no memoized Geometry keeps an inverse
        return suites.run_check(suites.Context(metrics.load_metric("schwarzschild"),
                                               seed=0, npoints=4), "frame-residuals", frame)

    assert run().passed

    def one_step(alg, a):
        x = alg.const(np.linalg.inv(alg.value(a)))
        return alg.matmul(x, 2.0 * alg.const(np.eye(a.shape[-2])) - alg.matmul(a, x))

    monkeypatch.setattr(jets.JetAlgebra, "inv_matrix", one_step)
    g3 = Geometry(metrics.load_metric("schwarzschild"), (0.1, 2.2, 2.5, 2.8)).g3
    a3 = jets.algebra(4, 3)
    assert np.abs(a3.value(a3.matmul(g3, a3.inv_matrix(g3))) - np.eye(4)).max() < 1e-14
    result = run()
    assert not result.passed
    assert result.block_diff["e.e^-1 - 1"] > 1e-6 and result.block_diff["g.g^-1 - 1"] > 1e-6


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


# -- negative controls: each breaks one shared connection combinator ------------


def _subtracting_section_derivative(conn, phi, point, order=0):
    """d phi - w phi in place of d phi + w phi."""
    alg_hi, alg = jets.algebra(conn.n, order + 1), jets.algebra(conn.n, order)
    p_hi = phi.at(point, order + 1)
    p = alg_hi.truncate(p_hi, order)[..., None, :, :]
    return alg_hi.grad(p_hi, 1) - cartan.matvec(alg, conn.at(point, order), p)


def _flipped_schouten_connection(metric, original=tractor.prolongation_connection):
    """The prolongation connection with +P_{mu nu} in place of -P_{mu nu} in its
    middle rows."""
    conn = original(metric)

    def at(point, order):
        m = conn.at(point, order).copy()  # a field's result is read-only
        m[..., 1:-1, 0, :] *= -1.0
        return m

    return cartan.ConnectionField(at, lambda point, order: at(point, order)[..., 0, :],
                                  metric.n, metric.eta, max_order=1, col0_order=1)


def _reversed_curvature_transform(curv, gfield, point):
    """g F g^-1 in place of g^-1 F g."""
    alg = jets.algebra(gfield.n, 0)
    g = gfield.at(point, 0)[..., None, None, :, :, :]
    return alg.matmul(alg.matmul(g, curv), alg.inv_matrix(g))


def _untransposed_metric_defect(conn, G1, point):
    """dG - w G - G w in place of dG - w^T G - G w."""
    alg1, alg = jets.algebra(conn.n, 1), jets.algebra(conn.n, 0)
    w = conn.at(point, 0)
    G0 = alg1.truncate(G1, 0)[..., None, :, :, :]
    return alg1.grad(G1, 2) - alg.matmul(w, G0) - alg.matmul(G0, w)


CONTROLS = {
    "section_derivative": (_subtracting_section_derivative,
                           ["flagship-equivalence", "gt-covariance", "pairing-invariance"]),
    "prolongation_connection": (_flipped_schouten_connection,
                                ["flagship-equivalence", "metric-compatibility",
                                 "curvature-two-ways", "ae-witness"]),
    "transform_curvature": (_reversed_curvature_transform,
                            ["curvature-tensoriality", "dressed-curvature", "omega1z-table",
                             "omegaLz-table"]),
    "metric_defect": (_untransposed_metric_defect,
                      ["tractor-metric-G", "metric-compatibility"]),
}


@pytest.mark.parametrize("name", CONTROLS)
def test_a_broken_connection_combinator_fails_the_checks_that_share_it(name, monkeypatch):
    """Both pipelines call one copy of each combinator, so breaking that copy fails
    the checks of both.  poly_perturbation is neither Ricci-flat nor conformally
    flat, so the Schouten block and the curvature are both nonzero."""
    replacement, check_ids = CONTROLS[name]
    checks = {cid: fn for entries in suites.SUITES.values() for cid, fn in entries}

    def run():  # a fresh metric each time: no memoized Geometry is shared
        ctx = suites.Context(metrics.load_metric("poly_perturbation"), seed=7, npoints=5)
        return [suites.run_check(ctx, cid, checks[cid]) for cid in check_ids]

    assert all(r.passed for r in run())
    original = getattr(cartan, name, None) or getattr(tractor, name)
    for module in (cartan, tractor):  # `from .cartan import f` binds f in tractor too
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)
    results = run()
    assert [r.check_id for r in results if r.passed] == []
    assert not any((r.note or "").startswith("error") for r in results)


# the checks that read the boost dressing of a gauged connection, in run order
BOOST_READERS = ["k1-erasure", "boost-constraint", "dressing-weyl-cocycle", "iterated-cocycle",
                 "residual-two-pipeline-1", "residual-two-pipeline-L"]


def test_a_broken_boost_vector_fails_the_checks_that_dress_a_gauged_connection(monkeypatch):
    """The normal chain's boost dressing is the identity and runs no `boost_vector`,
    so only the gauged chains test it: a boost vector scaled by 1.01 fails exactly
    the checks that dress a gauged connection, with no error note."""
    def run():
        return suites.run_suites(metrics.load_metric("schwarzschild"),
                                 ["dressing-k1", "dressing-residual"], seed=7, npoints=5)

    assert all(r.passed for r in run())
    boost_vector = dressing.boost_vector
    monkeypatch.setattr(dressing, "boost_vector", lambda *args: 1.01 * boost_vector(*args))
    results = run()
    assert [r.check_id for r in results if not r.passed] == BOOST_READERS
    assert not any((r.note or "").startswith("error") for r in results)


# the block each check that draws a gauge marked H-valued adds on that gauge
MEMBERSHIP = {"gt0-table": "H membership", "gt1-table": "H membership",
              "boost-constraint": "gauge H membership"}


def test_a_marked_gauge_field_outside_the_group_fails_its_membership_block(monkeypatch):
    """The closed-form inverse `cartan.inverse` takes for a marked field is its
    inverse only in H.  A drawn gauge times the holonomic cocycle Cbar, which is
    not in H, marked H-valued all the same, fails each check that draws a marked
    gauge on its g^T Sigma g - Sigma block, with no error note."""
    checks = {cid: fn for entries in suites.SUITES.values() for cid, fn in entries}

    def run():
        ctx = suites.Context(metrics.load_metric("schwarzschild"), seed=7, npoints=3)
        return [suites.run_check(ctx, cid, checks[cid]) for cid in MEMBERSHIP]

    assert all(r.passed for r in run())
    h_field = cartan.h_field

    def outside_h(metric, **parts):
        g = field_matmul(h_field(metric, **parts), dressing.weyl_cocycle(metric, "1.5 + 0.1*x0", "Cbar"))
        g.group_eta = metric.eta
        return g
    monkeypatch.setattr(cartan, "h_field", outside_h)
    for r in run():
        assert not r.passed and r.note is None, r.check_id
        assert r.block_diff[MEMBERSHIP[r.check_id]] > r.tolerance, r.check_id


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["schwarzschild", "poly_perturbation"])
def test_k1_erasure_on_one_draw_axis_is_its_loop_over_draws(name, seed):
    """The 20 boosts of `k1-erasure`, stacked on one draw axis, give the report of
    a loop that draws and dresses one boost at a time, bit for bit."""
    def run(check):
        ctx = suites.Context(metrics.load_metric(name), seed=seed, npoints=20)
        return suites.run_check(ctx, "k1-erasure", check)

    got, want = run(dict(suites.SUITES["dressing-k1"])["k1-erasure"]), run(k1_erasure_loop)
    assert got.passed and got.note is None
    assert (got.max_residual, got.worst_point, got.points) == (
        want.max_residual, want.worst_point, want.points)
