"""Prolongation, tractor connection/metric/curvature, convention calibration."""

import numpy as np
import pytest
from reference import calibrate_loop

from tractorlab import cartan, dressing, jets, metrics, tractor
from tractorlab.fields import JetField, ScalarField
from tractorlab.geometry import Geometry

A0 = jets.algebra(4, 0)
A1 = jets.algebra(4, 1)
PT = (0.05, -0.1, 0.02, 0.15)


def _val(x):
    return np.asarray(x)[..., 0]


def test_connection_matrix_flat(flat):
    m = tractor.prolongation_connection(flat).at(PT, 0)
    v = _val(m)
    for mu in range(4):
        assert v[mu, 0, 1 + mu] == -1.0
        assert np.allclose(v[mu, 1:-1, -1], np.eye(4)[mu])
        block = v[mu].copy()
        block[0, 1 + mu] = 0.0
        block[1:-1, -1] = 0.0
        assert np.abs(block).max() == 0.0


def test_sphere_parallel_tractor(sphere):
    pt = (0.2, -0.3, 0.1, 0.4)
    tf = tractor.prolong_field(sphere, "1")
    assert np.allclose(_val(tf.at(pt, 0)), [1, 0, 0, 0, 0, -0.5], atol=1e-12)
    assert np.abs(tractor.ae_residual(sphere, "1", pt)).max() < 1e-9
    der = cartan.section_derivative(tractor.prolongation_connection(sphere), tf, pt)
    assert np.abs(der).max() < 1e-9


def test_flat_linear_scale(flat):
    tf = tractor.prolong_field(flat, "x0")
    assert np.allclose(_val(tf.at(PT, 0)), [PT[0], 1, 0, 0, 0, 0], atol=1e-13)
    assert np.abs(tractor.ae_residual(flat, "x0", PT)).max() < 1e-13
    der = cartan.section_derivative(tractor.prolongation_connection(flat), tf, PT)
    assert np.abs(der).max() < 1e-12


def test_flat_constant_parallel(flat):
    der = cartan.section_derivative(tractor.prolongation_connection(flat),
                                    cartan.section_field(flat, "1", ["0"] * 4, "0"), PT)
    assert np.abs(der).max() == 0.0


def test_generic_metric_ell_row(bumpy):
    tf = tractor.prolong_field(bumpy, "1")
    der = _val(cartan.section_derivative(tractor.prolongation_connection(bumpy), tf, PT))
    geom = Geometry(bumpy, PT)
    P = _val(A1.truncate(geom.schouten1, 0))
    g = _val(geom.g(0))
    tfp = P - (np.tensordot(np.linalg.inv(g), P, axes=2) / 4.0) * g
    assert np.abs(der[:, 1:-1] + tfp).max() < 1e-10
    assert np.abs(tractor.ae_residual(bumpy, "1", PT) + tfp).max() < 1e-10
    assert np.abs(tfp).max() > 1e-4  # genuinely not almost-Einstein


def test_weyl_transform_matrix(bumpy):
    one = ScalarField.constant(1.0)
    u = _val(tractor.weyl_matrix_field(bumpy, one).at(PT, 0))
    assert np.allclose(u, np.eye(6))
    const = ScalarField.constant(2.0)
    u = _val(tractor.weyl_matrix_field(bumpy, const).at(PT, 0))
    assert np.allclose(u, np.diag([2.0, 2, 2, 2, 2, 0.5]))
    with pytest.raises(tractor.TractorError):
        tractor.weyl_matrix_field(bumpy, ScalarField.constant(-1.0)).at(PT, 0)


def test_prolongation_covariance(bumpy):
    zf = ScalarField.from_expression("exp(0.2*x0 + 0.1*x1)")
    sig = ScalarField.from_expression("1 + 0.3*x2")
    zsig = ScalarField.from_expression("exp(0.2*x0 + 0.1*x1) * (1 + 0.3*x2)")
    hat = bumpy.rescale(zf)
    lhs = tractor.prolong_field(hat, zsig).at(PT, 0)
    u = jets.algebra(4, 2).truncate(tractor.weyl_matrix_field(bumpy, zf).at(PT, 2), 0)
    rhs = tractor.prolong_field(bumpy, sig).at(PT, 0)
    from tractorlab.cartan import matvec

    assert np.abs(lhs - matvec(A0, u, rhs)).max() < 1e-10


def test_inner_examples(bumpy):
    t1 = A0.const(np.array([1.0, 0, 0, 0, 0, 0]))
    t2 = A0.const(np.array([0.0, 0, 0, 0, 0, 1.0]))
    assert float(_val(tractor.inner(bumpy, PT, t1, t2))) == 1.0
    # Weyl invariance of the pairing
    zf = ScalarField.from_expression("exp(0.2*x0)")
    hat = bumpy.rescale(zf)
    u = _val(tractor.weyl_matrix_field(bumpy, zf).at(PT, 0))
    a, b = np.random.default_rng(0).normal(size=(2, 6))
    ja, jb = A0.const(a), A0.const(b)
    ua, ub = A0.const(u @ a), A0.const(u @ b)
    assert float(_val(tractor.inner(hat, PT, ua, ub))) == pytest.approx(
        float(_val(tractor.inner(bumpy, PT, ja, jb))), abs=1e-12
    )


def test_curvature_two_ways_catalog():
    cf = metrics.load_metric("conformally_flat", factor="0.3*x0 + 0.1*x1^2")
    _, _, disc = tractor.curvature_two_ways(cf, PT)
    comm, _, _ = tractor.curvature_two_ways(cf, PT)
    assert disc < 1e-8
    assert np.abs(comm).max() < 1e-8  # flat tractor curvature

    schw = metrics.load_metric("schwarzschild")
    comm, _, disc = tractor.curvature_two_ways(schw, (0.0, 2.5, 2.5, 2.5))
    assert disc < 1e-8
    assert np.abs(comm[:, :, 1:-1, 0]).max() < 1e-8  # Cotton block
    assert np.abs(comm[:, :, 1:-1, 1:-1]).max() > 1e-3  # Weyl block

    bumpy = metrics.load_metric("poly_perturbation", seed=11)
    comm, _, disc = tractor.curvature_two_ways(bumpy, PT)
    assert disc < 1e-7
    assert np.abs(comm[:, :, 0, :]).max() < 1e-10  # top row identically zero


def test_calibration_unique_and_degenerate(flat, rng):
    pts = metrics.sample_points(flat, 5, rng)
    cmap = tractor.calibrate_convention_map(
        flat, ScalarField.from_expression("exp(0.3*x0)"), pts, rng
    )
    assert (cmap.reverse, cmap.lower, cmap.s_ell, cmap.s_rho) == (True, "g", -1, -1)
    with pytest.raises(tractor.CalibrationError):
        tractor.calibrate_convention_map(flat, ScalarField.constant(1.0), pts, rng)


def test_convention_map_inverse(bumpy, rng):
    cmap = tractor.ConventionMap(True, "g", -1, -1)
    geom = Geometry(bumpy, PT)
    col = A0.const(rng.normal(size=6))
    there = cmap.apply(A0, col, geom.g(0), geom.ginv(0))
    back = cmap.apply_inverse(A0, there, geom.g(0), geom.ginv(0))
    assert np.abs(back - col).max() < 1e-13


@pytest.mark.parametrize("name,kwargs", [
    ("flat_euclidean", {}),
    ("round_sphere", {}),
    ("schwarzschild", {}),
    ("poly_perturbation", {"seed": 11}),
])
def test_equivalence(name, kwargs, rng):
    metric = metrics.load_metric(name, **kwargs)
    pts = metrics.sample_points(metric, 10, rng)
    report = tractor.equivalence_check(metric, pts, rng)
    assert report["max_residual"] < 1e-9


def _flip_weyl_matrix_middle_column(monkeypatch):
    weyl_matrix_field = tractor.weyl_matrix_field

    def flipped(metric, z_field):
        u = weyl_matrix_field(metric, z_field)

        def fn(point, order):
            m = u.at(point, order).copy()
            m[..., 1:-1, 0, :] *= -1.0
            return m

        return JetField(fn, u.n, u.max_order)

    monkeypatch.setattr(tractor, "weyl_matrix_field", flipped)


def _transpose_weyl_cocycle(monkeypatch):
    weyl_cocycle = dressing.weyl_cocycle

    def transposed(metric, z_field, variant="C"):
        c = weyl_cocycle(metric, z_field, variant)
        return JetField(lambda p, k: np.swapaxes(c.at(p, k), -3, -2), c.n, c.max_order)

    monkeypatch.setattr(dressing, "weyl_cocycle", transposed)


@pytest.mark.parametrize("corrupt", [_flip_weyl_matrix_middle_column, _transpose_weyl_cocycle])
def test_calibration_rejects_a_broken_weyl_law(corrupt, monkeypatch):
    """Exactly one convention map survives, and none once either Weyl law is broken."""
    metric = metrics.load_metric("poly_perturbation", seed=2)
    zf = ScalarField.from_expression("exp(0.3*x0 + 0.1*x1^2)")

    def calibrate():
        rng = np.random.default_rng(5)
        return tractor.calibrate_convention_map(metric, zf, metrics.sample_points(metric, 5, rng), rng)

    assert calibrate() == tractor.ConventionMap(True, "g", -1, -1)
    corrupt(monkeypatch)
    with pytest.raises(tractor.CalibrationError, match="no convention map"):
        calibrate()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", metrics.CATALOG)
def test_stacked_calibration_is_the_candidate_loop(name, seed):
    """Testing every candidate in one stacked pass picks the map that testing them
    one at a time picks, from the same draws."""
    metric = metrics.load_metric(name)
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    maps = [calibrate(metric, tractor.DEFAULT_Z_FIELD, metrics.sample_points(metric, 5, rng), rng)
            for calibrate, rng in zip((tractor.calibrate_convention_map, calibrate_loop), rngs)]
    assert maps[0] == maps[1]
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def _transpose_weyl_matrix(monkeypatch):
    weyl_matrix_field = tractor.weyl_matrix_field

    def transposed(metric, z_field):
        u = weyl_matrix_field(metric, z_field)
        return JetField(lambda p, k: np.swapaxes(u.at(p, k), -3, -2), u.n, u.max_order)

    monkeypatch.setattr(tractor, "weyl_matrix_field", transposed)


@pytest.mark.parametrize("z, corrupt, survive", [
    (ScalarField.constant(2.0), None, "4 convention maps survive"),  # listed in order
    (tractor.DEFAULT_Z_FIELD, _transpose_weyl_matrix, "no convention map"),
])
def test_stacked_calibration_fails_like_the_candidate_loop(z, corrupt, survive, monkeypatch):
    metric = metrics.load_metric("poly_perturbation", seed=2)
    if corrupt:
        corrupt(monkeypatch)
    messages = []
    for calibrate in (tractor.calibrate_convention_map, calibrate_loop):
        rng = np.random.default_rng(5)
        with pytest.raises(tractor.CalibrationError, match=survive) as err:
            calibrate(metric, z, metrics.sample_points(metric, 5, rng), rng)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("batch", [(), (5, 4)], ids=["point", "batch"])
def test_apply_all_stacks_each_candidate(bumpy, rng, batch, order):
    """Slice k of `_apply_all` is candidate k's `apply`, at one point and on a batch
    of points with a trial axis, within 1e3 eps normwise."""
    alg = jets.algebra(4, order)
    pts = metrics.sample_points(bumpy, 5, rng) if batch else np.asarray(PT)
    geom = Geometry(bumpy, pts)
    g, ginv = geom.g(order), geom.ginv(order)
    if batch:
        g, ginv = g[:, None], ginv[:, None]
    col = rng.normal(size=batch + (6, g.shape[-1]))
    stacked = tractor._apply_all(alg, col, g, ginv)
    assert stacked.shape == (len(tractor.ALL_CANDIDATES),) + col.shape
    for got, cand in zip(stacked, tractor.ALL_CANDIDATES):
        want = cand.apply(alg, col, g, ginv)
        assert np.linalg.norm(got - want) <= 1e3 * np.finfo(float).eps * max(
            np.linalg.norm(want), 1.0)
