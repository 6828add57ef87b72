"""Curvature pipeline: catalog witnesses and the finite-difference oracle."""

import numpy as np
import pytest

from tractorlab import jets, metrics, oracle
from tractorlab.geometry import FrameError, Geometry

A0 = jets.algebra(4, 0)
A1 = jets.algebra(4, 1)
EPS = np.finfo(float).eps


def _val(x):
    return np.asarray(x)[..., 0]


def test_flat_everything_vanishes(flat):
    geo = Geometry(flat, (0.2, -0.4, 0.1, 0.9))
    assert np.allclose(_val(geo.e(0)), np.eye(4))
    assert np.abs(geo.gamma2).max() == 0.0
    assert np.abs(geo.riemann1).max() == 0.0
    assert np.abs(geo.weyl).max() == 0.0
    assert np.abs(geo.cotton).max() == 0.0


def test_conformal_frame_is_diagonal():
    m = metrics.load_metric("conformally_flat", factor="0.25*x0")
    geo = Geometry(m, (0.4, 0.0, 0.1, -0.2))
    e = _val(geo.e(0))
    assert np.allclose(e, np.exp(0.25 * 0.4) * np.eye(4))


def test_sphere_curvature_values(sphere):
    geo = Geometry(sphere, (0.3, -0.2, 0.1, 0.05))
    g = _val(geo.g(1))
    assert np.abs(_val(geo.ricci1) - 3 * g).max() < 1e-9
    assert float(_val(geo.scalar(1))) == pytest.approx(12.0, abs=1e-9)
    assert np.abs(_val(geo.schouten1) + 0.5 * g).max() < 1e-9
    assert float(_val(geo.schouten_trace(1))) == pytest.approx(-2.0, abs=1e-9)
    assert np.abs(geo.cotton).max() < 1e-8
    assert np.abs(geo.weyl).max() < 1e-8


def test_schwarzschild_vacuum(schw, rng):
    for p in metrics.sample_points(schw, 3, rng):
        geo = Geometry(schw, p)
        assert np.abs(_val(geo.ricci1)).max() < 1e-8
        assert float(np.abs(_val(geo.schouten_trace(1)))) < 1e-8
        assert np.abs(geo.riemann1).max() > 1e-4
        assert np.abs(geo.cotton).max() < 1e-8
    center = (0.0, 2.5, 2.5, 2.5)
    assert np.abs(Geometry(schw, center).weyl).max() > 1e-3


def test_sphere_slice_christoffel_against_analytic_and_fd(tmp_path):
    # diag(1, 1, sin(x1)^2): Gamma^1_{22} = -sin cos, checked against the
    # analytic value and a finite-difference Christoffel oracle
    path = tmp_path / "slice.ini"
    path.write_text(
        "[metric]\nname=slice\nn=3\nsignature=0,3\n"
        "[components]\ng_00 = 1\ng_11 = 1\ng_22 = sin(x1)^2\n"
        "[domain]\nx0 = -1,1\nx1 = 0.4,2.6\nx2 = -1,1\n"
    )
    m = metrics.load_metric(str(path))
    pt = (0.1, 0.9, 0.3)
    geo = Geometry(m, pt)
    gam = _val(geo.gamma2)
    assert gam[1, 2, 2] == pytest.approx(-np.sin(0.9) * np.cos(0.9), abs=1e-12)

    def g_val(x):
        return jets.algebra(3, 0).value(m.g(x, 0))

    dg = oracle.fd_grad(g_val, pt)
    ginv = np.linalg.inv(g_val(pt))
    gam_fd = 0.5 * np.einsum(
        "ab,bmn->amn", ginv, np.einsum("mbn->bmn", dg) + np.einsum("nbm->bmn", dg) - dg
    )
    assert np.abs(gam - gam_fd).max() < 1e-6


def test_conformal_weyl_transformation_law(bumpy, rng):
    from tractorlab.fields import domain_z_field
    from tractorlab.dressing import upsilon_row

    zf = domain_z_field(rng, bumpy)
    hat = bumpy.rescale(zf)
    for p in metrics.sample_points(bumpy, 5, rng):
        p = tuple(p)
        geo, geo_hat = Geometry(bumpy, p), Geometry(hat, p)
        assert np.abs(geo_hat.weyl - geo.weyl).max() < 1e-7
        ups = upsilon_row(zf, p, 1, 4)
        u0 = _val(A1.truncate(ups, 0))
        g = _val(geo.g(0))
        nab_u = _val(geo.covariant_derivative(ups, "d"))
        ups2 = u0 @ np.linalg.inv(g) @ u0
        expected = _val(geo.schouten1) + nab_u - np.outer(u0, u0) + 0.5 * ups2 * g
        assert np.abs(_val(geo_hat.schouten1) - expected).max() < 1e-8


def test_covariant_derivative_shapes_and_scalars(flat, bumpy):
    geo = Geometry(bumpy, (0.1, 0.0, -0.1, 0.2))
    with pytest.raises(metrics.MetricError):
        geo.covariant_derivative(geo.g(2), "d")  # valence mismatch
    # metricity
    assert np.abs(geo.covariant_derivative(geo.g(2), "dd")).max() < 1e-12
    # flat Laplacian of x0^2 is 2
    from tractorlab import expr

    f = expr.Program([expr.parse("x0^2")], 4)((0.7, 0.1, 0.2, 0.3), 2)[0]
    geo_flat = Geometry(flat, (0.7, 0.1, 0.2, 0.3))
    assert float(_val(geo_flat.laplacian(f))) == pytest.approx(2.0)
    # gradient of a constant vanishes
    c = jets.algebra(4, 2).const(4.0)
    assert np.abs(geo.covariant_derivative(c, "")).max() == 0.0


def test_vielbein_pivot_error():
    # Lorentzian eta but positive metric: first pivot has the wrong sign
    spec = metrics.MetricSpec(
        "wrong", 4, (1, 3),
        {(i, i): metrics.expr.const(1.0) for i in range(4)},
        [(-1.0, 1.0)] * 4,
    )
    m = metrics.MetricField("wrong", 4, (1, 3), metrics.metric_from_spec(spec).g, spec.domain)
    with pytest.raises(FrameError) as err:
        Geometry(m, (0.0, 0.0, 0.0, 0.0)).e(0)
    assert err.value.pivot == 0
    assert err.value.point == (0.0, 0.0, 0.0, 0.0)


def test_spin_connection_properties(bumpy, rng):
    for p in metrics.sample_points(bumpy, 3, rng):
        geo = Geometry(bumpy, p)
        A = _val(geo.spin(1))
        eta = bumpy.eta
        anti = np.einsum("ac,mcb->mab", eta, A) + np.einsum("bc,mca->mab", eta, A)
        assert np.abs(anti).max() < 1e-10


def _left_looking_ldl(geom, order):
    """Reference LDL^T of g(order) in left-looking form: each pivot and each entry
    of L below it subtracts the products of the earlier columns one at a time.
    No pivot sign check."""
    n, alg = geom.n, jets.algebra(geom.n, order)
    a = geom.g(order)
    L = alg.const(np.broadcast_to(np.eye(n), a.shape[:-1]))
    d = []
    for k in range(n):
        dk = a[..., k, k, :].copy()
        for m in range(k):
            dk -= alg.mul(alg.mul(L[..., k, m, :], L[..., k, m, :]), d[m])
        d.append(dk)
        rk = alg.reciprocal(dk)
        for i in range(k + 1, n):
            num = a[..., i, k, :].copy()
            for m in range(k):
                num -= alg.mul(alg.mul(L[..., i, m, :], L[..., k, m, :]), d[m])
            L[..., i, k, :] = alg.mul(num, rk)
    return L, d


@pytest.mark.parametrize("name", metrics.CATALOG)
def test_ldl_matches_the_left_looking_factorization(name):
    """The outer-product L and D equal the left-looking ones within 1e3 eps
    normwise, at every jet order, on a batch of points."""
    metric = metrics.load_metric(name)
    geom = Geometry(metric, metrics.sample_points(metric, 7, np.random.default_rng(8)))
    for order in range(4):
        for got, want in zip(geom._ldl(order), _left_looking_ldl(geom, order)):
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e3 * EPS * max(np.linalg.norm(want), 1.0)
