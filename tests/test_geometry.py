"""Curvature pipeline: catalog witnesses and the finite-difference oracle."""

import numpy as np
import pytest

from tractorlab import jets, metrics, oracle
from tractorlab.geometry import FrameError, Geometry

A0 = jets.algebra(4, 0)
A1 = jets.algebra(4, 1)


def _val(x):
    return np.asarray(x)[..., 0]


def test_flat_everything_vanishes(flat):
    geo = Geometry(flat, (0.2, -0.4, 0.1, 0.9))
    assert np.allclose(_val(geo.e3), np.eye(4))
    assert np.abs(geo.gamma2).max() == 0.0
    assert np.abs(geo.riemann1).max() == 0.0
    assert np.abs(geo.weyl).max() == 0.0
    assert np.abs(geo.cotton).max() == 0.0


def test_conformal_frame_is_diagonal():
    m = metrics.load_metric("conformally_flat", factor="0.25*x0")
    geo = Geometry(m, (0.4, 0.0, 0.1, -0.2))
    e = _val(geo.e3)
    assert np.allclose(e, np.exp(0.25 * 0.4) * np.eye(4))


def test_sphere_curvature_values(sphere):
    geo = Geometry(sphere, (0.3, -0.2, 0.1, 0.05))
    g = _val(geo.g(1))
    assert np.abs(_val(geo.ricci1) - 3 * g).max() < 1e-9
    assert float(_val(geo.scalar1)) == pytest.approx(12.0, abs=1e-9)
    assert np.abs(_val(geo.schouten1) + 0.5 * g).max() < 1e-9
    assert float(_val(geo.schouten_trace1)) == pytest.approx(-2.0, abs=1e-9)
    assert np.abs(geo.cotton).max() < 1e-8
    assert np.abs(geo.weyl).max() < 1e-8


def test_schwarzschild_vacuum(schw, rng):
    for p in metrics.sample_points(schw, 3, rng):
        geo = Geometry(schw, p)
        assert np.abs(_val(geo.ricci1)).max() < 1e-8
        assert float(np.abs(_val(geo.schouten_trace1))) < 1e-8
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
        return jets.algebra(3, 0).value(m.g(tuple(x), 0))

    dg = np.stack([oracle.fd_first(g_val, pt, mu) for mu in range(3)])
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

    f = expr.evaluate(expr.parse("x0^2"), (0.7, 0.1, 0.2, 0.3), 2)
    geo_flat = Geometry(flat, (0.7, 0.1, 0.2, 0.3))
    assert float(_val(geo_flat.laplacian(f.coeffs))) == pytest.approx(2.0)
    # gradient of a constant vanishes
    c = jets.lift_constant(4.0, 4, 2)
    assert np.abs(geo.covariant_derivative(c.coeffs, "")).max() == 0.0


def test_vielbein_pivot_error():
    # Lorentzian eta but positive metric: first pivot has the wrong sign
    spec = metrics.MetricSpec(
        "wrong", 4, (1, 3),
        {(i, i): metrics.expr.const(1.0) for i in range(4)},
        [(-1.0, 1.0)] * 4,
    )
    m = metrics.MetricField("wrong", 4, (1, 3), metrics.metric_from_spec(spec).g, spec.domain)
    with pytest.raises(FrameError) as err:
        Geometry(m, (0.0, 0.0, 0.0, 0.0)).e3
    assert err.value.pivot == 0
    assert err.value.point == (0.0, 0.0, 0.0, 0.0)


def test_spin_connection_properties(bumpy, rng):
    for p in metrics.sample_points(bumpy, 3, rng):
        geo = Geometry(bumpy, p)
        A = _val(geo.spin2)
        eta = bumpy.eta
        anti = np.einsum("ac,mcb->mab", eta, A) + np.einsum("bc,mca->mab", eta, A)
        assert np.abs(anti).max() < 1e-10
