"""Cartan connection, gauge transforms, normality, invariant pairing."""

import sys

import numpy as np
import pytest

from reference import grading_parts, h_inverse, h_product
from tractorlab import brst, cartan, dressing, jets, metrics, suites
from tractorlab.fields import ScalarField, domain_poly_field, domain_z_field, origin
from tractorlab.geometry import Geometry

A0 = jets.algebra(4, 0)
A1 = jets.algebra(4, 1)


def _val(x):
    return np.asarray(x)[..., 0]


def _rand_algebra_element(rng, eta):
    v = rng.normal(size=eta.shape)
    v = v - np.linalg.inv(eta) @ v.T @ eta
    return cartan.embed_algebra(rng.normal(), v, rng.normal(size=4), rng.normal(size=4), eta)


def test_embed_zero_and_grading_generator(flat):
    eta = flat.eta
    zero = cartan.embed_algebra(0.0, np.zeros((4, 4)), np.zeros(4), np.zeros(4), eta)
    assert np.abs(zero).max() == 0.0
    gen = cartan.embed_algebra(1.0, np.zeros((4, 4)), np.zeros(4), np.zeros(4), eta)
    assert np.array_equal(gen, np.diag([1.0, 0, 0, 0, 0, -1.0]))


def test_embed_rejects_bad_v(flat):
    with pytest.raises(cartan.CartanError):
        cartan.embed_algebra(0.0, np.eye(4), np.zeros(4), np.zeros(4), flat.eta)


def test_bracket_respects_grading(flat, rng):
    eta = flat.eta
    for _ in range(10):
        m1, m2 = _rand_algebra_element(rng, eta), _rand_algebra_element(rng, eta)
        comm = m1 @ m2 - m2 @ m1
        assert cartan.sigma_antisymmetry(comm, eta) < 1e-12 * (1 + np.abs(comm).max())
        # graded pieces: [g_-1, g_1] lands in g_0, [g_1, g_1] = 0
        lo1, _, hi1 = grading_parts(m1, eta)
        lo2, _, hi2 = grading_parts(m2, eta)
        assert np.abs(hi1 @ hi2 - hi2 @ hi1).max() < 1e-14
        assert np.abs(lo1 @ lo2 - lo2 @ lo1).max() < 1e-14
        mixed = lo1 @ hi2 - hi2 @ lo1
        _, mid, _ = grading_parts(mixed, eta)
        assert np.abs(mixed - mid).max() < 1e-12


def test_h_element_examples(flat, rng):
    eta = flat.eta
    assert np.array_equal(cartan.h_matrix(1.0, np.eye(4), np.zeros(4), eta), np.eye(6))
    weyl = cartan.h_matrix(2.0, np.eye(4), np.zeros(4), eta)
    assert np.array_equal(weyl, np.diag([2.0, 1, 1, 1, 1, 0.5]))
    for _ in range(5):
        z = float(np.exp(rng.normal() * 0.5))
        r = rng.normal(size=4)
        from tractorlab.suites import random_eta_orthogonal

        S = random_eta_orthogonal(rng, eta)
        h = cartan.h_matrix(z, S, r, eta)
        assert cartan.sigma_membership(h, eta) < 1e-11
        assert np.abs(h @ h_inverse(z, S, r, eta) - np.eye(6)).max() < 1e-12
    with pytest.raises(cartan.CartanError):
        cartan.h_matrix(-1.0, np.eye(4), np.zeros(4), eta)
    with pytest.raises(cartan.CartanError):
        cartan.h_matrix(1.0, 2 * np.eye(4), np.zeros(4), eta)


def test_normal_connection_flat(flat):
    wn = cartan.normal_connection(flat)
    w = wn.at((0.3, 0.1, -0.2, 0.5), 1)
    b = cartan.conn_blocks(w)
    assert np.abs(b["a"]).max() == 0.0
    assert np.abs(b["P"]).max() == 0.0
    assert np.abs(b["A"]).max() == 0.0
    assert np.allclose(_val(b["theta"]), np.eye(4))
    assert np.abs(cartan.curvature(wn)((0.3, 0.1, -0.2, 0.5), 0)).max() < 1e-12


def test_normal_connection_sphere_p_block(sphere):
    wn = cartan.normal_connection(sphere)
    pt = (0.2, -0.3, 0.1, 0.4)
    geom = Geometry(sphere, pt)
    b = cartan.conn_blocks(wn.at(pt, 0))
    expected = _val(A0.matmul(A1.truncate(geom.schouten1, 0), geom.einv(0)))
    assert np.abs(_val(b["P"]) - expected).max() < 1e-12
    assert np.abs(expected + 0.5 * _val(A0.matmul(geom.g(0), geom.einv(0)))).max() < 1e-9


def test_conformally_flat_curvature_vanishes():
    m = metrics.load_metric("conformally_flat", factor="0.3*x0 + 0.1*x1^2")
    wn = cartan.normal_connection(m)
    for pt in [(0.1, 0.2, -0.3, 0.4), (-0.5, 0.0, 0.2, 0.1)]:
        assert np.abs(cartan.curvature(wn)(pt, 0)).max() < 1e-8


def test_schwarzschild_curvature_blocks(schw):
    wn = cartan.normal_connection(schw)
    pt = (0.0, 2.5, 2.5, 2.5)
    f = _val(cartan.curvature(wn)(pt, 0))
    blocks = cartan.curv_blocks(f)
    assert np.abs(blocks["Theta"]).max() < 1e-10
    assert np.abs(blocks["f"]).max() < 1e-10
    assert np.abs(blocks["W"]).max() > 1e-3


def test_gauge_transform_identity(bumpy):
    wn = cartan.normal_connection(bumpy)
    ident = cartan.h_field(bumpy)
    wt = cartan.transform_connection(wn, ident)
    pt = (0.05, -0.1, 0.02, 0.15)
    assert np.abs(wt.at(pt, 1) - wn.at(pt, 1)).max() < 1e-14


def test_gauge_transform_constant_boost_row(bumpy):
    r = [0.3, -0.2, 0.1, 0.05]
    gam1 = cartan.h_field(bumpy, r=[str(v) for v in r])
    wn = cartan.normal_connection(bumpy)
    wg = cartan.transform_connection(wn, gam1)
    pt = (0.05, -0.1, 0.02, 0.15)
    b = cartan.conn_blocks(wg.at(pt, 0))
    bn = cartan.conn_blocks(wn.at(pt, 1))
    theta = _val(A1.truncate(bn["theta"], 0))
    expected = -np.einsum("b,bm->m", np.asarray(r), theta)  # a^gamma1 = a - r theta
    assert np.abs(_val(b["a"]) - expected).max() < 1e-12


def test_gauge_transform_weyl_blocks(bumpy):
    zf = ScalarField.from_expression("exp(0.2*x0)")
    gam0 = cartan.h_field(bumpy, z=zf)
    wn = cartan.normal_connection(bumpy)
    wg = cartan.transform_connection(wn, gam0)
    pt = (0.05, -0.1, 0.02, 0.15)
    b = cartan.conn_blocks(wg.at(pt, 0))
    bn = cartan.conn_blocks(wn.at(pt, 1))
    zv = zf.coeffs(pt, 0)[0]
    ups = _val(dressing.upsilon_row(zf, pt, 0, 4))
    assert np.abs(_val(b["a"]) - ups).max() < 1e-13  # a^Z = z^-1 dz
    assert np.abs(_val(b["theta"]) - zv * _val(A1.truncate(bn["theta"], 0))).max() < 1e-12
    assert np.abs(_val(b["A"]) - _val(A1.truncate(bn["A"], 0))).max() < 1e-12  # A unchanged


def test_normality_report_counterexample(sphere):
    wn = cartan.normal_connection(sphere)
    pt = (0.2, -0.3, 0.1, 0.4)
    geom = Geometry(sphere, pt)
    curv = cartan.curvature(wn)(pt, 0)
    rep = cartan.normality_report(_val(curv), _val(geom.einv(0)))
    assert rep["normal"]

    def no_p_at(point, order):
        w = wn.at(point, order).copy()
        w[:, 0, 1:-1] = 0.0
        w[:, 1:-1, -1] = 0.0
        return w

    hand_built = cartan.ConnectionField(no_p_at, wn.col0, 4, sphere.eta, max_order=1)
    rep2 = cartan.normality_report(_val(cartan.curvature(hand_built)(pt, 0)), _val(geom.einv(0)))
    assert rep2["ricci_type_trace_norm"] > 1e-3
    assert not rep2["normal"]


def test_invariant_pairing_examples(flat, rng):
    eta = flat.eta
    phi = np.zeros(6); phi[-1] = 1.0      # (rho, l, sigma) = (0, 0, 1)
    phi2 = np.zeros(6); phi2[0] = 1.0     # (1, 0, 0)
    assert cartan.invariant_pairing(phi, phi2, eta) == -1.0
    e1 = np.zeros(6); e1[1] = 1.0
    assert cartan.invariant_pairing(e1, e1, eta) == 1.0
    from tractorlab.suites import random_eta_orthogonal

    for _ in range(10):
        a, b = rng.normal(size=6), rng.normal(size=6)
        h = cartan.h_matrix(float(np.exp(rng.normal() * 0.4)),
                            random_eta_orthogonal(rng, eta), rng.normal(size=4), eta)
        hinv = np.linalg.inv(h)
        assert cartan.invariant_pairing(hinv @ a, hinv @ b, eta) == pytest.approx(
            cartan.invariant_pairing(a, b, eta), abs=1e-11
        )


def test_section_derivative_consistency(bumpy, rng):
    # D^2 phi = Omega phi
    wn = cartan.normal_connection(bumpy)
    phi = cartan.section_field(
        bumpy, "0.2*x0", ["x1", "0.1", "x2*x0", "0.5"], "1 + 0.1*x3"
    )
    pt = (0.05, -0.1, 0.02, 0.15)
    dphi = cartan.section_derivative(wn, phi, pt, 1)
    # antisymmetrized second derivative via the curvature
    curv = cartan.curvature(wn)(pt, 0)
    phi0 = A1.truncate(phi.at(pt, 1), 0)
    rhs = cartan.matvec(A0, curv, phi0[None, None, :])
    w = A1.truncate(wn.at(pt, 1), 0)
    ddphi = A1.grad(dphi, 2)  # d_mu (D_nu phi)
    wD = cartan.matvec(A0, w[:, None], A1.truncate(dphi, 0)[None, :])
    lhs_full = ddphi + wD
    lhs = lhs_full - np.einsum("mn...->nm...", lhs_full)
    assert np.abs(lhs - rhs).max() < 1e-11


def _k1(alg, q, eta):
    return cartan.k1_jet_matrix(alg, q, np.tensordot(np.linalg.inv(eta), q, axes=(1, 0)))


@pytest.mark.parametrize("eta", [np.eye(4), np.diag([-1.0, 1.0, 1.0, 1.0])])
def test_k1_jet_matrix_group_law_and_sigma_orthogonality(eta, rng):
    alg = jets.algebra(4, 3)
    q, p = rng.normal(size=(2, 4, alg.ncoef)) * 0.5
    k_q, k_p = _k1(alg, q, eta), _k1(alg, p, eta)
    assert np.abs(alg.matmul(k_q, k_p) - _k1(alg, q + p, eta)).max() < 1e-13
    sigma = alg.const(cartan.sigma_matrix(eta))
    orth = alg.matmul(np.swapaxes(k_q, 0, 1), alg.matmul(sigma, k_q)) - sigma
    assert np.abs(orth).max() < 1e-13


def test_k1_jet_matrix_value_matches_k1_matrix(rng):
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    q = rng.normal(size=(4, A1.ncoef))
    assert np.abs(_val(_k1(A1, q, eta)) - cartan.k1_matrix(q[:, 0], eta)).max() < 1e-15


def test_a_field_asked_beyond_its_order_names_the_function_that_built_it(flat):
    """The JetError names the module and function that built the field, read off
    its evaluation function."""
    wn = cartan.normal_connection(flat)
    pt = np.zeros(4)
    with pytest.raises(jets.JetError,
                       match=r"connection tractorlab\.cartan\.normal_connection\.<locals>\.at "
                             r"supports order <= 1"):
        wn.at(pt, 2)
    with pytest.raises(jets.JetError,
                       match=r"connection tractorlab\.cartan\.normal_connection\.<locals>\.col0 "
                             r"first column supports order <= 3"):
        wn.col0(pt, 4)
    u1 = dressing.boost_dressing(wn)
    with pytest.raises(jets.JetError,
                       match=r"field tractorlab\.dressing\.boost_dressing\.<locals>\.fn "
                             r"supports jets to order 3, requested 4"):
        u1.at(pt, 4)


def _marked_fields(metric):
    """A field of each constructor that marks its values H-valued, from seeded draws."""
    rng = np.random.default_rng(3)
    zf = domain_z_field(rng, metric)
    r = [domain_poly_field(rng, metric, 2, 0.4) for _ in range(metric.n)]
    S = suites.random_eta_orthogonal(rng, metric.eta)
    gauged = cartan.transform_connection(cartan.normal_connection(metric),
                                         cartan.h_field(metric, z=zf, r=r))
    ghost = brst.Ghost(metric, [(zf, suites._eta_antisymmetric(S, metric.eta), r)])
    return {
        "exp_field": brst.exp_field(metric, ghost.matrix_field(), 1e-2),
        "h_field(z,S,r)": cartan.h_field(metric, z=zf, S=S, r=r),
        "h_field(S)": cartan.h_field(metric, S=S),
        "h_field(r)": cartan.h_field(metric, r=r),
        "boost_dressing": dressing.boost_dressing(gauged),
        "weyl_cocycle(C)": dressing.weyl_cocycle(metric, zf, "C"),
    }


MARKED = [(name, order) for name, top in (("exp_field", 3), ("h_field(z,S,r)", 3),
                                          ("h_field(S)", 3), ("h_field(r)", 3),
                                          ("boost_dressing", 2), ("weyl_cocycle(C)", 2))
          for order in range(top + 1)]


@pytest.mark.parametrize("metric_name", ["schw", "bumpy"])
@pytest.mark.parametrize("name, order", MARKED)
def test_the_closed_form_inverse_of_a_marked_field_is_its_newton_inverse(
        metric_name, name, order, request):
    """On a batch and point by point, `cartan.inverse` of every marked constructor
    agrees with `inv_matrix` within 1e3 eps normwise, and makes no kernel call."""
    metric = request.getfixturevalue(metric_name)
    field = _marked_fields(metric)[name]
    assert field.max_order == max(o for c, o in MARKED if c == name)
    assert np.array_equal(field.group_eta, metric.eta)
    alg = jets.algebra(metric.n, order)
    pts = metrics.sample_points(metric, 5, np.random.default_rng(4))
    for p in [pts, *pts]:
        g = field.at(p, order)
        newton = alg.inv_matrix(g)
        with pytest.MonkeyPatch.context() as mp:
            for kernel in ("mul", "matmul", "inv_matrix"):
                mp.setattr(jets.JetAlgebra, kernel, None)
            closed = cartan.inverse(alg, field, g)
        assert closed.shape == newton.shape
        err = np.abs(closed - newton).max()
        assert err <= 1e3 * np.finfo(float).eps * max(1.0, np.abs(newton).max()), err


def test_an_unmarked_field_is_newton_inverted(schw):
    """The frame dressing maps Sigma to the tractor metric G and the holonomic
    cocycle is not in H either: neither is marked, and `inverse` of each is the
    Newton inverse."""
    wn = cartan.normal_connection(schw)
    pts = metrics.sample_points(schw, 3, np.random.default_rng(4))
    for field in (dressing.frame_dressing(wn), dressing.weyl_cocycle(schw, "1.5 + 0.1*x0", "Cbar")):
        assert field.group_eta is None
        g = field.at(pts, 1)
        assert np.array_equal(cartan.inverse(A1, field, g), A1.inv_matrix(g))


def test_curvature_and_finite_transforms_newton_invert_no_group_element(monkeypatch):
    """The checks that transform a curvature by a marked field, and the finite
    transforms by exp(t v) of `finite-consistency`, invert those fields through
    `cartan.inverse` in closed form: no Newton inverse is made in
    `transform_curvature` or of an `exp_field` or any other marked field."""
    inverted = []

    def spy(alg, a, _kernel=jets.JetAlgebra.inv_matrix):
        caller = sys._getframe(1)
        gfield = caller.f_locals.get("gfield")
        inverted.append((caller.f_code.co_name,
                         None if gfield is None else (origin(gfield._fn), gfield.group_eta)))
        return _kernel(alg, a)

    monkeypatch.setattr(jets.JetAlgebra, "inv_matrix", spy)
    checks = {cid: fn for entries in suites.SUITES.values() for cid, fn in entries}
    ctx = suites.Context(metrics.load_metric("schwarzschild"), seed=0, npoints=3)
    ids = ("curvature-tensoriality", "dressed-curvature", "omega1z-table", "omegaLz-table",
           "finite-consistency")
    assert all(suites.run_check(ctx, cid, checks[cid]).passed for cid in ids)
    assert not [c for c, _ in inverted if c == "transform_curvature"]
    by_inverse = [field for c, field in inverted if c == "inverse"]
    assert not [f for f, eta in by_inverse if eta is not None or "exp_field" in f]
    # the holonomic cocycle of `omegaLz-table` is not in H: it is Newton-inverted
    assert "tractorlab.fields.field_matmul.<locals>.fn" in {f for f, _ in by_inverse}


H_PARTS = ["r", "S", "z", "z,S", "z,S,r"]


@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("parts", H_PARTS)
def test_the_h_field_is_k0_times_k1_with_no_jet_matmul(parts, order, bumpy, monkeypatch):
    """`h_field` scales the rows of K1 in place of the jet product K0 @ K1: it agrees
    with that product within 1e3 eps normwise, at a batch of points and at one
    point, with `JetAlgebra.matmul` failing while it evaluates."""
    rng = np.random.default_rng(3)
    drawn = {"z": domain_z_field(rng, bumpy), "S": suites.random_eta_orthogonal(rng, bumpy.eta),
             "r": [domain_poly_field(rng, bumpy, 2, 0.4) for _ in range(bumpy.n)]}
    kw = {k: drawn[k] for k in parts.split(",")}
    pts = metrics.sample_points(bumpy, 4, rng)
    for p in (pts, pts[0]):
        want = h_product(bumpy, p, order, **kw)
        field = cartan.h_field(bumpy, **kw)
        assert np.array_equal(field.group_eta, bumpy.eta)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jets.JetAlgebra, "matmul", None)
            got = field.at(p, order)
        assert got.shape == want.shape
        err = np.abs(got - want).max()
        assert err <= 1e3 * np.finfo(float).eps * max(1.0, np.abs(want).max()), err
