"""Boost/frame dressing, Weyl cocycles, residual transforms."""

import numpy as np
import pytest

from reference import h_inverse
from tractorlab import cartan, dressing, jets, metrics
from tractorlab.fields import ScalarField
from tractorlab.geometry import Geometry

A0 = jets.algebra(4, 0)
A1 = jets.algebra(4, 1)
PT = (0.05, -0.1, 0.02, 0.15)


def _val(x):
    return np.asarray(x)[..., 0]


NORMAL_CASES = [("schwarzschild", {}), ("round_sphere", {}), ("flat_minkowski", {}),
                ("poly_perturbation", {"seed": 11})]


def _points(metric):
    pts = metrics.sample_points(metric, 5, np.random.default_rng(5))
    return [pts, *pts[:2]]  # a batch and two single points


@pytest.mark.parametrize("name, params", NORMAL_CASES, ids=[c[0] for c in NORMAL_CASES])
def test_boost_dressing_of_normal_is_identity(name, params):
    """wn has a = 0, so its boost dressing is K1(0) = 1 in every jet coefficient."""
    metric = metrics.load_metric(name, **params)
    u1 = dressing.boost_dressing(cartan.normal_connection(metric))
    N = metric.n + 2
    for p in _points(metric):
        for order in range(4):
            ident = jets.algebra(metric.n, order).const(np.eye(N))
            assert np.array_equal(u1.at(p, order),
                                  np.broadcast_to(ident, p.shape[:-1] + ident.shape))


@pytest.mark.parametrize("name, params", NORMAL_CASES, ids=[c[0] for c in NORMAL_CASES])
def test_normal_chain_equals_the_general_chain_of_wn(name, params):
    """`normal_dressing_chain` skips the identity boost dressing; every field it
    gives equals that of `dressing_chain(wn)` bit for bit, at every order the
    general chain supports (the normal chain supports at least as many)."""
    normal = dressing.normal_dressing_chain(metrics.load_metric(name, **params))
    metric = metrics.load_metric(name, **params)  # its own memo
    general = dressing.dressing_chain(cartan.normal_connection(metric))
    assert list(normal) == ["wn", *general]
    for key, want in general.items():
        got = normal[key]
        assert got.max_order >= want.max_order
        for p in _points(metric):
            for order in range(want.max_order + 1):
                assert np.array_equal(got.at(p, order), want.at(p, order)), (key, order)
            if isinstance(want, cartan.ConnectionField):
                assert got.col0_order >= want.col0_order
                for order in range(want.col0_order + 1):
                    assert np.array_equal(got.col0(p, order), want.col0(p, order)), (key, order)


def test_constant_boost_gives_inverse(bumpy):
    r = [0.3, -0.2, 0.1, 0.05]
    gam1 = cartan.h_field(bumpy, r=[str(v) for v in r])
    wn = cartan.normal_connection(bumpy)
    wg = cartan.transform_connection(wn, gam1)
    q = dressing.boost_vector(wg, PT, 0)
    assert np.abs(_val(q) + np.asarray(r)).max() < 1e-12
    u1 = dressing.boost_dressing(wg)
    gam_inv = h_inverse(1.0, np.eye(4), r, bumpy.eta)
    assert np.abs(_val(u1.at(PT, 0)) - gam_inv).max() < 1e-12


def test_k1_erasure(bumpy, rng):
    from tractorlab.fields import domain_poly_field

    wn = cartan.normal_connection(bumpy)
    for _ in range(5):
        gam1 = cartan.h_field(bumpy, r=[domain_poly_field(rng, bumpy, 2, 0.5) for _ in range(4)])
        wg = cartan.transform_connection(wn, gam1)
        dressed = dressing.dress(wg, dressing.boost_dressing(wg))
        diff = dressed.at(PT, 1) - wn.at(PT, 1)
        assert np.abs(diff).max() < 1e-9 * (1.0 + np.abs(wn.at(PT, 1)).max())


def test_a_singular_soldering_block_in_a_stacked_draw_names_its_point(bumpy):
    """A connection with 4 stacked draws in front of 3 points, draw 2 with a zero
    soldering block at point 1: the boost dressing, of the stack and of its
    dressing chain, fails with one line that names point 1."""
    wn = cartan.normal_connection(bumpy)
    pts = np.array([PT, (0.1, 0.2, -0.1, 0.0), (-0.2, 0.1, 0.3, 0.05)])

    def col0(point, order):
        col = np.repeat(wn.col0(point, order)[None], 4, axis=0)
        col[2, 1, :, 1:-1, :] = 0.0
        return col

    conn = cartan.ConnectionField(wn.at, col0, 4, bumpy.eta, max_order=1, col0_order=3)
    message = f"soldering block is singular at {tuple(float(x) for x in pts[1])}"
    with pytest.raises(cartan.CartanError) as err:
        dressing.boost_vector(conn, pts, 1)
    assert str(err.value) == message
    with pytest.raises(cartan.CartanError) as err:
        dressing.dressing_chain(conn)["w1"].col0(pts, 0)
    assert str(err.value) == message


def test_dress_with_identity(bumpy):
    wn = cartan.normal_connection(bumpy)
    ident = cartan.h_field(bumpy)
    assert np.abs(dressing.dress(wn, ident).at(PT, 1) - wn.at(PT, 1)).max() < 1e-14


def test_dressed_curvature_consistency(bumpy, rng):
    from tractorlab.fields import domain_poly_field

    wn = cartan.normal_connection(bumpy)
    gam1 = cartan.h_field(bumpy, r=[domain_poly_field(rng, bumpy, 2, 0.4) for _ in range(4)])
    wg = cartan.transform_connection(wn, gam1)
    u1 = dressing.boost_dressing(wg)
    dressed = dressing.dress(wg, u1)
    conj = cartan.transform_curvature(cartan.curvature(wg)(PT, 0), u1, PT)
    direct = cartan.curvature(dressed)(PT, 0)
    assert np.abs(conj - direct).max() < 1e-9


def test_frame_dressing_blocks(bumpy):
    wn = cartan.normal_connection(bumpy)
    u1 = dressing.boost_dressing(wn)
    w1 = dressing.dress(wn, u1)
    ubar = dressing.frame_dressing(w1)
    wl = dressing.dress(w1, ubar)
    geom = Geometry(bumpy, PT)
    b = {k: _val(v) for k, v in cartan.conn_blocks(wl.at(PT, 0)).items()}
    assert np.abs(b["theta"] - np.eye(4)).max() < 1e-12
    gam = _val(jets.algebra(4, 2).truncate(geom.gamma2, 0))
    assert np.abs(b["A"] - np.einsum("rmn->mrn", gam)).max() < 1e-11
    assert np.abs(b["P"] - _val(A1.truncate(geom.schouten1, 0))).max() < 1e-11
    assert np.abs(b["theta_t"] - _val(geom.g(0))).max() < 1e-11


def test_frame_dressing_flat_is_identity(flat):
    wn = cartan.normal_connection(flat)
    ubar = dressing.frame_dressing(wn)
    assert np.abs(_val(ubar.at(PT, 0)) - np.eye(6)).max() < 1e-14


def test_cocycle_trivial_and_constant(bumpy):
    one = ScalarField.constant(1.0)
    assert np.abs(dressing.weyl_cocycle(bumpy, one, "C").at(PT, 1)
                  - A1.const(np.eye(6))).max() == 0.0
    const_z = ScalarField.constant(1.7)
    c = _val(dressing.weyl_cocycle(bumpy, const_z, "C").at(PT, 0))
    assert np.allclose(c, np.diag([1.7, 1, 1, 1, 1, 1 / 1.7]))
    cbar = _val(dressing.weyl_cocycle(bumpy, const_z, "Cbar").at(PT, 0))
    assert np.allclose(cbar, np.diag([1.7, 1.7, 1.7, 1.7, 1.7, 1 / 1.7]))


def test_cocycle_identity(bumpy):
    z1 = ScalarField.from_expression("exp(0.3*x0 + 0.1*x1^2)")
    z2 = ScalarField.from_expression("exp(-0.2*x2 + 0.15*x0*x1)")
    zz = ScalarField.from_expression("exp(0.3*x0 + 0.1*x1^2) * exp(-0.2*x2 + 0.15*x0*x1)")
    for variant in ("C", "Cbar"):
        c1 = dressing.weyl_cocycle(bumpy, z1, variant).at(PT, 1)
        c2 = dressing.weyl_cocycle(bumpy, z2, variant).at(PT, 1)
        c12 = dressing.weyl_cocycle(bumpy, zz, variant).at(PT, 1)
        _, zfac = dressing.cocycle_factors(bumpy, z2, variant)
        Z2 = zfac.at(PT, 1)
        rhs = A1.matmul(c2, A1.matmul(A1.inv_matrix(Z2), A1.matmul(c1, Z2)))
        assert np.abs(c12 - rhs).max() < 1e-10


def test_cocycle_rejects_nonpositive(bumpy):
    bad = ScalarField.from_expression("x0")  # vanishes in the box
    with pytest.raises(cartan.CartanError):
        dressing.weyl_cocycle(bumpy, bad, "C").at((0.0, 0.1, 0.1, 0.1), 1)


def test_residual_weyl_two_pipelines(bumpy):
    zf = ScalarField.from_expression("exp(0.3*x0 + 0.1*x1^2)")
    wn = cartan.normal_connection(bumpy)
    u1 = dressing.boost_dressing(wn)
    w1 = dressing.dress(wn, u1)
    cz = dressing.weyl_cocycle(bumpy, zf, "C")
    zgauge = cartan.h_field(bumpy, z=zf)
    wz = cartan.transform_connection(wn, zgauge)
    u1z = dressing.boost_dressing(wz)
    a = cartan.transform_connection(w1, cz).at(PT, 1)
    b = dressing.dress(wz, u1z).at(PT, 1)
    assert np.abs(a - b).max() < 1e-10

    phi = cartan.section_field(bumpy, "0.3*x0", ["x1", "0.2", "x2*x0", "1"], "exp(0.1*x3)")
    phi1 = dressing.dress(phi, u1)
    pa = cartan.transform_section(phi1, cz).at(PT, 1)
    pb = dressing.dress(cartan.transform_section(phi, zgauge), u1z).at(PT, 1)
    assert np.abs(pa - pb).max() < 1e-10


def test_phi1z_displayed_column(bumpy):
    zf = ScalarField.from_expression("exp(0.3*x0 + 0.1*x1^2)")
    wn = cartan.normal_connection(bumpy)
    u1 = dressing.boost_dressing(wn)
    phi1 = dressing.dress(
        cartan.section_field(bumpy, "0.3*x0", ["x1", "0.2", "x2*x0", "1"], "exp(0.1*x3)"), u1
    )
    cz = dressing.weyl_cocycle(bumpy, zf, "C")
    got = _val(cartan.transform_section(phi1, cz).at(PT, 0))
    geom = Geometry(bumpy, PT)
    pv = _val(phi1.at(PT, 0))
    rho1, ell1, sig = pv[0], pv[1:-1], pv[-1]
    zv = zf.coeffs(PT, 0)[0]
    upsa = _val(dressing.upsilon_row(zf, PT, 0, 4)) @ _val(geom.einv(0))
    eta_inv = np.linalg.inv(bumpy.eta)
    ups2 = upsa @ eta_inv @ upsa
    expected = np.concatenate([
        [(rho1 - upsa @ ell1 + 0.5 * sig * ups2) / zv],
        ell1 - (eta_inv @ upsa) * sig,
        [zv * sig],
    ])
    assert np.abs(got - expected).max() < 1e-11


def test_normal_curvature_cotton_block_law(bumpy):
    zf = ScalarField.from_expression("exp(0.3*x0 + 0.1*x1^2)")
    wn = cartan.normal_connection(bumpy)
    u1 = dressing.boost_dressing(wn)
    w1 = dressing.dress(wn, u1)
    cz = dressing.weyl_cocycle(bumpy, zf, "C")
    F1 = cartan.curvature(w1)(PT, 0)
    Fz = cartan.transform_curvature(F1, cz, PT)
    b1, bz = cartan.curv_blocks(_val(F1)), cartan.curv_blocks(_val(Fz))
    zv = zf.coeffs(PT, 0)[0]
    upsa = _val(dressing.upsilon_row(zf, PT, 0, 4)) @ _val(Geometry(bumpy, PT).einv(0))
    assert np.abs(bz["C"] - (b1["C"] - np.einsum("a,mnab->mnb", upsa, b1["W"])) / zv).max() < 1e-9
    assert np.abs(bz["W"] - b1["W"]).max() < 1e-11


def test_residual_lorentz(bumpy, rng):
    from tractorlab.suites import random_eta_orthogonal

    S = random_eta_orthogonal(rng, bumpy.eta)
    sfield = cartan.h_field(bumpy, S=S)
    wn = cartan.normal_connection(bumpy)
    u1 = dressing.boost_dressing(wn)
    phi1 = dressing.dress(
        cartan.section_field(bumpy, "0.3*x0", ["x1", "0.2", "x2*x0", "1"], "exp(0.1*x3)"), u1
    )
    got = _val(cartan.transform_section(phi1, sfield).at(PT, 0))
    pv = _val(phi1.at(PT, 0))
    expected = np.concatenate([[pv[0]], np.linalg.inv(S) @ pv[1:-1], [pv[-1]]])
    assert np.abs(got - expected).max() < 1e-12
    ident = cartan.h_field(bumpy, S=np.eye(4))
    w1 = dressing.dress(wn, u1)
    assert np.abs(cartan.transform_connection(w1, ident).at(PT, 1) - w1.at(PT, 1)).max() < 1e-14
    with pytest.raises(cartan.CartanError):
        cartan.h_field(bumpy, S=2.0 * np.eye(4))


def test_f_block_is_antisymmetrized_schouten_block(bumpy):
    # for the normal connection the holonomic P block is symmetric and f = 0;
    # skewing the P row by hand makes f_L pick up exactly the antisymmetric part
    wn = cartan.normal_connection(bumpy)
    rng = np.random.default_rng(1)
    skew_frame = rng.normal(size=(4, 4))

    def at(point, order):
        w = wn.at(point, order).copy()
        alg = jets.algebra(4, order)
        extra = alg.const(skew_frame)  # constant frame-index perturbation P_{mu b}
        w[:, 0, 1:-1] = w[:, 0, 1:-1] + extra
        eta_inv = np.linalg.inv(bumpy.eta)
        w[:, 1:-1, -1] = w[:, 1:-1, -1] + np.einsum("ab,mb...->ma...", eta_inv, extra)
        return w

    hand = cartan.ConnectionField(at, wn.col0, 4, bumpy.eta, max_order=1)
    u1 = dressing.boost_dressing(hand)
    w1 = dressing.dress(hand, u1)
    wl = dressing.dress(w1, dressing.frame_dressing(w1))
    f = _val(cartan.curvature(wl)(PT, 0))[:, :, 0, 0]
    p_block = _val(cartan.conn_blocks(wl.at(PT, 0))["P"])
    assert np.abs(f - (p_block - p_block.T)).max() < 1e-10
    assert np.abs(f).max() > 1e-2  # genuinely nonzero for the skewed connection


def test_metric_G_and_pairing(bumpy):
    wn = cartan.normal_connection(bumpy)
    u1 = dressing.boost_dressing(wn)
    w1 = dressing.dress(wn, u1)
    ubar = dressing.frame_dressing(w1)
    sig = cartan.sigma_matrix(bumpy.eta)
    ub = _val(ubar.at(PT, 0))
    G = _val(dressing.tractor_metric_G(bumpy, PT, 0))
    assert np.abs(ub.T @ sig @ ub - G).max() < 1e-12
    g = _val(Geometry(bumpy, PT).g(0))
    expected = np.zeros((6, 6))
    expected[0, -1] = expected[-1, 0] = -1.0
    expected[1:-1, 1:-1] = g
    assert np.abs(G - expected).max() < 1e-14
