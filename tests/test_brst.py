"""Ghost algebra, transformation rules, composite ghosts, nilpotency."""

import numpy as np
import pytest

from tractorlab import brst, cartan, dressing, jets
from tractorlab.geometry import Geometry
from tractorlab.ghosts import GradedValue, merge_sign

A0 = jets.algebra(4, 0)
A1 = jets.algebra(4, 1)
PT = (0.05, -0.1, 0.02, 0.15)


def _val(x):
    return np.asarray(x)[..., 0]


def _so_matrix(rng, eta, scale=0.4):
    a = rng.normal(size=eta.shape) * scale
    return a - np.linalg.inv(eta) @ a.T @ eta


def test_merge_sign():
    assert merge_sign((0,), (1,)) == (1, (0, 1))
    assert merge_sign((1,), (0,)) == (-1, (0, 1))
    assert merge_sign((0,), (0,)) == (0, ())
    assert merge_sign((0, 2), (1,)) == (-1, (0, 1, 2))


def test_graded_product_anticommutes():
    a = GradedValue(4, 0, 0, {(0,): A0.const(np.eye(6))})
    b = GradedValue(4, 0, 0, {(1,): A0.const(2 * np.eye(6))})
    ab = a.matmul(b)
    ba = b.matmul(a)
    assert np.abs(ab.component((0, 1)) + ba.component((0, 1))).max() == 0.0


def test_ghost_zero_and_pattern(bumpy):
    zero = brst.Ghost(bumpy, [(None, None, None)])
    assert zero.value(PT, 1).max_abs() == 0.0
    gh = brst.Ghost(bumpy, [("x0", None, None)])
    m = _val(gh.value(PT, 1).component((0,)))
    expected = np.zeros((6, 6))
    expected[0, 0], expected[-1, -1] = PT[0], -PT[0]
    assert np.abs(m - expected).max() == 0.0


def test_ghost_rejects_bad_lorentz(bumpy):
    with pytest.raises(ValueError):
        brst.Ghost(bumpy, [(None, np.eye(4), None)])


def test_ghost_membership(bumpy, rng):
    gh = brst.Ghost(bumpy, [
        ("0.2*x0", _so_matrix(rng, bumpy.eta), ["x1", "0.3", "x2*x0", "0.1"]),
    ])
    assert brst.sigma_membership_residual(gh, PT) < 1e-12


def test_sphi_constant_eps(flat):
    gh = brst.Ghost(flat, [("0.7", None, None)])
    phi = cartan.section_field(flat, "0.3*x0", ["x1", "0.2", "x2*x0", "1"], "exp(0.1*x3)")
    sphi = brst.brst_section(brst.section_graded(phi, PT, 0), gh.value(PT, 0))
    got = _val(sphi.component((0,)))[:, 0]
    pv = _val(phi.at(PT, 0))
    expected = np.concatenate([[-0.7 * pv[0]], np.zeros(4), [0.7 * pv[-1]]])
    assert np.abs(got - expected).max() < 1e-14


def test_scurvature_flat_vanishes(flat, rng):
    wn = cartan.normal_connection(flat)
    gh = brst.Ghost(flat, [("0.2*x0", _so_matrix(rng, flat.eta), ["x1", "1", "0", "0.5"])])
    curv = cartan.curvature(wn)
    sF = brst.brst_curvature(brst.curvature_graded(curv, PT, 0, 4), gh.value(PT, 0))
    assert sF.max_abs() < 1e-14


def test_dressed_ghost_examples(bumpy):
    chain = dressing.normal_dressing_chain(bumpy)
    # boost-only ghost disappears
    gh_iota = brst.Ghost(bumpy, [(None, None, ["0.1*x1", "0.2", "x0", "0.05"])])
    v1 = brst.dressed_ghost(bumpy, chain, gh_iota, "first", PT, 0)
    assert v1.max_abs() < 1e-14
    # eps-only, first stage: off-diagonal row is d eps . e^-1
    gh_eps = brst.Ghost(bumpy, [("0.2*x0 + 0.1*x1*x2", None, None)])
    v1 = brst.dressed_ghost(bumpy, chain, gh_eps, "first", PT, 0)
    assert (v1 - brst.closed_form_ghost(bumpy, gh_eps, "first", PT, 0)).max_abs() < 1e-12
    m = _val(v1.component((0,)))
    geom = Geometry(bumpy, PT)
    eps_j = gh_eps.parts[0][0].coeffs(PT, 1)
    de = _val(A1.grad(eps_j, 0))
    row = de @ _val(geom.einv(0))
    assert np.abs(m[0, 1:-1] - row).max() < 1e-12
    assert m[0, 0] == pytest.approx(float(eps_j[0]))
    # full stage: holonomic pattern (eps, d eps, 0; 0, eps 1, g^-1 d eps; 0 0 -eps)
    vw = brst.dressed_ghost(bumpy, chain, gh_eps, "full", PT, 0)
    assert (vw - brst.closed_form_ghost(bumpy, gh_eps, "full", PT, 0)).max_abs() < 1e-12
    mw = _val(vw.component((0,)))
    eps = float(eps_j[0])
    assert np.abs(mw[0, 1:-1] - de).max() < 1e-12
    assert np.abs(mw[1:-1, 1:-1] - eps * np.eye(4)).max() < 1e-12
    ginv = np.linalg.inv(_val(geom.g(0)))
    assert np.abs(mw[1:-1, -1] - ginv @ de).max() < 1e-12
    assert mw[-1, -1] == pytest.approx(-eps)


def test_dressed_ghost_reads_the_dressings_of_its_chain(bumpy, monkeypatch):
    chain = dressing.normal_dressing_chain(bumpy)
    gh = brst.Ghost(bumpy, [("0.2*x0 + 0.1*x1*x2", None, ["0.1*x1", "0.2", "x0", "0.05"])])

    def rebuilt(conn):
        raise AssertionError("dressed_ghost rebuilt a dressing its chain holds")

    # in brst too, in case it imports them by name
    for module in (dressing, brst):
        for name in ("boost_dressing", "frame_dressing"):
            monkeypatch.setattr(module, name, rebuilt, raising=False)
    for stage in ("first", "full"):
        got = brst.dressed_ghost(bumpy, chain, gh, stage, PT, 1)
        assert (got - brst.closed_form_ghost(bumpy, gh, stage, PT, 1)).max_abs() < 1e-12


def test_sv_composite_single_block(bumpy):
    gh = brst.Ghost(bumpy, [("0.2*x0 + 0.1*x1", None, None), ("0.3*x2 - 0.2*x3", None, None)])
    vw = brst.dressed_ghost(bumpy, dressing.normal_dressing_chain(bumpy), gh, "full", PT, 0)
    sv = brst.brst_ghost(vw)
    comp = _val(sv.component((0, 1)))
    geom = Geometry(bumpy, PT)
    ginv = np.linalg.inv(_val(geom.g(0)))
    eps, de = [], []
    for eps_f, _, _ in gh.parts:
        ej = eps_f.coeffs(PT, 1)
        eps.append(float(ej[0]))
        de.append(_val(A1.grad(ej, 0)))
    expected = -2.0 * (eps[0] * ginv @ de[1] - eps[1] * ginv @ de[0])
    assert np.abs(comp[1:-1, -1] - expected).max() < 1e-12
    rest = comp.copy()
    rest[1:-1, -1] = 0.0
    assert np.abs(rest).max() < 1e-12


def test_nilpotency(bumpy, rng):
    wn = cartan.normal_connection(bumpy)
    gh = brst.Ghost(bumpy, [
        ("0.2*x0 + 0.1*x1*x2", _so_matrix(rng, bumpy.eta), ["0.1*x1", "0.2", "x0*x3", "0.05*x2"]),
        ("0.15*x3 - 0.2*x0^2", _so_matrix(rng, bumpy.eta), ["x2", "0.3*x0", "0.1", "0.2*x1"]),
        ("0.1*x1 + 0.3*x2*x3", _so_matrix(rng, bumpy.eta), ["0.2*x3", "0.1*x0^2", "0.4", "x1*x2"]),
    ])
    phi = cartan.section_field(bumpy, "0.3*x0", ["x1", "0.2", "x2*x0", "1"], "exp(0.1*x3)")
    assert brst.s2_section(brst.section_graded(phi, PT, 0), gh.value(PT, 0)) < 1e-12
    assert brst.s2_ghost(gh, PT) < 1e-12
    assert brst.s2_connection(wn, gh, PT) < 1e-12


def test_finite_consistency_slopes(bumpy, flat, rng):
    gh = brst.Ghost(bumpy, [(
        "0.3 + 0.2*x0", _so_matrix(rng, bumpy.eta), ["0.1*x1", "0.2", "x0", "0.05"]
    )])
    wn = cartan.normal_connection(bumpy)
    rep = brst.finite_consistency(bumpy, wn, gh, "connection", PT)
    assert abs(rep["slope"] - 1.0) < 0.1
    phi = cartan.section_field(flat, "0.3*x0", ["x1", "0.2", "x2*x0", "1"], "exp(0.1*x3)")
    gh2 = brst.Ghost(flat, [("0.4 + 0.2*x0 + 0.1*x1", None, None)])
    rep2 = brst.finite_consistency(flat, cartan.normal_connection(flat), gh2, "section", PT, phi=phi)
    assert abs(rep2["slope"] - 1.0) < 0.1


def test_finite_transform_t_zero_is_identity(bumpy, rng):
    gh = brst.Ghost(bumpy, [("0.2*x0", _so_matrix(rng, bumpy.eta), None)])
    gam0 = brst.exp_field(bumpy, gh.matrix_field(), 0.0)
    assert np.abs(_val(gam0.at(PT, 1)) - np.eye(6)).max() == 0.0
    wn = cartan.normal_connection(bumpy)
    wt = cartan.transform_connection(wn, gam0)
    assert np.abs(wt.at(PT, 0) - A1.truncate(wn.at(PT, 1), 0)).max() < 1e-14
