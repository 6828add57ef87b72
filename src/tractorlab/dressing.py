"""Boost and frame dressings of the Cartan connection, and the Weyl cocycles.

The boost dressing u1 = K1(q) with q = a . e^-1 kills the trace block of the
connection; the frame dressing ubar = diag(1, e, 1) converts the result to
holonomic (coordinate) form.  Both use only the first matrix column of the
connection, so their jets stay exact through chains of gauge transforms.
`dressing_chain` is the one place that chains them: the checks and the BRST
composite ghosts read its fields and build no dressing of their own.  The
normal connection wn has a = 0, so its u1 is the identity and
`normal_dressing_chain` starts at w1 = wn; the two chains share the frame stage.

Residual Weyl transformations of dressed fields act through the cocycle
matrices C(z) (frame form) and Cbar(z) (holonomic form); residual Lorentz
transformations act through the constant field diag(1, S, 1), which is
`cartan.h_field(metric, S=S)`.  The same transform_* combinators of `cartan`
implement gauge transformation and dressing: only the transformation law of
the acting field differs, never the formula.  Every
dressing, cocycle and helper here evaluates at a point (n,) or a batch of
points (..., n), with the batch axes in front of every result.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .cartan import (
    CartanError,
    ConnectionField,
    h_field,
    k1_jet_matrix,
    matvec,
    normal_connection,
    transform_connection,
    transform_section,
)
from .fields import JetField, ScalarField, field_matmul, first_point, require_positive
from .geometry import Geometry


def boost_vector(conn: ConnectionField, point, order):
    """q_b = a_mu e^mu_b from the connection's first column: (..., n, NC).  It solves
    q e = a, e = e0 + ebar with ebar nilpotent, without inverting e: each step
    q <- (a - q ebar) e0^-1 after q = a e0^-1 is exact to one order more."""
    col = conn.col0(point, order)
    alg = jets.algebra(conn.n, order)
    a = col[..., :, 0, :]  # (..., n, NC)
    e = np.swapaxes(col[..., 1:-1, :], -3, -2)  # e^a_mu
    e_val = alg.value(e)
    scale = np.maximum(1.0, np.abs(e_val).max(axis=(-2, -1))) ** conn.n
    singular = np.abs(np.linalg.det(e_val)) < 1e-12 * scale
    if singular.any():
        raise CartanError(f"soldering block is singular at {first_point(point, singular)}")
    e0inv_t = np.swapaxes(np.linalg.inv(e_val), -2, -1)  # row @ e0^-1 as e0^-T @ column
    ebar, q = e - alg.const(e_val), e0inv_t @ a
    for _ in range(order):
        q = e0inv_t @ (a - alg.matmul(q[..., None, :, :], ebar)[..., 0, :, :])
    return q


def boost_dressing(conn: ConnectionField) -> JetField:
    """Dressing field u1 = K1(a . e^-1); the dressed connection has no trace block."""
    n = conn.n
    eta_inv = np.linalg.inv(conn.eta)

    def fn(point, order):
        alg = jets.algebra(n, order)
        q = boost_vector(conn, point, order)
        return k1_jet_matrix(alg, q, eta_inv @ q)

    return JetField(fn, n, max_order=conn.col0_order, group_eta=conn.eta)


def frame_dressing(conn: ConnectionField) -> JetField:
    """ubar = diag(1, e, 1) with the vielbein from the soldering block."""
    n = conn.n

    def fn(point, order):
        alg = jets.algebra(n, order)
        e = np.swapaxes(conn.col0(point, order)[..., 1:-1, :], -3, -2)  # e^a_mu
        m = alg.const(np.broadcast_to(np.eye(n + 2), e.shape[:-3] + (n + 2, n + 2)))
        m[..., 1:-1, 1:-1, :] = e
        return m

    return JetField(fn, n, max_order=conn.col0_order)


def dressing_chain(conn: ConnectionField):
    """The dressing chain of a connection w, as lazy fields: its boost dressing u1,
    w1 = w^u1, the frame dressing ubar of w1 and the holonomic connection
    wl = w1^ubar."""
    u1 = boost_dressing(conn)
    return {"u1": u1, **_frame_stage(dress(conn, u1))}


def normal_dressing_chain(metric):
    """The normal connection wn and its dressing chain.  wn has a = 0, so q = 0 and
    u1 = K1(0) = 1, the constant identity of `h_field`: the chain starts at w1 = wn.
    It equals `dressing_chain(wn)` exactly."""
    wn = normal_connection(metric)
    return {"wn": wn, "u1": h_field(metric), **_frame_stage(wn)}


def _frame_stage(w1: ConnectionField):
    ubar = frame_dressing(w1)
    return {"w1": w1, "ubar": ubar, "wl": dress(w1, ubar)}


def dress(chi, u: JetField):
    """Dress a connection or section field; a curvature dresses by
    `cartan.transform_curvature`."""
    if isinstance(chi, ConnectionField):
        return transform_connection(chi, u)
    return transform_section(chi, u)


def upsilon_row(z_field: ScalarField, point, order, n):
    """Upsilon_mu = z^-1 d_mu z as a jet row (..., n, NC)."""
    alg_hi = jets.algebra(n, order + 1)
    alg = jets.algebra(n, order)
    zj = z_field.coeffs(point, order + 1)
    require_positive(zj[..., 0], point, CartanError, "Weyl rescaling")
    dz = alg_hi.grad(zj, 0)
    return alg.mul(alg.reciprocal(alg_hi.truncate(zj, order))[..., None, :], dz)


def weyl_cocycle(metric, z_field, variant="C") -> JetField:
    """Cocycle matrix field: C(z) in frame form, marked H-valued, or Cbar(z) in
    holonomic form, which maps Sigma to the tractor metric G."""
    k1f, zf = cocycle_factors(metric, z_field, variant)
    return field_matmul(k1f, zf, group_eta=metric.eta if variant == "C" else None)


def cocycle_factors(metric, z_field, variant="C"):
    """The factorization C = k1(z) Z (resp. Cbar = k1bar(z) Zbar) as two fields."""
    n = metric.n
    N = n + 2
    eta = metric.eta
    eta_inv = np.linalg.inv(eta)
    z_field = ScalarField.coerce(z_field)

    def k1_fn(point, order):
        alg = jets.algebra(n, order)
        ups = upsilon_row(z_field, point, order, n)  # Upsilon_mu
        geom = Geometry(metric, point)
        if variant == "C":
            ups_a = alg.matmul(ups[..., None, :, :], geom.einv(order))[..., 0, :, :]  # Upsilon_a
            return k1_jet_matrix(alg, ups_a, eta_inv @ ups_a)
        return k1_jet_matrix(alg, ups, matvec(alg, geom.ginv(order), ups))

    def z_fn(point, order):
        alg = jets.algebra(n, order)
        zj = z_field.coeffs(point, order)
        m = alg.const(np.broadcast_to(np.eye(N), zj.shape[:-1] + (N, N)))
        m[..., 0, 0, :] = zj
        m[..., -1, -1, :] = alg.reciprocal(zj)
        if variant != "C":
            m[..., 1:-1, 1:-1, :] = alg.mul(zj[..., None, None, :], alg.const(np.eye(n)))
        return m

    return JetField(k1_fn, n, max_order=2), JetField(z_fn, n, max_order=3)


def tractor_metric_G(metric, point, order):
    """G = ubar^T Sigma ubar = [[0,0,-1],[0,g,0],[-1,0,0]] with jets: (..., N, N, NC)."""
    g = Geometry(metric, point).g(order)
    N = metric.n + 2
    G = jets.algebra(metric.n, order).zeros(g.shape[:-3] + (N, N))
    G[..., 0, -1, 0] = -1.0
    G[..., -1, 0, 0] = -1.0
    G[..., 1:-1, 1:-1, :] = g
    return G
