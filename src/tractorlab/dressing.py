"""Boost and frame dressings of the Cartan connection, and the Weyl cocycles.

The boost dressing u1 = K1(q) with q = a . e^-1 kills the trace block of the
connection; the frame dressing ubar = diag(1, e, 1) converts the result to
holonomic (coordinate) form.  Both use only the first matrix column of the
connection, so their jets stay exact through chains of gauge transforms.

Residual Weyl transformations of dressed fields act through the cocycle
matrices C(z) (frame form) and Cbar(z) (holonomic form); residual Lorentz
transformations act through constant diag(1, S, 1) conjugation.  The same
transform_* combinators implement gauge transformation and dressing: only the
transformation law of the acting field differs, never the formula.  Every
dressing, cocycle and helper here evaluates at a point (n,) or a batch of
points (..., n), with the batch axes in front of every result.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .cartan import (
    CartanError,
    ConnectionField,
    constant_field,
    k1_jet_matrix,
    matvec,
    normal_connection,
    transform_connection,
    transform_section,
)
from .fields import JetField, ScalarField, field_matmul, first_point, require_positive
from .geometry import Geometry


def boost_vector(conn: ConnectionField, point, order):
    """q_b = a_mu e^mu_b from the connection's first column: (..., n, NC)."""
    col = conn.col0(point, order)
    alg = jets.algebra(conn.n, order)
    a = col[..., :, 0, :]  # (..., n, NC)
    e = np.swapaxes(col[..., 1:-1, :], -3, -2)  # e^a_mu
    e_val = alg.value(e)
    scale = np.maximum(1.0, np.abs(e_val).max(axis=(-2, -1))) ** conn.n
    singular = np.abs(np.linalg.det(e_val)) < 1e-12 * scale
    if singular.any():
        raise CartanError(f"soldering block is singular at {first_point(point, singular)}")
    einv = alg.inv_matrix(e)
    return alg.matmul(a[..., None, :, :], einv)[..., 0, :, :]


def boost_dressing(conn: ConnectionField) -> JetField:
    """Dressing field u1 = K1(a . e^-1); the dressed connection has no trace block."""
    n = conn.n
    eta_inv = np.linalg.inv(conn.eta)

    def fn(point, order):
        alg = jets.algebra(n, order)
        q = boost_vector(conn, point, order)
        return k1_jet_matrix(alg, q, eta_inv @ q)

    return JetField(fn, n, max_order=conn.col0_order, label=f"u1({conn.label})")


def frame_dressing(conn: ConnectionField) -> JetField:
    """ubar = diag(1, e, 1) with the vielbein from the soldering block."""
    n = conn.n

    def fn(point, order):
        alg = jets.algebra(n, order)
        e = np.swapaxes(conn.col0(point, order)[..., 1:-1, :], -3, -2)  # e^a_mu
        m = alg.const(np.broadcast_to(np.eye(n + 2), e.shape[:-3] + (n + 2, n + 2)))
        m[..., 1:-1, 1:-1, :] = e
        return m

    return JetField(fn, n, max_order=conn.col0_order, label=f"ubar({conn.label})")


def normal_dressing_chain(metric):
    """The normal connection wn, its boost dressing u1 and w1 = wn^u1, the frame
    dressing ubar of w1 and the holonomic connection wl = w1^ubar."""
    wn = normal_connection(metric)
    u1 = boost_dressing(wn)
    w1 = dress(wn, u1)
    ubar = frame_dressing(w1)
    return {"wn": wn, "u1": u1, "w1": w1, "ubar": ubar, "wl": dress(w1, ubar)}


def dress(chi, u: JetField, label=""):
    """Dress a connection or section field (curvatures conjugate separately)."""
    if isinstance(chi, ConnectionField):
        return transform_connection(chi, u, label=label or f"({chi.label})^u")
    return transform_section(chi, u, label=label)


def upsilon_row(z_field: ScalarField, point, order, n):
    """Upsilon_mu = z^-1 d_mu z as a jet row (..., n, NC)."""
    alg_hi = jets.algebra(n, order + 1)
    alg = jets.algebra(n, order)
    zj = z_field.coeffs(point, order + 1)
    require_positive(zj[..., 0], point, CartanError, "Weyl rescaling")
    dz = alg_hi.grad(zj, 0)
    return alg.mul(alg.reciprocal(alg_hi.truncate(zj, order))[..., None, :], dz)


def weyl_cocycle(metric, z_field, variant="C") -> JetField:
    """Cocycle matrix field: C(z) in frame form or Cbar(z) in holonomic form."""
    k1f, zf = cocycle_factors(metric, z_field, variant)
    return field_matmul(k1f, zf, label=f"{variant}(z)")


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

    k1_label = "k1(z)" if variant == "C" else "k1bar(z)"
    z_label = "Z" if variant == "C" else "Zbar"
    return (
        JetField(k1_fn, n, max_order=2, label=k1_label),
        JetField(z_fn, n, max_order=3, label=z_label),
    )


def lorentz_element(metric, S) -> JetField:
    """Constant diag(1, S, 1) field for residual Lorentz transformations."""
    S = np.asarray(S, dtype=float)
    if np.abs(S.T @ metric.eta @ S - metric.eta).max() > 1e-10:
        raise CartanError("S is not eta-orthogonal")
    m = np.eye(metric.n + 2)
    m[1:-1, 1:-1] = S
    return constant_field(metric, m)


def tractor_metric_G(metric, point, order):
    """G = ubar^T Sigma ubar = [[0,0,-1],[0,g,0],[-1,0,0]] with jets: (..., N, N, NC)."""
    g = Geometry(metric, point).g(order)
    N = metric.n + 2
    G = jets.algebra(metric.n, order).zeros(g.shape[:-3] + (N, N))
    G[..., 0, -1, 0] = -1.0
    G[..., -1, 0, 0] = -1.0
    G[..., 1:-1, 1:-1, :] = g
    return G
