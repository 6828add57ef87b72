"""Bottom-up tractor calculus: prolongation of the almost-Einstein equation,
tractor connection/metric/curvature, and the equivalence oracle against the
dressed Cartan pipeline.

The prolongation connection is a `cartan.ConnectionField` like the dressed
Cartan connection, so both pipelines share one set of combinators: the tractor
derivative is `cartan.section_derivative`, the tractor curvature
`cartan.curvature` and metric compatibility `cartan.metric_defect`.

Tractor triples are stored (sigma, l_nu, rho) with l covariant; the dressed
composite sections come out as (rho_L, l_L^mu, sigma) with l contravariant.
The dictionary between the two conventions is not hand-asserted: one stacked
pass over a finite family of reversal/index-lowering/sign candidates calibrates
it against the Weyl transformation law, and the survivor is used everywhere.

Every field and function here takes a point (n,) or a batch of points
(..., n), with the batch axes in front of every result; the calibration and
the equivalence oracle evaluate their sampled points as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dressing, jets
from .cartan import ConnectionField, curvature, matvec, section_derivative, section_field
from .dressing import normal_dressing_chain, upsilon_row
from .fields import JetField, ScalarField, random_poly_field, require_positive
from .geometry import Geometry


class TractorError(ValueError):
    pass


class CalibrationError(TractorError):
    pass


def prolongation_connection(metric) -> ConnectionField:
    """The tractor connection by prolongation: per direction mu, the matrix

        rows (0, -delta^alpha_mu, 0 | -P_{mu nu}, -Gamma^alpha_{mu nu}, g_{mu nu}
              | 0, g^{alpha beta} P_{mu beta}, 0)

    acting on triples (sigma, l_nu, rho).  The Schouten block caps the order at
    1, the first column included."""
    n = metric.n

    def at(point, order):
        geom = Geometry(metric, point)
        # Schouten first: the reads after it truncate its Gamma and g^-1
        schouten = geom.schouten(order)
        g = geom.g(order)
        m = jets.algebra(n, order).zeros(g.shape[:-3] + (n, n + 2, n + 2))
        for mu in range(n):
            m[..., mu, 0, 1 + mu, 0] = -1.0
        m[..., 1:-1, 0, :] = -schouten
        gam = geom.gamma(order)
        m[..., 1:-1, 1:-1, :] = -np.einsum("...amnc->...mnac", gam)  # row nu, col alpha
        m[..., 1:-1, -1, :] = g
        m[..., -1, 1:-1, :] = np.swapaxes(geom.schouten_up(order), -3, -2)  # P^alpha_mu
        return m

    def col0(point, order):
        return at(point, order)[..., 0, :]

    return ConnectionField(at, col0, n, metric.eta, max_order=1, col0_order=1)


def prolong_field(metric, sigma_field) -> JetField:
    """(sigma, nabla_nu sigma, -(Lap sigma - P sigma)/n) as a jet field."""
    n = metric.n
    sig_f = ScalarField.coerce(sigma_field)

    def fn(point, order):
        geom = Geometry(metric, point)
        # first: the Laplacian truncates its Gamma and g^-1
        trace = geom.schouten_trace(order)
        alg = jets.algebra(n, order)
        sig = sig_f.coeffs(point, min(3, order + 2))
        alg_s = jets.algebra(n, min(3, order + 2))
        out = alg.zeros(sig.shape[:-1] + (n + 2,))
        out[..., 0, :] = alg_s.truncate(sig, order)
        grad = alg_s.grad(sig, 0)
        out[..., 1:-1, :] = jets.algebra(n, min(3, order + 2) - 1).truncate(grad, order)
        lap = geom.laplacian(sig)
        p_sig = alg.mul(trace, out[..., 0, :])
        out[..., -1, :] = -(jets.algebra(n, min(3, order + 2) - 2).truncate(lap, order) - p_sig) / n
        return out

    return JetField(fn, n, max_order=1)


def ae_residual(metric, sigma_field, point):
    """Trace-free part of (nabla_mu nabla_nu sigma - P_{mu nu} sigma) (values)."""
    n = metric.n
    geom = Geometry(metric, point)
    a0 = jets.algebra(n, 0)
    # first: the Hessian truncates its Gamma and g^-1
    p = a0.value(geom.schouten(0))
    sig_f = ScalarField.coerce(sigma_field)
    sig = sig_f.coeffs(point, 2)
    hess = geom.covariant_derivative(
        geom.covariant_derivative(sig, ""), "d"
    )  # nabla_mu nabla_nu sigma, values
    x = a0.value(hess) - p * sig[..., None, None, 0]
    g = a0.value(geom.g(0))
    trace = np.einsum("...ab,...ab->...", np.linalg.inv(g), x)
    return x - (trace / n)[..., None, None] * g


def weyl_matrix_field(metric, z_field) -> JetField:
    """Tractor Weyl transformation: rows (z, 0, 0 | z U_mu, z, 0 |
    -U^2/(2z), -g^{nu mu} U_nu / z, 1/z)."""
    n = metric.n
    z_f = ScalarField.coerce(z_field)

    def fn(point, order):
        alg = jets.algebra(n, order)
        geom = Geometry(metric, point)
        zj = z_f.coeffs(point, order)
        require_positive(zj[..., 0], point, TractorError, "Weyl rescaling")
        zinv = alg.reciprocal(zj)
        ups = upsilon_row(z_f, point, order, n)
        ups_up = matvec(alg, geom.ginv(order), ups)
        ups2 = alg.mul(ups, ups_up).sum(axis=-2)
        m = alg.zeros(zj.shape[:-1] + (n + 2, n + 2))
        m[..., 0, 0, :] = zj
        m[..., 1:-1, 0, :] = alg.mul(zj[..., None, :], ups)
        m[..., 1:-1, 1:-1, :] = alg.mul(zj[..., None, None, :], alg.const(np.eye(n)))
        m[..., -1, 0, :] = -0.5 * alg.mul(zinv, ups2)
        m[..., -1, 1:-1, :] = -alg.mul(zinv[..., None, :], ups_up)
        m[..., -1, -1, :] = zinv
        return m

    return JetField(fn, n, max_order=2)


def inner(metric, point, t, t2, order=0):
    """rho sigma' + l_mu g^{mu nu} l'_nu + sigma rho' (jet arrays in, jet out)."""
    alg = jets.algebra(metric.n, order)
    ginv = Geometry(metric, point).ginv(order)
    mid = alg.mul(matvec(alg, ginv, t[..., 1:-1, :]), t2[..., 1:-1, :]).sum(axis=-2)
    return alg.mul(t[..., -1, :], t2[..., 0, :]) + mid + alg.mul(t[..., 0, :], t2[..., -1, :])


def metric_matrix(metric, point):
    """G = [[0,0,1],[0,g^{mu nu},0],[1,0,0]] as an order-1 jet, the order
    `cartan.metric_defect` reads: (..., N, N, NC1)."""
    ginv = Geometry(metric, point).ginv(1)
    N = metric.n + 2
    G = jets.algebra(metric.n, 1).zeros(ginv.shape[:-3] + (N, N))
    G[..., 0, -1, 0] = 1.0
    G[..., -1, 0, 0] = 1.0
    G[..., 1:-1, 1:-1, :] = ginv
    return G


def curvature_two_ways(metric, point):
    """Structure-equation curvature of the prolongation connection vs the
    assembled Cotton/Weyl block matrix; returns (structure equation, assembled,
    max discrepancy per point)."""
    alg0 = jets.algebra(metric.n, 0)
    f = alg0.value(curvature(prolongation_connection(metric))(point, 0))
    geom = Geometry(metric, point)

    assembled = np.zeros(f.shape)
    cot = geom.cotton  # C_{mu lam, nu}
    weyl = geom.weyl  # W^rho_{sigma mu nu}
    ginv = alg0.value(geom.ginv(0))
    assembled[..., 1:-1, 0] = -cot
    assembled[..., 1:-1, 1:-1] = -np.einsum("...anml->...mlna", weyl)
    assembled[..., -1, 1:-1] = np.einsum("...ab,...mlb->...mla", ginv, cot)
    return f, assembled, np.abs(f - assembled).max(axis=(-4, -3, -2, -1))


# -- convention map -------------------------------------------------------------


@dataclass(frozen=True)
class ConventionMap:
    """Dictionary from dressed sections (rho_L, l_L^mu, sigma) to tractor
    triples (sigma, l_nu, rho): optional component reversal, index lowering,
    and per-block signs (the sigma sign is pinned to +1)."""

    reverse: bool
    lower: str  # 'g', 'ginv', or 'none'
    s_ell: int
    s_rho: int

    def apply(self, alg, column, g, ginv):
        first, mid, last = column[..., 0, :], column[..., 1:-1, :], column[..., -1, :]
        if self.reverse:
            sig, rho = last, first
        else:
            sig, rho = first, last
        if self.lower == "g":
            mid = matvec(alg, g, mid)
        elif self.lower == "ginv":
            mid = matvec(alg, ginv, mid)
        out = np.empty_like(column)
        out[..., 0, :] = sig
        out[..., 1:-1, :] = self.s_ell * mid
        out[..., -1, :] = self.s_rho * rho
        return out

    def apply_inverse(self, alg, column, g, ginv):
        sig = column[..., 0, :]
        mid = column[..., 1:-1, :] * self.s_ell
        rho = column[..., -1, :] * self.s_rho
        if self.lower == "g":
            mid = matvec(alg, ginv, mid)
        elif self.lower == "ginv":
            mid = matvec(alg, g, mid)
        out = np.empty_like(column)
        if self.reverse:
            out[..., 0, :], out[..., -1, :] = rho, sig
        else:
            out[..., 0, :], out[..., -1, :] = sig, rho
        out[..., 1:-1, :] = mid
        return out


# the rescaling z(x) that convention calibration compares the Weyl laws under
DEFAULT_Z = "exp(0.3*x0 + 0.1*x1^2)"
# its field, compiled once per dimension and shared: a ScalarField keeps no batch
DEFAULT_Z_FIELD = ScalarField.from_expression(DEFAULT_Z)

ALL_CANDIDATES = tuple(
    ConventionMap(reverse, lower, s_ell, s_rho)
    for reverse in (True, False)
    for lower in ("g", "ginv", "none")
    for s_ell in (1, -1)
    for s_rho in (1, -1)
)


def _apply_all(alg, column, g, ginv):
    """`cand.apply(alg, column, g, ginv)` of every candidate, stacked in `ALL_CANDIDATES`
    order: two products lower, and reversal and signs broadcast over axes of size 2."""
    out = np.empty((2, 3, 2, 2) + column.shape)  # (reverse, lower, s_ell, s_rho, ...)
    ends = np.stack([column[..., -1, :], column[..., 0, :]])[:, None, None, None]
    sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * (column.ndim - 1))  # +-1 over (..., NC)
    out[..., 0, :] = ends  # sigma: the last component if reversed, else the first
    out[..., -1, :] = ends[::-1] * sign  # rho, times s_rho
    mid = column[..., 1:-1, :]
    for k, low in enumerate((matvec(alg, g, mid), matvec(alg, ginv, mid), mid)):
        out[:, k, ..., 1:-1, :] = sign[:, None, None] * low  # times s_ell
    return out.reshape((len(ALL_CANDIDATES),) + column.shape)


def calibrate_convention_map(metric, z_field, points, rng):
    """Search the candidate family, in one stacked pass over it, for the unique map
    commuting with the Weyl transformation laws of both pipelines, to 1e-8
    relative; fails loudly on 0 or >1 survivors."""
    n = metric.n
    z_f = ScalarField.coerce(z_field)
    rescaled = metric.rescale(z_f)
    cbar = dressing.weyl_cocycle(metric, z_f, "Cbar")
    gt = weyl_matrix_field(metric, z_f)
    a0 = jets.algebra(n, 0)

    # four trial sections per point: every per-point matrix gets a trial axis
    x = np.asarray(points, dtype=float)
    geom = Geometry(metric, x)
    g, ginv = geom.g(0)[:, None], geom.ginv(0)[:, None]
    # the rescaled metric is needed only to order 0, not as a whole Geometry
    g_hat = rescaled.g(x, 0)[:, None]
    ginv_hat = a0.inv_matrix(g_hat)
    cbar_inv = a0.inv_matrix(cbar.at(x, 0))[:, None]
    u = gt.at(x, 0)[:, None]
    phi = a0.const(rng.normal(size=(len(x), 4, n + 2)))
    phi_z = matvec(a0, cbar_inv, phi)

    lhs = _apply_all(a0, phi_z, g_hat, ginv_hat)
    rhs = matvec(a0, u, _apply_all(a0, phi, g, ginv))  # u broadcasts over the candidates
    scale = 1.0 + np.abs(rhs).max(axis=(-2, -1))
    ok = (np.abs(lhs - rhs).max(axis=(-2, -1)) <= 1e-8 * scale).all(axis=(1, 2))
    survivors = [cand for cand, keep in zip(ALL_CANDIDATES, ok) if keep]
    if not survivors:
        raise CalibrationError("no convention map matches both Weyl laws; upstream convention bug")
    if len(survivors) > 1:
        raise CalibrationError(
            f"{len(survivors)} convention maps survive (degenerate sample; use a non-constant "
            f"rescaling): {survivors}"
        )
    return survivors[0]


def equivalence_check(metric, points, rng, cmap=None):
    """Flagship oracle: the dressed normal Cartan derivative transported through
    the convention map must equal the prolongation tractor derivative.  Without
    a map, one is calibrated under DEFAULT_Z on the first points."""
    n = metric.n
    if cmap is None:
        cal_pts = points[: max(3, min(5, len(points)))]
        cmap = calibrate_convention_map(metric, DEFAULT_Z_FIELD, cal_pts, rng)

    wl = normal_dressing_chain(metric)["wl"]
    sigma = random_poly_field(rng, n, 2)
    ell = [random_poly_field(rng, n, 2) for _ in range(n)]
    t = section_field(metric, sigma, ell, random_poly_field(rng, n, 2))  # (sigma, l_nu, rho)

    a0 = jets.algebra(n, 0)

    def phi_l_fn(point, order):
        alg = jets.algebra(n, order)
        geom = Geometry(metric, point)
        return cmap.apply_inverse(alg, t.at(point, order), geom.g(order), geom.ginv(order))

    phi_l = JetField(phi_l_fn, n, max_order=3)

    # every point in one batch; the worst is the first point with the largest residual
    x = np.asarray(points, dtype=float)
    geom = Geometry(metric, x)
    try:
        lhs_cols = section_derivative(wl, phi_l, x)  # (P, n, N, NC0)
        lhs = cmap.apply(a0, lhs_cols, geom.g(0)[..., None, :, :, :],
                         geom.ginv(0)[..., None, :, :, :])
        rhs = section_derivative(prolongation_connection(metric), t, x)
        res = np.abs(lhs - rhs).max(axis=(-3, -2, -1))
    finally:
        geom.release()  # no later caller evaluates this batch: free its curvature stack
    i = int(np.argmax(res))  # a NaN residual counts as the worst
    worst = (0.0, None) if res[i] == 0 else (float(res[i]), tuple(points[i]))
    return {"max_residual": worst[0], "worst_point": worst[1], "map": cmap, "points": len(points)}
