"""Ghost fields and the nilpotent symmetry transformations of all gauge objects.

Transformation rules on a connection w, curvature F, section phi and ghost v:

    s w   = -dv - [w, v]        s F = [F, v]
    s phi = -v phi              s v = -v^2

realized through the graded arithmetic in `ghosts`; per generator these
linearize the finite transformation tables (the finite/infinitesimal
consistency suite measures exactly that).  Dressing the ghost with the boost
and frame dressings of a `dressing.dressing_chain` collapses it to the
composite ghosts carrying only the Weyl (and, at the first stage, Lorentz)
directions; `closed_form_ghost` gives those in closed form.

Ghost values, rules and measured residuals take a point (n,) or a batch of
points (..., n): graded coefficients carry the batch axes in front, and a
measured residual (`max_abs`) is one maximum per point.
"""

from __future__ import annotations

import numpy as np

from . import jets
from .cartan import (ConnectionField, inverse, matvec, sigma_matrix, transform_connection,
                     transform_section)
from .fields import JetField, RowField, ScalarField
from .geometry import Geometry
from .ghosts import GradedValue, even, odd


class Ghost:
    """Ghost field split over Weyl/Lorentz/boost directions.

    `components` is one (eps, s, iota) triple per Grassmann generator: eps a
    scalar field or None, s a constant eta-antisymmetric matrix or None, iota
    a row of scalar fields or None.  Lorentz parts are restricted to constant
    matrices (the residual suites use constant frame rotations).
    """

    def __init__(self, metric, components):
        self.metric = metric
        self.n = metric.n
        self.eta = metric.eta
        self.parts = []
        for eps, s, iota in components:
            eps_f = None if eps is None else ScalarField.coerce(eps)
            s_m = None
            if s is not None:
                s_m = np.asarray(s, dtype=float)
                if np.abs(self.eta @ s_m + s_m.T @ self.eta).max() > 1e-10:
                    raise ValueError("Lorentz ghost must be eta-antisymmetric")
            iota_f = None if iota is None else RowField.coerce(iota)
            self.parts.append((eps_f, s_m, iota_f))

    @property
    def n_generators(self):
        return len(self.parts)

    def _gen_matrix(self, k, point, order, select):
        """Matrix of generator k restricted to the chosen directions: (..., N, N, NC)."""
        n = self.n
        alg = jets.algebra(n, order)
        eta_inv = np.linalg.inv(self.eta)
        m = alg.zeros(np.shape(point)[:-1] + (n + 2, n + 2))
        eps_f, s_m, iota_f = self.parts[k]
        if "eps" in select and eps_f is not None:
            e = eps_f.coeffs(point, order)
            m[..., 0, 0, :] += e
            m[..., -1, -1, :] -= e
        if "s" in select and s_m is not None:
            m[..., 1:-1, 1:-1, :] += alg.const(s_m)
        if "iota" in select and iota_f is not None:
            row = iota_f.coeffs(point, order)
            m[..., 0, 1:-1, :] += row
            m[..., 1:-1, -1, :] += eta_inv @ row
        return m

    def value(self, point, order, select=("eps", "s", "iota")) -> GradedValue:
        return odd(
            self.n, order,
            {k: self._gen_matrix(k, point, order, select) for k in range(self.n_generators)},
        )

    def matrix_field(self) -> JetField:
        """Coefficient matrix of the first generator as a plain field (for finite checks)."""
        return JetField(lambda p, o: self._gen_matrix(0, p, o, ("eps", "s", "iota")), self.n,
                        max_order=3)


def sigma_membership_residual(ghost: Ghost, point):
    """Largest Sigma-antisymmetry defect of the ghost's generators, per point."""
    s = sigma_matrix(ghost.eta)
    vals = [m[..., 0] for m in ghost.value(point, 1).components.values()]
    return np.max([np.abs(np.swapaxes(v, -2, -1) @ s + s @ v).max(axis=(-2, -1))
                   for v in vals], axis=0)


# -- transformation rules -------------------------------------------------------


def brst_connection(conn: ConnectionField, v_hi: GradedValue, point) -> GradedValue:
    """s w = -dv - [w, v] at order 0; v_hi carries the ghost at order 1."""
    dv = v_hi.d()
    v = v_hi.truncate(0)
    w = even(conn.n, 0, conn.at(point, 0), form_degree=1)
    return -dv - w.bracket(v)


def brst_curvature(curv_graded: GradedValue, ghost_value: GradedValue) -> GradedValue:
    return curv_graded.bracket(ghost_value.truncate(curv_graded.order))


def brst_section(phi_graded: GradedValue, ghost_value: GradedValue) -> GradedValue:
    return -ghost_value.truncate(phi_graded.order).matmul(phi_graded)


def brst_ghost(ghost_value: GradedValue) -> GradedValue:
    return -ghost_value.matmul(ghost_value)


def section_graded(phi: JetField, point, order) -> GradedValue:
    return even(phi.n, order, phi.at(point, order)[..., :, None, :], form_degree=0)


def curvature_graded(curv_fn, point, order, n) -> GradedValue:
    return even(n, order, curv_fn(point, order), form_degree=2)


# -- nilpotency ------------------------------------------------------------------


def s2_section(phi_graded: GradedValue, v: GradedValue):
    """s^2 phi = (v^2) phi - v (v phi), measured."""
    res = v.matmul(v).matmul(phi_graded) - v.matmul(v.matmul(phi_graded))
    return res.max_abs()


def s2_ghost(ghost: Ghost, point):
    """s^2 v = (v^2) v - v (v^2), measured."""
    v = ghost.value(point, 0)
    v2 = v.matmul(v)
    return (v2.matmul(v) - v.matmul(v2)).max_abs()


def s2_connection(conn: ConnectionField, ghost: Ghost, point):
    """s^2 w via graded Leibniz, with order-0 jets:
    s^2 w = d(sv) - (sw) v + w (sv) - (sv) w + v (sw), measured."""
    n = conn.n
    v_hi = ghost.value(point, 2)
    sv_hi = -v_hi.matmul(v_hi)  # order-2 jets of -v^2 (enough for one d)
    d_sv = sv_hi.truncate(1).d()
    sv = sv_hi.truncate(0)
    v = ghost.value(point, 0)
    w = even(n, 0, conn.at(point, 0), form_degree=1)
    sw = brst_connection(conn, ghost.value(point, 1), point)
    res = d_sv + (-1.0) * sw.matmul(v) + w.matmul(sv) - sv.matmul(w) + v.matmul(sw)
    return res.max_abs()


# -- dressed (composite) ghosts ---------------------------------------------------


def linearized_boost(metric, ghost: Ghost, point, order, holonomic=False) -> GradedValue:
    """k1(eps) per generator: the nilpotent first-order part of the Weyl cocycle.

    Frame form: [[0, de.e^-1, 0], [0, 0, (de.e^-1)^t], [0, 0, 0]]; holonomic
    form has the row d eps and the column g^-1 d eps instead.
    """
    n = metric.n
    alg = jets.algebra(n, order)
    alg_hi = jets.algebra(n, order + 1)
    geom = Geometry(metric, point)
    eta_inv = np.linalg.inv(metric.eta)
    parts = {}
    for k, (eps_f, _, _) in enumerate(ghost.parts):
        m = alg.zeros(np.shape(point)[:-1] + (n + 2, n + 2))
        if eps_f is not None:
            e_hi = eps_f.coeffs(point, order + 1)
            de = alg_hi.grad(e_hi, 0)  # d_mu eps
            if holonomic:
                m[..., 0, 1:-1, :] = de
                m[..., 1:-1, -1, :] = matvec(alg, geom.ginv(order), de)
            else:
                p_row = alg.matmul(de[..., None, :, :], geom.einv(order))[..., 0, :, :]  # de . e^-1
                m[..., 0, 1:-1, :] = p_row
                m[..., 1:-1, -1, :] = eta_inv @ p_row
        parts[k] = m
    return odd(n, order, parts)


def dressed_ghost(metric, chain, ghost: Ghost, stage, point, order) -> GradedValue:
    """Composite ghost u^-1 v u + u^-1 su after the first stage (u = u1) or the full
    dressing (u = u1 ubar) of a `dressing.dressing_chain`, from the transformation
    rules of the dressings; `closed_form_ghost` is what it should equal."""
    n = metric.n
    alg = jets.algebra(n, order)
    # first: in a gauged chain ubar reads u1 one order higher, which the read of u1 truncates
    ubar = chain["ubar"].at(point, order) if stage == "full" else None
    u1_val = chain["u1"].at(point, order)
    u1_g, u1_inv = even(n, order, u1_val), even(n, order, inverse(alg, chain["u1"], u1_val))

    v = ghost.value(point, order)
    v_eps = ghost.value(point, order, select=("eps",))
    v_s = ghost.value(point, order, select=("s",))
    v_iota = ghost.value(point, order, select=("iota",))
    c_eps = linearized_boost(metric, ghost, point, order) + v_eps

    s_u1 = -v_iota.matmul(u1_g) + (u1_g.matmul(v_s) - v_s.matmul(u1_g)) \
        - v_eps.matmul(u1_g) + u1_g.matmul(c_eps)
    v1 = u1_inv.matmul(v.matmul(u1_g) + s_u1)
    if stage == "first":
        return v1

    ub, ub_inv = even(n, order, ubar), even(n, order, alg.inv_matrix(ubar))
    tilde_v_eps = _tilde_eps(metric, ghost, point, order)
    s_ub = tilde_v_eps.matmul(ub) - v_s.matmul(ub)
    return ub_inv.matmul(v1.matmul(ub) + s_ub)


def closed_form_ghost(metric, ghost: Ghost, stage, point, order) -> GradedValue:
    """What `dressed_ghost` equals: c(eps) + v_s at the first stage, and the
    holonomic cocycle linearization at the full stage."""
    v_eps = ghost.value(point, order, select=("eps",))
    if stage == "first":
        return (linearized_boost(metric, ghost, point, order) + v_eps
                + ghost.value(point, order, select=("s",)))
    return (linearized_boost(metric, ghost, point, order, holonomic=True) + v_eps
            + _tilde_eps(metric, ghost, point, order))


def _tilde_eps(metric, ghost, point, order):
    n = metric.n
    alg = jets.algebra(n, order)
    parts = {}
    for k, (eps_f, _, _) in enumerate(ghost.parts):
        m = alg.zeros(np.shape(point)[:-1] + (n + 2, n + 2))
        if eps_f is not None:
            eps = eps_f.coeffs(point, order)
            m[..., 1:-1, 1:-1, :] = alg.mul(eps[..., None, None, :], alg.const(np.eye(n)))
        parts[k] = m
    return odd(n, order, parts)


# -- finite/infinitesimal consistency ---------------------------------------------


def exp_field(metric, coeff_field: JetField, t) -> JetField:
    """exp(t * M(x)) as a jet matrix field: its Taylor series to 16 terms.  M is a
    ghost's matrix, in the algebra of H, so the field is marked H-valued."""
    n = metric.n

    def fn(point, order):
        alg = jets.algebra(n, order)
        m = t * coeff_field.at(point, order)
        out = alg.const(np.broadcast_to(np.eye(m.shape[-2]), m.shape[:-1]))
        power = out
        for j in range(1, 16):
            power = alg.matmul(power, m) / j
            out = out + power
        return out

    return JetField(fn, n, max_order=coeff_field.max_order, group_eta=metric.eta)


def finite_consistency(metric, conn: ConnectionField, ghost: Ghost, kind, point,
                       phi: JetField = None):
    """Slope of ||(chi^{exp(t v)} - chi)/t - s chi|| against t = 1e-2, 1e-3, 1e-4
    (expect ~1)."""
    ts = (1e-2, 1e-3, 1e-4)
    coeff = ghost.matrix_field()
    if kind == "connection":
        s_chi = brst_connection(conn, ghost.value(point, 1), point).component((0,))
        base = conn.at(point, 0)
    elif kind == "section":
        v = ghost.value(point, 0)
        s_chi = brst_section(section_graded(phi, point, 0), v).component((0,))[..., 0, :]
        base = phi.at(point, 0)
    else:
        raise ValueError(f"unknown kind {kind!r}")

    residuals = []
    for t in ts:
        gam = exp_field(metric, coeff, t)
        if kind == "connection":
            chi_t = transform_connection(conn, gam).at(point, 0)
        else:
            chi_t = transform_section(phi, gam).at(point, 0)
        diff = (chi_t - base) / t
        residuals.append(float(np.abs(diff - s_chi).max()))
    ts_arr, res_arr = np.asarray(ts), np.asarray(residuals)
    slope = float(np.polyfit(np.log(ts_arr), np.log(np.maximum(res_arr, 1e-300)), 1)[0])
    return {"ts": list(ts), "residuals": residuals, "slope": slope}
