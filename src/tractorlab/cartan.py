"""The conformal Cartan connection as an (n+2)x(n+2) matrix-valued 1-form.

Block layout of group/algebra matrices, with rows/columns split (1, n, 1):

    algebra element      connection (per direction mu)   curvature (per mu,nu)
    [eps  iota   0  ]    [a      P_b     0   ]           [f    C     0  ]
    [tau   v   iota^t]   [theta  A^a_b   P^t ]           [Th   W     C^t]
    [0   tau^t  -eps ]   [0      theta^t -a  ]           [0    Th^t  -f ]

eta-transposition: for a row r, r^t = eta^-1 r^T (a column); for a column c,
c^t = (eta c)^T (a row).  All such matrices are antisymmetric / orthogonal
with respect to Sigma = [[0,0,-1],[0,eta,0],[-1,0,0]].

Connection fields expose the full matrix to jet order 1 (the Schouten block
caps the order) and the first column (a and theta blocks) to higher order;
the boost dressing only needs the first column, which is what keeps its jets
exact through chains of gauge transforms.

Every field, transform and curvature evaluates at a point (n,) or a batch of
points (..., n), with the batch axes in front of every result: `at` gives
(..., n, N, N, NC) and a curvature (..., n, n, N, N, NC).
"""

from __future__ import annotations

import numpy as np

from . import jets
from .fields import JetField, RowField, ScalarField, origin, require_positive
from .geometry import Geometry


class CartanError(ValueError):
    pass


def sigma_matrix(eta):
    n = eta.shape[0]
    s = np.zeros((n + 2, n + 2))
    s[0, -1] = s[-1, 0] = -1.0
    s[1:-1, 1:-1] = eta
    return s


def row_t(r, eta_inv):
    """eta-transpose of a row vector: the column (r eta^-1)^T."""
    return eta_inv @ np.asarray(r)


def col_t(c, eta):
    """eta-transpose of a column vector: the row (eta c)^T."""
    return np.asarray(c) @ eta


# -- algebra and group elements (plain float matrices) -------------------------


def embed_algebra(eps, v, tau, iota, eta):
    """Assemble a Lie-algebra element from graded blocks (eps, v, tau, iota).

    v must be eta-antisymmetric (eta v + v^T eta = 0); tau is a column
    n-vector, iota a row n-covector.
    """
    n = eta.shape[0]
    eta_inv = np.linalg.inv(eta)
    v = np.asarray(v, dtype=float)
    tau = np.asarray(tau, dtype=float).reshape(n)
    iota = np.asarray(iota, dtype=float).reshape(n)
    m = np.zeros((n + 2, n + 2))
    m[0, 0] = eps
    m[-1, -1] = -eps
    m[0, 1:-1] = iota
    m[1:-1, 0] = tau
    m[1:-1, 1:-1] = v
    m[1:-1, -1] = row_t(iota, eta_inv)
    m[-1, 1:-1] = col_t(tau, eta)
    res = sigma_antisymmetry(m, eta)
    if res > 1e-10 * (1.0 + np.abs(m).max()):
        raise CartanError(f"malformed v block: Sigma-antisymmetry residual {res:.3e}")
    return m


def split_algebra(m):
    """Inverse of embed_algebra: recover (eps, v, tau, iota) exactly."""
    return m[0, 0], m[1:-1, 1:-1].copy(), m[1:-1, 0].copy(), m[0, 1:-1].copy()


def sigma_antisymmetry(m, eta):
    s = sigma_matrix(eta)
    return np.abs(m.T @ s + s @ m).max()


def sigma_membership(m, eta):
    """max |M^T Sigma M - Sigma|: zero for group elements."""
    s = sigma_matrix(eta)
    return np.abs(m.T @ s @ m - s).max()


def k0_matrix(z, S):
    n = S.shape[0]
    m = np.zeros((n + 2, n + 2))
    m[0, 0] = z
    m[1:-1, 1:-1] = S
    m[-1, -1] = 1.0 / z
    return m


def k1_matrix(r, eta):
    n = eta.shape[0]
    eta_inv = np.linalg.inv(eta)
    r = np.asarray(r, dtype=float).reshape(n)
    rt = row_t(r, eta_inv)
    m = np.eye(n + 2)
    m[0, 1:-1] = r
    m[0, -1] = 0.5 * float(r @ rt)
    m[1:-1, -1] = rt
    return m


def h_matrix(z, S, r, eta):
    """Group element K0(z, S) K1(r); z > 0, S eta-orthogonal."""
    if z <= 0:
        raise CartanError(f"Weyl factor must be positive, got {z}")
    if np.abs(S.T @ eta @ S - eta).max() > 1e-10:
        raise CartanError("S is not eta-orthogonal")
    return k0_matrix(z, S) @ k1_matrix(r, eta)


def invariant_pairing(phi, phi2, eta):
    """Sigma bilinear form: -sigma rho' + l^T eta l' - rho sigma'."""
    return float(np.asarray(phi) @ sigma_matrix(eta) @ np.asarray(phi2))


def matvec(alg, m, v):
    """Jet matrix @ jet column: (..., N, N, NC) x (..., N, NC) -> (..., N, NC)."""
    return alg.matmul(m, v[..., :, None, :])[..., 0, :]


# -- jet-valued fields ----------------------------------------------------------


class ConnectionField:
    """Matrix-valued 1-form field: at(point, order) -> (..., n, N, N, NC).

    `col0` evaluates only the first matrix column (the a and theta blocks),
    which stays exact to higher jet order than the Schouten block allows.
    """

    def __init__(self, at_fn, col0_fn, n, eta, max_order=1, col0_order=3):
        self._at = at_fn
        self._col0 = col0_fn
        self.n = n
        self.eta = np.asarray(eta, dtype=float)
        self.max_order = max_order
        self.col0_order = col0_order

    def at(self, point, order):
        if order > self.max_order:
            raise jets.JetError(
                f"connection {origin(self._at)} supports order <= {self.max_order}"
            )
        return self._at(point, order)

    def col0(self, point, order):
        if order > self.col0_order:
            raise jets.JetError(
                f"connection {origin(self._col0)} first column supports order <= {self.col0_order}"
            )
        return self._col0(point, order)

    def frame(self, point, order):
        """Vielbein e^a_mu and inverse extracted from the soldering block."""
        col = self.col0(point, order)  # (..., n, N, NC)
        e = np.swapaxes(col[..., 1:-1, :], -3, -2)  # e^a_mu
        alg = jets.algebra(self.n, order)
        return e, alg.inv_matrix(e)


def conn_blocks(w):
    """Named views of connection jets (..., n, N, N, NC)."""
    return {
        "a": w[..., 0, 0, :],
        "P": w[..., 0, 1:-1, :],
        "theta": np.swapaxes(w[..., 1:-1, 0, :], -3, -2),  # theta^a_mu
        "A": w[..., 1:-1, 1:-1, :],  # [mu, a, b]
        "P_t": w[..., 1:-1, -1, :],
        "theta_t": w[..., -1, 1:-1, :],
    }


def curv_blocks(f):
    """Named views of curvature values (..., n, n, N, N)."""
    return {
        "f": f[..., 0, 0],
        "C": f[..., 0, 1:-1],
        "Theta": f[..., 1:-1, 0],
        "W": f[..., 1:-1, 1:-1],
        "C_t": f[..., 1:-1, -1],
    }


def normal_connection(metric) -> ConnectionField:
    """Torsion-free connection with vanishing trace blocks: a = 0, theta from the
    vielbein, A the metric spin connection, P the Schouten tensor in frame form."""
    n = metric.n
    N = n + 2
    eta_inv = np.linalg.inv(metric.eta)

    def at(point, order):
        geom = Geometry(metric, point)
        alg = jets.algebra(n, order)
        # spin1 first: it memoises e(2), which the e(order) read below truncates
        a_spin = jets.algebra(n, 1).truncate(geom.spin1, order)
        e_mu = np.swapaxes(geom.e(order), -3, -2)  # [mu, a] = e^a_mu
        p_frame = alg.matmul(jets.algebra(n, 1).truncate(geom.schouten1, order),
                             geom.einv(order))  # P_{mu b}
        w = alg.zeros(e_mu.shape[:-3] + (n, N, N))
        w[..., 0, 1:-1, :] = p_frame
        w[..., 1:-1, 0, :] = e_mu
        w[..., 1:-1, 1:-1, :] = a_spin
        w[..., 1:-1, -1, :] = eta_inv @ p_frame
        w[..., -1, 1:-1, :] = metric.eta @ e_mu
        return w

    def col0(point, order):
        e_mu = np.swapaxes(Geometry(metric, point).e(order), -3, -2)
        col = jets.algebra(n, order).zeros(e_mu.shape[:-3] + (n, N))
        col[..., 1:-1, :] = e_mu
        return col

    return ConnectionField(at, col0, n, metric.eta, max_order=1, col0_order=3)


def k1_jet_matrix(alg, q, q_up):
    """K1 for a jet-valued row q and its raised column q_up:
    rows (1, q, q.q_up/2; 0, 1, q_up; 0, 0, 1)."""
    N = q.shape[-2] + 2
    m = alg.const(np.broadcast_to(np.eye(N), q.shape[:-2] + (N, N)))
    m[..., 0, 1:-1, :] = q
    m[..., 0, -1, :] = 0.5 * alg.mul(q, q_up).sum(axis=-2)
    m[..., 1:-1, -1, :] = q_up
    return m


def h_field(metric, z=None, S=None, r=None) -> JetField:
    """Group-valued field K0(z(x), S) K1(r(x)) with jets; S is constant.  With S
    alone it is diag(1, S, 1), the residual Lorentz element."""
    n = metric.n
    N = n + 2
    eta = metric.eta
    eta_inv = np.linalg.inv(eta)
    z_f = None if z is None else ScalarField.coerce(z)
    r_f = None if r is None else RowField.coerce(r)
    s_mat = np.eye(n) if S is None else np.asarray(S, dtype=float)
    if np.abs(s_mat.T @ eta @ s_mat - eta).max() > 1e-10:
        raise CartanError("S is not eta-orthogonal")

    def fn(point, order):
        alg = jets.algebra(n, order)
        k0 = alg.const(np.broadcast_to(np.eye(N), np.shape(point)[:-1] + (N, N)))
        if z_f is not None:
            zj = z_f.coeffs(point, order)
            require_positive(zj[..., 0], point, CartanError, "Weyl factor")
            k0[..., 0, 0, :] = zj
            k0[..., -1, -1, :] = alg.reciprocal(zj)
        k0[..., 1:-1, 1:-1, :] = alg.const(s_mat)
        if r_f is None:
            return k0
        rj = r_f.coeffs(point, order)  # (..., n, NC)
        return alg.matmul(k0, k1_jet_matrix(alg, rj, eta_inv @ rj))

    return JetField(fn, n, max_order=3)


def section_field(metric, rho, ell, sigma) -> JetField:
    """Column field (rho, ell^a, sigma) from scalar-field components.

    Tractor triples (sigma, l_nu, rho) use the same layout: pass sigma first.
    """
    n = metric.n
    rho_f = ScalarField.coerce(rho)
    sig_f = ScalarField.coerce(sigma)
    ell_f = RowField.coerce(ell)

    def fn(point, order):
        rho = rho_f.coeffs(point, order)
        out = jets.algebra(n, order).zeros(rho.shape[:-1] + (n + 2,))
        out[..., 0, :] = rho
        out[..., 1:-1, :] = ell_f.coeffs(point, order)
        out[..., -1, :] = sig_f.coeffs(point, order)
        return out

    return JetField(fn, n, max_order=3)


# -- transforms (the same formulas serve gauge transformation and dressing) ----


def transform_connection(conn: ConnectionField, gfield: JetField) -> ConnectionField:
    """chi -> g^-1 chi g + g^-1 dg for a matrix-valued 1-form field."""
    n = conn.n

    # g and its inverse get an axis for the direction mu of the 1-form
    def at(point, order):
        alg_hi = jets.algebra(n, order + 1)
        alg = jets.algebra(n, order)
        g_hi = gfield.at(point, order + 1)
        g = alg_hi.truncate(g_hi, order)
        ginv = alg.inv_matrix(g)[..., None, :, :, :]
        w = conn.at(point, order)
        dg = alg_hi.grad(g_hi, 2)
        core = alg.matmul(alg.matmul(ginv, w), g[..., None, :, :, :])
        return core + alg.matmul(ginv, dg)

    def col0(point, order):
        alg_hi = jets.algebra(n, order + 1)
        alg = jets.algebra(n, order)
        g_hi = gfield.at(point, order + 1)
        g = alg_hi.truncate(g_hi, order)
        ginv = alg.inv_matrix(g)[..., None, :, :, :]
        col = conn.col0(point, order)  # (..., n, N, NC)
        g00 = g[..., 0, 0, :][..., None, None, :]
        out = alg.mul(g00, matvec(alg, ginv, col))
        dg0 = alg_hi.grad(g_hi[..., :, 0, :], 1)  # (..., n, N, NC)
        out += matvec(alg, ginv, dg0)
        return out

    max_order = min(conn.max_order, gfield.max_order - 1)
    col0_order = min(conn.col0_order, gfield.max_order - 1)
    return ConnectionField(at, col0, n, conn.eta, max_order=max_order, col0_order=col0_order)


def transform_section(phi: JetField, gfield: JetField) -> JetField:
    """phi -> g^-1 phi."""
    n = phi.n

    def fn(point, order):
        alg = jets.algebra(n, order)
        ginv = alg.inv_matrix(gfield.at(point, order))
        return matvec(alg, ginv, phi.at(point, order))

    return JetField(fn, n, min(phi.max_order, gfield.max_order))


def curvature(conn: ConnectionField):
    """Structure-equation curvature F_{mu nu} = d_mu w_nu - d_nu w_mu + [w_mu, w_nu].

    Returns a closure (point, order) -> (..., n, n, N, N, NC); order is capped
    one below the connection's.
    """
    n = conn.n

    def fn(point, order=0):
        alg_hi = jets.algebra(n, order + 1)
        alg = jets.algebra(n, order)
        w_hi = conn.at(point, order + 1)
        w = alg_hi.truncate(w_hi, order)
        dw = alg_hi.grad(w_hi, 3)  # [..., mu, nu, N, N]
        ww = alg.matmul(w[..., :, None, :, :, :], w[..., None, :, :, :, :])  # w_mu w_nu
        return dw - np.swapaxes(dw, -5, -4) + ww - np.swapaxes(ww, -5, -4)

    return fn


def transform_curvature(curv, g):
    """F -> g^-1 F g, the curvature of the connection transformed by g, from order-0
    jets of the curvature (..., n, n, N, N, 1) and of g (..., N, N, 1)."""
    alg = jets.algebra(curv.shape[-5], 0)
    g = g[..., None, None, :, :, :]  # one per (mu, nu)
    return alg.matmul(alg.matmul(alg.inv_matrix(g), curv), g)


def section_derivative(conn: ConnectionField, phi: JetField, point, order=0):
    """D phi = d phi + w phi, per direction: (..., n, N, NC)."""
    n = conn.n
    alg_hi = jets.algebra(n, order + 1)
    alg = jets.algebra(n, order)
    p_hi = phi.at(point, order + 1)
    dp = alg_hi.grad(p_hi, 1)
    w = conn.at(point, order)
    p = alg_hi.truncate(p_hi, order)
    return dp + matvec(alg, w, p[..., None, :, :])


def metric_defect(conn: ConnectionField, G1, point):
    """dG - w^T G - G w per direction, for a bilinear form G given as an order-1 jet
    (..., N, N, NC): zero where the connection preserves G.  Values at order 0,
    (..., n, N, N, NC0)."""
    alg1, alg = jets.algebra(conn.n, 1), jets.algebra(conn.n, 0)
    w = conn.at(point, 0)
    G0 = alg1.truncate(G1, 0)[..., None, :, :, :]  # one per direction mu
    return alg1.grad(G1, 2) - alg.matmul(np.swapaxes(w, -3, -2), G0) - alg.matmul(G0, w)


def normality_report(curv_value, einv_value):
    """Per-point max norms of the torsion, trace, and Ricci-type Weyl trace blocks
    of curvature values (..., n, n, N, N), given the inverse frame (..., n, n)."""
    blocks = curv_blocks(curv_value)
    w_frame = np.einsum("...mnab,...mc,...nd->...abcd", blocks["W"], einv_value, einv_value)
    ricci_trace = np.einsum("...abad->...bd", w_frame)
    report = {
        "torsion_norm": np.abs(blocks["Theta"]).max(axis=(-3, -2, -1)),
        "f_norm": np.abs(blocks["f"]).max(axis=(-2, -1)),
        "ricci_type_trace_norm": np.abs(ricci_trace).max(axis=(-2, -1)),
    }
    report["normal"] = np.all([v < 1e-8 for v in report.values()], axis=0)
    return report
