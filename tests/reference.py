"""Reference implementations that only the tests compare against: a second-order
finite-difference oracle, the graded split of the Cartan algebra, the factored
group inverse, the jets of K0 K1 as a jet matrix product, raw partial
derivatives of a jet, the jet of a coordinate, `k1-erasure` drawn one gauge
at a time, and the convention calibration tested one candidate at a time."""

import math

import numpy as np

from tractorlab import cartan, dressing, jets, suites, tractor
from tractorlab.cartan import matvec
from tractorlab.fields import ScalarField, domain_poly_field
from tractorlab.geometry import Geometry
from tractorlab.jets import JetError


def _shift(x, i, h):
    y = np.array(x, dtype=float)
    y[..., i] += h
    return y


def fd_second(f, x, i, j):
    """Richardson-extrapolated second partial d^2 f / dx_i dx_j, step 1e-4."""
    h = 1e-4
    if i == j:

        def central(step):
            return (
                np.asarray(f(_shift(x, i, step)))
                - 2.0 * np.asarray(f(x))
                + np.asarray(f(_shift(x, i, -step)))
            ) / step**2

    else:

        def central(step):
            xpp = _shift(_shift(x, i, step), j, step)
            xpm = _shift(_shift(x, i, step), j, -step)
            xmp = _shift(_shift(x, i, -step), j, step)
            xmm = _shift(_shift(x, i, -step), j, -step)
            return (np.asarray(f(xpp)) - np.asarray(f(xpm)) - np.asarray(f(xmp))
                    + np.asarray(f(xmm))) / (4.0 * step**2)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def grading_parts(m, eta):
    """Split into (g_-1, g_0, g_+1) matrices: tau part, (eps, v) part, iota part."""
    eps, v, tau, iota = cartan.split_algebra(m)
    n = eta.shape[0]
    zero = np.zeros(n)
    return (
        cartan.embed_algebra(0.0, np.zeros((n, n)), tau, zero, eta),
        cartan.embed_algebra(eps, v, zero, zero, eta),
        cartan.embed_algebra(0.0, np.zeros((n, n)), zero, iota, eta),
    )


def h_inverse(z, S, r, eta):
    """Inverse in factored form: K1(-r) K0(1/z, S^-1)."""
    eta_inv = np.linalg.inv(eta)
    s_inv = eta_inv @ S.T @ eta
    return cartan.k1_matrix(-np.asarray(r), eta) @ cartan.k0_matrix(1.0 / z, s_inv)


def h_product(metric, point, order, z=None, S=None, r=None):
    """The jets of K0(z, S) K1(r) at `point` as the jet matrix product of the two
    factors, each built on its own (absent parts are 1)."""
    n, N = metric.n, metric.n + 2
    alg = jets.algebra(n, order)
    k0 = alg.const(np.broadcast_to(np.eye(N), np.shape(point)[:-1] + (N, N)))
    if z is not None:
        zj = ScalarField.coerce(z).coeffs(point, order)
        k0[..., 0, 0, :], k0[..., -1, -1, :] = zj, alg.reciprocal(zj)
    if S is not None:
        k0[..., 1:-1, 1:-1, :] = alg.const(S)
    k1 = alg.const(np.broadcast_to(np.eye(N), np.shape(point)[:-1] + (N, N)))
    if r is not None:
        rj = np.stack([ScalarField.coerce(c).coeffs(point, order) for c in r], axis=-2)
        k1 = cartan.k1_jet_matrix(alg, rj, np.linalg.inv(metric.eta) @ rj)
    return alg.matmul(k0, k1)


def k1_erasure_loop(ctx, rng):
    """The `k1-erasure` check with one gauge at a time: 20 boosts K1(r), each from n
    single polynomial draws, each through its own transform and dressing chain."""
    tr = suites.Tracker()
    wn = ctx.pipeline()["wn"]
    pts = ctx.points(rng, suites.COUNTS["few"](ctx.npoints))
    b = wn.at(pts, 1)
    scale = 1.0 + np.abs(b).max(axis=(-4, -3, -2, -1), keepdims=True)
    for _ in range(20):
        r = [domain_poly_field(rng, ctx.metric, 2, 0.5) for _ in range(ctx.metric.n)]
        gam1 = cartan.h_field(ctx.metric, r=r)
        dressed = dressing.dressing_chain(cartan.transform_connection(wn, gam1))["w1"]
        tr.add(pts, np.abs(dressed.at(pts, 1) - b) / scale)
    return tr


def calibrate_loop(metric, z_field, points, rng):
    """`tractor.calibrate_convention_map` with each candidate applied and tested on
    its own, in `ALL_CANDIDATES` order."""
    n = metric.n
    z_f = ScalarField.coerce(z_field)
    rescaled = metric.rescale(z_f)
    cbar = dressing.weyl_cocycle(metric, z_f, "Cbar")
    gt = tractor.weyl_matrix_field(metric, z_f)
    a0 = jets.algebra(n, 0)
    x = np.asarray(points, dtype=float)
    geom = Geometry(metric, x)
    g, ginv = geom.g(0)[:, None], geom.ginv(0)[:, None]
    g_hat = rescaled.g(x, 0)[:, None]
    ginv_hat = a0.inv_matrix(g_hat)
    cbar_inv = a0.inv_matrix(cbar.at(x, 0))[:, None]
    u = gt.at(x, 0)[:, None]
    phi = a0.const(rng.normal(size=(len(x), 4, n + 2)))
    phi_z = matvec(a0, cbar_inv, phi)

    survivors = []
    for cand in tractor.ALL_CANDIDATES:
        lhs = cand.apply(a0, phi_z, g_hat, ginv_hat)
        rhs = matvec(a0, u, cand.apply(a0, phi, g, ginv))
        scale = 1.0 + np.abs(rhs).max(axis=(-2, -1))
        if np.all(np.abs(lhs - rhs).max(axis=(-2, -1)) <= 1e-8 * scale):
            survivors.append(cand)
    if not survivors:
        raise tractor.CalibrationError(
            "no convention map matches both Weyl laws; upstream convention bug")
    if len(survivors) > 1:
        raise tractor.CalibrationError(
            f"{len(survivors)} convention maps survive (degenerate sample; use a non-constant "
            f"rescaling): {survivors}"
        )
    return survivors[0]


def partial(alg, a, alpha):
    """Raw partial derivative d^alpha f (alpha! times the coefficient) of a jet of
    the algebra `alg`."""
    alpha = tuple(int(x) for x in alpha)
    if len(alpha) != alg.n:
        raise JetError(f"multi-index length {len(alpha)} != dimension {alg.n}")
    if sum(alpha) > alg.order:
        raise JetError(f"|alpha|={sum(alpha)} exceeds stored order {alg.order}")
    fac = 1.0
    for x in alpha:
        fac *= math.factorial(x)
    return np.asarray(a)[..., alg.index_of[alpha]] * fac


def coord(alg, i, point):
    """Jet of the coordinate function x^i at the given point, in the algebra `alg`."""
    if not 0 <= i < alg.n:
        raise JetError(f"coordinate index {i} out of range for dimension {alg.n}")
    out = alg.zeros()
    out[0] = point[i]
    if alg.order >= 1:
        unit = tuple(1 if k == i else 0 for k in range(alg.n))
        out[alg.index_of[unit]] = 1.0
    return out
