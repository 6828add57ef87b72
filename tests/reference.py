"""Reference implementations that only the tests compare against: a second-order
finite-difference oracle, the graded split of the Cartan algebra, the factored
group inverse, and raw partial derivatives of a jet."""

import math

import numpy as np

from tractorlab import cartan
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
