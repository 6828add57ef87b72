"""Finite-difference oracles, independent of the jet engine.

Central differences with one Richardson extrapolation step; used by the test
suites to cross-check first and second derivatives of anything evaluable as a
plain function of the chart point (..., n).
"""

from __future__ import annotations

import numpy as np


def _shift(x, i, h):
    y = np.array(x, dtype=float)
    y[..., i] += h
    return y


def fd_grad(f, x, h=1e-5):
    """Richardson-extrapolated central differences d f / d x_mu for every mu; the
    new axis mu comes after the batch axes of x.

    Each of the four shifts evaluates `f` once, on the (n, ..., n) stencil that
    shifts the points along every direction."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    shifts = np.eye(n).reshape((n,) + (1,) * (x.ndim - 1) + (n,))

    def central(step):
        return (np.asarray(f(x + step * shifts)) - np.asarray(f(x - step * shifts))) / (2 * step)

    return np.moveaxis((4.0 * central(h / 2) - central(h)) / 3.0, 0, x.ndim - 1)


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
            return (np.asarray(f(xpp)) - np.asarray(f(xpm)) - np.asarray(f(xmp)) + np.asarray(f(xmm))) / (
                4.0 * step**2
            )

    return (4.0 * central(h / 2) - central(h)) / 3.0
