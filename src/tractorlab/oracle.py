"""Finite-difference oracles, independent of the jet engine.

Central differences with one Richardson extrapolation step; used by the test
suites to cross-check first and second derivatives of anything evaluable as a
plain function of the chart point.  A batch of points (..., n) is shifted
point by point along the same coordinate.
"""

from __future__ import annotations

import numpy as np


def _shift(x, i, h):
    y = np.array(x, dtype=float)
    y[..., i] += h
    return y


def fd_first(f, x, i, h=1e-5):
    """Richardson-extrapolated central difference d f / d x_i."""

    def central(step):
        return (np.asarray(f(_shift(x, i, step))) - np.asarray(f(_shift(x, i, -step)))) / (2 * step)

    return (4.0 * central(h / 2) - central(h)) / 3.0


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
