"""Finite-difference oracles, independent of the jet engine.

Central differences with one Richardson extrapolation step; used by the test
suites to cross-check first derivatives of anything evaluable as a plain
function of the chart point (..., n).
"""

from __future__ import annotations

import numpy as np


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
