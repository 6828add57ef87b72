"""Truncated multivariate Taylor (jet) arithmetic.

A jet of order k in n variables stores the coefficients c_alpha = d^alpha f /
alpha! for all multi-indices |alpha| <= k, so arithmetic on jets propagates
exact partial derivatives up to order k.  Everything downstream (curvature
tensors, connections, gauge transforms) differentiates through this module.

Values are numpy arrays with a trailing coefficient axis of length
C(n+k, k); `JetAlgebra` owns the index tables and the multiply kernels, which
broadcast over every leading axis.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_ORDER = 3


def backend_name():
    return "numpy"


class JetError(ValueError):
    pass


class JetDomainError(JetError):
    """Function evaluated outside its domain (div by zero value, ln <= 0, ...)."""


def _multi_indices(n, order):
    """All multi-indices with |alpha| <= order, graded lexicographic.

    The order-k list is a prefix of the order-(k+1) list, so truncation is a
    slice of the coefficient axis.
    """
    out = []
    for total in range(order + 1):
        level = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                level.append(prefix + (remaining,))
                return
            for v in range(remaining, -1, -1):
                rec(prefix + (v,), remaining - v, slots - 1)

        rec((), total, n)
        level.sort(reverse=True)
        out.extend(level)
    return out


class JetAlgebra:
    """Index tables and kernels for jets of fixed dimension and order."""

    def __init__(self, n, order):
        if not 0 <= order <= MAX_ORDER:
            raise JetError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        if n < 1:
            raise JetError(f"dimension must be positive, got {n}")
        self.n = n
        self.order = order
        self.indices = _multi_indices(n, order)
        self.ncoef = len(self.indices)
        self.index_of = {a: i for i, a in enumerate(self.indices)}
        self._build_mul_table()
        self._build_diff_tables()

    def _build_mul_table(self):
        i_idx, j_idx, k_idx = [], [], []
        for i, a in enumerate(self.indices):
            for j, b in enumerate(self.indices):
                c = tuple(x + y for x, y in zip(a, b))
                k = self.index_of.get(c)
                if k is not None:
                    i_idx.append(i)
                    j_idx.append(j)
                    k_idx.append(k)
        self._i_idx = np.asarray(i_idx, dtype=np.intp)
        self._j_idx = np.asarray(j_idx, dtype=np.intp)
        scatter = np.zeros((len(k_idx), self.ncoef))
        scatter[np.arange(len(k_idx)), k_idx] = 1.0
        self._scatter = scatter

    def _build_diff_tables(self):
        # d/dx_mu maps an order-k jet onto order-(k-1): the coefficient at
        # beta picks up (beta_mu + 1) * c_{beta + e_mu}.  Row mu of the
        # (n, NC') tables gathers and scales d/dx_mu.
        if self.order == 0:
            return
        lower = _multi_indices(self.n, self.order - 1)
        self._diff_src = np.empty((self.n, len(lower)), dtype=np.intp)
        self._diff_fac = np.empty((self.n, len(lower)))
        for mu in range(self.n):
            for i, beta in enumerate(lower):
                shifted = tuple(b + (1 if k == mu else 0) for k, b in enumerate(beta))
                self._diff_src[mu, i] = self.index_of[shifted]
                self._diff_fac[mu, i] = beta[mu] + 1

    # -- constructors -------------------------------------------------------

    def zeros(self, shape=()):
        return np.zeros(tuple(shape) + (self.ncoef,))

    def const(self, value):
        value = np.asarray(value, dtype=float)
        out = self.zeros(value.shape)
        out[..., 0] = value
        return out

    def coord(self, i, point):
        """Jet of the coordinate function x^i at the given point."""
        if not 0 <= i < self.n:
            raise JetError(f"coordinate index {i} out of range for dimension {self.n}")
        out = self.zeros()
        out[0] = point[i]
        if self.order >= 1:
            unit = tuple(1 if k == i else 0 for k in range(self.n))
            out[self.index_of[unit]] = 1.0
        return out

    # -- ring operations ----------------------------------------------------

    def mul(self, a, b):
        """Truncated product; leading axes broadcast.

        Each of the M pairs (i, j) with alpha_i + alpha_j of order <= k
        contributes a_i * b_j to one target coefficient; the (M, NC) 0/1
        scatter matrix sums the products into place.
        """
        return (np.asarray(a)[..., self._i_idx] * np.asarray(b)[..., self._j_idx]) @ self._scatter

    def matmul(self, a, b):
        """Contract jet matrices over adjacent axes: (...,r,k,NC)@(...,k,c,NC).

        The M gathered pairs go in front of the matrix axes, so one batched
        `np.matmul` forms every pair's (r, c) product; the scatter then sums
        the pairs into their target coefficients.
        """
        a, b = np.asarray(a), np.asarray(b)
        if self.order == 0:
            return (a[..., 0] @ b[..., 0])[..., None]
        # swapaxes(-1, -2).swapaxes(-2, -3) is moveaxis(-1, -3) and back; the
        # same views at a tenth of moveaxis's bookkeeping
        prod = (a[..., self._i_idx].swapaxes(-1, -2).swapaxes(-2, -3)
                @ b[..., self._j_idx].swapaxes(-1, -2).swapaxes(-2, -3))
        return prod.swapaxes(-3, -2).swapaxes(-2, -1) @ self._scatter

    def powi(self, a, k):
        if k < 0:
            return self.powi(self.reciprocal(a), -k)
        base = np.asarray(a, dtype=float)
        out = None
        while k:
            if k & 1:
                out = base if out is None else self.mul(out, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        if out is None:
            return self.const(np.ones(base.shape[:-1]))
        return out.copy() if out is a else out

    def inv_matrix(self, a):
        """Inverse of a jet-valued matrix (..., m, m, NC) by Newton iteration.

        The value's inverse is exact to order 0, and a Newton step doubles
        the order to which the inverse is exact, so one step in the order-1
        algebra makes it exact to order 1 and a second step, in this algebra,
        exact to order 2 or 3.
        """
        a = np.asarray(a, dtype=float)
        m = a.shape[-2]
        x = np.linalg.inv(self.value(a))[..., None]
        for order in sorted({min(self.order, 1), self.order} - {0}):
            alg = algebra(self.n, order)
            xk = alg.zeros(x.shape[:-1])
            xk[..., : x.shape[-1]] = x
            x = alg.matmul(xk, 2.0 * alg.const(np.eye(m)) - alg.matmul(self.truncate(a, order), xk))
        return x

    # -- analytic functions via Taylor composition --------------------------

    def _compose(self, a, coeff_fn):
        """f(a) = sum_m c_m(a0) abar^m with abar the nilpotent part."""
        a = np.asarray(a, dtype=float)
        a0 = a[..., 0]
        abar = a.copy()
        abar[..., 0] = 0.0
        out = self.const(coeff_fn(0, a0))
        power = abar
        for m in range(1, self.order + 1):
            out += coeff_fn(m, a0)[..., None] * power
            if m < self.order:
                power = self.mul(power, abar)
        return out

    def reciprocal(self, a):
        a0 = np.asarray(a)[..., 0]
        if np.any(a0 == 0.0):
            raise JetDomainError(f"division by a jet with zero value (values {a0!r})")
        return self._compose(a, lambda m, x: (-1.0) ** m * x ** (-m - 1))

    def div(self, a, b):
        return self.mul(a, self.reciprocal(b))

    def exp(self, a):
        return self._compose(a, lambda m, x: np.exp(x) / math.factorial(m))

    def log(self, a):
        a0 = np.asarray(a)[..., 0]
        if np.any(a0 <= 0.0):
            raise JetDomainError(f"ln of a jet with non-positive value (values {a0!r})")

        def c(m, x):
            if m == 0:
                return np.log(x)
            return (-1.0) ** (m + 1) * x ** (-m) / m

        return self._compose(a, c)

    def sqrt(self, a):
        a0 = np.asarray(a)[..., 0]
        if np.any(a0 <= 0.0):
            raise JetDomainError(f"sqrt of a jet with non-positive value (values {a0!r})")

        def c(m, x):
            coef = 1.0
            for i in range(m):
                coef *= (0.5 - i)
            return coef / math.factorial(m) * x ** (0.5 - m)

        return self._compose(a, c)

    def sin(self, a):
        return self._compose(a, lambda m, x: np.sin(x + m * np.pi / 2) / math.factorial(m))

    def cos(self, a):
        return self._compose(a, lambda m, x: np.cos(x + m * np.pi / 2) / math.factorial(m))

    # -- structure ----------------------------------------------------------

    def value(self, a):
        return np.asarray(a)[..., 0]

    def truncate(self, a, order):
        """View of the jet truncated to a lower order."""
        if order > self.order:
            raise JetError(f"cannot raise truncation order {self.order} -> {order}")
        return np.asarray(a)[..., : algebra(self.n, order).ncoef]

    def grad(self, a, valence):
        """All first derivatives d/dx_mu of a jet tensor with `valence` index axes
        behind any batch axes: (..., *idx, NC) -> (..., n, *idx, NC'), the new
        axis mu right after the batch axes."""
        if self.order == 0:
            raise JetError("cannot differentiate an order-0 jet")
        out = np.asarray(a)[..., self._diff_src]
        out *= self._diff_fac  # in place: one temporary fewer at the peak
        return np.ascontiguousarray(np.moveaxis(out, -2, -2 - valence))


@lru_cache(maxsize=None)
def algebra(n, order):
    return JetAlgebra(n, order)
