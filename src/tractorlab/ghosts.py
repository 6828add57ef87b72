"""Minimal Grassmann (ghost) arithmetic over jet-valued matrix forms.

A GradedValue is a sum over anticommuting generator monomials theta_T of
matrix-valued p-form coefficients:  X = sum_T theta_T X_T, with theta's kept
to the LEFT of the form basis (this ordering is what makes the transformation
rules linearize the finite gauge tables componentwise).  Coefficients are jet
arrays of shape batch + (n,)*p + (rows, cols, NC): any batch axes of points
lead, then the p form axes, then a matrix.

Products carry two signs: the shuffle sign merging the generator tuples, and
(-1)^(p_A * |S|) from moving the right factor's generators through the left
factor's form indices.  d anticommutes past generators: d(theta_T X) =
(-1)^|T| theta_T dX.
"""

from __future__ import annotations

import numpy as np

from . import jets


def merge_sign(t, s):
    """Shuffle sign of concatenating disjoint sorted tuples t, s (0 if overlap)."""
    if set(t) & set(s):
        return 0, ()
    sign = 1
    for x in s:
        sign *= (-1) ** sum(1 for y in t if y > x)
    return sign, tuple(sorted(t + s))


class GradedValue:
    """`batch` is the shape of the batch axes; it is read off the components, and
    a value with no components (such as v^3 of a ghost with two generators) keeps
    the batch it was computed on."""

    def __init__(self, n, form_degree, order, components=None, batch=None):
        self.n = n
        self.p = form_degree
        self.order = order
        self.components = dict(components or {})
        if batch is None:
            batch = np.broadcast_shapes(*(a.shape[:a.ndim - 3 - form_degree]
                                          for a in self.components.values()))
        self.batch = tuple(batch)

    @property
    def alg(self):
        return jets.algebra(self.n, self.order)

    def ghost_degrees(self):
        return sorted({len(t) for t in self.components})

    def degree(self):
        degs = self.ghost_degrees()
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous ghost degrees {degs}")
        return self.p + (degs[0] if degs else 0)

    def __add__(self, other):
        assert (self.n, self.p, self.order) == (other.n, other.p, other.order)
        out = {t: a.copy() for t, a in self.components.items()}
        for t, a in other.components.items():
            out[t] = out[t] + a if t in out else a.copy()
        return GradedValue(self.n, self.p, self.order, out,
                           np.broadcast_shapes(self.batch, other.batch))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return GradedValue(
            self.n, self.p, self.order, {t: scalar * a for t, a in self.components.items()},
            self.batch)

    def __neg__(self):
        return (-1.0) * self

    def truncate(self, order):
        alg = self.alg
        return GradedValue(
            self.n, self.p, order, {t: alg.truncate(a, order) for t, a in self.components.items()},
            self.batch)

    def d(self):
        """Exterior derivative: adds a form axis right after the batch axes, drops
        one jet order."""
        alg = self.alg
        out = {}
        for t, a in self.components.items():
            da = alg.grad(a, self.p + 2)
            out[t] = ((-1) ** len(t)) * da
        return GradedValue(self.n, self.p + 1, self.order - 1, out, self.batch)

    def matmul(self, other):
        """Graded matrix product; at most one factor may carry form degree."""
        if self.p and other.p:
            raise ValueError("product of two form-valued graded objects is not needed/supported")
        alg = jets.algebra(self.n, min(self.order, other.order))
        a_trunc = self.truncate(alg.order)
        b_trunc = other.truncate(alg.order)
        out = {}
        for t, a in a_trunc.components.items():
            for s, b in b_trunc.components.items():
                sign, merged = merge_sign(t, s)
                if sign == 0:
                    continue
                sign *= (-1) ** (self.p * len(s))
                prod = alg.matmul(_form_axes(a, other.p), _form_axes(b, self.p))
                out[merged] = out.get(merged, 0) + sign * prod
        return GradedValue(self.n, self.p + other.p, alg.order, out,
                           np.broadcast_shapes(self.batch, other.batch))

    def bracket(self, other):
        """Bigraded commutator [A, B] = AB - (-1)^(deg A deg B) BA."""
        sign = (-1) ** (self.degree() * other.degree())
        return self.matmul(other) - float(sign) * other.matmul(self)

    def max_abs(self):
        """Largest coefficient magnitude at each point of the batch (0 for a value
        with no components)."""
        if not self.components:
            return np.zeros(self.batch)
        axes = tuple(range(-3 - self.p, 0))  # form axes, matrix and jet coefficients
        return np.max([np.abs(a).max(axis=axes) for a in self.components.values()], axis=0)

    def component(self, t):
        return self.components.get(tuple(t))

    def __repr__(self):
        degs = {t: a.shape for t, a in self.components.items()}
        return f"GradedValue(p={self.p}, order={self.order}, parts={degs})"


def _form_axes(a, p):
    """Insert p unit form axes between the batch axes and the matrix of `a`."""
    return a.reshape(a.shape[:-3] + (1,) * p + a.shape[-3:])


def even(n, order, array, form_degree=0):
    """Wrap a plain jet array as a ghost-degree-0 GradedValue."""
    return GradedValue(n, form_degree, order, {(): np.asarray(array, dtype=float)})


def odd(n, order, parts):
    """Wrap per-generator jet arrays {gen_id: array} as a ghost-degree-1 0-form."""
    return GradedValue(n, 0, order, {(k,): np.asarray(a, dtype=float) for k, a in parts.items()})
