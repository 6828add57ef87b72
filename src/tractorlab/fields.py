"""Scalar/vector fields on a chart, evaluated through jets."""

from __future__ import annotations

import numpy as np

from . import expr, jets
from .jets import Jet


class ScalarField:
    """Evaluation rule (point, order) -> jet coefficients.

    Evaluations at the same point with orders k < k' agree on the shared
    coefficients (they come from the same truncated Taylor expansion).
    """

    def __init__(self, fn, description=""):
        self._fn = fn
        self.description = description

    def jet(self, point, order) -> Jet:
        return Jet(jets.algebra(len(point), order), self._fn(point, order))

    def coeffs(self, point, order) -> np.ndarray:
        return self._fn(point, order)

    @classmethod
    def from_expression(cls, source):
        """Field of an expression, compiled once for each dimension it is evaluated in."""
        ast = expr.parse(source) if isinstance(source, str) else source
        programs = {}

        def fn(p, k):
            n = np.shape(p)[-1]
            program = programs.get(n)
            if program is None:
                program = programs[n] = expr.Program([ast], n)
            return program(p, k)[..., 0, :]

        return cls(fn, expr.to_string(ast))

    @classmethod
    def coerce(cls, source):
        """`source` itself if it is a field, else the field of its expression."""
        return source if isinstance(source, cls) else cls.from_expression(source)

    @classmethod
    def constant(cls, c):
        return cls(lambda p, k: jets.algebra(len(p), k).const(float(c)), str(c))

    def __repr__(self):
        return f"ScalarField({self.description})"


class RowField:
    """Tuple of scalar fields evaluated as a stacked (m, NC) jet array."""

    def __init__(self, components):
        self.components = [ScalarField.coerce(c) for c in components]

    @classmethod
    def coerce(cls, source):
        """`source` itself if it is a row field, else the row of its components."""
        return source if isinstance(source, cls) else cls(source)

    def coeffs(self, point, order) -> np.ndarray:
        return np.stack([c.coeffs(point, order) for c in self.components])

    def __len__(self):
        return len(self.components)


class JetField:
    """Array-valued field on a chart: fn(point, order) -> (..., NC) jet array.

    `max_order` caps the evaluation order the field can honestly support
    (derivative extraction lowers it; gauge transforms consume one order for
    the d-gamma term).
    """

    def __init__(self, fn, n, max_order=3, label=""):
        self._fn = fn
        self.n = n
        self.max_order = max_order
        self.label = label

    def at(self, point, order):
        if order > self.max_order:
            raise jets.JetError(
                f"field {self.label or '<anon>'} supports jets to order {self.max_order}, "
                f"requested {order}"
            )
        return self._fn(tuple(point), order)

    def __repr__(self):
        return f"JetField({self.label}, n={self.n}, max_order={self.max_order})"


def field_matmul(a: JetField, b: JetField, label="") -> JetField:
    """Pointwise jet matrix product a @ b of two matrix fields."""

    def fn(point, order):
        alg = jets.algebra(a.n, order)
        return alg.matmul(a.at(point, order), b.at(point, order))

    return JetField(fn, a.n, max_order=min(a.max_order, b.max_order), label=label or "a@b")


def random_polynomial(rng, n, degree=3, scale=1.0):
    """Coefficient dict of a dense random polynomial, coefficients in [-scale, scale]."""
    coeffs = {}
    for alpha in jets._multi_indices(n, degree):
        coeffs[alpha] = float(rng.uniform(-scale, scale))
    return coeffs


def random_poly_field(rng, n, degree=3, scale=1.0) -> ScalarField:
    return ScalarField.from_expression(expr.polynomial(random_polynomial(rng, n, degree, scale)))


def positive_poly_field(rng, n, degree=2, scale=0.3) -> ScalarField:
    """exp of a random polynomial: a generic strictly positive rescaling field."""
    p = expr.polynomial(random_polynomial(rng, n, degree, scale))
    return ScalarField.from_expression(expr.Call("exp", p))


def _normalized_coord(metric, i):
    """(x_i - center_i) / halfwidth_i as an expression tree."""
    lo, hi = metric.domain[i]
    center, width = (lo + hi) / 2.0, (hi - lo) / 2.0
    shifted = expr.BinOp("-", expr.coord(i), expr.const(center)) if center else expr.coord(i)
    return expr.BinOp("/", shifted, expr.const(width)) if width != 1.0 else shifted


def domain_poly_field(rng, metric, degree=2, scale=0.4) -> ScalarField:
    """Random polynomial in domain-normalized coordinates: O(scale) on the box."""
    coeffs = random_polynomial(rng, metric.n, degree, scale)
    terms = []
    for alpha, c in sorted(coeffs.items()):
        factors = [expr.const(c)]
        for i, a in enumerate(alpha):
            if a == 1:
                factors.append(_normalized_coord(metric, i))
            elif a > 1:
                factors.append(expr.Pow(_normalized_coord(metric, i), a))
        terms.append(expr.mul(*factors) if len(factors) > 1 else factors[0])
    return ScalarField.from_expression(expr.add(*terms))


def domain_z_field(rng, metric, scale=0.3) -> ScalarField:
    """Positive rescaling field with O(1) log on the chart box."""
    p = domain_poly_field(rng, metric, 2, scale)
    return ScalarField.from_expression(expr.Call("exp", expr.parse(p.description)))
