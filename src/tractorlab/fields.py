"""Scalar/vector fields on a chart.  Every field and helper here evaluates
through jets at a point (n,) or a batch of points (..., n), with the batch
axes in front of every result.

A scalar field is a rule (point, order) -> jet coefficients, and it comes
from one of two places.  An expression (a metric's conformal factor, a spec
file, a rescaling written as text) compiles once per dimension into an
`expr.Program`.  A random polynomial (the gauge parameters the suites draw)
is a coefficient dict and goes straight to an `expr.PolynomialEvaluator`;
evaluators of polynomials with the same exponents share the structure of
their weight tables, so a new random field costs a few numpy calls.  A
random polynomial on a chart box is evaluated at the box-normalized point
(x - center) / halfwidth and its coefficients rescaled by the chain rule.
Fields compose on their coefficient arrays: a product is the jet product of
the two factors, and a positive rescaling is the jet `exp` of a polynomial.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import expr, jets


class ScalarField:
    """Evaluation rule (point, order) -> jet coefficients.

    Evaluations at the same point with orders k < k' agree on the shared
    coefficients (they come from the same truncated Taylor expansion).
    """

    def __init__(self, fn, description=""):
        self._fn = fn
        self.description = description

    def jet(self, point, order) -> np.ndarray:
        """Same as `coeffs`; kept because the traced benchmark patches it by name,
        until ROADMAP item 3(a)'s benchmark change lets it go."""
        return self._fn(point, order)

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
    def from_polynomial(cls, coeffs, n):
        """Field of the polynomial sum_alpha c_alpha x^alpha, given as {alpha: c}, in n variables."""
        poly = expr.PolynomialEvaluator([coeffs], n)
        return cls(lambda p, k: poly.coeffs_at(p, jets.algebra(n, k))[..., 0, :],
                   f"poly(n={n}, degree={poly.degree})")

    @classmethod
    def coerce(cls, source):
        """`source` itself if it is a field, else the field of its expression."""
        return source if isinstance(source, cls) else cls.from_expression(source)

    @classmethod
    def constant(cls, c):
        return cls(lambda p, k: jets.algebra(np.shape(p)[-1], k).const(
            np.full(np.shape(p)[:-1], float(c))), str(c))

    def __mul__(self, other):
        """Pointwise product: the jet product of the two factors' coefficients."""

        def fn(p, k):
            return jets.algebra(np.shape(p)[-1], k).mul(self._fn(p, k), other._fn(p, k))

        return ScalarField(fn, f"{self.description} * {other.description}")

    def __repr__(self):
        return f"ScalarField({self.description})"


class RowField:
    """Tuple of scalar fields evaluated as a stacked (..., m, NC) jet array."""

    def __init__(self, components):
        self.components = [ScalarField.coerce(c) for c in components]

    @classmethod
    def coerce(cls, source):
        """`source` itself if it is a row field, else the row of its components."""
        return source if isinstance(source, cls) else cls(source)

    def coeffs(self, point, order) -> np.ndarray:
        return np.stack([c.coeffs(point, order) for c in self.components], axis=-2)

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
        return self._fn(point, order)

    def __repr__(self):
        return f"JetField({self.label}, n={self.n}, max_order={self.max_order})"


def first_point(points, bad):
    """The first point of a batch (..., n) at which the mask `bad` (...) holds, as floats."""
    at = np.asarray(points, dtype=float)[np.unravel_index(np.argmax(bad), np.shape(bad))]
    return tuple(float(x) for x in at)


def require_positive(values, points, error, what):
    """Raise `error` naming the first point of the batch `points` (..., n) at which
    `values` (...) is not positive."""
    bad = values <= 0
    if bad.any():
        raise error(f"{what} must be positive, got {values[bad][0]} at {first_point(points, bad)}")


def field_matmul(a: JetField, b: JetField, label="") -> JetField:
    """Pointwise jet matrix product a @ b of two matrix fields."""

    def fn(point, order):
        alg = jets.algebra(a.n, order)
        return alg.matmul(a.at(point, order), b.at(point, order))

    return JetField(fn, a.n, max_order=min(a.max_order, b.max_order), label=label or "a@b")


@lru_cache(maxsize=None)
def _exponents(n, degree):
    """The multi-indices |alpha| <= degree in n variables, in the jets' order.

    Not `jets.algebra(n, degree).indices`: a jet algebra stops at order 3, and
    a random polynomial may have a higher degree.
    """
    return tuple(jets._multi_indices(n, degree))


def random_polynomial(rng, n, degree=3, scale=1.0):
    """Coefficient dict of a dense random polynomial, coefficients in [-scale, scale].

    The coefficients are one draw of uniform numbers, in the order of the jets'
    multi-indices.
    """
    exponents = _exponents(n, degree)
    return dict(zip(exponents, rng.uniform(-scale, scale, size=len(exponents)).tolist()))


def random_poly_field(rng, n, degree=3, scale=1.0) -> ScalarField:
    return ScalarField.from_polynomial(random_polynomial(rng, n, degree, scale), n)


def domain_poly_field(rng, metric, degree=2, scale=0.4) -> ScalarField:
    """Random polynomial in domain-normalized coordinates: O(scale) on the box.

    f(x) = sum_alpha c_alpha y^alpha at the normalized point
    y = (x - center) / halfwidth.  The field takes the polynomial's jet at y and
    scales its coefficient beta by prod_i halfwidth_i^-beta_i (the chain rule).
    It never expands the polynomial in powers of x, which on a narrow box far
    from the origin would cancel terms of size (|center| / halfwidth)^degree.
    """
    n = metric.n
    lo, hi = np.array(metric.domain, dtype=float).T
    center, width = (lo + hi) / 2.0, (hi - lo) / 2.0
    poly = expr.PolynomialEvaluator([random_polynomial(rng, n, degree, scale)], n)
    chain = {}

    def fn(x, k):
        alg = jets.algebra(n, k)
        if k not in chain:
            chain[k] = np.prod(width ** -np.array(alg.indices, dtype=float), axis=1)
        y = (np.asarray(x, dtype=float) - center) / width
        return poly.coeffs_at(y, alg)[..., 0, :] * chain[k]

    return ScalarField(fn, f"poly(n={n}, degree={poly.degree})")


def domain_z_field(rng, metric, scale=0.25) -> ScalarField:
    """Positive rescaling field with O(1) log on the chart box."""
    p = domain_poly_field(rng, metric, 2, scale)
    return ScalarField(lambda x, k: jets.algebra(metric.n, k).exp(p._fn(x, k)),
                       f"exp({p.description})")
