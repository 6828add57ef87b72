"""Scalar/vector fields on a chart.  Every field and helper here evaluates
through jets at a point (n,) or a batch of points (..., n), with the batch
axes in front of every result, behind the draw axes of stacked draws.

A scalar field is a rule (point, order) -> jet coefficients, and it comes
from one of two places.  An expression (a metric's conformal factor, a spec
file, a rescaling written as text) compiles once per dimension into an
`expr.Program`.  Random polynomials (the gauge parameters the suites draw)
are coefficient dicts and go straight to an `expr.PolynomialEvaluator`, one
per drawn row (`domain_poly_rows`), whose draw axes come before the point
axes; evaluators of polynomials with the same exponents share the structure
of their weight tables, so a new random field costs a few numpy calls.  A
random polynomial on a chart box is evaluated at the box-normalized point
(x - center) / halfwidth and its coefficients rescaled by the chain rule.
Fields compose on their coefficient arrays: a product is the jet product of
the two factors, and a positive rescaling is the jet `exp` of a polynomial.
A `JetField` and a `cartan.ConnectionField` memoise their jets for the latest
batch of points (`BatchMemo`), so their results are read-only.
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

    def __init__(self, fn):
        self._fn = fn

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

        return cls(fn)

    @classmethod
    def from_polynomial(cls, coeffs, n):
        """Field of the polynomial sum_alpha c_alpha x^alpha, given as {alpha: c}, in n variables."""
        poly = expr.PolynomialEvaluator([coeffs], n)
        return cls(lambda p, k: poly.coeffs_at(p, jets.algebra(n, k))[..., 0, :])

    @classmethod
    def coerce(cls, source):
        """`source` itself if it is a field, else the field of its expression."""
        return source if isinstance(source, cls) else cls.from_expression(source)

    @classmethod
    def constant(cls, c):
        return cls(lambda p, k: jets.algebra(np.shape(p)[-1], k).const(
            np.full(np.shape(p)[:-1], float(c))))

    def __mul__(self, other):
        """Pointwise product: the jet product of the two factors' coefficients."""

        def fn(p, k):
            return jets.algebra(np.shape(p)[-1], k).mul(self._fn(p, k), other._fn(p, k))

        return ScalarField(fn)


class RowField:
    """Row of m scalar fields evaluated as one stacked (..., m, NC) jet array; a row
    of stacked draws carries its draw axes in front of the point axes."""

    def __init__(self, fn):
        self._fn = fn

    @classmethod
    def coerce(cls, source):
        """`source` itself if it is a row field, else the row of its components."""
        if isinstance(source, cls):
            return source
        components = [ScalarField.coerce(c) for c in source]
        return cls(lambda p, k: np.stack([c.coeffs(p, k) for c in components], axis=-2))

    def coeffs(self, point, order) -> np.ndarray:
        return self._fn(point, order)


def per_order(memo, n, order, build):
    """The memo rule of every lazily built jet, `memo` mapping order -> jet: a read
    at order k truncates a memoised jet of order >= k, and otherwise builds the
    jet with `build(k)` in the order-k algebra and memoises it read-only."""
    have = min((k for k in memo if k >= order), default=None)
    if have is None:
        have = order
        memo[order] = build(order)
        memo[order].flags.writeable = False
    return jets.algebra(n, order).truncate(memo[have], order)


class BatchMemo:
    """The jets of fn(point, order) at its latest batch of points (keyed like a
    `geometry.Geometry`), by the rule of `per_order`: a check reads one field at
    several orders, and a dressing chain reads a first column at every order."""

    def __init__(self, n):
        self.n, self.key, self.jets = n, None, {}

    def read(self, fn, point, order):
        batch = np.asarray(point, dtype=float)
        if (batch.shape, batch.tobytes()) != self.key:
            self.key, self.jets = (batch.shape, batch.tobytes()), {}
        return per_order(self.jets, self.n, order, lambda k: fn(point, k))


class JetField:
    """Array-valued field on a chart: fn(point, order) -> (..., NC) jet array.

    `max_order` caps the evaluation order the field can honestly support
    (derivative extraction lowers it; gauge transforms consume one order for
    the d-gamma term).  `group_eta` marks values in the structure group H of
    that eta, which `cartan.inverse` inverts in closed form.
    """

    def __init__(self, fn, n, max_order=3, group_eta=None):
        self._fn = fn
        self.n = n
        self.max_order = max_order
        self.group_eta = group_eta
        self._memo = BatchMemo(n)

    def at(self, point, order):
        if order > self.max_order:
            raise jets.JetError(
                f"field {origin(self._fn)} supports jets to order {self.max_order}, "
                f"requested {order}"
            )
        return self._memo.read(self._fn, point, order)


def origin(fn):
    """A field's name in error messages: the module and qualified name of its
    evaluation function, which name the function that built the field."""
    return f"{fn.__module__}.{fn.__qualname__}"


def first_point(points, bad):
    """The first point of a batch (..., n) at which the mask `bad` (..., after any draw
    axes) holds for some draw, as floats."""
    points = np.asarray(points, dtype=float)
    bad = np.reshape(bad, (-1,) + points.shape[:-1]).any(axis=0)
    return tuple(float(x) for x in points[np.unravel_index(np.argmax(bad), bad.shape)])


def require_positive(values, points, error, what):
    """Raise `error` naming the first point of the batch `points` (..., n) at which
    `values` (..., after any draw axes) is not positive, and its first bad value."""
    bad = values <= 0
    if bad.any():
        per_point = np.moveaxis(np.reshape(values, (-1,) + np.shape(points)[:-1]), 0, -1)
        raise error(f"{what} must be positive, got {per_point[per_point <= 0][0]} "
                    f"at {first_point(points, bad)}")


def field_matmul(a: JetField, b: JetField, group_eta=None) -> JetField:
    """Pointwise jet matrix product a @ b of two matrix fields, marked `group_eta`."""

    def fn(point, order):
        alg = jets.algebra(a.n, order)
        return alg.matmul(a.at(point, order), b.at(point, order))

    return JetField(fn, a.n, max_order=min(a.max_order, b.max_order), group_eta=group_eta)


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


def random_poly_field(rng, n, degree) -> ScalarField:
    return ScalarField.from_polynomial(random_polynomial(rng, n, degree), n)


def domain_poly_rows(rng, metric, shape, degree, scale) -> RowField:
    """A block `shape` (..., m) of random polynomials in domain-normalized coordinates,
    O(scale) on the box: one uniform draw, the numbers of prod(shape) single draws in
    their order, and one evaluator, giving (*shape[:-1], *points, m, NC).

    f(x) = sum_alpha c_alpha y^alpha at the normalized point
    y = (x - center) / halfwidth.  The field takes the polynomials' jets at y and
    scales their coefficient beta by prod_i halfwidth_i^-beta_i (the chain rule).
    It never expands a polynomial in powers of x, which on a narrow box far
    from the origin would cancel terms of size (|center| / halfwidth)^degree.
    """
    n = metric.n
    lo, hi = np.array(metric.domain, dtype=float).T
    center, width = (lo + hi) / 2.0, (hi - lo) / 2.0
    exponents = _exponents(n, degree)
    c = rng.uniform(-scale, scale, size=shape + (len(exponents),))
    poly = expr.PolynomialEvaluator(
        [dict(zip(exponents, row)) for row in c.reshape(-1, len(exponents)).tolist()], n)
    chain, draws = {}, range(len(shape) - 1)

    def fn(x, k):
        alg = jets.algebra(n, k)
        if k not in chain:
            chain[k] = np.prod(width ** -np.array(alg.indices, dtype=float), axis=1)
        y = (np.asarray(x, dtype=float) - center) / width
        out = poly.coeffs_at(y, alg).reshape(y.shape[:-1] + shape + (alg.ncoef,))
        return np.moveaxis(out, [y.ndim - 1 + d for d in draws], list(draws)) * chain[k]

    return RowField(fn)


def domain_poly_field(rng, metric, degree=2, scale=0.4) -> ScalarField:
    """One random polynomial of `domain_poly_rows`: a row of one."""
    row = domain_poly_rows(rng, metric, (1,), degree, scale)
    return ScalarField(lambda x, k: row._fn(x, k)[..., 0, :])


def domain_z_field(rng, metric) -> ScalarField:
    """Positive rescaling field with O(1) log on the chart box: the exp of a random
    quadratic of scale 0.25."""
    p = domain_poly_field(rng, metric, 2, 0.25)
    return ScalarField(lambda x, k: jets.algebra(metric.n, k).exp(p._fn(x, k)))
