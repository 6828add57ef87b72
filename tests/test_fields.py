"""Random polynomial fields and their composition on coefficient arrays."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tractorlab import expr, fields, jets

EPS = np.finfo(float).eps


def _assert_close(got, want):
    """Normwise: the largest error is at most 1e3 eps of the largest coefficient."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e3 * EPS * max(1.0, np.abs(want).max())


# -- reference: the random polynomial as an expression tree ---------------------


def _normalized_coord(domain, i):
    """(x_i - center_i) / halfwidth_i as an expression tree."""
    lo, hi = domain[i]
    center, width = (lo + hi) / 2.0, (hi - lo) / 2.0
    shifted = expr.BinOp("-", expr.coord(i), expr.const(center)) if center else expr.coord(i)
    return expr.BinOp("/", shifted, expr.const(width)) if width != 1.0 else shifted


def _domain_poly_tree(coeffs, domain):
    """sum_alpha c_alpha prod_i ((x_i - center_i) / halfwidth_i)^alpha_i as a tree."""
    terms = []
    for alpha, c in sorted(coeffs.items()):
        factors = [expr.const(c)]
        for i, a in enumerate(alpha):
            if a == 1:
                factors.append(_normalized_coord(domain, i))
            elif a > 1:
                factors.append(expr.Pow(_normalized_coord(domain, i), a))
        terms.append(expr.mul(*factors) if len(factors) > 1 else factors[0])
    return expr.add(*terms)


@st.composite
def _boxes(draw):
    """A chart box in 2-4 dimensions; centers 0 and half-widths 1 take the short tree forms.

    Expanded in x, ((x - center) / width)^2 cancels terms of size
    (|center| / width)^2, so boxes stay within the catalog's proportions
    (Schwarzschild's is 5 half-widths off the origin) for a bound in eps.
    """
    n = draw(st.integers(2, 4))
    centers = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    widths = st.one_of(st.just(1.0), st.floats(0.5, 3.0))
    box = [(c - w, c + w) for c, w in ((draw(centers), draw(widths)) for _ in range(n))]
    return SimpleNamespace(n=n, domain=box)


def _points(metric, seed, count):
    lo, hi = np.array(metric.domain).T
    return np.random.default_rng(seed).uniform(lo, hi, (count, metric.n))


def _tree_of_draw(seed, metric, degree, scale):
    """The tree of the polynomial `domain_poly_field` draws from the same seed."""
    coeffs = fields.random_polynomial(np.random.default_rng(seed), metric.n, degree, scale)
    return _domain_poly_tree(coeffs, metric.domain)


@given(_boxes(), st.integers(1, 2), st.floats(0.1, 1.0), st.integers(0, 3),
       st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_domain_poly_field_matches_its_expression_tree(metric, degree, scale, order, seed):
    field = fields.domain_poly_field(np.random.default_rng(seed), metric, degree, scale)
    program = expr.Program([_tree_of_draw(seed, metric, degree, scale)], metric.n)
    for point in _points(metric, seed, 3):
        _assert_close(field.coeffs(point, order), program(point, order)[0])


@given(_boxes(), st.integers(0, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_exp_and_products_match_their_expression_trees(metric, order, seed):
    z1 = fields.domain_z_field(np.random.default_rng(seed), metric, 0.25)
    z2 = fields.domain_z_field(np.random.default_rng(seed + 1), metric, 0.25)
    sigma = fields.domain_poly_field(np.random.default_rng(seed + 2), metric, 2, 1.0)
    t1, t2 = (expr.Call("exp", _tree_of_draw(s, metric, 2, 0.25)) for s in (seed, seed + 1))
    t_sigma = _tree_of_draw(seed + 2, metric, 2, 1.0)
    cases = [(z1, t1), (z1 * z2, expr.BinOp("*", t1, t2)), (z1 * sigma, expr.BinOp("*", t1, t_sigma))]
    program = expr.Program([tree for _, tree in cases], metric.n)
    for point in _points(metric, seed, 3):
        want = program(point, order)
        for k, (field, _) in enumerate(cases):
            _assert_close(field.coeffs(point, order), want[k])


def test_random_poly_field_is_its_polynomial():
    for n, degree, order in ((4, 2, 3), (3, 3, 2), (5, 1, 1)):
        field = fields.random_poly_field(np.random.default_rng(n), n, degree)
        coeffs = fields.random_polynomial(np.random.default_rng(n), n, degree)
        direct = expr.PolynomialEvaluator([coeffs], n)
        for point in np.random.default_rng(0).uniform(-1.0, 1.0, (3, n)):
            want = direct.coeffs_at(point, jets.algebra(n, order))[0]
            assert np.array_equal(field.coeffs(point, order), want)
        assert field.description == f"poly(n={n}, degree={degree})"


def test_a_batch_of_points_equals_the_points_stacked():
    metric = SimpleNamespace(n=4, domain=[(-1.0, 2.0), (0.5, 1.5), (-3.0, -1.0), (-1.0, 1.0)])
    rng = np.random.default_rng(5)
    z, sigma = fields.domain_z_field(rng, metric), fields.domain_poly_field(rng, metric)
    points = _points(metric, 7, 7)
    for field in (z, sigma, z * sigma, fields.random_poly_field(rng, 4, 2)):
        for order in range(4):
            batch = field.coeffs(points, order)
            assert batch.shape == (7, jets.algebra(4, order).ncoef)
            for got, point in zip(batch, points):
                _assert_close(got, field.coeffs(point, order))
