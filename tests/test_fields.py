"""Random polynomial fields and their composition on coefficient arrays."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractorlab import cartan, expr, fields, jets, metrics

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
    z1 = fields.domain_z_field(np.random.default_rng(seed), metric)
    z2 = fields.domain_z_field(np.random.default_rng(seed + 1), metric)
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


# -- one draw of coefficients, one shared table structure ----------------------


def _random_polynomial_one_by_one(rng, n, degree, scale):
    """The draw as one `rng.uniform` call per coefficient, in the jets' index order."""
    return {alpha: float(rng.uniform(-scale, scale)) for alpha in jets._multi_indices(n, degree)}


def test_random_polynomial_draws_the_numbers_of_one_call_per_coefficient():
    for n, degree, scale in ((4, 2, 0.4), (3, 3, 1.0), (2, 1, 0.25), (5, 4, 0.05)):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        got = fields.random_polynomial(rng, n, degree, scale)
        want = _random_polynomial_one_by_one(ref, n, degree, scale)
        assert list(got.items()) == list(want.items())
        assert rng.uniform() == ref.uniform()


def _old_table(alphas, which, c, npoly, alg):
    """The weight table as each evaluator built it on its own: (gammas, W)."""
    betas = np.array(alg.indices, dtype=np.intp)
    t, b = np.nonzero(np.all(alphas[:, None, :] >= betas[None, :, :], axis=-1))
    gammas, row = np.unique(alphas[t] - betas[b], axis=0, return_inverse=True)
    degree = int(alphas.sum(axis=1).max(initial=0))
    comb = np.array([[math.comb(a, k) for k in range(alg.order + 1)]
                     for a in range(degree + 1)], dtype=float)
    weights = np.zeros((len(gammas), npoly * alg.ncoef))
    weights[row.reshape(-1), which[t] * alg.ncoef + b] = (
        c[t] * comb[alphas[t], betas[b]].prod(axis=1))
    return gammas, weights


def _assert_weights_are_the_old_ones(evaluator):
    for order in range(4):
        alg = jets.algebra(evaluator.n, order)
        gammas, weights = evaluator._table(alg)
        old_gammas, old_weights = _old_table(evaluator.alphas, evaluator.which, evaluator.c,
                                             evaluator.npoly, alg)
        assert np.array_equal(gammas, old_gammas)
        assert np.array_equal(weights, old_weights)


def test_weights_equal_the_per_evaluator_table():
    rng = np.random.default_rng(8)
    for n, degree in ((4, 2), (4, 1), (3, 3), (2, 2)):
        for _ in range(3):
            coeffs = fields.random_polynomial(rng, n, degree, 0.4)
            evaluator = expr.PolynomialEvaluator([coeffs], n)
            assert np.array_equal(evaluator.alphas, sorted(coeffs))
            assert np.array_equal(evaluator.c, [c for _, c in sorted(coeffs.items())])
            _assert_weights_are_the_old_ones(evaluator)
    sparse = {(0, 2): 1.5, (1, 0): -0.25, (0, 0): 0.0}  # a zero coefficient is no term
    evaluator = expr.PolynomialEvaluator([sparse, {}, {(3, 1): 2.0}], 2)
    assert np.array_equal(evaluator.which, [0, 0, 2])
    _assert_weights_are_the_old_ones(evaluator)
    program = _poly_metric_program(5)
    assert program._poly.npoly == 10
    _assert_weights_are_the_old_ones(program._poly)


def _poly_metric_program(seed):
    """The components g_ij, i <= j, of `metrics.poly_perturbation(seed=seed)` as
    expression trees of the same draws, compiled into one program."""
    rng, n, box = np.random.default_rng(seed), 4, [(-1.0, 1.0)] * 4
    trees = []
    for i in range(n):
        for j in range(i, n):
            tree = _domain_poly_tree(fields.random_polynomial(rng, n, 3, 0.05), box)
            trees.append(expr.BinOp("+", expr.const(1.0), tree) if i == j else tree)
    return expr.Program(trees, n)


def test_the_poly_metric_is_the_program_of_its_polynomial_trees():
    metric = metrics.load_metric("poly_perturbation", seed=5)
    program = _poly_metric_program(5)
    rows, cols = np.triu_indices(4)
    points = _points(metric, 5, 3)
    for order in range(4):
        g, comps = metric.g(points, order), program(points, order)
        assert np.array_equal(g[:, rows, cols], comps)
        assert np.array_equal(g[:, cols, rows], comps)


def test_fields_of_one_support_share_one_structure():
    metric = SimpleNamespace(n=4, domain=[(-1.0, 2.0), (0.5, 1.5), (-3.0, -1.0), (-1.0, 1.0)])
    rng = np.random.default_rng(6)
    point = _points(metric, 1, 1)[0]
    expr._shift_structure.cache_clear()
    for _ in range(50):
        field = fields.domain_poly_field(rng, metric, 2, 0.4)
        for order in range(4):
            field.coeffs(point, order)
    info = expr._shift_structure.cache_info()
    assert (info.misses, info.hits) == (4, 196)


# -- stacked draws: one evaluator per row ---------------------------------------


@pytest.mark.parametrize("shape", [(4,), (20, 4), (2, 3, 5)])
@pytest.mark.parametrize("name", ["schwarzschild", "poly_perturbation"])
def test_a_stacked_draw_is_its_single_draws_in_order(name, shape):
    """`domain_poly_rows` leaves the rng where prod(shape) single `domain_poly_field`
    draws leave it, and its coefficients (*draws, *points, m, NC) are theirs, row
    by row in draw order, within 1e3 eps at orders 0-3, on a batch and at a point."""
    metric = metrics.load_metric(name)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    rows = fields.domain_poly_rows(rng, metric, shape, 2, 0.5)
    singles = [fields.domain_poly_field(ref, metric, 2, 0.5) for _ in range(math.prod(shape))]
    assert rng.uniform() == ref.uniform()
    points = metrics.sample_points(metric, 3, np.random.default_rng(0))
    for order in range(4):
        for at in (points, points[1]):
            each = np.stack([f.coeffs(at, order) for f in singles])
            want = each.reshape(shape[:-1] + (shape[-1],) + each.shape[1:])
            _assert_close(rows.coeffs(at, order), np.moveaxis(want, len(shape) - 1, -2))


def test_a_bad_member_of_a_stacked_draw_names_its_point():
    """With draw axes in front of the batch, the error names the first point that is
    bad for some draw, and a value that is bad there, on one line."""
    points = metrics.sample_points(metrics.load_metric("schwarzschild"), 3,
                                   np.random.default_rng(0)).tolist()
    values = np.ones((20, 3))
    values[7, 2], values[12, 1] = -0.5, -2.0
    assert fields.first_point(points, values <= 0) == tuple(points[1])
    with pytest.raises(ValueError) as err:
        fields.require_positive(values, points, ValueError, "Weyl factor")
    assert str(err.value) == f"Weyl factor must be positive, got -2.0 at {tuple(points[1])}"
    with pytest.raises(ValueError, match=r"got -0\.5 at \(") as err:
        fields.require_positive(values[7], points[2], ValueError, "Weyl factor")
    assert str(err.value).endswith(f"at {tuple(points[2])}")


# -- precision on a narrow box far from the origin -----------------------------


def _exact_taylor(coeffs, center, width, point, order):
    """Exact Taylor coefficients, in the jets' order, of
    sum_alpha c_alpha prod_i ((x_i - center_i) / width_i)^alpha_i at `point`, every
    float read as the rational number it is."""
    center, width, point = ([Fraction(float(v)) for v in a] for a in (center, width, point))
    y = [(p - c) / w for p, c, w in zip(point, center, width)]
    out = []
    for beta in jets.algebra(len(point), order).indices:
        total = Fraction(0)
        for alpha, c in coeffs.items():
            if all(a >= b for a, b in zip(alpha, beta)):
                term = Fraction(c)
                for a, b, yi, wi in zip(alpha, beta, y, width):
                    term *= math.comb(a, b) * yi ** (a - b) / wi ** b
                total += term
        out.append(total)
    return out


@pytest.mark.parametrize("domain, degree, order, seed, point", [
    ([(4.95, 5.05), (-1.0, 1.0)], 2, 2, 3, (5.02, 0.3)),
    ([(1.7, 1.8), (-30.2, -29.8), (-0.5, 0.5), (99.0, 99.5)], 3, 3, 4, (1.71, -30.0, 0.1, 99.4)),
])
def test_a_narrow_box_far_from_the_origin_keeps_its_digits(domain, degree, order, seed, point):
    """Each order block is within 16 eps of the block's largest exact coefficient."""
    metric = SimpleNamespace(n=len(domain), domain=domain)
    field = fields.domain_poly_field(np.random.default_rng(seed), metric, degree, 0.4)
    coeffs = fields.random_polynomial(np.random.default_rng(seed), metric.n, degree, 0.4)
    lo, hi = np.array(domain).T
    exact = _exact_taylor(coeffs, (lo + hi) / 2.0, (hi - lo) / 2.0, point, order)
    got = field.coeffs(np.array(point), order)
    alg = jets.algebra(metric.n, order)
    for k in range(order + 1):
        block = [i for i, beta in enumerate(alg.indices) if sum(beta) == k]
        scale = max(abs(exact[i]) for i in block)
        error = max(abs(Fraction(float(got[i])) - exact[i]) for i in block)
        assert error <= 16 * EPS * scale, (k, float(error), float(scale))


# -- the memo of a field's latest batch -----------------------------------------


def _counted_field(make, rng, n=3):
    """A field built by `make(fn)` over a random cubic, and the list of the orders
    its evaluation function was called at."""
    poly = fields.random_poly_field(rng, n, 3)
    calls = []

    def fn(point, order):
        calls.append(order)
        return poly.coeffs(point, order)

    return make(fn), calls


def _connection(read):
    """`make` for a `cartan.ConnectionField` whose `read` ("at" or "col0") evaluates fn."""

    def make(fn):
        conn = cartan.ConnectionField(fn, fn, 3, np.eye(3), max_order=3, col0_order=3)
        return getattr(conn, read)

    return make


@pytest.mark.parametrize("make", [
    lambda fn: fields.JetField(fn, 3).at, _connection("at"), _connection("col0"),
], ids=["JetField.at", "ConnectionField.at", "ConnectionField.col0"])
def test_a_field_memoises_its_latest_batch(make):
    """A second read of one batch does not evaluate again, a lower order is the
    truncation of the memoised jet, a higher order or a new batch evaluates, and
    every result is read-only."""
    rng = np.random.default_rng(2)
    read, calls = _counted_field(make, rng)
    pts = rng.uniform(-1, 1, size=(4, 3))
    alg2 = jets.algebra(3, 2)
    first = read(pts, 2)
    assert calls == [2] and not first.flags.writeable
    assert np.array_equal(read(pts.copy(), 2), first) and calls == [2]
    low = read(pts, 1)
    assert calls == [2] and np.array_equal(low, alg2.truncate(first, 1))
    assert not low.flags.writeable
    read(pts, 3)
    assert calls == [2, 3]
    read(pts[:2], 1)  # a new batch evaluates at the order it is read
    assert calls == [2, 3, 1]
    read(pts, 0)  # only the latest batch is memoised
    assert calls == [2, 3, 1, 0]
    read([tuple(p) for p in pts], 0)  # keyed by the batch's values, not by its type
    assert calls == [2, 3, 1, 0]
