"""Jet engine: lifts, arithmetic, derivative extraction, and the FD oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractorlab import jets, oracle
from reference import coord, fd_second, partial
from tractorlab.fields import random_polynomial


def test_lift_coordinate():
    alg = jets.algebra(2, 2)
    j = coord(alg, 0, (1.0, 2.0))
    assert alg.value(j) == 1.0
    assert partial(alg, j, (1, 0)) == 1.0
    assert partial(alg, j, (0, 1)) == 0.0
    assert partial(alg, j, (2, 0)) == 0.0


def test_lift_constant():
    j = jets.algebra(3, 3).const(5.0)
    assert j[0] == 5.0
    assert all(j[1:] == 0.0)


def test_lift_coordinate_order3():
    alg = jets.algebra(2, 3)
    j = coord(alg, 1, (0.0, -3.0))
    assert alg.value(j) == -3.0
    assert partial(alg, j, (0, 1)) == 1.0
    assert partial(alg, j, (1, 1)) == 0.0
    assert partial(alg, j, (0, 3)) == 0.0


def test_lift_errors():
    with pytest.raises(jets.JetError):
        coord(jets.algebra(2, 2), 2, (0.0, 0.0))  # index out of range
    with pytest.raises(jets.JetError):
        jets.algebra(2, 5)  # order out of range
    with pytest.raises(jets.JetError):
        jets.algebra(2, -1)


def test_square_of_coordinate():
    alg = jets.algebra(1, 2)
    x = coord(alg, 0, (3.0,))
    sq = alg.mul(x, x)
    assert alg.value(sq) == 9.0
    assert partial(alg, sq, (1,)) == 6.0
    assert sq[alg.index_of[(2,)]] == 1.0  # d^2/2!


def test_exp_series():
    alg = jets.algebra(1, 3)
    e = alg.exp(coord(alg, 0, (0.0,)))
    assert np.allclose(e, [1.0, 1.0, 0.5, 1.0 / 6.0])


def test_geometric_series():
    alg = jets.algebra(1, 2)
    j = alg.div(alg.const(1.0), alg.const(1.0) + coord(alg, 0, (0.0,)))
    assert np.allclose(j, [1.0, -1.0, 1.0])


def test_extract_partial_polynomial():
    alg = jets.algebra(2, 3)
    x0, x1 = coord(alg, 0, (1.0, 2.0)), coord(alg, 1, (1.0, 2.0))
    f = alg.mul(alg.mul(x0, x0), x1)
    assert partial(alg, f, (2, 0)) == pytest.approx(4.0, abs=1e-14)
    assert partial(alg, f, (1, 1)) == pytest.approx(2.0, abs=1e-14)


def test_extract_partial_constant_and_exp():
    alg = jets.algebra(1, 3)
    assert partial(alg, alg.const(7.0), (3,)) == 0.0
    e = alg.exp(coord(alg, 0, (0.0,)))
    assert partial(alg, e, (3,)) == pytest.approx(1.0)


def test_partial_order_error():
    alg = jets.algebra(1, 2)
    with pytest.raises(jets.JetError):
        partial(alg, coord(alg, 0, (0.5,)), (3,))


def test_domain_errors_carry_values():
    alg = jets.algebra(1, 2)
    with pytest.raises(jets.JetDomainError):
        alg.reciprocal(alg.const(0.0))
    neg = alg.const(-2.0)
    with pytest.raises(jets.JetDomainError) as err:
        alg.log(neg)
    assert "-2" in str(err.value)
    with pytest.raises(jets.JetDomainError):
        alg.sqrt(neg)


def _poly_value_and_partials(coeffs, x, order):
    """Independent oracle: differentiate the coefficient dict symbolically."""
    n = len(x)

    def diff(c, mu):
        out = {}
        for alpha, v in c.items():
            if alpha[mu]:
                beta = tuple(a - (1 if i == mu else 0) for i, a in enumerate(alpha))
                out[beta] = out.get(beta, 0.0) + v * alpha[mu]
        return out

    def value(c):
        return sum(v * np.prod([x[i] ** a for i, a in enumerate(alpha)]) for alpha, v in c.items())

    results = {}
    frontier = {(0,) * n: coeffs}
    for _ in range(order + 1):
        next_frontier = {}
        for alpha, c in frontier.items():
            results[alpha] = value(c)
            for mu in range(n):
                beta = tuple(a + (1 if i == mu else 0) for i, a in enumerate(alpha))
                if sum(beta) <= order and beta not in next_frontier:
                    next_frontier[beta] = diff(c, mu)
        frontier = next_frontier
    return results


def _eval_poly_jet(coeffs, x, order):
    n = len(x)
    alg = jets.algebra(n, order)
    acc = alg.zeros(())
    coords = [coord(alg, i, x) for i in range(n)]
    for alpha, c in coeffs.items():
        term = alg.const(c)
        for i, a in enumerate(alpha):
            for _ in range(a):
                term = alg.mul(term, coords[i])
        acc = acc + term
    return acc


def test_polynomial_partials_match_analytic_oracle():
    rng = np.random.default_rng(7)
    n = 3
    for _ in range(10):
        coeffs = random_polynomial(rng, n, 3)
        for _ in range(10):
            x = rng.uniform(-1, 1, n)
            jet = _eval_poly_jet(coeffs, x, 3)
            alg = jets.algebra(n, 3)
            expected = _poly_value_and_partials(coeffs, x, 3)
            for alpha, want in expected.items():
                got = partial(alg, jet, alpha)
                assert abs(got - want) <= 1e-13 * (1.0 + abs(want))


def test_smooth_composites_match_fd():
    rng = np.random.default_rng(11)
    n = 2
    for _ in range(12):
        coeffs = random_polynomial(rng, n, 2, 0.8)

        def f(x):
            return np.exp(np.sin(sum(v * np.prod(np.asarray(x) ** alpha, axis=-1)
                                     for alpha, v in coeffs.items())))

        x = rng.uniform(-0.8, 0.8, n)
        alg = jets.algebra(n, 2)
        inner = _eval_poly_jet(coeffs, x, 2)
        jet = alg.exp(alg.sin(inner))
        grad = oracle.fd_grad(f, x)
        for mu in range(n):
            fd = grad[mu]
            got = partial(alg, jet, tuple(1 if i == mu else 0 for i in range(n)))
            assert abs(got - fd) <= 1e-6 * (1.0 + abs(fd))
        for mu in range(n):
            for nu in range(mu, n):
                fd = fd_second(f, x, mu, nu)
                alpha = tuple((mu == i) + (nu == i) for i in range(n))
                got = partial(alg, jet, alpha)
                assert abs(got - fd) <= 1e-6 * (1.0 + abs(fd))


def test_order_monotonicity():
    rng = np.random.default_rng(3)
    coeffs = random_polynomial(rng, 2, 3)
    x = (0.3, -0.4)
    jets_by_order = [_eval_poly_jet(coeffs, x, k) for k in range(4)]
    for k in range(3):
        low, high = jets_by_order[k], jets_by_order[k + 1]
        assert np.array_equal(low, high[: len(low)])


def _deriv(alg, a, mu):
    """d/dx_mu one coefficient at a time, landing in the order-(k-1) algebra: the
    coefficient at beta is (beta_mu + 1) times the one at beta + e_mu."""
    lower = jets.algebra(alg.n, alg.order - 1)
    out = lower.zeros(np.shape(a)[:-1])
    for i, beta in enumerate(lower.indices):
        up = tuple(b + (k == mu) for k, b in enumerate(beta))
        out[..., i] = (beta[mu] + 1) * a[..., alg.index_of[up]]
    return out


@given(st.integers(0, 9), st.integers(0, 9))
@settings(max_examples=30, deadline=None)
def test_product_rule_exact(seed_a, seed_b):
    rng = np.random.default_rng([seed_a, seed_b])
    n = 2
    a = _eval_poly_jet(random_polynomial(rng, n, 2), (0.2, -0.5), 3)
    b = _eval_poly_jet(random_polynomial(rng, n, 2), (0.2, -0.5), 3)
    alg = jets.algebra(n, 3)
    alg2 = jets.algebra(n, 2)
    for mu in range(n):
        lhs = _deriv(alg, alg.mul(a, b), mu)
        rhs = alg2.mul(_deriv(alg, a, mu), alg.truncate(b, 2)) + alg2.mul(
            alg.truncate(a, 2), _deriv(alg, b, mu)
        )
        assert np.allclose(lhs, rhs, atol=1e-13)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("lead", [(), (3,), (2, 5)])
def test_grad_is_the_stacked_derivatives(order, lead):
    alg = jets.algebra(4, order)
    # a transposed draw: with leading axes, the coefficient axis is strided
    x = np.random.default_rng(order).normal(size=(alg.ncoef,) + lead[::-1]).T
    stacked = np.stack([_deriv(alg, x, mu) for mu in range(alg.n)])
    # every split of the leading axes into batch axes and `valence` index axes:
    # mu lands after the batch axes
    for valence in range(len(lead) + 1):
        for a in (x, np.ascontiguousarray(x)):
            grad = alg.grad(a, valence)
            assert grad.flags.c_contiguous
            assert np.array_equal(grad, np.moveaxis(stacked, 0, len(lead) - valence))


def test_grad_of_an_order_0_jet_raises():
    with pytest.raises(jets.JetError):
        jets.algebra(4, 0).grad(np.ones(1), 0)

# Kernel results against a reference that sums one pair of multi-indices at a
# time.  The kernel adds the same products in another order, so results agree
# to a few ulps of the coefficient sums, not bit for bit.
KERNEL_TOL = 1e3 * np.finfo(float).eps


def _ref_mul(alg, a, b):
    """Truncated product of two coefficient vectors by the multi-index definition."""
    out = np.zeros(alg.ncoef)
    for i, alpha in enumerate(alg.indices):
        for j, beta in enumerate(alg.indices):
            k = alg.index_of.get(tuple(x + y for x, y in zip(alpha, beta)))
            if k is not None:
                out[k] += a[i] * b[j]
    return out


def _ref_mul_nd(alg, a, b):
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape)
    for idx in np.ndindex(a.shape[:-1]):
        out[idx] = _ref_mul(alg, a[idx], b[idx])
    return out


def _assert_close(got, want):
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=KERNEL_TOL)


def _batches(cases):
    """Each case at batch 2 (id: the case) and at batch 20 (id: the case, then "batch20")."""
    return [pytest.param(*case, batch, id="-".join(map(str, case)) + suffix)
            for batch, suffix in ((2, ""), (20, "-batch20")) for case in cases]


@pytest.mark.parametrize("order, n, batch",
                         _batches([(order, n) for n in (3, 4, 5) for order in range(4)]))
def test_mul_matches_multi_index_reference(n, order, batch):
    rng = np.random.default_rng([n, order])
    alg = jets.algebra(n, order)
    a = rng.normal(size=(batch, alg.ncoef))
    b = rng.normal(size=(batch, alg.ncoef))
    _assert_close(alg.mul(a, b), _ref_mul_nd(alg, a, b))
    _assert_close(alg.mul(a[0], b[1]), _ref_mul(alg, a[0], b[1]))


@pytest.mark.parametrize("n", [3, 4])
def test_mul_broadcasts_leading_axes(n):
    rng = np.random.default_rng(n)
    alg = jets.algebra(n, 3)
    scalar = rng.normal(size=alg.ncoef)
    matrix = rng.normal(size=(n, n, alg.ncoef))
    _assert_close(alg.mul(scalar, matrix), _ref_mul_nd(alg, scalar, matrix))
    _assert_close(alg.mul(matrix, scalar), _ref_mul_nd(alg, matrix, scalar))
    col = rng.normal(size=(2, 1, alg.ncoef))
    row = rng.normal(size=(3, alg.ncoef))
    _assert_close(alg.mul(col, row), _ref_mul_nd(alg, col, row))


def test_products_accept_non_contiguous_views():
    rng = np.random.default_rng(17)
    n = 4
    alg3, alg2 = jets.algebra(n, 3), jets.algebra(n, 2)
    a3 = rng.normal(size=(n, n, alg3.ncoef))
    b3 = rng.normal(size=(n, n, alg3.ncoef))
    a2, b2 = alg3.truncate(a3, 2), alg3.truncate(b3, 2)
    assert not a2.flags.c_contiguous
    _assert_close(alg2.mul(a2, b2), _ref_mul_nd(alg2, a2, b2))
    _assert_close(alg2.matmul(a2, b2), alg2.matmul(a2.copy(), b2.copy()))
    at = a3.swapaxes(0, 1)
    assert not at.flags.c_contiguous
    _assert_close(alg3.mul(at, b3), _ref_mul_nd(alg3, at, b3))
    _assert_close(alg3.matmul(at, b3), alg3.matmul(np.ascontiguousarray(at), b3))


def _matmul_by_mul(alg, a, b):
    lead = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    a = np.broadcast_to(a, lead + a.shape[-3:])
    b = np.broadcast_to(b, lead + b.shape[-3:])
    r, kdim, c = a.shape[-3], a.shape[-2], b.shape[-2]
    out = np.zeros(lead + (r, c, alg.ncoef))
    for idx in np.ndindex(lead):
        for i in range(r):
            for j in range(c):
                for k in range(kdim):
                    out[idx + (i, j)] += alg.mul(a[idx + (i, k)], b[idx + (k, j)])
    return out


@pytest.mark.parametrize("order, batch", _batches([(order,) for order in range(4)]))
def test_matmul_matches_loop_of_mul(order, batch):
    rng = np.random.default_rng(order)
    alg = jets.algebra(3, order)
    a = rng.normal(size=(batch, 3, 4, 3, alg.ncoef))
    b = rng.normal(size=(batch, 3, 3, 2, alg.ncoef))
    _assert_close(alg.matmul(a, b), _matmul_by_mul(alg, a, b))
    # mismatched leading axes broadcast
    col = rng.normal(size=(2, 1, 4, 3, alg.ncoef))
    row = rng.normal(size=(3, 3, 2, alg.ncoef))
    _assert_close(alg.matmul(col, row), _matmul_by_mul(alg, col, row))


def _series(alg, a, coeffs):
    """sum_m coeffs[m] * abar^m with the powers built by repeated products."""
    abar = np.array(a, dtype=float)
    abar[..., 0] = 0.0
    power = alg.const(np.ones(a.shape[:-1]))
    out = np.zeros(a.shape)
    for c in coeffs:
        out += np.asarray(c)[..., None] * power
        power = _ref_mul_nd(alg, power, abar)
    return out


def test_compose_and_powi_match_repeated_products():
    rng = np.random.default_rng(23)
    alg = jets.algebra(3, 3)
    a = rng.normal(scale=0.3, size=(2, alg.ncoef))
    a[..., 0] = rng.uniform(0.5, 2.0, size=2)
    x = a[..., 0]
    m = range(alg.order + 1)
    fact = [math.factorial(k) for k in m]
    binom = [math.prod(0.5 - i for i in range(k)) / fact[k] for k in m]
    _assert_close(alg.exp(a), _series(alg, a, [np.exp(x) / fact[k] for k in m]))
    _assert_close(alg.log(a), _series(alg, a, [np.log(x)] + [
        (-1.0) ** (k + 1) * x ** -k / k for k in m[1:]]))
    _assert_close(alg.sqrt(a), _series(alg, a, [binom[k] * x ** (0.5 - k) for k in m]))
    recip = _series(alg, a, [(-1.0) ** k * x ** (-k - 1) for k in m])
    _assert_close(alg.reciprocal(a), recip)

    one = alg.const(np.ones(2))
    _assert_close(_ref_mul_nd(alg, a, recip), one)
    products = {0: one, 1: a, -2: _ref_mul_nd(alg, recip, recip)}
    products[2] = _ref_mul_nd(alg, a, a)
    products[3] = _ref_mul_nd(alg, products[2], a)
    products[4] = _ref_mul_nd(alg, products[3], a)
    for k, want in products.items():
        _assert_close(alg.powi(a, k), want)
    assert alg.powi(a, 1) is not a  # a fresh array, like every other power


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("batch", [(), (5,)])
@pytest.mark.parametrize("m", [4, 6])
def test_inv_matrix_is_an_inverse(order, batch, m):
    alg = jets.algebra(4, order)
    rng = np.random.default_rng([order, m, len(batch)])
    a = rng.normal(size=batch + (m, m, alg.ncoef))
    a[..., 0] += 2.0 * np.sqrt(m) * np.eye(m)
    x = alg.inv_matrix(a)
    assert x.shape == a.shape
    scale = np.linalg.norm(a) * np.linalg.norm(x)
    eps = np.finfo(float).eps
    assert np.abs(alg.matmul(a, x) - alg.const(np.eye(m))).max() <= 1e3 * eps * scale
    assert np.abs(alg.matmul(x, a) - alg.const(np.eye(m))).max() <= 1e3 * eps * scale
