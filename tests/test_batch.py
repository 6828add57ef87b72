"""A batch of points (P, n) gives the per-point results stacked on a leading axis."""

import collections
import functools
import inspect
import operator
import sys

import numpy as np
import pytest

from tractorlab import brst, cartan, dressing, expr, jets, metrics, suites, tractor
from tractorlab.fields import ScalarField, domain_poly_field, domain_z_field, random_poly_field
from tractorlab.geometry import FrameError, Geometry
from tractorlab.jets import JetAlgebra

EPS = np.finfo(float).eps
BATCH = 7
METRICS = [("schwarzschild", {}), ("round_sphere", {}), ("poly_perturbation", {"seed": 11})]
# the highest order of each per-order read of a Geometry: 3 less the number of
# derivatives of g it takes
MAX_ORDER = {"e": 3, "einv": 3, "ginv": 3, "gamma": 2, "spin": 2, "riemann": 1, "ricci": 1,
             "scalar": 1, "schouten": 1, "schouten_trace": 1, "schouten_up": 1, "weyl_jet": 1}
PER_ORDER = sorted(name for name, obj in vars(Geometry).items()
                   if inspect.isfunction(obj) and hasattr(obj, "__wrapped__"))
# every property, every per-order read at every order, and the LDL^T factors at order 3
ACCESSORS = {name: operator.attrgetter(name) for name, obj in vars(Geometry).items()
             if isinstance(obj, (property, functools.cached_property))}
ACCESSORS |= {f"{name}{k}": operator.methodcaller(name, k)
              for name in PER_ORDER for k in range(MAX_ORDER[name] + 1)}
ACCESSORS["_ldl"] = lambda geom: geom._ldl(3)
LOWER = [(name, k) for name in PER_ORDER for k in range(MAX_ORDER[name])]


def _assert_close(got, want):
    """Normwise: the error is at most 1e3 eps of the larger of the norm and 1."""
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e3 * EPS * max(np.linalg.norm(want), 1.0)


def _assert_stacked(batch, per_point):
    """`batch` equals the stacked per-point values within 1e3 eps normwise (tuples
    and lists compare element by element)."""
    if isinstance(batch, (tuple, list)):
        assert len(batch) == len(per_point[0])
        for k, part in enumerate(batch):
            _assert_stacked(part, [p[k] for p in per_point])
        return
    _assert_close(batch, np.stack(per_point))


@pytest.fixture(scope="module", params=METRICS, ids=[name for name, _ in METRICS])
def case(request):
    """A fresh metric (no memo shared with other tests) and (7, n) sample points."""
    name, params = request.param
    metric = metrics.load_metric(name, **params)
    pts = metrics.sample_points(metric, BATCH, np.random.default_rng(5))
    return metric, pts


def test_metric_components(case):
    metric, pts = case
    for order in range(4):
        _assert_stacked(metric.g(pts, order), [metric.g(p, order) for p in pts])


@pytest.mark.parametrize("prop", sorted(ACCESSORS))
def test_geometry_property(case, prop):
    metric, pts = case
    read = ACCESSORS[prop]
    _assert_stacked(read(Geometry(metric, pts)), [read(Geometry(metric, p)) for p in pts])


def test_max_order_names_every_per_order_read_and_its_highest_order():
    assert sorted(MAX_ORDER) == PER_ORDER
    geom = Geometry(metrics.load_metric("round_sphere"), (0.1, -0.2, 0.3, 0.05))
    for name, top in MAX_ORDER.items():
        with pytest.raises(jets.JetError):
            getattr(geom, name)(top + 1)


INVERSES = [(name, order) for name in ("einv", "ginv") for order in range(4)]


@pytest.mark.parametrize("name,order", INVERSES, ids=[f"{n}{k}" for n, k in INVERSES])
def test_geometry_inverse(case, name, order):
    """`einv(k)`/`ginv(k)` stack the per-point inverses, and e(k) einv(k) = 1 and
    g(k) ginv(k) = 1 through order k."""
    metric, pts = case
    geom = Geometry(metric, pts)
    inv = getattr(geom, name)(order)
    _assert_stacked(inv, [getattr(Geometry(metric, p), name)(order) for p in pts])
    alg = jets.algebra(metric.n, order)
    mat = geom.e(order) if name == "einv" else geom.g(order)
    assert np.abs(alg.matmul(mat, inv) - alg.const(np.eye(metric.n))).max() <= 1e3 * EPS


def _fresh(metric, pts):
    """A Geometry of `pts` with nothing memoised yet."""
    Geometry(metric, pts).release()
    return Geometry(metric, pts)


@pytest.mark.parametrize("order", range(4), ids=[f"e{k}" for k in range(4)])
def test_geometry_frame(case, order, monkeypatch):
    """e(k) stacks the per-point frames and equals e(3) truncated to order k, whether
    it is read first (built at order k) or after e(3) (truncated from the memo, with
    no second factorization); and e(k)^T eta e(k) = g(k) through order k."""
    metric, pts = case
    alg, alg3 = jets.algebra(metric.n, order), jets.algebra(metric.n, 3)
    built = _fresh(metric, pts).e(order)
    _assert_stacked(built, [_fresh(metric, p).e(order) for p in pts])
    geom = _fresh(metric, pts)
    want = alg3.truncate(geom.e(3), order)
    with monkeypatch.context() as patch:
        patch.delattr(Geometry, "_ldl")
        assert np.array_equal(geom.e(order), want)
    _assert_close(built, want)
    ete = alg.matmul(np.swapaxes(built, -3, -2), alg.matmul(alg.const(metric.eta), built))
    _assert_close(ete, geom.g(order))


def _spin_order_2(geom):
    """The order-2 spin connection (e Gamma - d e) e^-1 from e(3) and Gamma at order 2."""
    n = geom.n
    alg, alg3 = jets.algebra(n, 2), jets.algebra(n, 3)
    e3 = geom.e(3)
    de = alg3.grad(e3, 2)
    gam = np.einsum("...nmlc->...mnlc", geom.gamma2)
    eg = alg.matmul(alg3.truncate(e3, 2)[..., None, :, :, :], gam)
    return alg.matmul(eg - de, alg.inv_matrix(alg3.truncate(e3, 2))[..., None, :, :, :])


def _spy_builds(monkeypatch):
    """The (name, order) of every per-order build of a Geometry from now on."""
    builds = []

    def spied(geom, name, order, build, _read=Geometry._per_order):
        def recorded(k):
            builds.append((name, k))
            return build(k)
        return _read(geom, name, order, recorded)

    monkeypatch.setattr(Geometry, "_per_order", spied)
    return builds


@pytest.mark.parametrize("name,order", LOWER, ids=[f"{n}{k}" for n, k in LOWER])
def test_a_lower_order_read_is_the_truncation_of_a_higher_one(case, name, order, monkeypatch):
    """Read first, a jet at order k is built at order k and equals its highest-order
    jet truncated to k; read after that one, it is the truncation exactly, with
    no build.  Either way it is read-only."""
    metric, pts = case
    top = MAX_ORDER[name]
    built = getattr(_fresh(metric, pts), name)(order)
    geom = _fresh(metric, pts)
    want = jets.algebra(metric.n, top).truncate(getattr(geom, name)(top), order)
    builds = _spy_builds(monkeypatch)
    got = getattr(geom, name)(order)
    assert builds == [] and np.array_equal(got, want)
    _assert_close(built, want)
    assert not built.flags.writeable and not got.flags.writeable


def test_the_flagship_oracle_builds_curvature_at_order_1_at_most(monkeypatch):
    """The oracle reads both connections at order 0, so it builds Gamma only at
    orders <= 1 and Riemann only at order 0, and inverts g only at orders <= 1."""
    builds = _spy_builds(monkeypatch)
    for name, params in (("schwarzschild", {}), ("poly_perturbation", {"seed": 1})):
        metric = metrics.load_metric(name, **params)
        rng = np.random.default_rng(8)
        rep = tractor.equivalence_check(metric, metrics.sample_points(metric, 5, rng), rng)
        assert rep["max_residual"] < 1e-12
    orders = collections.defaultdict(set)
    for name, k in builds:
        orders[name].add(k)
    assert orders["ginv"] <= {0, 1}
    assert orders["gamma"] == {1} and orders["riemann"] == {0}


def test_spin1_is_the_order_2_spin_connection_truncated(case):
    metric, pts = case
    spin1 = _fresh(metric, pts).spin(1)
    _assert_close(spin1, jets.algebra(metric.n, 2).truncate(_spin_order_2(_fresh(metric, pts)), 1))


def test_covariant_derivative_and_laplacian(case):
    metric, pts = case
    geom, singles = Geometry(metric, pts), [Geometry(metric, p) for p in pts]
    rng = np.random.default_rng(3)
    f = random_poly_field(rng, metric.n, 3)
    for tensor, valences in (
        (lambda g: f.coeffs(g.point, 3), ""),
        (lambda g: g.schouten1, "dd"),
        (lambda g: g.g(2), "dd"),
    ):
        _assert_stacked(geom.covariant_derivative(tensor(geom), valences),
                        [s.covariant_derivative(tensor(s), valences) for s in singles])
    _assert_stacked(geom.laplacian(f.coeffs(pts, 3)), [s.laplacian(f.coeffs(p, 3))
                                                       for s, p in zip(singles, pts)])


def test_normal_dressing_chain(case):
    """The chain of the normal connection and of a gauge transform of it."""
    metric, pts = case
    rng = np.random.default_rng(8)
    normal = dressing.normal_dressing_chain(metric)
    gam = cartan.h_field(metric, z=domain_z_field(rng, metric),
                         r=[domain_poly_field(rng, metric, 2, 0.4) for _ in range(metric.n)])
    gauged = dressing.dressing_chain(cartan.transform_connection(normal["wn"], gam))
    for fld in [*normal.values(), *gauged.values()]:
        for order in range(fld.max_order + 1):
            _assert_stacked(fld.at(pts, order), [fld.at(p, order) for p in pts])
        if isinstance(fld, cartan.ConnectionField):
            for order in range(fld.col0_order + 1):
                _assert_stacked(fld.col0(pts, order), [fld.col0(p, order) for p in pts])


def test_section_and_tractor_derivatives(case):
    metric, pts = case
    rng = np.random.default_rng(4)
    n = metric.n
    t = cartan.section_field(metric, random_poly_field(rng, n, 2),
                             [random_poly_field(rng, n, 2) for _ in range(n)],
                             random_poly_field(rng, n, 2))
    wl = dressing.normal_dressing_chain(metric)["wl"]
    conn = tractor.prolongation_connection(metric)
    for order in (0, 1):
        _assert_stacked(conn.at(pts, order), [conn.at(p, order) for p in pts])
        _assert_stacked(cartan.section_derivative(conn, t, pts, order),
                        [cartan.section_derivative(conn, t, p, order) for p in pts])
    _assert_stacked(cartan.section_derivative(wl, t, pts),
                    [cartan.section_derivative(wl, t, p) for p in pts])


def _no_frame_metric():
    """Lorentzian eta, but pivot 0 (g_00 = x0) is wrong where x0 >= 0 and pivot 1
    (g_11 = x1) is wrong where x1 <= 0."""
    spec = metrics.MetricSpec(
        "no-frame", 4, (1, 3),
        {(0, 0): metrics.expr.parse("x0"), (1, 1): metrics.expr.parse("x1"),
         (2, 2): metrics.expr.const(1.0), (3, 3): metrics.expr.const(1.0)},
        [(-1.0, 1.0)] * 4,
    )
    return metrics.MetricField("no-frame", 4, (1, 3), metrics.metric_from_spec(spec).g, spec.domain)


def _frame_error(metric, point, order=3):
    with pytest.raises(FrameError) as err:
        _fresh(metric, point).e(order)
    return err.value


@pytest.mark.parametrize("batch, first, pivot", [
    # good, pivot 1 bad, pivot 0 bad: the first failing point is named
    ([(-0.5, 0.5, 0, 0), (-0.5, -0.5, 0, 0), (0.5, 0.5, 0, 0)], 1, 1),
    # a point bad at both pivots is named with pivot 0, ahead of a later pivot-1 failure
    ([(-0.5, 0.5, 0, 0), (0.5, -0.5, 0, 0), (-0.5, -0.5, 0, 0)], 1, 0),
])
def test_frame_error_names_the_first_failing_point(batch, first, pivot):
    metric = _no_frame_metric()
    pts = np.array(batch, dtype=float)
    single = _frame_error(metric, pts[first])
    err = _frame_error(metric, pts)
    assert (err.pivot, single.pivot) == (pivot, pivot)
    assert err.point == single.point == tuple(pts[first])
    assert str(err) == str(single)
    # a frame read at a lower order fails at the same pivot and point
    for order in range(3):
        low = _frame_error(metric, pts, order)
        assert (low.pivot, low.point) == (err.pivot, err.point)
    # the points before it have a frame
    Geometry(metric, pts[:first]).e(3)


def _count_kernel_calls(monkeypatch):
    """Counter of `JetAlgebra.mul` and `matmul` calls from now on."""
    calls = collections.Counter()
    for name in ("mul", "matmul"):
        def counted(alg, a, b, _kernel=getattr(JetAlgebra, name), _name=name):
            calls[_name] += 1
            return _kernel(alg, a, b)
        monkeypatch.setattr(JetAlgebra, name, counted)
    return calls


def test_equivalence_check_kernel_calls_do_not_grow_with_points(monkeypatch):
    """The oracle evaluates its points as one batch: 10 and 40 points cost the same
    number of jet products."""
    metric = metrics.load_metric("schwarzschild")
    rng = np.random.default_rng(8)
    cmap = tractor.calibrate_convention_map(
        metric, ScalarField.from_expression(tractor.DEFAULT_Z),
        metrics.sample_points(metric, 5, rng), rng)
    calls = _count_kernel_calls(monkeypatch)
    counts = []
    for npoints in (10, 40):
        calls.clear()
        pts = metrics.sample_points(metric, npoints, rng)
        rep = tractor.equivalence_check(metric, pts, rng, cmap=cmap)
        assert rep["points"] == npoints and rep["max_residual"] < 1e-12
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["matmul"] > 0 and counts[0]["mul"] > 0


def test_equivalence_check_builds_no_order_3_jets(monkeypatch):
    """The oracle, calibration included, makes no jet product above order 1 outside
    the metric's own evaluation (g at order 3), and factors the frame at order 1
    only: the normal connection's boost dressing is the identity, so nothing reads
    its frame at order 2.  It Newton-inverts no matrix above order 1 and no
    (n+2)-square one above order 0: the gauge and dressing fields in the
    structure group are inverted in closed form."""
    calls = collections.Counter()
    inverted = collections.Counter()  # (order, size) of each Newton inverse
    in_metric = [0]  # depth of MetricField.g calls

    def spy(name):
        def kernel(alg, *args, _kernel=getattr(JetAlgebra, name)):
            if not in_metric[0]:
                calls[name, alg.order] += 1
            return _kernel(alg, *args)
        return kernel

    def metric_g(metric, *args, _g=metrics.MetricField.g):
        in_metric[0] += 1
        try:
            return _g(metric, *args)
        finally:
            in_metric[0] -= 1

    def inv_matrix(alg, a, _kernel=JetAlgebra.inv_matrix):
        inverted[alg.order, np.shape(a)[-2]] += 1
        return _kernel(alg, a)
    monkeypatch.setattr(JetAlgebra, "mul", spy("mul"))
    monkeypatch.setattr(JetAlgebra, "matmul", spy("matmul"))
    monkeypatch.setattr(JetAlgebra, "inv_matrix", inv_matrix)
    monkeypatch.setattr(metrics.MetricField, "g", metric_g)

    def factor(geom, order, _ldl=Geometry._ldl):
        calls["_ldl", order] += 1
        return _ldl(geom, order)
    monkeypatch.setattr(Geometry, "_ldl", factor)
    metric = metrics.load_metric("schwarzschild")
    rng = np.random.default_rng(8)
    rep = tractor.equivalence_check(metric, metrics.sample_points(metric, 5, rng), rng)
    assert rep["max_residual"] < 1e-12
    assert calls["mul", 1] > 0 and calls["matmul", 1] > 0
    assert [k for k in calls if k[0] != "_ldl" and k[1] > 1] == []
    assert [k for k in calls if k[0] == "_ldl"] == [("_ldl", 1)]
    n = metric.n
    assert inverted[0, n + 2] > 0 and inverted[1, n] > 0
    assert not [k for k in inverted if k[0] > 1 or (k[0] > 0 and k[1] == n + 2)], inverted


def test_no_geometry_of_a_verdict_builds_a_jet_at_two_orders(monkeypatch):
    """Every residual reads the frame and g^-1 at their highest order first, so no
    Geometry of a Schwarzschild verdict at 5 points factors g (`_ldl`) at two
    orders, or builds any other per-order jet at two orders."""
    factored, built = collections.defaultdict(set), collections.defaultdict(set)

    def factor(geom, order, _ldl=Geometry._ldl):
        factored[geom].add(order)  # keyed by the object: no id is reused
        return _ldl(geom, order)

    def per_order(geom, name, order, build, _read=Geometry._per_order):
        return _read(geom, name, order, lambda k: built[geom, name].add(k) or build(k))
    monkeypatch.setattr(Geometry, "_ldl", factor)
    monkeypatch.setattr(Geometry, "_per_order", per_order)
    results = suites.run_suites(metrics.load_metric("schwarzschild"), "all", seed=7, npoints=5)
    assert all(r.passed for r in results)
    assert len(factored) > 10
    assert [sorted(o) for o in factored.values() if len(o) > 1] == []
    assert [(name, sorted(o)) for (_, name), o in built.items() if len(o) > 1] == []


def _memoized(metric):
    """Every Geometry a metric holds, in whatever attributes and containers its memo
    keeps them."""
    found, todo = [], list(vars(metric).values())
    while todo:
        obj = todo.pop()
        if isinstance(obj, Geometry):
            found.append(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
    return found


def _batch_memos(metric, pts):
    """The Geometries a metric holds for the batch `pts`."""
    return [g for g in _memoized(metric)
            if (g.point.shape, g.point.tobytes()) == (pts.shape, pts.tobytes())]


def test_equivalence_check_releases_its_batch_even_when_it_raises():
    metric = metrics.load_metric("schwarzschild")
    rng = np.random.default_rng(8)
    cmap = tractor.calibrate_convention_map(
        metric, ScalarField.from_expression(tractor.DEFAULT_Z),
        metrics.sample_points(metric, 5, rng), rng)
    pts = metrics.sample_points(metric, 6, rng)
    Geometry(metric, pts)
    assert len(_batch_memos(metric, pts)) == 1  # the memo holds the batch until released
    tractor.equivalence_check(metric, pts, rng, cmap=cmap)
    assert _batch_memos(metric, pts) == []
    # the second point has no frame: the batch fails partway through its Geometry
    bad = _no_frame_metric()
    pts = np.array([(-0.5, 0.5, 0, 0), (0.5, 0.5, 0, 0)], dtype=float)
    with pytest.raises(FrameError):
        tractor.equivalence_check(bad, pts, rng, cmap=cmap)
    assert _batch_memos(bad, pts) == []


def test_release_keeps_a_later_batch():
    """Releasing a Geometry that is no longer the memoized one leaves the memo alone."""
    metric = metrics.load_metric("flat_euclidean")
    first = Geometry(metric, np.zeros((2, 4)))
    later = Geometry(metric, np.ones((2, 4)))
    first.release()
    assert _memoized(metric) == [later] and Geometry(metric, np.ones((2, 4))) is later
    later.release()
    assert _memoized(metric) == []


def test_a_verdict_leaves_at_most_one_geometry_memoized():
    """The memo holds a metric's latest batch only: a whole verdict does not pile up
    curvature stacks that nothing reads again."""
    metric = metrics.load_metric("poly_perturbation", seed=11)
    suites.run_suites(metric, "all", npoints=3)
    assert len(_memoized(metric)) <= 1


def _graded(value):
    """The coefficient arrays of a GradedValue, in generator order."""
    return [value.components[t] for t in sorted(value.components)]


def test_cartan_group_fields_curvature_and_blocks(case):
    metric, pts = case
    rng = np.random.default_rng(6)
    n = metric.n
    # gauge parameters O(1) on the chart box, as the suites draw them: a large
    # boost row makes the curvature a difference of large terms
    h = cartan.h_field(metric, z=domain_z_field(rng, metric),
                       S=suites.random_eta_orthogonal(rng, metric.eta),
                       r=[domain_poly_field(rng, metric, 2, 0.4) for _ in range(n)])
    for order in range(h.max_order + 1):
        _assert_stacked(h.at(pts, order), [h.at(p, order) for p in pts])
    wn = cartan.normal_connection(metric)
    blocks = cartan.conn_blocks(wn.at(pts, 1))
    _assert_stacked(list(blocks.values()), [list(cartan.conn_blocks(wn.at(p, 1)).values())
                                            for p in pts])
    curv = cartan.curvature(cartan.transform_connection(wn, h))
    f = curv(pts, 0)
    _assert_stacked(f, [curv(p, 0) for p in pts])
    _assert_stacked(list(cartan.curv_blocks(f[..., 0]).values()),
                    [list(cartan.curv_blocks(curv(p, 0)[..., 0]).values()) for p in pts])
    base = cartan.curvature(wn)
    _assert_stacked(cartan.transform_curvature(base(pts, 0), h, pts),
                    [cartan.transform_curvature(base(p, 0), h, p) for p in pts])
    einv = Geometry(metric, pts).einv(0)[..., 0]
    rep = cartan.normality_report(f[..., 0], einv)
    singles = [cartan.normality_report(curv(p, 0)[..., 0], e) for p, e in zip(pts, einv)]
    _assert_stacked([rep[k] for k in rep if k != "normal"],
                    [[s[k] for k in rep if k != "normal"] for s in singles])
    assert np.array_equal(rep["normal"], [s["normal"] for s in singles])


def test_dressing_cocycles_and_tractor_metric(case):
    metric, pts = case
    zf = domain_z_field(np.random.default_rng(7), metric)
    for order in (0, 1, 2):
        _assert_stacked(dressing.upsilon_row(zf, pts, order, metric.n),
                        [dressing.upsilon_row(zf, p, order, metric.n) for p in pts])
    for variant in ("C", "Cbar"):
        for fld in (dressing.weyl_cocycle(metric, zf, variant),
                    *dressing.cocycle_factors(metric, zf, variant)):
            for order in range(fld.max_order + 1):
                _assert_stacked(fld.at(pts, order), [fld.at(p, order) for p in pts])
    for order in (0, 1):
        _assert_stacked(dressing.tractor_metric_G(metric, pts, order),
                        [dressing.tractor_metric_G(metric, p, order) for p in pts])


def test_tractor_prolongation_weyl_matrix_pairing_and_curvature(case):
    metric, pts = case
    rng = np.random.default_rng(8)
    n = metric.n
    sig = random_poly_field(rng, n, 3)
    for fld in (tractor.prolong_field(metric, sig),
                tractor.weyl_matrix_field(metric, domain_z_field(rng, metric))):
        for order in range(fld.max_order + 1):
            _assert_stacked(fld.at(pts, order), [fld.at(p, order) for p in pts])
    _assert_stacked(tractor.ae_residual(metric, sig, pts),
                    [tractor.ae_residual(metric, sig, p) for p in pts])
    t1, t2 = (cartan.section_field(metric, random_poly_field(rng, n, 2),
                                   [random_poly_field(rng, n, 2) for _ in range(n)],
                                   random_poly_field(rng, n, 2)) for _ in range(2))
    for order in (0, 1):
        _assert_stacked(tractor.inner(metric, pts, t1.at(pts, order), t2.at(pts, order), order),
                        [tractor.inner(metric, p, t1.at(p, order), t2.at(p, order), order)
                         for p in pts])
    _assert_stacked(tractor.metric_matrix(metric, pts),
                    [tractor.metric_matrix(metric, p) for p in pts])
    wl = dressing.normal_dressing_chain(metric)["wl"]
    for conn, form in ((tractor.prolongation_connection(metric), tractor.metric_matrix),
                       (wl, lambda m, x: dressing.tractor_metric_G(m, x, 1))):
        _assert_stacked(cartan.metric_defect(conn, form(metric, pts), pts),
                        [cartan.metric_defect(conn, form(metric, p), p) for p in pts])
    _assert_stacked(tractor.curvature_two_ways(metric, pts),
                    [tractor.curvature_two_ways(metric, p) for p in pts])


def test_brst_ghosts_composites_and_nilpotency(case):
    metric, pts = case
    rng = np.random.default_rng(9)
    n = metric.n
    comps = []
    for _ in range(3):  # v^3 has a nonzero generator monomial only from three generators on
        a = rng.normal(size=(n, n)) * 0.4
        comps.append((domain_poly_field(rng, metric, 2, 0.4),
                       a - np.linalg.inv(metric.eta) @ a.T @ metric.eta,
                       [domain_poly_field(rng, metric, 2, 0.4) for _ in range(n)]))
    ghost = brst.Ghost(metric, comps)
    wn = cartan.normal_connection(metric)
    phi = cartan.section_field(metric, random_poly_field(rng, n, 2),
                               [random_poly_field(rng, n, 2) for _ in range(n)],
                               random_poly_field(rng, n, 2))
    for order in (0, 1):
        _assert_stacked(_graded(ghost.value(pts, order)),
                        [_graded(ghost.value(p, order)) for p in pts])
        for holonomic in (False, True):
            _assert_stacked(_graded(brst.linearized_boost(metric, ghost, pts, order, holonomic)),
                            [_graded(brst.linearized_boost(metric, ghost, p, order, holonomic))
                             for p in pts])
    chain = dressing.dressing_chain(wn)
    for stage in ("first", "full"):
        for ghost_of in (lambda p: brst.dressed_ghost(metric, chain, ghost, stage, p, 0),
                         lambda p: brst.closed_form_ghost(metric, ghost, stage, p, 0)):
            _assert_stacked(_graded(ghost_of(pts)), [_graded(ghost_of(p)) for p in pts])
    for measured in (lambda p: brst.s2_section(brst.section_graded(phi, p, 0), ghost.value(p, 0)),
                     lambda p: brst.s2_ghost(ghost, p),
                     lambda p: brst.s2_connection(wn, ghost, p),
                     lambda p: brst.sigma_membership_residual(ghost, p)):
        _assert_stacked(measured(pts), [measured(p) for p in pts])


def test_a_residual_with_no_components_is_zero_at_every_point(case):
    """With two generators v^3 has no generator monomial, so s^2 v has no
    components; it still has the batch axis and counts as 0 at every point."""
    metric, pts = case
    rng = np.random.default_rng(4)
    n = metric.n
    comps = []
    for _ in range(2):
        a = rng.normal(size=(n, n)) * 0.4
        comps.append((domain_poly_field(rng, metric, 2, 0.4),
                      a - np.linalg.inv(metric.eta) @ a.T @ metric.eta,
                      [domain_poly_field(rng, metric, 2, 0.4) for _ in range(n)]))
    ghost = brst.Ghost(metric, comps)
    residual = brst.s2_ghost(ghost, pts)
    assert residual.shape == (BATCH,) and not residual.any()
    tracker = suites.Tracker()
    tracker.add(pts, residual)
    assert tracker.max == 0.0


def _draws_one_by_one(rng, count, size):
    return np.stack([rng.normal(size=size) for _ in range(count)])


def test_calibration_draws_the_per_point_numbers():
    """One (P, 4, N) draw gives the numbers of four draws per point in turn, and
    the calibration leaves its generator where the per-point draws did."""
    metric = metrics.load_metric("round_sphere")
    N = metric.n + 2
    assert np.array_equal(np.random.default_rng(1).normal(size=(5, 4, N)).reshape(20, N),
                          _draws_one_by_one(np.random.default_rng(1), 20, N))
    rng, ref = np.random.default_rng(10), np.random.default_rng(10)
    pts = metrics.sample_points(metric, 5, rng)
    cmap = tractor.calibrate_convention_map(
        metric, ScalarField.from_expression(tractor.DEFAULT_Z), pts, rng)
    metrics.sample_points(metric, 5, ref)
    _draws_one_by_one(ref, 5 * 4, N)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert cmap == tractor.ConventionMap(True, "g", -1, -1)


def test_calibration_tests_every_candidate_in_a_fixed_number_of_products(monkeypatch):
    """One calibration makes the same jet matrix products on any metric and sample,
    at most 6 of them its own (the rest evaluate the Weyl fields), and applies no
    candidate on its own: a loop over the candidates made two per candidate."""
    callers = collections.Counter()  # the function that asked for each product
    applied = []

    def matmul(alg, a, b, _kernel=JetAlgebra.matmul):
        frame = sys._getframe(1)
        while frame.f_code.co_filename in (jets.__file__, cartan.__file__):  # matvec
            frame = frame.f_back
        callers[frame.f_code.co_name] += 1
        return _kernel(alg, a, b)

    def apply(cmap, *args, _apply=tractor.ConventionMap.apply):
        applied.append(cmap)
        return _apply(cmap, *args)
    monkeypatch.setattr(JetAlgebra, "matmul", matmul)
    monkeypatch.setattr(tractor.ConventionMap, "apply", apply)
    counts = []
    for name, npoints in (("schwarzschild", 5), ("round_sphere", 3)):
        callers.clear()
        metric = metrics.load_metric(name)
        rng = np.random.default_rng(4)
        tractor.calibrate_convention_map(metric, tractor.DEFAULT_Z_FIELD,
                                         metrics.sample_points(metric, npoints, rng), rng)
        counts.append(dict(callers))
    assert counts[0] == counts[1]
    own = counts[0].get("calibrate_convention_map", 0) + counts[0].get("_apply_all", 0)
    assert 0 < own <= 6
    assert applied == []


def test_default_rescaling_compiles_once_per_dimension(monkeypatch):
    """Two flagship oracles and the suites' calibration share `DEFAULT_Z_FIELD`, so
    `DEFAULT_Z` compiles to one program per dimension (a fresh field stands in
    for the module's, which earlier tests may have compiled already)."""
    z = expr.parse(tractor.DEFAULT_Z)
    compiled = collections.Counter()

    def program(prog, roots, n, _init=expr.Program.__init__):
        compiled[n] += roots == [z]
        _init(prog, roots, n)
    monkeypatch.setattr(expr.Program, "__init__", program)
    monkeypatch.setattr(tractor, "DEFAULT_Z_FIELD", ScalarField.from_expression(tractor.DEFAULT_Z))
    for metric in (metrics.load_metric("schwarzschild"), metrics.load_metric("round_sphere", n=3)):
        rng = np.random.default_rng(6)
        tractor.equivalence_check(metric, metrics.sample_points(metric, 5, rng), rng)
    ctx = suites.Context(metrics.load_metric("flat_euclidean"), seed=0, npoints=3)
    fn = dict(suites.SUITES["tractor-equivalence"])["convention-calibration"]
    assert suites.run_check(ctx, "convention-calibration", fn).passed
    assert compiled == {4: 1, 3: 1}


def test_verdict_kernel_calls_do_not_depend_on_points(monkeypatch):
    """A full verdict evaluates each check's points as one batch: at 5 and 10 points
    it makes the same jet kernel calls (each run on a fresh metric, so no memo is
    shared)."""
    calls = _count_kernel_calls(monkeypatch)
    counts = []
    for npoints in (5, 10):
        calls.clear()
        results = suites.run_suites(metrics.load_metric("round_sphere"), "all", seed=3,
                                    npoints=npoints)
        assert all(r.passed for r in results)
        counts.append(dict(calls))
    assert counts[0] == counts[1]


def test_each_sweep_calls_its_residual_once_on_its_batch(flat, monkeypatch):
    sweep = suites.Context.sweep
    recorded = []

    def recording(ctx, rng, residual, rule):
        shapes = []

        def traced(p):
            shapes.append(np.shape(p))
            return residual(p)

        recorded.append((rule, shapes))
        return sweep(ctx, rng, traced, rule)

    monkeypatch.setattr(suites.Context, "sweep", recording)
    results = suites.run_suites(flat, ["riemann-laws", "tractor-weyl"], seed=1, npoints=7)
    assert all(r.passed for r in results)
    assert len(recorded) == len(results)  # every check of these suites is one sweep
    assert all(shapes == [(suites.COUNTS[rule](7), flat.n)] for rule, shapes in recorded)
