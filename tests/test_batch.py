"""A batch of points (P, n) gives the per-point results stacked on a leading axis."""

import collections
import functools

import numpy as np
import pytest

from tractorlab import cartan, dressing, metrics, tractor
from tractorlab.fields import RowField, ScalarField, random_poly_field
from tractorlab.geometry import FrameError, Geometry
from tractorlab.jets import JetAlgebra

EPS = np.finfo(float).eps
BATCH = 7
METRICS = [("schwarzschild", {}), ("round_sphere", {}), ("poly_perturbation", {"seed": 11})]
PROPERTIES = sorted(name for name, obj in vars(Geometry).items()
                    if isinstance(obj, functools.cached_property))


def _assert_stacked(batch, per_point):
    """`batch` equals the stacked per-point values within 1e3 eps normwise, relative to
    the larger of their norm and 1 (tuples and lists compare element by element)."""
    if isinstance(batch, (tuple, list)):
        assert len(batch) == len(per_point[0])
        for k, part in enumerate(batch):
            _assert_stacked(part, [p[k] for p in per_point])
        return
    want = np.stack(per_point)
    assert batch.shape == want.shape
    scale = max(np.linalg.norm(want), 1.0)
    assert np.linalg.norm(batch - want) <= 1e3 * EPS * scale


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


@pytest.mark.parametrize("prop", PROPERTIES)
def test_geometry_property(case, prop):
    metric, pts = case
    _assert_stacked(getattr(Geometry(metric, pts), prop),
                    [getattr(Geometry(metric, p), prop) for p in pts])


def test_covariant_derivative_and_laplacian(case):
    metric, pts = case
    geom, singles = Geometry(metric, pts), [Geometry(metric, p) for p in pts]
    rng = np.random.default_rng(3)
    f = random_poly_field(rng, metric.n, 3)
    v = RowField([random_poly_field(rng, metric.n, 3) for _ in range(metric.n)])
    for tensor, valences in (
        (lambda g: f.coeffs(g.point, 3), ""),
        (lambda g: v.coeffs(g.point, 2), "u"),
        (lambda g: g.schouten1, "dd"),
        (lambda g: g.schouten_up1, "ud"),
        (lambda g: g.g(2), "dd"),
    ):
        _assert_stacked(geom.covariant_derivative(tensor(geom), valences),
                        [s.covariant_derivative(tensor(s), valences) for s in singles])
    _assert_stacked(geom.laplacian(f.coeffs(pts, 3)), [s.laplacian(f.coeffs(p, 3))
                                                       for s, p in zip(singles, pts)])


def test_normal_dressing_chain(case):
    metric, pts = case
    for fld in dressing.normal_dressing_chain(metric).values():
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
    for order in (0, 1):
        _assert_stacked(tractor.derivative(metric, t, pts, order),
                        [tractor.derivative(metric, t, p, order) for p in pts])
    _assert_stacked(cartan.section_derivative(wl, t, pts, 0),
                    [cartan.section_derivative(wl, t, p, 0) for p in pts])


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


def _frame_error(metric, point):
    with pytest.raises(FrameError) as err:
        Geometry(metric, point).e3
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
    # the points before it have a frame
    Geometry(metric, pts[:first]).e3


def test_equivalence_check_kernel_calls_do_not_grow_with_points(monkeypatch):
    """The oracle evaluates its points as one batch: 10 and 40 points cost the same
    number of jet products."""
    metric = metrics.load_metric("schwarzschild")
    rng = np.random.default_rng(8)
    cmap = tractor.calibrate_convention_map(
        metric, ScalarField.from_expression(tractor.DEFAULT_Z),
        metrics.sample_points(metric, 5, rng), rng)
    calls = collections.Counter()
    for name in ("mul", "matmul"):
        def counted(alg, a, b, _kernel=getattr(JetAlgebra, name), _name=name):
            calls[_name] += 1
            return _kernel(alg, a, b)
        monkeypatch.setattr(JetAlgebra, name, counted)
    counts = []
    for npoints in (10, 40):
        calls.clear()
        pts = metrics.sample_points(metric, npoints, rng)
        rep = tractor.equivalence_check(metric, pts, rng, cmap=cmap)
        assert rep["points"] == npoints and rep["max_residual"] < 1e-12
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["matmul"] > 0 and counts[0]["mul"] > 0


def _batch_memos(metric, pts):
    """Memo entries a metric holds for the batch `pts`: its Geometry and its g jets."""
    key = (pts.shape, pts.tobytes())
    return ([k for k in metric.__dict__.get("_geometry_cache", {}) if k == key]
            + [k for k in metric.__dict__.get("_g_cache", {}) if k[:2] == key])


def test_equivalence_check_releases_its_batch_even_when_it_raises():
    metric = metrics.load_metric("schwarzschild")
    rng = np.random.default_rng(8)
    cmap = tractor.calibrate_convention_map(
        metric, ScalarField.from_expression(tractor.DEFAULT_Z),
        metrics.sample_points(metric, 5, rng), rng)
    pts = metrics.sample_points(metric, 6, rng)
    tractor.equivalence_check(metric, pts, rng, cmap=cmap)
    assert _batch_memos(metric, pts) == []
    # the second point has no frame: the batch fails partway through its Geometry
    bad = _no_frame_metric()
    pts = np.array([(-0.5, 0.5, 0, 0), (0.5, 0.5, 0, 0)], dtype=float)
    with pytest.raises(FrameError):
        tractor.equivalence_check(bad, pts, rng, cmap=cmap)
    assert _batch_memos(bad, pts) == []
