"""Metric catalog, signature checks, and the spec-file format."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractorlab import expr, jets, metrics
from tractorlab.fields import ScalarField


def test_flat_minkowski():
    m = metrics.load_metric("flat_minkowski")
    g = jets.algebra(4, 0).value(m.g((0.3, -0.2, 0.5, 0.9), 0))
    assert np.array_equal(g, np.diag([-1.0, 1.0, 1.0, 1.0]))
    assert m.signature == (1, 3)


def test_conformally_flat_is_weighted_flat():
    m = metrics.load_metric("conformally_flat", factor="x0")
    pt = (0.4, -0.2, 0.1, 0.7)
    g = jets.algebra(4, 0).value(m.g(pt, 0))
    assert np.allclose(g, np.exp(2 * 0.4) * np.eye(4), rtol=1e-15)


def test_poly_perturbation_center():
    m = metrics.load_metric("poly_perturbation", amplitude=0.05, seed=7)
    g = jets.algebra(4, 0).value(m.g((0.0, 0.0, 0.0, 0.0), 0))
    eig = np.linalg.eigvalsh(g)
    assert (eig > 0).all()
    assert m.signature == (0, 4)


def test_loading_a_poly_metric_checks_its_signature_once(monkeypatch):
    calls = []
    check = metrics.MetricField.check_signature

    def counted(metric, *args, **kwargs):
        calls.append(metric.name)
        return check(metric, *args, **kwargs)

    monkeypatch.setattr(metrics.MetricField, "check_signature", counted)
    metrics.load_metric("poly_perturbation", seed=3)
    assert len(calls) == 1
    with pytest.raises(metrics.SignatureError):  # a perturbation too large for a metric
        metrics.load_metric("poly_perturbation", amplitude=5.0, seed=3)


def test_unknown_catalog_name():
    with pytest.raises(metrics.MetricError):
        metrics.load_metric("nonexistent_metric")


def test_signature_failure_reports_point():
    spec = metrics.MetricSpec(
        "bad", 3, (0, 3),
        {(0, 0): metrics.expr.parse("x0"), (1, 1): metrics.expr.const(1.0),
         (2, 2): metrics.expr.const(1.0)},
        [(-1.0, 1.0)] * 3,
    )
    with pytest.raises(metrics.SignatureError) as err:
        metrics.load_metric(spec)
    assert err.value.point is not None


def test_dimension_floor():
    with pytest.raises(metrics.MetricError):
        metrics.MetricField("tiny", 2, (0, 2), lambda p, k: None, [(-1, 1)] * 2)


def test_spec_file_roundtrip(tmp_path):
    path = tmp_path / "metric.ini"
    path.write_text(
        """
# a diagonal metric with one off-diagonal term
[metric]
name = demo
n = 3
signature = 0,3

[components]
g_00 = 1 + 0.1*x1^2
g_11 = 1
g_22 = 1 + 0.05*x0   # inline comment
g_01 = 0.02*x2

[domain]
x0 = -0.5, 0.5
x1 = -0.5,0.5
x2 = -0.5, 0.5
"""
    )
    m = metrics.load_metric(str(path))
    assert m.name == "demo"
    assert m.n == 3
    assert m.domain[1] == (-0.5, 0.5)
    g = jets.algebra(3, 0).value(m.g((0.2, 0.3, -0.1), 0))
    assert g[0, 0] == pytest.approx(1 + 0.1 * 0.09)
    assert g[0, 1] == g[1, 0] == pytest.approx(0.02 * -0.1)


def test_spec_file_errors(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[metric]\nname=x\nn=3\nsignature=0,3\n[components]\nh_00 = 1\n")
    with pytest.raises(metrics.MetricError):
        metrics.load_metric(str(path))


SPEC_HEAD = "[metric]\nname=x\nn=3\nsignature=0,3\n[components]\ng_00=1\ng_11=1\n"


BAD_SPECS = {
    "key-one-index": ("g_0 = 1\n", metrics.MetricError),
    "key-beyond-n": ("g_05 = 1\n", metrics.MetricError),
    "coordinate-beyond-n": ("g_22 = 1 + x9\n", metrics.MetricError),
    "syntax": ("g_22 = 1 +\n", expr.ExprError),
    "domain-key-beyond-n": ("g_22 = 1\n[domain]\nx7 = 0, 1\n", metrics.MetricError),
    "domain-reversed": ("g_22 = 1\n[domain]\nx0 = 1, 0\n", metrics.MetricError),
    "domain-infinite": ("g_22 = 1\n[domain]\nx0 = 0, inf\n", metrics.MetricError),
    "domain-one-bound": ("g_22 = 1\n[domain]\nx0 = 0\n", metrics.MetricError),
    "duplicate-key": ("g_22 = 1\ng_22 = 2\n", metrics.MetricError),
}


@pytest.mark.parametrize("case", BAD_SPECS)
def test_spec_file_errors_are_typed(tmp_path, case):
    body, error = BAD_SPECS[case]
    path = tmp_path / "broken.ini"
    path.write_text(SPEC_HEAD + body)
    with pytest.raises(error):
        metrics.load_metric(str(path))


@pytest.mark.parametrize("meta, error", [("n=three", "n must be"), ("signature=-1,4", "signature")])
def test_spec_file_header_errors(tmp_path, meta, error):
    path = tmp_path / "broken.ini"
    path.write_text(f"[metric]\n{meta}\n[components]\ng_00=1\n")
    with pytest.raises(metrics.MetricError, match=error):
        metrics.load_metric(str(path))


_INI_LINES = st.one_of(
    st.sampled_from(["[metric]", "[components]", "[domain]", "[other]", "[metric", "# note", ""]),
    st.tuples(
        st.sampled_from(["n", "name", "signature", "g_00", "g_01", "g_0", "g_33", "g_99", "g_ab",
                         "x0", "x2", "x7", "x", "y0"]),
        st.sampled_from(["=", ":", " = "]),
        st.one_of(
            st.sampled_from(["3", "4", "11", "-1", "0", "euclidean", "lorentzian", "(1,3)",
                             "-1,4", "1,2,3", "0.5,-0.5", "-1,1", "nan,1", "0,inf", "1 + x0^2",
                             "ln(x1)", "x9", "1 +", "%(x)s", ""]),
            st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
        ),
    ).map("".join),
)


@given(st.lists(_INI_LINES, max_size=14).map("\n".join))
@settings(max_examples=300, deadline=None)
def test_spec_files_raise_only_typed_errors(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            metrics.metric_from_spec(metrics.parse_metric_file(path))
        except (metrics.MetricError, expr.ExprError):
            pass


def test_schwarzschild_components_share_subexpressions(monkeypatch):
    m = metrics.load_metric("schwarzschild")
    calls = []
    sqrt = jets.JetAlgebra.sqrt
    monkeypatch.setattr(jets.JetAlgebra, "sqrt", lambda alg, a: calls.append(1) or sqrt(alg, a))
    m._g_fn((0.1, 2.2, 2.5, 2.8), 3)
    # r = sqrt(x1^2 + x2^2 + x3^2) occurs twice in g00 and once in each spatial component
    assert len(calls) == 1


def test_rescale():
    m = metrics.load_metric("flat_euclidean")
    z = ScalarField.from_expression("exp(0.2*x0)")
    hat = m.rescale(z)
    pt = (0.5, 0.1, -0.2, 0.3)
    g = jets.algebra(4, 0).value(hat.g(pt, 0))
    assert np.allclose(g, np.exp(0.4 * 0.5) * np.eye(4))


def test_sample_points_respect_box(schw, rng):
    pts = metrics.sample_points(schw, 50, rng)
    for i, (lo, hi) in enumerate(schw.domain):
        margin = 0.05 * (hi - lo)
        assert (pts[:, i] >= lo + margin - 1e-12).all()
        assert (pts[:, i] <= hi - margin + 1e-12).all()


@pytest.mark.parametrize("n, points", [(metrics.CORNER_MAX_DIM, 20 + 2 ** metrics.CORNER_MAX_DIM),
                                       (metrics.CORNER_MAX_DIM + 1, 20)])
def test_signature_check_adds_the_box_corners_up_to_a_fixed_dimension(n, points):
    flat = metrics.flat_euclidean(n)
    shapes = []

    def g_fn(point, order):
        shapes.append(np.shape(point))
        return flat.g(point, order)

    metric = metrics.MetricField("flat", n, (0, n), g_fn, flat.domain)
    assert metric.check_signature()
    assert shapes == [(points, n)]


def test_whole_catalog_passes_signature_check():
    for name in metrics.CATALOG:
        m = metrics.load_metric(name)  # load_metric runs the signature check
        assert m.check_signature(samples=20, seed=1)


def test_dressing_by_the_identity_lorentz_element_is_the_identity(bumpy):
    from tractorlab import cartan, dressing

    wn = cartan.normal_connection(bumpy)
    u1 = dressing.boost_dressing(wn)
    w1 = dressing.dress(wn, u1)
    pt = (0.05, -0.1, 0.02, 0.15)
    via_s = dressing.dress(w1, cartan.h_field(bumpy, S=np.eye(4)))
    assert abs(via_s.at(pt, 0) - w1.at(pt, 0)).max() < 1e-14


def test_component_and_scalar_jets_take_a_batch(bumpy, rng):
    pts = metrics.sample_points(bumpy, 3, rng)
    g = bumpy.g(pts, 2)
    assert np.array_equal(bumpy.component_jet(0, 1, pts, 2), g[:, 0, 1])
    z = ScalarField.from_expression("exp(0.2*x0)")
    assert np.array_equal(z.jet(pts, 2), z.coeffs(pts, 2))


def test_inverse_metric_jets(bumpy, rng):
    pt = tuple(metrics.sample_points(bumpy, 1, rng)[0])
    alg = jets.algebra(4, 3)
    prod = alg.matmul(bumpy.g(pt, 3), bumpy.g_inv(pt, 3))
    assert np.abs(prod - alg.const(np.eye(4))).max() < 1e-12
