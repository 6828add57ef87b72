"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every test records a one-line verdict that pytest prints in the terminal
summary (see conftest.pytest_terminal_summary).
"""

import json
import time

import numpy as np

import conftest
from reference import fd_second, partial
from tractorlab import brst, cartan, dressing, jets, metrics, oracle, suites, tractor
from tractorlab.fields import ScalarField, domain_poly_field, random_polynomial
from tractorlab.geometry import Geometry

A0 = jets.algebra(4, 0)
A1 = jets.algebra(4, 1)

CONFORMAL_FACTOR = "0.3*x0 + 0.1*x1^2"


def record(num, name, worst, tol, extra=""):
    passed = worst < tol
    verdict = "PASS" if passed else "FAIL"
    line = f"[criterion {num:2d}] {verdict}  {name}: max residual {worst:.3e} (tol {tol:.1e})"
    if extra:
        line += f"  [{extra}]"
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line


def _val(x):
    return np.asarray(x)[..., 0]


def test_criterion_1_flagship_equivalence():
    configs = [
        ("flat_euclidean", {}),
        ("conformally_flat", {"factor": CONFORMAL_FACTOR}),
        ("round_sphere", {}),
        ("schwarzschild", {}),
        ("poly_perturbation", {"seed": 1}),
        ("poly_perturbation", {"seed": 2}),
        ("poly_perturbation", {"seed": 3}),
    ]
    start = time.time()
    worst = 0.0
    for name, kwargs in configs:
        metric = metrics.load_metric(name, **kwargs)
        rng = np.random.default_rng(100)
        pts = metrics.sample_points(metric, 100, rng)
        report = tractor.equivalence_check(metric, pts, rng)
        worst = max(worst, report["max_residual"])
    elapsed = time.time() - start
    record(1, "top-down = bottom-up tractor derivative (7 metrics x 100 points)",
           worst, 1e-8, extra=f"{elapsed:.1f}s")
    assert elapsed < 60.0, f"flagship run took {elapsed:.1f}s (budget 60s)"


def test_criterion_2_boost_erasure():
    metric = metrics.load_metric("poly_perturbation", seed=1)
    rng = np.random.default_rng(2)
    wn = cartan.normal_connection(metric)
    pts = metrics.sample_points(metric, 3, rng)
    worst = 0.0
    for _ in range(20):
        gam1 = cartan.h_field(metric, r=[domain_poly_field(rng, metric, 2, 0.5) for _ in range(4)])
        wg = cartan.transform_connection(wn, gam1)
        dressed = dressing.dress(wg, dressing.boost_dressing(wg))
        for p in pts:
            p = tuple(p)
            base = wn.at(p, 1)
            res = np.abs(dressed.at(p, 1) - base).max() / (1.0 + np.abs(base).max())
            worst = max(worst, float(res))
    record(2, "dressing erases 20 random boost gauge transforms", worst, 1e-9)


def test_criterion_3_cocycle_laws():
    metric = metrics.load_metric("poly_perturbation", seed=1)
    ctx = suites.Context(metric, seed=3, npoints=12)
    worst_identity = suites.run_check(ctx, "cocycle-identity",
                                      dict(suites.SUITES["dressing-residual"])["cocycle-identity"])
    worst_p1 = suites.run_check(ctx, "residual-two-pipeline-1",
                                dict(suites.SUITES["dressing-residual"])["residual-two-pipeline-1"])
    worst_pl = suites.run_check(ctx, "residual-two-pipeline-L",
                                dict(suites.SUITES["dressing-residual"])["residual-two-pipeline-L"])
    record(3, "1-cocycle identity for C and Cbar", worst_identity.max_residual, 1e-10)
    record(3, "residual Weyl transforms: conjugation = redress (both stages)",
           max(worst_p1.max_residual, worst_pl.max_residual), 1e-9)


def test_criterion_4_conformal_flatness_iff_flat_tractor_curvature():
    cf = metrics.load_metric("conformally_flat", factor=CONFORMAL_FACTOR)
    rng = np.random.default_rng(4)
    worst = 0.0
    for p in metrics.sample_points(cf, 20, rng):
        comm, assembled, disc = tractor.curvature_two_ways(cf, tuple(p))
        worst = max(worst, float(np.abs(comm).max()), float(np.abs(assembled).max()), disc)
    record(4, "conformally flat metric has flat tractor curvature", worst, 1e-8)

    schw = metrics.load_metric("schwarzschild")
    weyl_max, cotton_max = 0.0, 0.0
    for p in metrics.sample_points(schw, 10, rng):
        comm, _, _ = tractor.curvature_two_ways(schw, tuple(p))
        weyl_max = max(weyl_max, float(np.abs(comm[:, :, 1:-1, 1:-1]).max()))
        cotton_max = max(cotton_max, float(np.abs(comm[:, :, 1:-1, 0]).max()))
    record(4, "Schwarzschild: Cotton block vanishes while Weyl block does not",
           cotton_max, 1e-8, extra=f"max |Weyl block| = {weyl_max:.2e} > 1e-3")
    assert weyl_max > 1e-3


def test_criterion_5_almost_einstein_witness():
    sphere = metrics.load_metric("round_sphere")
    rng = np.random.default_rng(5)
    t1 = tractor.prolong_field(sphere, "1")
    conn = tractor.prolongation_connection(sphere)
    worst = 0.0
    for p in metrics.sample_points(sphere, 20, rng):
        worst = max(worst, float(np.abs(cartan.section_derivative(conn, t1, tuple(p))).max()))
    record(5, "unit sphere with sigma = 1 carries a parallel tractor", worst, 1e-9)

    bumpy = metrics.load_metric("poly_perturbation", seed=1)
    tb = tractor.prolong_field(bumpy, "1")
    conn = tractor.prolongation_connection(bumpy)
    worst = 0.0
    for p in metrics.sample_points(bumpy, 20, rng):
        p = tuple(p)
        geom = Geometry(bumpy, p)
        der = _val(cartan.section_derivative(conn, tb, p))
        P = _val(A1.truncate(geom.schouten1, 0))
        g = _val(geom.g(0))
        tfp = P - (np.tensordot(np.linalg.inv(g), P, axes=2) / 4.0) * g
        worst = max(worst, float(np.abs(der[:, 1:-1] + tfp).max()))
    record(5, "generic metric: middle derivative row equals -TF(P)", worst, 1e-8)


def test_criterion_6_bilinear_forms():
    metric = metrics.load_metric("poly_perturbation", seed=1)
    rng = np.random.default_rng(6)
    zf = ScalarField.from_expression("exp(0.2*x0 + 0.1*x1)")
    hat = metric.rescale(zf)
    u = tractor.weyl_matrix_field(metric, zf)
    worst_pairing = 0.0
    for p in metrics.sample_points(metric, 10, rng):
        p = tuple(p)
        uv = _val(jets.algebra(4, 2).truncate(u.at(p, 2), 0))
        for _ in range(3):
            a, b = rng.normal(size=(2, 6))
            lhs = float(_val(tractor.inner(hat, p, A0.const(uv @ a), A0.const(uv @ b))))
            rhs = float(_val(tractor.inner(metric, p, A0.const(a), A0.const(b))))
            worst_pairing = max(worst_pairing, abs(lhs - rhs))
    record(6, "tractor pairing is Weyl-invariant", worst_pairing, 1e-10)

    wn = cartan.normal_connection(metric)
    u1 = dressing.boost_dressing(wn)
    w1 = dressing.dress(wn, u1)
    wl = dressing.dress(w1, dressing.frame_dressing(w1))
    conn = tractor.prolongation_connection(metric)
    worst_metricity = 0.0
    for p in metrics.sample_points(metric, 10, rng):
        p = tuple(p)
        res = cartan.metric_defect(conn, tractor.metric_matrix(metric, p), p)
        res_l = cartan.metric_defect(wl, dressing.tractor_metric_G(metric, p, 1), p)
        worst_metricity = max(worst_metricity, float(np.abs(res).max()), float(np.abs(res_l).max()))
    record(6, "both covariant derivatives preserve their bilinear forms", worst_metricity, 1e-9)

    worst_sigma = 0.0
    for _ in range(30):
        a, b = rng.normal(size=(2, 6))
        h = cartan.h_matrix(float(np.exp(rng.normal() * 0.4)),
                            suites.random_eta_orthogonal(rng, metric.eta),
                            rng.normal(size=4), metric.eta)
        hinv = np.linalg.inv(h)
        worst_sigma = max(worst_sigma, abs(
            cartan.invariant_pairing(hinv @ a, hinv @ b, metric.eta)
            - cartan.invariant_pairing(a, b, metric.eta)
        ))
    record(6, "Sigma pairing is invariant under the structure group", worst_sigma, 1e-11)


def test_criterion_7_transformation_tables():
    metric = metrics.load_metric("poly_perturbation", seed=1)
    table_checks = ("gt0-table", "gt1-table", "gtvphi-table", "lorentz-table")
    worst = 0.0
    for seed in (71, 72):
        ctx = suites.Context(metric, seed=seed, npoints=50)
        for suite_name in ("cartan-gauge", "dressing-residual"):
            for cid, fn in suites.SUITES[suite_name]:
                if cid in table_checks:
                    result = suites.run_check(ctx, cid, fn)
                    worst = max(worst, result.max_residual)
    record(7, "displayed transformation tables reproduced by matrix arithmetic "
              "(50 points x 2 parameter draws)", worst, 1e-9)


def test_criterion_8_brst():
    metric = metrics.load_metric("poly_perturbation", seed=1)
    ctx = suites.Context(metric, seed=8, npoints=12)
    picks = {
        "s2": ("brst-nilpotency", ("s2-section", "s2-ghost", "s2-connection", "s2-composite")),
        "ghosts": ("brst-algebra", ("dressed-ghost-first", "dressed-ghost-full")),
        "invariance": ("brst-algebra", ("residual-invariance-L",)),
    }
    worst = {}
    for label, (suite_name, ids) in picks.items():
        table = dict(suites.SUITES[suite_name])
        worst[label] = max(suites.run_check(ctx, cid, table[cid]).max_residual for cid in ids)
    record(8, "nilpotency on all generators including composites", worst["s2"], 1e-8)
    record(8, "composite ghosts match their closed forms", worst["ghosts"], 1e-9)
    record(8, "dressed fields are inert under boost and frame-rotation directions",
           worst["invariance"], 1e-9)

    rng = np.random.default_rng(88)
    a = rng.normal(size=(4, 4)) * 0.4
    s = a - np.linalg.inv(metric.eta) @ a.T @ metric.eta
    ghost = brst.Ghost(metric, [(
        domain_poly_field(rng, metric, 1, 0.4), s,
        [domain_poly_field(rng, metric, 1, 0.4) for _ in range(4)],
    )])
    wn = cartan.normal_connection(metric)
    p = tuple(metrics.sample_points(metric, 1, rng)[0])
    phi = cartan.section_field(metric, "0.3*x0", ["x1", "0.2", "x2*x0", "1"], "exp(0.1*x3)")
    rep_c = brst.finite_consistency(metric, wn, ghost, "connection", p)
    rep_s = brst.finite_consistency(metric, wn, ghost, "section", p, phi=phi)
    slope_err = max(abs(rep_c["slope"] - 1.0), abs(rep_s["slope"] - 1.0))
    record(8, "finite transforms linearize with slope 1 over t in {1e-2,1e-3,1e-4}",
           slope_err, 0.1, extra=f"slopes {rep_c['slope']:.3f}/{rep_s['slope']:.3f}")


def _poly_partial_oracle(coeffs, x, alpha):
    c = dict(coeffs)
    for mu, k in enumerate(alpha):
        for _ in range(k):
            out = {}
            for a, v in c.items():
                if a[mu]:
                    b = tuple(ai - (1 if i == mu else 0) for i, ai in enumerate(a))
                    out[b] = out.get(b, 0.0) + v * a[mu]
            c = out
    return sum(v * np.prod([x[i] ** a for i, a in enumerate(a_)]) for a_, v in c.items())


def test_criterion_9_derivative_engine():
    rng = np.random.default_rng(9)
    n = 4
    alg = jets.algebra(n, 3)
    worst_poly = 0.0
    coeffs_list = [random_polynomial(rng, n, 3) for _ in range(5)]
    for _ in range(100):
        x = rng.uniform(-1, 1, n)
        coeffs = coeffs_list[rng.integers(len(coeffs_list))]
        jet = alg.zeros(())
        coords = [alg.coord(i, x) for i in range(n)]
        for a, c in coeffs.items():
            term = alg.const(c)
            for i, k in enumerate(a):
                for _ in range(k):
                    term = alg.mul(term, coords[i])
            jet = jet + term
        for a in alg.indices:
            want = _poly_partial_oracle(coeffs, x, a)
            got = partial(alg, jet, a)
            worst_poly = max(worst_poly, abs(got - want) / (1.0 + abs(want)))
    record(9, "jet partials vs exact polynomial derivatives (100 points)", worst_poly, 1e-13)

    worst_fd = 0.0
    a2 = jets.algebra(2, 2)
    for _ in range(50):
        coeffs = random_polynomial(rng, 2, 2, 0.8)
        kind = rng.integers(2)

        def f(x):
            p = sum(v * np.prod(np.asarray(x) ** a, axis=-1) for a, v in coeffs.items())
            return np.exp(np.sin(p)) if kind else np.sin(np.exp(p * 0.5))

        x = rng.uniform(-0.8, 0.8, 2)
        inner = a2.zeros(())
        coords = [a2.coord(i, x) for i in range(2)]
        for a, c in coeffs.items():
            term = a2.const(c)
            for i, k in enumerate(a):
                for _ in range(k):
                    term = a2.mul(term, coords[i])
            inner = inner + term
        jet = a2.exp(a2.sin(inner)) if kind else a2.sin(a2.exp(0.5 * inner))
        grad = oracle.fd_grad(f, x)
        for mu in range(2):
            fd = grad[mu]
            got = partial(a2, jet, tuple(1 if i == mu else 0 for i in range(2)))
            worst_fd = max(worst_fd, abs(got - fd) / (1.0 + abs(fd)))
        for mu in range(2):
            for nu in range(mu, 2):
                fd = fd_second(f, x, mu, nu)
                got = partial(a2, jet, tuple((mu == i) + (nu == i) for i in range(2)))
                worst_fd = max(worst_fd, abs(got - fd) / (1.0 + abs(fd)))
    record(9, "jet partials vs Richardson finite differences (50 smooth fields)", worst_fd, 1e-5)


def test_criterion_10_determinism():
    metric = metrics.load_metric("poly_perturbation", seed=5)
    runs = []
    for _ in range(2):
        results = suites.run_suites(metric, ["dressing-k1", "tractor-weyl"], seed=17, npoints=6)
        runs.append(json.dumps([r.to_dict() for r in results], sort_keys=True))
    identical = runs[0] == runs[1]
    record(10, "identical (config, seed) gives a bit-identical report", 0.0 if identical else 1.0,
           0.5)
