"""Named verification suites: each check measures one transformation law,
invariance, or algebraic identity of the pipeline on a configured metric and
reports the worst residual against its tolerance.

A check is written in three steps: its random draws (gauges, rescalings,
sections), then a `residual(points)` function that evaluates the law on a
batch of chart points (P, n), then `return ctx.sweep(rng, residual, rule)`.
The sweep draws the points of a count rule from `COUNTS`, calls the residual
once on the whole batch and tracks the worst point.  A residual is an array
whose leading axis runs over the points, a dict of named blocks of such
arrays, or a list of these.  The checks with no chart points
(`algebra-grading`, `sigma-pairing`), with one batch per cocycle variant
(`cocycle-identity`, `cocycle-factorization`), with one residual per draw of
a stacked gauge draw (`k1-erasure`) or with a single point
(`finite-consistency`) call `Tracker.add` themselves.

Checks are deterministic: every check derives its own RNG from (seed,
check_id), so results are bit-identical across runs and independent of
execution order.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import brst, cartan, dressing, jets, metrics, oracle, tractor
from .fields import (JetField, ScalarField, domain_poly_field, domain_poly_rows, domain_z_field,
                     field_matmul)
from .geometry import FrameError, Geometry
from .tractor import DEFAULT_Z

SUITES: dict = {}
META: dict = {}

# How many chart points a check samples, as a function of `--points` N.
COUNTS = {
    "all": lambda n: n,
    "half": lambda n: max(5, n // 2),
    "third": lambda n: max(4, n // 3),
    "quarter": lambda n: max(3, n // 4),
    "few": lambda n: min(3, n),
}


def check(suite, check_id, law, tol):
    def deco(fn):
        META[check_id] = {"suite": suite, "law": law, "tol": tol}
        SUITES.setdefault(suite, []).append((check_id, fn))
        return fn

    return deco


@dataclass
class CheckResult:
    suite: str
    check_id: str
    law: str
    metric: str
    points: int
    max_residual: float
    tolerance: float
    passed: bool
    worst_point: tuple = None
    block_diff: dict = None
    note: str = None

    def to_dict(self):
        out = {
            "suite": self.suite,
            "check_id": self.check_id,
            "law": self.law,
            "metric": self.metric,
            "points": self.points,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if not self.passed:
            out["worst_point"] = list(self.worst_point) if self.worst_point is not None else None
            out["block_diff"] = self.block_diff or {}
        if self.note:
            out["note"] = self.note
        return out


class Tracker:
    """Accumulates residuals with worst-point and per-block detail."""

    def __init__(self):
        self.max = 0.0
        self.worst = None
        self.blocks = {}
        self.note = None

    def add(self, points, value):
        """Track a residual over a batch of points (P, n), or one residual with no
        chart point when `points` is None: an array with the batch axis first, a
        dict of named blocks of such arrays, or a list of these.  Each block keeps
        its maximum over the batch; the worst point is the first point whose
        largest residual, over all blocks and list elements, is the maximum.  A
        NaN counts as the largest residual."""
        count = 1 if points is None else len(points)
        per_point = np.zeros(count)
        for part in value if isinstance(value, list) else [value]:
            for k, v in part.items() if isinstance(part, dict) else [(None, part)]:
                v = np.abs(np.asarray(v, dtype=float)).reshape(count, -1).max(axis=1)
                if k is not None:
                    self.blocks[k] = float(np.maximum(self.blocks.get(k, 0.0), v.max()))
                per_point = np.maximum(per_point, v)  # np.maximum keeps a NaN
        i = int(np.argmax(per_point))  # the first NaN, else the first maximum
        # a NaN replaces any number, and nothing replaces a NaN
        if not (np.isnan(self.max) or per_point[i] <= self.max):
            self.max = float(per_point[i])
            self.worst = None if points is None else tuple(float(x) for x in points[i])


class Context:
    def __init__(self, metric, seed=0, npoints=20, tolerances=None):
        self.metric = metric
        self.seed = int(seed)
        self.npoints = int(npoints)
        if self.seed < 0:
            # numpy's seed sequences take no negative entropy
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.npoints < 1:
            # a check that samples no point would pass with residual 0
            raise ValueError(f"npoints must be at least 1, got {self.npoints}")
        self.tol_overrides = dict(tolerances or {})
        self.points_drawn = 0  # running total over every call of `points`
        self._pipeline = None
        self._calibration = None

    def rng(self, check_id):
        return np.random.default_rng([self.seed, zlib.crc32(check_id.encode())])

    def points(self, rng, count=None):
        pts = metrics.sample_points(self.metric, count or self.npoints, rng)
        self.points_drawn += len(pts)
        return pts

    def sweep(self, rng, residual, rule):
        """Track `residual(points)` on the batch of points (P, n) of a count rule."""
        tr = Tracker()
        pts = self.points(rng, COUNTS[rule](self.npoints))
        tr.add(pts, residual(pts))
        return tr

    def tol(self, check_id):
        return float(self.tol_overrides.get(check_id, META[check_id]["tol"]))

    def pipeline(self):
        """The dressing chain of the normal connection, built once."""
        if self._pipeline is None:
            self._pipeline = dressing.normal_dressing_chain(self.metric)
        return self._pipeline

    def calibration(self):
        """The convention map, calibrated once; if calibration fails, every
        caller gets its error."""
        if self._calibration is None:
            rng = self.rng("convention-calibration")
            zf = ScalarField.from_expression(DEFAULT_Z)
            try:
                self._calibration = tractor.calibrate_convention_map(
                    self.metric, zf, self.points(rng, min(5, self.npoints)), rng
                )
            except Exception as exc:
                self._calibration = exc
        if isinstance(self._calibration, Exception):
            raise self._calibration
        return self._calibration


def _value(arr):
    return np.asarray(arr)[..., 0]


def _joined(points, *blocks):
    """The blocks side by side, each flattened behind the batch axes of `points`."""
    lead = np.shape(points)[:-1]
    return np.concatenate([np.reshape(b, lead + (-1,)) for b in blocks], axis=-1)


def _membership(gfield, p, eta):
    """g^T Sigma g - Sigma of a matrix field at order 1: zero where its values lie in H,
    the only place where the closed form `cartan.inverse` takes is the inverse."""
    alg, g = jets.algebra(gfield.n, 1), gfield.at(p, 1)
    sig = alg.const(cartan.sigma_matrix(eta))
    return alg.matmul(np.swapaxes(g, -3, -2), alg.matmul(sig, g)) - sig


def _expm(a):
    """exp(a) by its Taylor series to 24 terms."""
    out = np.eye(a.shape[0])
    p = out
    for k in range(1, 24):
        p = p @ a / k
        out = out + p
    return out


def _eta_antisymmetric(a, eta):
    """a - eta^-1 a^T eta: twice the eta-antisymmetric part of a (eta v + v^T eta = 0)."""
    return a - np.linalg.inv(eta) @ a.T @ eta


def random_eta_orthogonal(rng, eta):
    """exp(v/2) of a random eta-antisymmetric v from normal entries of scale 0.4."""
    return _expm(_eta_antisymmetric(rng.normal(size=eta.shape) * 0.4, eta) / 2)


def apply_matrix_field(mfield: JetField, vfield: JetField) -> JetField:
    def fn(point, order):
        alg = jets.algebra(mfield.n, order)
        return cartan.matvec(alg, mfield.at(point, order), vfield.at(point, order))

    return JetField(fn, mfield.n, min(mfield.max_order, vfield.max_order))


def random_section(rng, metric):
    return cartan.section_field(
        metric,
        domain_poly_field(rng, metric, 2, 1.0),
        domain_poly_rows(rng, metric, (metric.n,), 2, 1.0),
        domain_poly_field(rng, metric, 2, 1.0),
    )


# ---------------------------------------------------------------------------
# suite: riemann-laws
# ---------------------------------------------------------------------------


@check("riemann-laws", "metricity", "nabla_lam g_{mu nu} = 0", 1e-11)
def check_metricity(ctx, rng):
    def residual(p):
        geom = Geometry(ctx.metric, p)
        return geom.covariant_derivative(geom.g(2), "dd")
    return ctx.sweep(rng, residual, "all")


@check("riemann-laws", "frame-residuals", "e^T eta e = g, e e^-1 = 1, g g^-1 = 1", 1e-11)
def check_frame(ctx, rng):
    alg = jets.algebra(ctx.metric.n, 3)
    one = alg.const(np.eye(ctx.metric.n))

    def residual(p):
        # whole order-3 jets: an inverse wrong above order 0 fails here
        geom = Geometry(ctx.metric, p)
        e3 = geom.e(3)
        ete = alg.matmul(np.swapaxes(e3, -3, -2), alg.matmul(alg.const(ctx.metric.eta), e3))
        return {
            "e^T.eta.e - g": ete - geom.g3,
            "e.e^-1 - 1": alg.matmul(e3, geom.einv(3)) - one,
            "g.g^-1 - 1": alg.matmul(geom.g3, geom.ginv(3)) - one,
        }
    return ctx.sweep(rng, residual, "all")


@check("riemann-laws", "curvature-symmetries",
       "Gamma and Ricci symmetric; lowered Riemann pair-antisymmetric; first Bianchi", 1e-9)
def check_curvature_symmetries(ctx, rng):
    def residual(p):
        geom = Geometry(ctx.metric, p)
        riem_up = _value(geom.riemann(0))  # first: gamma(0) truncates its Gamma
        gam = _value(geom.gamma(0))
        g = _value(geom.g(1))
        riem = np.einsum("...ra,...asmn->...rsmn", g, riem_up)
        ricci = _value(geom.ricci(0))
        return {
            "Gamma(mu,nu) sym": gam - np.swapaxes(gam, -2, -1),
            "Ricci sym": ricci - np.swapaxes(ricci, -2, -1),
            "R antisym last": riem + np.swapaxes(riem, -2, -1),
            "R antisym first": riem + np.swapaxes(riem, -4, -3),
            "R pair sym": riem - np.einsum("...rsmn->...mnrs", riem),
            "first Bianchi": riem_up + np.einsum("...rmns->...rsmn", riem_up)
            + np.einsum("...rnsm->...rsmn", riem_up),
        }
    return ctx.sweep(rng, residual, "all")


@check("riemann-laws", "conformal-traces",
       "Weyl totally trace-free; Cotton g-trace free", 1e-9)
def check_conformal_traces(ctx, rng):
    def residual(p):
        geom = Geometry(ctx.metric, p)
        cotton, w = geom.cotton, geom.weyl  # Cotton first: the Weyl tensor truncates its jets
        g = _value(geom.g(1))
        ginv = np.linalg.inv(g)
        return {
            "W^r_{s r n}": np.einsum("...rsrn->...sn", w),
            "W^r_{s m r}": np.einsum("...rsmr->...sm", w),
            "g^{sm} W^r_{s m n}": np.einsum("...sm,...rsmn->...rn", ginv, w),
            "g^{mn} C_{m l, n}": np.einsum("...mn,...mln->...l", ginv, cotton),
        }
    return ctx.sweep(rng, residual, "all")


@check("riemann-laws", "schouten-weyl-law",
       "P(z^2 g) = P + nabla Upsilon - Upsilon Upsilon + Upsilon^2/2 g", 1e-8)
def check_schouten_weyl(ctx, rng):
    zf = domain_z_field(rng, ctx.metric)
    hat = ctx.metric.rescale(zf)

    def residual(p):
        geom, geom_hat = Geometry(ctx.metric, p), Geometry(hat, p)
        ups = dressing.upsilon_row(zf, p, 1, ctx.metric.n)
        P, u0 = _value(geom.schouten(0)), _value(ups)  # P first: nabla truncates its Gamma
        nab_u = _value(geom.covariant_derivative(ups, "d"))
        g = _value(geom.g(0))
        ups2 = np.einsum("...a,...ab,...b->...", u0, np.linalg.inv(g), u0)
        expected = (P + nab_u - u0[..., :, None] * u0[..., None, :]
                    + 0.5 * ups2[..., None, None] * g)
        return _value(geom_hat.schouten(0)) - expected
    return ctx.sweep(rng, residual, "third")


@check("riemann-laws", "weyl-conformal-invariance",
       "W^r_{s m n}(z^2 g) = W^r_{s m n}(g)", 1e-7)
def check_weyl_invariance(ctx, rng):
    zf = domain_z_field(rng, ctx.metric)
    hat = ctx.metric.rescale(zf)

    def residual(p):
        return Geometry(hat, p).weyl - Geometry(ctx.metric, p).weyl
    return ctx.sweep(rng, residual, "third")


@check("riemann-laws", "contracted-bianchi",
       "nabla^mu (R_{mu nu} - R/2 g_{mu nu}) = 0", 1e-7)
def check_contracted_bianchi(ctx, rng):
    n = ctx.metric.n
    a1 = jets.algebra(n, 1)

    def residual(p):
        geom = Geometry(ctx.metric, p)
        einstein = geom.ricci(1) - 0.5 * a1.mul(geom.scalar(1)[..., None, None, :], geom.g(1))
        nab = _value(geom.covariant_derivative(einstein, "dd"))  # [lam, mu, nu]
        ginv = np.linalg.inv(_value(geom.g(0)))
        return np.einsum("...lm,...lmn->...n", ginv, nab)
    return ctx.sweep(rng, residual, "all")


@check("riemann-laws", "spin-connection",
       "A eta-antisymmetric and torsion-free: d theta + A ^ theta = 0", 1e-10)
def check_spin_connection(ctx, rng):
    a1 = jets.algebra(ctx.metric.n, 1)
    eta = ctx.metric.eta

    def residual(p):
        geom = Geometry(ctx.metric, p)
        A = _value(geom.spin(0))
        anti = np.einsum("ac,...mcb->...mab", eta, A) + np.einsum("bc,...mca->...mab", eta, A)
        e1 = geom.e(1)
        dev = _value(a1.grad(e1, 2))  # d_mu e^a_nu
        ev = _value(e1)
        t1 = np.einsum("...man->...amn", dev) - np.einsum("...nam->...amn", dev)
        t2 = np.einsum("...mab,...bn->...amn", A, ev) - np.einsum("...nab,...bm->...amn", A, ev)
        return {"eta-antisymmetry": anti, "torsion": t1 + t2}
    return ctx.sweep(rng, residual, "all")


@check("riemann-laws", "fd-oracle",
       "Christoffel and Riemann agree with finite-difference derivatives of g", 1e-5)
def check_fd_oracle(ctx, rng):
    metric = ctx.metric

    def g_val(x):
        return _value(metric.g(x, 0))

    def gamma_val(x):
        return _value(Geometry(metric, x).gamma(0))

    def residual(p):
        dg = oracle.fd_grad(g_val, p)
        ginv = np.linalg.inv(g_val(p))
        gam_fd = 0.5 * np.einsum(
            "...ab,...bmn->...amn",
            ginv,
            np.einsum("...mbn->...bmn", dg) + np.einsum("...nbm->...bmn", dg) - dg,
        )
        dgam = oracle.fd_grad(gamma_val, p)
        riem = _value(Geometry(metric, p).riemann(0))  # first: gamma(0) truncates its Gamma
        gam = gamma_val(p)
        riem_fd = (
            np.einsum("...mrns->...rsmn", dgam)
            - np.einsum("...nrms->...rsmn", dgam)
            + np.einsum("...rml,...lns->...rsmn", gam, gam)
            - np.einsum("...rnl,...lms->...rsmn", gam, gam)
        )
        scale = 1.0 + np.abs(riem_fd).max(axis=(-4, -3, -2, -1), keepdims=True)
        return {
            "Gamma vs fd": gam - gam_fd,
            "Riemann vs fd": (riem - riem_fd) / scale,
        }
    return ctx.sweep(rng, residual, "few")


# ---------------------------------------------------------------------------
# suite: cartan-gauge
# ---------------------------------------------------------------------------


@check("cartan-gauge", "algebra-grading",
       "Sigma-antisymmetry of algebra elements; graded bracket closure; H membership", 1e-10)
def check_algebra(ctx, rng):
    tr = Tracker()
    eta = ctx.metric.eta
    n = ctx.metric.n
    for _ in range(10):
        v = _eta_antisymmetric(rng.normal(size=(n, n)), eta)
        m1 = cartan.embed_algebra(rng.normal(), v, rng.normal(size=n), rng.normal(size=n), eta)
        v2 = _eta_antisymmetric(rng.normal(size=(n, n)), eta)
        m2 = cartan.embed_algebra(rng.normal(), v2, rng.normal(size=n), rng.normal(size=n), eta)
        comm = m1 @ m2 - m2 @ m1
        h = cartan.h_matrix(float(np.exp(rng.normal() * 0.3)), random_eta_orthogonal(rng, eta),
                            rng.normal(size=n) * 0.4, eta)
        eps, vv, tau, iota = cartan.split_algebra(m1)
        tr.add(None, {
            "bracket closure": cartan.sigma_antisymmetry(comm, eta) / (1 + np.abs(comm).max()),
            "H membership": cartan.sigma_membership(h, eta),
            "block roundtrip": cartan.embed_algebra(eps, vv, tau, iota, eta) - m1,
        })
    return tr


@check("cartan-gauge", "gt0-table",
       "gauge transform by (z, S): block table of the transformed connection", 1e-9)
def check_gt0(ctx, rng):
    n = ctx.metric.n
    wn = ctx.pipeline()["wn"]
    zf = domain_z_field(rng, ctx.metric)
    S = random_eta_orthogonal(rng, ctx.metric.eta)
    gam0 = cartan.h_field(ctx.metric, z=zf, S=S)
    w0 = cartan.transform_connection(wn, gam0)
    Sinv = np.linalg.inv(S)

    def residual(p):
        b0 = {k: _value(v) for k, v in cartan.conn_blocks(w0.at(p, 0)).items()}
        bn = {k: _value(v) for k, v in cartan.conn_blocks(wn.at(p, 0)).items()}
        ups = _value(dressing.upsilon_row(zf, p, 0, n))
        zv = _value(zf.coeffs(p, 0))[..., None, None]
        return {
            "a": b0["a"] - (bn["a"] + ups),
            "P": b0["P"] - bn["P"] @ S / zv,
            "theta": b0["theta"] - zv * np.einsum("ab,...bm->...am", Sinv, bn["theta"]),
            "A": b0["A"] - np.einsum("ab,...mbc,cd->...mad", Sinv, bn["A"], S),
            "P^t": b0["P_t"] - np.einsum("ab,...mb->...ma", Sinv, bn["P_t"]) / zv,
            "theta^t": b0["theta_t"] - zv * bn["theta_t"] @ S,
            "H membership": _membership(gam0, p, ctx.metric.eta),
        }
    return ctx.sweep(rng, residual, "half")


@check("cartan-gauge", "gt1-table",
       "gauge transform by K1(r): block table of the transformed connection", 1e-9)
def check_gt1(ctx, rng):
    n = ctx.metric.n
    eta_inv = np.linalg.inv(ctx.metric.eta)
    wn = ctx.pipeline()["wn"]
    r_fields = domain_poly_rows(rng, ctx.metric, (n,), 2, 0.4)
    gam1 = cartan.h_field(ctx.metric, r=r_fields)
    w1g = cartan.transform_connection(wn, gam1)
    a1 = jets.algebra(n, 1)

    def residual(p):
        b1 = {k: _value(v) for k, v in cartan.conn_blocks(w1g.at(p, 0)).items()}
        bn = {k: _value(v) for k, v in cartan.conn_blocks(wn.at(p, 0)).items()}
        rj = r_fields.coeffs(p, 1)
        r = _value(rj)
        rt = r @ eta_inv.T
        dr = _value(a1.grad(rj, 1))  # d_mu r_b
        drt = np.einsum("ab,...mb->...ma", eta_inv, dr)
        rrt = np.einsum("...b,...b->...", r, rt)[..., None, None]
        av, Pv, thv, Av, Ptv, thtv = (bn[k] for k in ("a", "P", "theta", "A", "P_t", "theta_t"))
        return {
            "a": b1["a"] - (av - np.einsum("...b,...bm->...m", r, thv)),
            "theta": b1["theta"] - thv,
            "theta^t": b1["theta_t"] - thtv,
            "A": b1["A"] - (np.einsum("...am,...b->...mab", thv, r) + Av
                            - np.einsum("...a,...mb->...mab", rt, thtv)),
            "P": b1["P"] - (np.einsum("...m,...b->...mb", av, r)
                            - np.einsum("...c,...cm,...b->...mb", r, thv, r)
                            + Pv - np.einsum("...c,...mcb->...mb", r, Av) + 0.5 * rrt * thtv + dr),
            "P^t": b1["P_t"] - (0.5 * rrt * np.swapaxes(thv, -2, -1)
                                + np.einsum("...mab,...b->...ma", Av, rt)
                                - np.einsum("...a,...mb,...b->...ma", rt, thtv, rt) + Ptv
                                + np.einsum("...a,...m->...ma", rt, av) + drt),
            "-a (corner)": b1["a"] - (av - np.einsum("...mb,...b->...m", thtv, rt)),
            "H membership": _membership(gam1, p, ctx.metric.eta),
        }
    return ctx.sweep(rng, residual, "half")


@check("cartan-gauge", "gtvphi-table",
       "section transforms: (z,S) and K1(r) columns", 1e-9)
def check_gtvphi(ctx, rng):
    n = ctx.metric.n
    eta_inv = np.linalg.inv(ctx.metric.eta)
    phi = random_section(rng, ctx.metric)
    zf = domain_z_field(rng, ctx.metric)
    S = random_eta_orthogonal(rng, ctx.metric.eta)
    gam0 = cartan.h_field(ctx.metric, z=zf, S=S)
    r_fields = domain_poly_rows(rng, ctx.metric, (n,), 2, 0.4)
    gam1 = cartan.h_field(ctx.metric, r=r_fields)
    phi0 = cartan.transform_section(phi, gam0)
    phi1 = cartan.transform_section(phi, gam1)
    Sinv = np.linalg.inv(S)

    def residual(p):
        pv = _value(phi.at(p, 0))
        rho, ell, sig = pv[..., :1], pv[..., 1:-1], pv[..., -1:]
        zv = _value(zf.coeffs(p, 0))[..., None]
        r = _value(r_fields.coeffs(p, 0))
        rt = r @ eta_inv.T
        r_ell = np.einsum("...a,...a->...", r, ell)[..., None]
        r_rt = np.einsum("...a,...a->...", r, rt)[..., None]
        return {
            "gamma0": _value(phi0.at(p, 0)) - np.concatenate([rho / zv, ell @ Sinv.T, zv * sig], -1),
            "gamma1": _value(phi1.at(p, 0)) - np.concatenate(
                [rho - r_ell + 0.5 * r_rt * sig, ell - rt * sig, sig], -1
            ),
        }
    return ctx.sweep(rng, residual, "half")


@check("cartan-gauge", "sigma-pairing",
       "<phi, phi'> = phi^T Sigma phi' is H-invariant", 1e-11)
def check_sigma_pairing(ctx, rng):
    tr = Tracker()
    eta = ctx.metric.eta
    n = ctx.metric.n
    for _ in range(20):
        phi = rng.normal(size=n + 2)
        phi2 = rng.normal(size=n + 2)
        h = cartan.h_matrix(float(np.exp(rng.normal() * 0.3)), random_eta_orthogonal(rng, eta),
                            rng.normal(size=n) * 0.4, eta)
        hinv = np.linalg.inv(h)
        val = cartan.invariant_pairing(hinv @ phi, hinv @ phi2, eta)
        tr.add(None, val - cartan.invariant_pairing(phi, phi2, eta))
    return tr


@check("cartan-gauge", "curvature-tensoriality",
       "curvature of the transformed connection = g^-1 Omega g", 1e-8)
def check_curv_tensorial(ctx, rng):
    n = ctx.metric.n
    wn = ctx.pipeline()["wn"]
    zf = domain_z_field(rng, ctx.metric)
    r_fields = domain_poly_rows(rng, ctx.metric, (n,), 2, 0.4)
    gam = cartan.h_field(ctx.metric, z=zf, S=random_eta_orthogonal(rng, ctx.metric.eta), r=r_fields)
    wg = cartan.transform_connection(wn, gam)
    curv_base = cartan.curvature(wn)
    curv_direct = cartan.curvature(wg)

    def residual(p):
        return _value(curv_direct(p, 0) - cartan.transform_curvature(curv_base(p, 0), gam, p))
    return ctx.sweep(rng, residual, "half")


@check("cartan-gauge", "soldering-metric",
       "metric induced by the (z,S)-transformed connection is z^2 g", 1e-9)
def check_soldering(ctx, rng):
    n = ctx.metric.n
    wn = ctx.pipeline()["wn"]
    zf = domain_z_field(rng, ctx.metric)
    gam0 = cartan.h_field(ctx.metric, z=zf, S=random_eta_orthogonal(rng, ctx.metric.eta))
    wg = cartan.transform_connection(wn, gam0)
    a0 = jets.algebra(n, 0)

    def residual(p):
        e = np.swapaxes(wg.col0(p, 0)[..., 1:-1, :], -3, -2)  # e^a_mu
        induced = _value(a0.matmul(np.swapaxes(e, -3, -2), a0.matmul(a0.const(ctx.metric.eta), e)))
        zv = _value(zf.coeffs(p, 0))[..., None, None]
        return induced - zv**2 * _value(Geometry(ctx.metric, p).g(0))
    return ctx.sweep(rng, residual, "half")


@check("cartan-gauge", "normality",
       "curvature of the normal connection: torsion, trace, and Ricci-type Weyl trace vanish", 1e-8)
def check_normality(ctx, rng):
    wn = ctx.pipeline()["wn"]
    curv = cartan.curvature(wn)

    def residual(p):
        geom = Geometry(ctx.metric, p)
        rep = cartan.normality_report(_value(curv(p, 0)), _value(geom.einv(0)))
        return {k: v for k, v in rep.items() if k != "normal"}
    return ctx.sweep(rng, residual, "all")


@check("cartan-gauge", "normality-gauge-covariant",
       "normality survives a boost gauge transform", 1e-8)
def check_normality_cov(ctx, rng):
    n = ctx.metric.n
    wn = ctx.pipeline()["wn"]
    gam1 = cartan.h_field(ctx.metric, r=domain_poly_rows(rng, ctx.metric, (n,), 2, 0.4))
    wg = cartan.transform_connection(wn, gam1)
    curv = cartan.curvature(wg)

    def residual(p):  # the curvature first: the frame then truncates its order-2 vielbein
        rep = cartan.normality_report(_value(curv(p, 0)), _value(wg.frame(p, 0)[1]))
        return {k: v for k, v in rep.items() if k != "normal"}
    return ctx.sweep(rng, residual, "third")


@check("cartan-gauge", "bianchi",
       "d Omega + [w, Omega] = 0 (exterior derivative by finite differences)", 1e-7)
def check_bianchi(ctx, rng):
    wn = ctx.pipeline()["wn"]
    curv = cartan.curvature(wn)

    def curv_val(x):
        return _value(curv(x, 0))

    def residual(p):
        dF = oracle.fd_grad(curv_val, p, h=1e-4)
        F = curv_val(p)  # first: w truncates the connection's memoised order-1 jet
        w = _value(wn.at(p, 0))
        brk = np.einsum("...lab,...mnbc->...lmnac", w, F) - np.einsum("...mnab,...lbc->...lmnac", F, w)
        t = dF + brk
        return t + np.einsum("...lmnac->...mnlac", t) + np.einsum("...lmnac->...nlmac", t)
    return ctx.sweep(rng, residual, "few")


# ---------------------------------------------------------------------------
# suite: dressing-k1
# ---------------------------------------------------------------------------


@check("dressing-k1", "k1-erasure",
       "dressing erases boost gauge transforms: (w^gamma1)^u1 = w", 1e-9)
def check_k1_erasure(ctx, rng):
    tr = Tracker()
    n = ctx.metric.n
    wn = ctx.pipeline()["wn"]
    pts = ctx.points(rng, COUNTS["few"](ctx.npoints))
    b = wn.at(pts, 1)
    scale = 1.0 + np.abs(b).max(axis=(-4, -3, -2, -1), keepdims=True)
    # the 20 boosts on one draw axis, in front of the points
    gam1 = cartan.h_field(ctx.metric, r=domain_poly_rows(rng, ctx.metric, (20, n), 2, 0.5))
    dressed = dressing.dressing_chain(cartan.transform_connection(wn, gam1))["w1"]
    for res in np.abs(dressed.at(pts, 1) - b) / scale:
        tr.add(pts, res)
    return tr


@check("dressing-k1", "boost-constraint",
       "dressed connection has vanishing trace block; q = a . e^-1", 1e-10)
def check_boost_constraint(ctx, rng):
    n = ctx.metric.n
    wn = ctx.pipeline()["wn"]
    zf = domain_z_field(rng, ctx.metric)
    gam = cartan.h_field(ctx.metric, z=zf, r=domain_poly_rows(rng, ctx.metric, (n,), 2, 0.4))
    chain = dressing.dressing_chain(cartan.transform_connection(wn, gam))

    def residual(p):
        return {"a": cartan.conn_blocks(chain["w1"].at(p, 0))["a"],
                "gauge H membership": _membership(gam, p, ctx.metric.eta),
                "u1 H membership": _membership(chain["u1"], p, ctx.metric.eta)}
    return ctx.sweep(rng, residual, "half")


@check("dressing-k1", "dressed-curvature",
       "u^-1 Omega u equals the structure-equation curvature of the dressed connection", 1e-9)
def check_dressed_curvature(ctx, rng):
    n = ctx.metric.n
    wn = ctx.pipeline()["wn"]
    gam1 = cartan.h_field(ctx.metric, r=domain_poly_rows(rng, ctx.metric, (n,), 2, 0.4))
    wg = cartan.transform_connection(wn, gam1)
    chain = dressing.dressing_chain(wg)
    curv_base = cartan.curvature(wg)
    curv_dressed = cartan.curvature(chain["w1"])

    def residual(p):
        return _value(curv_dressed(p, 0)
                      - cartan.transform_curvature(curv_base(p, 0), chain["u1"], p))
    return ctx.sweep(rng, residual, "third")


@check("dressing-k1", "holonomic-blocks",
       "fully dressed connection: blocks (0, P, 0; dx, Gamma, g^-1 P; 0, g dx, 0)", 1e-9)
def check_holonomic_blocks(ctx, rng):
    n = ctx.metric.n
    wl = ctx.pipeline()["wl"]

    def residual(p):
        geom = Geometry(ctx.metric, p)
        b = {k: _value(v) for k, v in cartan.conn_blocks(wl.at(p, 0)).items()}
        P = _value(geom.schouten(0))
        g = _value(geom.g(0))
        gam = _value(geom.gamma(0))
        return {
            "dx": b["theta"] - np.eye(n),
            "Gamma": b["A"] - np.einsum("...rmn->...mrn", gam),
            "P = Schouten": b["P"] - P,
            "g^-1 P": b["P_t"] - np.einsum("...ra,...ma->...mr", np.linalg.inv(g), P),
            "g dx": b["theta_t"] - g,
            "a": b["a"],
        }
    return ctx.sweep(rng, residual, "all")


@check("dressing-k1", "curvature-f-block",
       "f block of the dressed curvature is the antisymmetrized Schouten (zero here)", 1e-9)
def check_f_block(ctx, rng):
    wl = ctx.pipeline()["wl"]
    curv = cartan.curvature(wl)

    def residual(p):
        return _value(curv(p, 0))[..., 0, 0]
    return ctx.sweep(rng, residual, "third")


@check("dressing-k1", "tractor-metric-G",
       "G = ubar^T Sigma ubar = (0,0,-1; 0,g,0; -1,0,0) and dG = w^T G + G w", 1e-10)
def check_metric_G(ctx, rng):
    pipe = ctx.pipeline()
    ubar, wl = pipe["ubar"], pipe["wl"]
    sig = cartan.sigma_matrix(ctx.metric.eta)

    def residual(p):
        G1 = dressing.tractor_metric_G(ctx.metric, p, 1)
        defect = cartan.metric_defect(wl, G1, p)  # first: it reads ubar at order 1
        ub = _value(ubar.at(p, 0))
        return {"G assembly": np.swapaxes(ub, -2, -1) @ sig @ ub - _value(G1), "D_L G": defect}
    return ctx.sweep(rng, residual, "half")


@check("dressing-k1", "G-pairing-weyl-invariant",
       "<phi_L, phi_L'>_G is invariant under the residual Weyl transform", 1e-10)
def check_g_pairing(ctx, rng):
    pipe = ctx.pipeline()
    zf = domain_z_field(rng, ctx.metric)
    hat = ctx.metric.rescale(zf)
    cbar = dressing.weyl_cocycle(ctx.metric, zf, "Cbar")
    phis = [dressing.dress(dressing.dress(random_section(rng, ctx.metric), pipe["u1"]), pipe["ubar"])
            for _ in range(2)]

    def residual(p):
        G = _value(dressing.tractor_metric_G(ctx.metric, p, 0))
        Gz = _value(dressing.tractor_metric_G(hat, p, 0))
        a, b = (_value(f.at(p, 0)) for f in phis)
        az, bz = (_value(cartan.transform_section(f, cbar).at(p, 0)) for f in phis)
        pairing = "...a,...ab,...b->..."
        return np.einsum(pairing, az, Gz, bz) - np.einsum(pairing, a, G, b)
    return ctx.sweep(rng, residual, "half")


# ---------------------------------------------------------------------------
# suite: dressing-residual
# ---------------------------------------------------------------------------


@check("dressing-residual", "cocycle-identity",
       "C(z z') = C(z') Z'^-1 C(z) Z' for both cocycles", 1e-10)
def check_cocycle_identity(ctx, rng):
    tr = Tracker()
    n = ctx.metric.n
    a1 = jets.algebra(n, 1)
    z1, z2 = domain_z_field(rng, ctx.metric), domain_z_field(rng, ctx.metric)
    zz = z1 * z2
    for variant in ("C", "Cbar"):
        c1 = dressing.weyl_cocycle(ctx.metric, z1, variant)
        c2 = dressing.weyl_cocycle(ctx.metric, z2, variant)
        c12 = dressing.weyl_cocycle(ctx.metric, zz, variant)
        _, z_factor = dressing.cocycle_factors(ctx.metric, z2, variant)
        pts = ctx.points(rng, COUNTS["half"](ctx.npoints))
        Z2 = z_factor.at(pts, 1)
        rhs = a1.matmul(c2.at(pts, 1), a1.matmul(a1.inv_matrix(Z2), a1.matmul(c1.at(pts, 1), Z2)))
        tr.add(pts, {variant: c12.at(pts, 1) - rhs})
    return tr


@check("dressing-residual", "cocycle-factorization",
       "C = k1(z) Z and Cbar = k1bar(z) Zbar; C(1) = 1", 1e-12)
def check_cocycle_factorization(ctx, rng):
    tr = Tracker()
    n = ctx.metric.n
    a1 = jets.algebra(n, 1)
    zf = domain_z_field(rng, ctx.metric)
    one = ScalarField.constant(1.0)
    for variant in ("C", "Cbar"):
        whole = dressing.weyl_cocycle(ctx.metric, zf, variant)
        k1f, zfac = dressing.cocycle_factors(ctx.metric, zf, variant)
        ident = dressing.weyl_cocycle(ctx.metric, one, variant)
        pts = ctx.points(rng, COUNTS["third"](ctx.npoints))
        tr.add(pts, {
            f"{variant} = k1 Z": whole.at(pts, 1) - a1.matmul(k1f.at(pts, 1), zfac.at(pts, 1)),
            f"{variant}(1) = 1": ident.at(pts, 1) - a1.const(np.eye(n + 2)),
        })
    return tr


@check("dressing-residual", "dressing-weyl-cocycle",
       "u1 of the rescaled connection = Z^-1 u1 C(z)", 1e-9)
def check_dressing_weyl(ctx, rng):
    n = ctx.metric.n
    wn = ctx.pipeline()["wn"]
    u1 = ctx.pipeline()["u1"]
    zf = domain_z_field(rng, ctx.metric)
    zgauge = cartan.h_field(ctx.metric, z=zf)
    u1z = dressing.dressing_chain(cartan.transform_connection(wn, zgauge))["u1"]
    cz = dressing.weyl_cocycle(ctx.metric, zf, "C")
    a1 = jets.algebra(n, 1)

    def residual(p):
        z = zgauge.at(p, 1)
        rhs = a1.matmul(a1.inv_matrix(z), a1.matmul(u1.at(p, 1), cz.at(p, 1)))
        return u1z.at(p, 1) - rhs
    return ctx.sweep(rng, residual, "half")


@check("dressing-residual", "iterated-cocycle",
       "(u1^Z)^Z' = (Z Z')^-1 u1 C(z z')", 1e-9)
def check_iterated_cocycle(ctx, rng):
    n = ctx.metric.n
    wn = ctx.pipeline()["wn"]
    u1 = ctx.pipeline()["u1"]
    z1, z2 = domain_z_field(rng, ctx.metric), domain_z_field(rng, ctx.metric)
    zz = z1 * z2
    g1 = cartan.h_field(ctx.metric, z=z1)
    g12 = cartan.h_field(ctx.metric, z=zz)
    w_final = cartan.transform_connection(cartan.transform_connection(wn, g1),
                                          cartan.h_field(ctx.metric, z=z2))
    u_iter = dressing.dressing_chain(w_final)["u1"]
    c12 = dressing.weyl_cocycle(ctx.metric, zz, "C")
    a1 = jets.algebra(n, 1)

    def residual(p):
        rhs = a1.matmul(a1.inv_matrix(g12.at(p, 1)), a1.matmul(u1.at(p, 1), c12.at(p, 1)))
        return u_iter.at(p, 1) - rhs
    return ctx.sweep(rng, residual, "half")


@check("dressing-residual", "residual-two-pipeline-1",
       "first-stage residual Weyl transform: cocycle conjugation = rescale-then-redress", 1e-9)
def check_two_pipeline_1(ctx, rng):
    pipe = ctx.pipeline()
    zf = domain_z_field(rng, ctx.metric)
    cz = dressing.weyl_cocycle(ctx.metric, zf, "C")
    zgauge = cartan.h_field(ctx.metric, z=zf)
    chain_z = dressing.dressing_chain(cartan.transform_connection(pipe["wn"], zgauge))
    conn_a = cartan.transform_connection(pipe["w1"], cz)
    phi = random_section(rng, ctx.metric)
    phi1 = dressing.dress(phi, pipe["u1"])
    phi_a = cartan.transform_section(phi1, cz)
    phi_b = dressing.dress(cartan.transform_section(phi, zgauge), chain_z["u1"])

    def residual(p):
        return {
            "connection": conn_a.at(p, 1) - chain_z["w1"].at(p, 1),
            "section": phi_a.at(p, 1) - phi_b.at(p, 1),
        }
    return ctx.sweep(rng, residual, "half")


@check("dressing-residual", "residual-two-pipeline-L",
       "holonomic-stage residual Weyl transform: cocycle conjugation = rescale-then-redress", 1e-9)
def check_two_pipeline_L(ctx, rng):
    pipe = ctx.pipeline()
    zf = domain_z_field(rng, ctx.metric)
    cbar = dressing.weyl_cocycle(ctx.metric, zf, "Cbar")
    zgauge = cartan.h_field(ctx.metric, z=zf)
    chain_z = dressing.dressing_chain(cartan.transform_connection(pipe["wn"], zgauge))
    wlz_cocycle = cartan.transform_connection(pipe["wl"], cbar)
    phi = random_section(rng, ctx.metric)
    phil = dressing.dress(dressing.dress(phi, pipe["u1"]), pipe["ubar"])
    phil_a = cartan.transform_section(phil, cbar)
    phil_b = dressing.dress(
        dressing.dress(cartan.transform_section(phi, zgauge), chain_z["u1"]), chain_z["ubar"]
    )

    def residual(p):
        wlz = chain_z["wl"].at(p, 0)  # first: it reads the frame at order 2, pipe["wl"] at 1
        return {
            "connection": wlz_cocycle.at(p, 0) - wlz,
            "section": phil_a.at(p, 1) - phil_b.at(p, 1),
        }
    return ctx.sweep(rng, residual, "half")


@check("dressing-residual", "varpi1z-table",
       "first-stage residual Weyl transform: displayed blocks", 1e-9)
def check_varpi1z_table(ctx, rng):
    n = ctx.metric.n
    eta_inv = np.linalg.inv(ctx.metric.eta)
    pipe = ctx.pipeline()
    zf = domain_z_field(rng, ctx.metric)
    cz = dressing.weyl_cocycle(ctx.metric, zf, "C")
    w1z = cartan.transform_connection(pipe["w1"], cz)
    a1 = jets.algebra(n, 1)

    def residual(p):
        geom = Geometry(ctx.metric, p)
        bz = {k: _value(v) for k, v in cartan.conn_blocks(w1z.at(p, 0)).items()}
        b1 = {k: _value(v) for k, v in cartan.conn_blocks(pipe["w1"].at(p, 0)).items()}
        zv = _value(zf.coeffs(p, 0))[..., None, None]
        upsj = dressing.upsilon_row(zf, p, 1, n)
        upsa_j = a1.matmul(upsj[..., None, :, :], geom.einv(1))[..., 0, :, :]
        upsa = _value(upsa_j)
        upsa_t = upsa @ eta_inv.T
        ups2 = np.einsum("...a,...a->...", upsa, upsa_t)[..., None, None]
        d_upsa = _value(a1.grad(upsa_j, 1))
        # row-covector spin covariant derivative: d(row) - row A  (pipeline-pinned sign)
        nabla_upsa = d_upsa - np.einsum("...c,...mcb->...mb", upsa, b1["A"])
        return {
            "a": bz["a"],
            "theta": bz["theta"] - zv * b1["theta"],
            "A": bz["A"] - (b1["A"] + np.einsum("...am,...b->...mab", b1["theta"], upsa)
                            - np.einsum("...a,...mb->...mab", upsa_t, b1["theta_t"])),
            "P": bz["P"] - (b1["P"] + nabla_upsa
                            - np.einsum("...c,...cm,...b->...mb", upsa, b1["theta"], upsa)
                            + 0.5 * ups2 * b1["theta_t"]) / zv,
        }
    return ctx.sweep(rng, residual, "half")


@check("dressing-residual", "phi1z-column",
       "first-stage residual Weyl transform of a dressed section: displayed column", 1e-9)
def check_phi1z_column(ctx, rng):
    n = ctx.metric.n
    eta_inv = np.linalg.inv(ctx.metric.eta)
    pipe = ctx.pipeline()
    zf = domain_z_field(rng, ctx.metric)
    cz = dressing.weyl_cocycle(ctx.metric, zf, "C")
    phi1 = dressing.dress(random_section(rng, ctx.metric), pipe["u1"])
    phi1z = cartan.transform_section(phi1, cz)

    def residual(p):
        geom = Geometry(ctx.metric, p)
        pv = _value(phi1.at(p, 0))
        rho1, ell1, sig = pv[..., :1], pv[..., 1:-1], pv[..., -1:]
        zv = _value(zf.coeffs(p, 0))[..., None]
        ups = _value(dressing.upsilon_row(zf, p, 0, n))
        upsa = np.einsum("...m,...ma->...a", ups, _value(geom.einv(0)))
        upsa_t = upsa @ eta_inv.T
        ups2 = np.einsum("...a,...a->...", upsa, upsa_t)[..., None]
        upsa_ell = np.einsum("...a,...a->...", upsa, ell1)[..., None]
        expected = np.concatenate(
            [(rho1 - upsa_ell + 0.5 * sig * ups2) / zv, ell1 - upsa_t * sig, zv * sig], -1
        )
        return _value(phi1z.at(p, 0)) - expected
    return ctx.sweep(rng, residual, "half")


@check("dressing-residual", "omega1z-table",
       "normal-case curvature blocks under residual Weyl: C -> (C - Upsilon.W)/z, W fixed", 1e-8)
def check_omega1z_table(ctx, rng):
    n = ctx.metric.n
    pipe = ctx.pipeline()
    zf = domain_z_field(rng, ctx.metric)
    cz = dressing.weyl_cocycle(ctx.metric, zf, "C")
    curv1 = cartan.curvature(pipe["w1"])

    def residual(p):
        geom = Geometry(ctx.metric, p)
        F1 = curv1(p, 0)
        b1 = cartan.curv_blocks(_value(F1))
        bz = cartan.curv_blocks(_value(cartan.transform_curvature(F1, cz, p)))
        zv = _value(zf.coeffs(p, 0))[..., None, None, None]
        upsa = np.einsum("...m,...ma->...a", _value(dressing.upsilon_row(zf, p, 0, n)),
                         _value(geom.einv(0)))
        return {
            "C": bz["C"] - (b1["C"] - np.einsum("...a,...mnab->...mnb", upsa, b1["W"])) / zv,
            "W": bz["W"] - b1["W"],
            "Theta": bz["Theta"],
            "f": bz["f"],
        }
    return ctx.sweep(rng, residual, "half")


@check("dressing-residual", "varpiLz-table",
       "holonomic residual Weyl transform: Christoffel and Schouten transformation laws", 1e-9)
def check_varpiLz_table(ctx, rng):
    n = ctx.metric.n
    pipe = ctx.pipeline()
    zf = domain_z_field(rng, ctx.metric)
    cbar = dressing.weyl_cocycle(ctx.metric, zf, "Cbar")
    wlz = cartan.transform_connection(pipe["wl"], cbar)

    def residual(p):
        geom = Geometry(ctx.metric, p)
        bz = {k: _value(v) for k, v in cartan.conn_blocks(wlz.at(p, 0)).items()}
        bl = {k: _value(v) for k, v in cartan.conn_blocks(pipe["wl"].at(p, 0)).items()}
        zv = _value(zf.coeffs(p, 0))[..., None, None]
        g = _value(geom.g(0))
        ginv = np.linalg.inv(g)
        upsj = dressing.upsilon_row(zf, p, 1, n)
        ups = _value(upsj)
        ups_up = np.einsum("...rn,...n->...r", ginv, ups)
        nab_u = _value(geom.covariant_derivative(upsj, "d"))
        ups2 = np.einsum("...a,...a->...", ups, ups_up)[..., None, None]
        return {
            "P (Schouten law)": bz["P"] - (bl["P"] + nab_u - ups[..., :, None] * ups[..., None, :]
                                           + 0.5 * ups2 * g),
            "Gamma (Christoffel law)": bz["A"] - (
                bl["A"] + np.einsum("...m,rn->...mrn", ups, np.eye(n))
                + np.einsum("...n,rm->...mrn", ups, np.eye(n))
                - np.einsum("...r,...mn->...mrn", ups_up, g)
            ),
            "g dx": bz["theta_t"] - zv**2 * g,
            "dx": bz["theta"] - np.eye(n),
        }
    return ctx.sweep(rng, residual, "half")


@check("dressing-residual", "phiLz-column",
       "holonomic residual Weyl transform of a dressed section: displayed column", 1e-9)
def check_phiLz_column(ctx, rng):
    n = ctx.metric.n
    pipe = ctx.pipeline()
    zf = domain_z_field(rng, ctx.metric)
    cbar = dressing.weyl_cocycle(ctx.metric, zf, "Cbar")
    phil = dressing.dress(dressing.dress(random_section(rng, ctx.metric), pipe["u1"]), pipe["ubar"])
    philz = cartan.transform_section(phil, cbar)

    def residual(p):
        geom = Geometry(ctx.metric, p)
        pv = _value(phil.at(p, 0))
        rho, ell, sig = pv[..., :1], pv[..., 1:-1], pv[..., -1:]
        zv = _value(zf.coeffs(p, 0))[..., None]
        ups = _value(dressing.upsilon_row(zf, p, 0, n))
        ups_up = np.einsum("...rn,...n->...r", np.linalg.inv(_value(geom.g(0))), ups)
        ups2 = np.einsum("...a,...a->...", ups, ups_up)[..., None]
        ups_ell = np.einsum("...a,...a->...", ups, ell)[..., None]
        expected = np.concatenate(
            [(rho - ups_ell + 0.5 * sig * ups2) / zv, (ell - ups_up * sig) / zv, zv * sig], -1
        )
        return _value(philz.at(p, 0)) - expected
    return ctx.sweep(rng, residual, "half")


@check("dressing-residual", "omegaLz-table",
       "holonomic normal-case curvature under residual Weyl: C -> C - Upsilon.W", 1e-8)
def check_omegaLz_table(ctx, rng):
    n = ctx.metric.n
    pipe = ctx.pipeline()
    zf = domain_z_field(rng, ctx.metric)
    cbar = dressing.weyl_cocycle(ctx.metric, zf, "Cbar")
    curvl = cartan.curvature(pipe["wl"])

    def residual(p):
        FL = curvl(p, 0)
        bl = cartan.curv_blocks(_value(FL))
        bz = cartan.curv_blocks(_value(cartan.transform_curvature(FL, cbar, p)))
        ups = _value(dressing.upsilon_row(zf, p, 0, n))
        return {
            "C": bz["C"] - (bl["C"] - np.einsum("...a,...mnab->...mnb", ups, bl["W"])),
            "Theta": bz["Theta"],
            "f": bz["f"],
        }
    return ctx.sweep(rng, residual, "half")


@check("dressing-residual", "lorentz-table",
       "residual Lorentz transform of first-stage composites: displayed table", 1e-9)
def check_lorentz_table(ctx, rng):
    pipe = ctx.pipeline()
    S = random_eta_orthogonal(rng, ctx.metric.eta)
    Sinv = np.linalg.inv(S)
    sfield = cartan.h_field(ctx.metric, S=S)
    w1s = cartan.transform_connection(pipe["w1"], sfield)
    phi1 = dressing.dress(random_section(rng, ctx.metric), pipe["u1"])
    phi1s = cartan.transform_section(phi1, sfield)

    def residual(p):
        bs = {k: _value(v) for k, v in cartan.conn_blocks(w1s.at(p, 0)).items()}
        b1 = {k: _value(v) for k, v in cartan.conn_blocks(pipe["w1"].at(p, 0)).items()}
        pv = _value(phi1.at(p, 0))
        return {
            "P S": bs["P"] - b1["P"] @ S,
            "S^-1 theta": bs["theta"] - np.einsum("ab,...bm->...am", Sinv, b1["theta"]),
            "S^-1 A S": bs["A"] - np.einsum("ab,...mbc,cd->...mad", Sinv, b1["A"], S),
            "S^-1 P^t": bs["P_t"] - b1["P_t"] @ Sinv.T,
            "theta^t S": bs["theta_t"] - b1["theta_t"] @ S,
            "phi column": _value(phi1s.at(p, 0))
            - np.concatenate([pv[..., :1], pv[..., 1:-1] @ Sinv.T, pv[..., -1:]], -1),
        }
    return ctx.sweep(rng, residual, "half")


@check("dressing-residual", "weyl-lorentz-commute",
       "residual Weyl and Lorentz actions commute (with C(z)^S = S^-1 C(z) S)", 1e-9)
def check_weyl_lorentz_commute(ctx, rng):
    pipe = ctx.pipeline()
    zf = domain_z_field(rng, ctx.metric)
    S = random_eta_orthogonal(rng, ctx.metric.eta)
    sfield = cartan.h_field(ctx.metric, S=S)
    sinv_field = cartan.h_field(ctx.metric, S=np.linalg.inv(S))
    cz = dressing.weyl_cocycle(ctx.metric, zf, "C")
    cz_s = field_matmul(field_matmul(sinv_field, cz), sfield)  # C(z)^S = S^-1 C(z) S
    route1 = cartan.transform_connection(cartan.transform_connection(pipe["w1"], cz), sfield)
    route2 = cartan.transform_connection(cartan.transform_connection(pipe["w1"], sfield), cz_s)

    def residual(p):
        return route1.at(p, 0) - route2.at(p, 0)
    return ctx.sweep(rng, residual, "third")


# ---------------------------------------------------------------------------
# suite: tractor-equivalence
# ---------------------------------------------------------------------------


@check("tractor-equivalence", "convention-calibration",
       "a unique reversal/lowering/sign dictionary matches both Weyl transformation laws", 1e-8)
def check_calibration(ctx, rng):
    tr = Tracker()
    cmap = ctx.calibration()
    tr.note = f"map: reverse={cmap.reverse}, lower={cmap.lower}, s_ell={cmap.s_ell}, s_rho={cmap.s_rho}"
    return tr


@check("tractor-equivalence", "flagship-equivalence",
       "dressed normal Cartan derivative = prolongation tractor derivative through the calibrated map",
       1e-8)
def check_flagship(ctx, rng):
    tr = Tracker()
    cmap = ctx.calibration()
    rep = tractor.equivalence_check(ctx.metric, ctx.points(rng), rng, cmap=cmap)
    tr.max, tr.worst = rep["max_residual"], rep["worst_point"]
    return tr


@check("tractor-equivalence", "pairing-transport",
       "the calibrated map carries the G-pairing to the tractor pairing up to one global sign", 1e-10)
def check_pairing_transport(ctx, rng):
    n = ctx.metric.n
    a0 = jets.algebra(n, 0)
    cmap = ctx.calibration()
    sign = None

    def residual(p):
        nonlocal sign
        geom = Geometry(ctx.metric, p)
        G = _value(dressing.tractor_metric_G(ctx.metric, p, 0))
        # three pairs (a, b) per point, drawn point by point; the pair axis goes in
        # front so that the per-point matrices broadcast over it
        a, b = np.moveaxis(rng.normal(size=(len(p), 3, 2, n + 2)), (2, 1), (0, 1))
        lhs = np.einsum("...a,...ab,...b->...", a, G, b)
        ta = cmap.apply(a0, a0.const(a), geom.g(0), geom.ginv(0))
        tb = cmap.apply(a0, a0.const(b), geom.g(0), geom.ginv(0))
        rhs = _value(tractor.inner(ctx.metric, p, ta, tb))
        sign = 1.0 if abs(rhs[0, 0] - lhs[0, 0]) < abs(rhs[0, 0] + lhs[0, 0]) else -1.0
        return (lhs - sign * rhs).T
    tr = ctx.sweep(rng, residual, "half")
    tr.note = f"global sign: {int(sign)}"
    return tr


# ---------------------------------------------------------------------------
# suite: tractor-weyl
# ---------------------------------------------------------------------------


@check("tractor-weyl", "gt-covariance",
       "transform-then-differentiate = differentiate-then-transform for the tractor derivative", 1e-8)
def check_tractor_gt_covariance(ctx, rng):
    n = ctx.metric.n
    zf = domain_z_field(rng, ctx.metric)
    hat = ctx.metric.rescale(zf)
    u = tractor.weyl_matrix_field(ctx.metric, zf)
    t = random_section(rng, ctx.metric)
    t_hat = apply_matrix_field(u, t)
    conn, conn_hat = (tractor.prolongation_connection(m) for m in (ctx.metric, hat))
    a0 = jets.algebra(n, 0)

    def residual(p):
        lhs = cartan.section_derivative(conn_hat, t_hat, p)
        u0 = u.at(p, 0)[..., None, :, :, :]  # one per mu
        return lhs - cartan.matvec(a0, u0, cartan.section_derivative(conn, t, p))
    return ctx.sweep(rng, residual, "half")


@check("tractor-weyl", "prolongation-covariance",
       "prolonging z*sigma in the rescaled metric = Weyl matrix times the prolongation", 1e-8)
def check_prolong_covariance(ctx, rng):
    n = ctx.metric.n
    zf = domain_z_field(rng, ctx.metric)
    sig = domain_poly_field(rng, ctx.metric, 2, 1.0)
    hat = ctx.metric.rescale(zf)
    zsig = zf * sig
    t = tractor.prolong_field(ctx.metric, sig)
    t_hat = tractor.prolong_field(hat, zsig)
    u = tractor.weyl_matrix_field(ctx.metric, zf)
    a0 = jets.algebra(n, 0)

    def residual(p):
        tv = t.at(p, 0)  # first: u truncates the g^-1 that the Schouten tensor reads at order 1
        return t_hat.at(p, 0) - cartan.matvec(a0, u.at(p, 0), tv)
    return ctx.sweep(rng, residual, "half")


@check("tractor-weyl", "pairing-invariance",
       "the tractor pairing is Weyl-invariant; differentiation satisfies the product rule", 1e-9)
def check_tractor_pairing(ctx, rng):
    n = ctx.metric.n
    zf = domain_z_field(rng, ctx.metric)
    hat = ctx.metric.rescale(zf)
    u = tractor.weyl_matrix_field(ctx.metric, zf)
    t1, t2 = random_section(rng, ctx.metric), random_section(rng, ctx.metric)
    t1h, t2h = apply_matrix_field(u, t1), apply_matrix_field(u, t2)
    conn = tractor.prolongation_connection(ctx.metric)
    a1 = jets.algebra(n, 1)

    def residual(p):
        t1_hi, t2_hi = t1.at(p, 1), t2.at(p, 1)  # first: the order-0 pairings truncate g^-1(1)
        dpair = a1.grad(tractor.inner(ctx.metric, p, t1_hi, t2_hi, order=1), 0)
        inv_res = _value(tractor.inner(hat, p, t1h.at(p, 0), t2h.at(p, 0))) - _value(
            tractor.inner(ctx.metric, p, t1.at(p, 0), t2.at(p, 0))
        )
        # the direction axis mu goes in front, so the per-point metric broadcasts over it
        d1, d2 = (np.moveaxis(cartan.section_derivative(conn, t, p), -3, 0) for t in (t1, t2))
        prod = _value(tractor.inner(ctx.metric, p, d1, a1.truncate(t2_hi, 0))
                      + tractor.inner(ctx.metric, p, a1.truncate(t1_hi, 0), d2))
        return {"Weyl invariance": inv_res, "metricity": _value(dpair) - np.moveaxis(prod, 0, -1)}
    return ctx.sweep(rng, residual, "half")


@check("tractor-weyl", "metric-compatibility",
       "dG = M^T G + G M for the prolongation connection and its metric", 1e-9)
def check_tractor_metric_comp(ctx, rng):
    conn = tractor.prolongation_connection(ctx.metric)

    def residual(p):
        return cartan.metric_defect(conn, tractor.metric_matrix(ctx.metric, p), p)
    return ctx.sweep(rng, residual, "half")


@check("tractor-weyl", "curvature-two-ways",
       "commutator curvature = assembled Cotton/Weyl block matrix; top row zero", 1e-7)
def check_tractor_curvature(ctx, rng):
    def residual(p):
        comm, _, disc = tractor.curvature_two_ways(ctx.metric, p)
        return {"two-pipeline": disc, "top row": comm[..., 0, :]}
    return ctx.sweep(rng, residual, "all")


@check("tractor-weyl", "ae-witness",
       "for sigma = 1 the middle derivative row equals minus the trace-free Schouten; "
       "Einstein metrics give a parallel tractor", 1e-8)
def check_ae_witness(ctx, rng):
    n = ctx.metric.n
    t1 = tractor.prolong_field(ctx.metric, ScalarField.constant(1.0))
    conn = tractor.prolongation_connection(ctx.metric)
    einstein = True

    def residual(p):
        nonlocal einstein
        geom = Geometry(ctx.metric, p)
        der = _value(cartan.section_derivative(conn, t1, p))
        P = _value(geom.schouten(0))
        g = _value(geom.g(0))
        trace = np.einsum("...ab,...ab->...", np.linalg.inv(g), P)
        tfp = P - (trace / n)[..., None, None] * g
        res = tractor.ae_residual(ctx.metric, ScalarField.constant(1.0), p)
        out = [{
            "middle row = -TF(P)": der[..., 1:-1] + tfp,
            "AE residual = -TF(P)": res + tfp,
        }]
        generic = np.abs(tfp).max(axis=(-2, -1)) > 1e-9 * (1 + np.abs(P).max(axis=(-2, -1)))
        einstein = not generic.any()
        # at an Einstein point, a non-parallel tractor is a residual
        moving = ~generic & (np.abs(der).max(axis=(-2, -1)) > 1e-9)
        if moving.any():
            out.append({"parallel tractor on Einstein metric": np.where(moving[..., None, None], der, 0.0)})
        return out
    tr = ctx.sweep(rng, residual, "half")
    tr.note = "Einstein witness: parallel tractor verified" if einstein else \
        "generic metric: non-parallel, residual identity verified"
    return tr


# ---------------------------------------------------------------------------
# suite: brst-algebra
# ---------------------------------------------------------------------------


def _random_ghost(ctx, rng, generators=3, with_s=True, with_iota=True, with_eps=True):
    n = ctx.metric.n
    comps = []
    for _ in range(generators):
        eps = domain_poly_field(rng, ctx.metric, 2, 0.4) if with_eps else None
        s = _eta_antisymmetric(rng.normal(size=(n, n)) * 0.4, ctx.metric.eta) if with_s else None
        iota = domain_poly_rows(rng, ctx.metric, (n,), 2, 0.4) if with_iota else None
        comps.append((eps, s, iota))
    return brst.Ghost(ctx.metric, comps)


@check("brst-algebra", "ghost-membership",
       "assembled ghosts are Sigma-antisymmetric algebra elements", 1e-11)
def check_ghost_membership(ctx, rng):
    ghost = _random_ghost(ctx, rng)

    def residual(p):
        return brst.sigma_membership_residual(ghost, p)
    return ctx.sweep(rng, residual, "third")


@check("brst-algebra", "dressed-ghost-first",
       "first-stage composite ghost equals c(eps) + v_s; the boost ghost disappears", 1e-9)
def check_dressed_ghost_first(ctx, rng):
    pipe = ctx.pipeline()
    ghost = _random_ghost(ctx, rng)
    ghost_iota = _random_ghost(ctx, rng, generators=2, with_s=False, with_eps=False)

    def residual(p):
        v1 = brst.dressed_ghost(ctx.metric, pipe, ghost, "first", p, 0)
        mismatch = v1 - brst.closed_form_ghost(ctx.metric, ghost, "first", p, 0)
        v1_iota = brst.dressed_ghost(ctx.metric, pipe, ghost_iota, "first", p, 0)
        return {"closed form": mismatch.max_abs(), "boost ghost erased": v1_iota.max_abs()}
    return ctx.sweep(rng, residual, "third")


@check("brst-algebra", "dressed-ghost-full",
       "full composite ghost equals the holonomic cocycle linearization", 1e-9)
def check_dressed_ghost_full(ctx, rng):
    pipe = ctx.pipeline()
    ghost = _random_ghost(ctx, rng)
    ghost_no_eps = _random_ghost(ctx, rng, generators=2, with_eps=False)

    def residual(p):
        vw = brst.dressed_ghost(ctx.metric, pipe, ghost, "full", p, 0)
        mismatch = vw - brst.closed_form_ghost(ctx.metric, ghost, "full", p, 0)
        vw0 = brst.dressed_ghost(ctx.metric, pipe, ghost_no_eps, "full", p, 0)
        return {"closed form": mismatch.max_abs(), "Lorentz+boost erased": vw0.max_abs()}
    return ctx.sweep(rng, residual, "third")


@check("brst-algebra", "residual-invariance-L",
       "transformations of fully dressed fields vanish for eps = 0 ghosts", 1e-9)
def check_residual_invariance(ctx, rng):
    pipe = ctx.pipeline()
    ghost = _random_ghost(ctx, rng, generators=2, with_eps=False)
    phil = dressing.dress(dressing.dress(random_section(rng, ctx.metric), pipe["u1"]), pipe["ubar"])

    def residual(p):
        vw_hi = brst.dressed_ghost(ctx.metric, pipe, ghost, "full", p, 1)
        s_w = brst.brst_connection(pipe["wl"], vw_hi, p)
        s_phi = brst.brst_section(brst.section_graded(phil, p, 0), vw_hi.truncate(0))
        return {"s w_L": s_w.max_abs(), "s phi_L": s_phi.max_abs()}
    return ctx.sweep(rng, residual, "third")


@check("brst-algebra", "sphi-column",
       "transformation of a dressed section: displayed column", 1e-9)
def check_sphi_column(ctx, rng):
    n = ctx.metric.n
    pipe = ctx.pipeline()
    ghost = _random_ghost(ctx, rng, generators=2, with_s=False, with_iota=False)
    phil = dressing.dress(dressing.dress(random_section(rng, ctx.metric), pipe["u1"]), pipe["ubar"])
    a1 = jets.algebra(n, 1)

    def residual(p):
        geom = Geometry(ctx.metric, p)
        ginv = np.linalg.inv(_value(geom.g(0)))
        vw = brst.dressed_ghost(ctx.metric, pipe, ghost, "full", p, 0)
        s_phi = brst.brst_section(brst.section_graded(phil, p, 0), vw)
        pv = _value(phil.at(p, 0))
        rho, ell, sig = pv[..., :1], pv[..., 1:-1], pv[..., -1:]
        out = []
        for k, (eps_f, _, _) in enumerate(ghost.parts):
            eps_hi = eps_f.coeffs(p, 1)
            eps = eps_hi[..., :1]
            de = _value(a1.grad(eps_hi, 0))
            de_ell = np.einsum("...a,...a->...", de, ell)[..., None]
            de_up = np.einsum("...ab,...b->...a", ginv, de)
            expected = np.concatenate([-eps * rho - de_ell, -eps * ell - de_up * sig, eps * sig], -1)
            got = _value(s_phi.component((k,)))[..., 0]
            out.append({"column": got - expected})
        return out
    return ctx.sweep(rng, residual, "third")


@check("brst-algebra", "s-wL-blocks",
       "Weyl transformation of the holonomic connection: covariant-Hessian and 2 eps g blocks", 1e-8)
def check_s_wl_blocks(ctx, rng):
    n = ctx.metric.n
    pipe = ctx.pipeline()
    ghost = _random_ghost(ctx, rng, generators=2, with_s=False, with_iota=False)

    def residual(p):
        geom = Geometry(ctx.metric, p)
        g = _value(geom.g(0))
        ginv = np.linalg.inv(g)
        P = _value(geom.schouten(0))
        vw_hi = brst.dressed_ghost(ctx.metric, pipe, ghost, "full", p, 1)
        s_w = brst.brst_connection(pipe["wl"], vw_hi, p)
        out = []
        for k, (eps_f, _, _) in enumerate(ghost.parts):
            eps_j = eps_f.coeffs(p, 2)
            eps = eps_j[..., None, None, 0]
            de_j = jets.algebra(n, 2).grad(eps_j, 0)
            de = _value(de_j)
            hess = _value(geom.covariant_derivative(de_j, "d"))  # nabla_mu d_nu eps
            comp = _value(s_w.component((k,)))  # (..., n, N, N)
            out.append({
                "P row: +nabla d eps": comp[..., 0, 1:-1] - hess,
                "Gamma block": comp[..., 1:-1, 1:-1] - (
                    np.einsum("...m,rn->...mrn", de, np.eye(n))
                    + np.einsum("...n,rm->...mrn", de, np.eye(n))
                    - np.einsum("...r,...mn->...mrn", np.einsum("...ab,...b->...a", ginv, de), g)
                ),
                "P^t col": comp[..., 1:-1, -1] - (np.einsum("...rn,...mn->...mr", ginv, hess)
                                                   - 2 * eps * np.einsum("...ra,...ma->...mr", ginv, P)),
                "2 eps g": comp[..., -1, 1:-1] - 2 * eps * g,
                "zero blocks": _joined(
                    p, comp[..., 0, :1], comp[..., 1:-1, 0],
                    comp[..., -1, :1], comp[..., -1, -1:], comp[..., 0, -1:],
                ),
            })
        return out
    return ctx.sweep(rng, residual, "third")


@check("brst-algebra", "s-omega-nl-blocks",
       "Weyl transformation of the holonomic normal curvature has exactly two nonzero blocks", 1e-8)
def check_s_omega_blocks(ctx, rng):
    n = ctx.metric.n
    pipe = ctx.pipeline()
    ghost = _random_ghost(ctx, rng, generators=2, with_s=False, with_iota=False)
    curvl = cartan.curvature(pipe["wl"])
    a1 = jets.algebra(n, 1)

    def residual(p):
        geom = Geometry(ctx.metric, p)
        ginv = np.linalg.inv(_value(geom.g(0)))
        FL = _value(curvl(p, 0))
        bl = cartan.curv_blocks(FL)
        vw = brst.dressed_ghost(ctx.metric, pipe, ghost, "full", p, 0)
        s_f = brst.brst_curvature(brst.curvature_graded(curvl, p, 0, n), vw)
        out = []
        for k, (eps_f, _, _) in enumerate(ghost.parts):
            eps_j = eps_f.coeffs(p, 1)
            eps = eps_j[..., None, None, None, 0]
            de = _value(a1.grad(eps_j, 0))
            comp = _value(s_f.component((k,)))  # (..., n, n, N, N)
            bc = cartan.curv_blocks(comp)
            out.append({
                "C row: -de.W": bc["C"] - (-np.einsum("...a,...mnab->...mnb", de, bl["W"])),
                "C^t col: W g^-1 de - 2 eps g^-1 C": bc["C_t"] - (
                    np.einsum("...mnab,...bc,...c->...mna", bl["W"], ginv, de)
                    - 2 * eps * np.einsum("...ab,...mnb->...mna", ginv, bl["C"])
                ),
                "other blocks": _joined(p, bc["f"], bc["Theta"], bc["W"]),
            })
        return out
    return ctx.sweep(rng, residual, "third")


@check("brst-algebra", "sv-composite",
       "transformation of the full composite ghost: single g^-1 block", 1e-9)
def check_sv_composite(ctx, rng):
    n = ctx.metric.n
    pipe = ctx.pipeline()
    ghost = _random_ghost(ctx, rng, generators=2, with_s=False, with_iota=False)
    a1 = jets.algebra(n, 1)

    def residual(p):
        geom = Geometry(ctx.metric, p)
        ginv = np.linalg.inv(_value(geom.g(0)))
        vw = brst.dressed_ghost(ctx.metric, pipe, ghost, "full", p, 0)
        sv = brst.brst_ghost(vw)
        eps, de_up = [], []
        for eps_f, _, _ in ghost.parts:
            ej = eps_f.coeffs(p, 1)
            eps.append(ej[..., :1])
            de_up.append(np.einsum("...ab,...b->...a", ginv, _value(a1.grad(ej, 0))))
        comp = sv.component((0, 1))
        expected_block = -2.0 * (eps[0] * de_up[1] - eps[1] * de_up[0])
        got = _value(comp)
        residual_other = got.copy()
        residual_other[..., 1:-1, -1] = 0.0
        return {
            "g^-1 block": got[..., 1:-1, -1] - expected_block,
            "other entries": residual_other,
        }
    return ctx.sweep(rng, residual, "third")


@check("brst-algebra", "finite-consistency",
       "finite transforms linearize to the transformation rules: slope 1 in t", 0.1)
def check_finite_consistency(ctx, rng):
    tr = Tracker()
    n = ctx.metric.n
    wn = ctx.pipeline()["wn"]
    s = _eta_antisymmetric(rng.normal(size=(n, n)) * 0.4, ctx.metric.eta)
    ghost = brst.Ghost(ctx.metric, [(domain_poly_field(rng, ctx.metric, 1, 0.4), s,
                                     domain_poly_rows(rng, ctx.metric, (n,), 1, 0.4))])
    phi = random_section(rng, ctx.metric)
    pts = ctx.points(rng, 1)
    rep_c = brst.finite_consistency(ctx.metric, wn, ghost, "connection", pts[0])
    rep_s = brst.finite_consistency(ctx.metric, wn, ghost, "section", pts[0], phi=phi)
    tr.add(pts, {
        "connection slope": abs(rep_c["slope"] - 1.0),
        "section slope": abs(rep_s["slope"] - 1.0),
    })
    tr.note = f"slopes: connection {rep_c['slope']:.3f}, section {rep_s['slope']:.3f}"
    return tr


# ---------------------------------------------------------------------------
# suite: brst-nilpotency
# ---------------------------------------------------------------------------


@check("brst-nilpotency", "s2-section", "s^2 phi = 0", 1e-8)
def check_s2_section(ctx, rng):
    ghost = _random_ghost(ctx, rng)
    phi = random_section(rng, ctx.metric)

    def residual(p):
        return brst.s2_section(brst.section_graded(phi, p, 0), ghost.value(p, 0))
    return ctx.sweep(rng, residual, "third")


@check("brst-nilpotency", "s2-ghost", "s^2 v = 0", 1e-8)
def check_s2_ghost(ctx, rng):
    ghost = _random_ghost(ctx, rng)

    def residual(p):
        return brst.s2_ghost(ghost, p)
    return ctx.sweep(rng, residual, "third")


@check("brst-nilpotency", "s2-connection", "s^2 w = 0", 1e-8)
def check_s2_connection(ctx, rng):
    wn = ctx.pipeline()["wn"]
    ghost = _random_ghost(ctx, rng)

    def residual(p):
        return brst.s2_connection(wn, ghost, p)
    return ctx.sweep(rng, residual, "quarter")


@check("brst-nilpotency", "s2-composite",
       "s^2 = 0 with the composite ghost on a fully dressed section", 1e-9)
def check_s2_composite(ctx, rng):
    pipe = ctx.pipeline()
    ghost = _random_ghost(ctx, rng, with_s=False, with_iota=False)
    phil = dressing.dress(dressing.dress(random_section(rng, ctx.metric), pipe["u1"]), pipe["ubar"])

    def residual(p):
        vw = brst.dressed_ghost(ctx.metric, pipe, ghost, "full", p, 0)
        return brst.s2_section(brst.section_graded(phil, p, 0), vw)
    return ctx.sweep(rng, residual, "quarter")


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def run_check(ctx, check_id, fn):
    rng = ctx.rng(check_id)
    meta = META[check_id]
    tol = ctx.tol(check_id)
    drawn = ctx.points_drawn
    try:
        tr = fn(ctx, rng)
    except FrameError:  # the metric is at fault, not the law: the whole run is bad input
        raise
    except Exception as exc:  # a failing check must not abort the run
        tr = Tracker()
        tr.max = float("inf")
        tr.note = f"error: {type(exc).__name__}: {exc}"
    return CheckResult(
        suite=meta["suite"],
        check_id=check_id,
        law=meta["law"],
        metric=ctx.metric.name,
        points=ctx.points_drawn - drawn,
        max_residual=tr.max,
        tolerance=tol,
        passed=tr.max < tol,
        worst_point=tr.worst,
        block_diff=dict(tr.blocks) or None,
        note=tr.note,
    )


def expand_suites(names):
    """The suite names that `names` (one name or a list) selects: every suite, in
    registry order, if one of them is 'all'.  Every name is checked first, so an
    unknown name next to 'all' is still a ValueError."""
    names = [names] if isinstance(names, str) else list(names)
    for name in names:
        if name != "all" and name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    return list(SUITES) if "all" in names else names


def run_suites(metric, suite_names, seed=0, npoints=20, tolerances=None):
    """Execute the selected suites (see `expand_suites`) on one metric, one check
    after another; returns a list of CheckResults."""
    jobs = [job for name in expand_suites(suite_names) for job in SUITES[name]]
    ctx = Context(metric, seed=seed, npoints=npoints, tolerances=tolerances)
    return [run_check(ctx, cid, fn) for cid, fn in jobs]
