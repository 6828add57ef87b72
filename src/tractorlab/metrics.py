"""Metric catalog, metric spec files, and jet-level metric evaluation.

A MetricField evaluates components g_{mu,nu} (and the inverse metric) as jets
at chart points.  The catalog covers the witnesses the verification suites
need: flat space in both signatures, conformally flat metrics, the round
sphere in stereographic coordinates, Schwarzschild in isotropic coordinates,
and seeded random polynomial perturbations of flat space.
"""

from __future__ import annotations

import configparser
import inspect
import itertools
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import expr, jets
from .fields import ScalarField, first_point, random_polynomial

CATALOG = (
    "flat_euclidean",
    "flat_minkowski",
    "conformally_flat",
    "round_sphere",
    "schwarzschild",
    "poly_perturbation",
)

# sample points keep this fraction of the domain box's width from its boundary
SAMPLE_SHRINK = 0.1
# the signature check adds the 2^n sampling-box corners up to this dimension
CORNER_MAX_DIM = 10
# the signature check counts an eigenvalue this small as zero: g is degenerate
DEGENERATE_EIGENVALUE = 1e-9
# the largest n of a spec file (its keys g_ij take one digit per index) or `--param n=`
MAX_DIMENSION = 10
# the largest `degree` of poly_perturbation: at n = MAX_DIMENSION, riemann-laws at 3
# points took 1.3 s and 113 MB at degree 3, 4.4 s and 233 MB at 4, and 57 s and 2.4 GB
# at 6 (one BLAS thread, 2-core Xeon)
MAX_POLY_DEGREE = 3


class MetricError(ValueError):
    pass


class SignatureError(MetricError):
    def __init__(self, name, point, eigenvalues, expected):
        self.point = tuple(point)
        self.eigenvalues = tuple(eigenvalues)
        small = [e for e in eigenvalues if abs(e) < DEGENERATE_EIGENVALUE]
        if small:
            why = f"eigenvalue {small[0]:.3e} is (near) zero, so g is degenerate"
        else:
            why = (f"eigenvalue signs {['+' if e > 0 else '-' for e in eigenvalues]}, "
                   f"expected {expected}")
        super().__init__(f"metric {name!r} fails signature check at {self.point}: {why}")


@dataclass
class MetricSpec:
    name: str
    n: int
    signature: tuple  # (r, s): r minus signs, s plus signs
    components: dict = field(default_factory=dict)  # (i, j) with i <= j -> AST
    domain: list = field(default_factory=list)  # per-coordinate (lo, hi)


def eta_matrix(signature):
    r, s = signature
    return np.diag([-1.0] * r + [1.0] * s)


class MetricField:
    """Chart metric with jet accessors for g and its inverse."""

    def __init__(self, name, n, signature, g_fn, domain):
        if n < 3:
            raise MetricError(f"dimension must be >= 3, got {n}")
        if signature[0] + signature[1] != n:
            raise MetricError(f"signature {signature} incompatible with dimension {n}")
        self.name = name
        self.n = n
        self.signature = tuple(signature)
        self.eta = eta_matrix(signature)
        self._g_fn = g_fn
        self.domain = [(float(lo), float(hi)) for lo, hi in domain]

    def g(self, point, order):
        """Component jets g_{mu,nu} at a point or a batch of points (..., n): (..., n, n, NC)."""
        return self._g_fn(np.asarray(point, dtype=float), order)

    def g_inv(self, point, order):
        return jets.algebra(self.n, order).inv_matrix(self.g(point, order))

    def component_jet(self, i, j, point, order):
        """g_{ij} at a point or a batch of points: (..., NC).  Kept because the traced
        benchmark patches it by name, until ROADMAP item 1(a)'s benchmark change
        lets it go."""
        return self.g(point, order)[..., i, j, :]

    def rescale(self, z_field: ScalarField):
        """Conformally related metric z(x)^2 g."""

        def g_fn(point, order):
            z = z_field.coeffs(point, order)
            alg = jets.algebra(self.n, order)
            z2 = alg.mul(z, z)
            return alg.mul(z2[..., None, None, :], self.g(point, order))

        return MetricField(f"{self.name}*z^2", self.n, self.signature, g_fn, self.domain)

    def check_signature(self, samples=20, seed=0):
        """Eigenvalue-sign check of g at sampled points of the domain box and, up to
        dimension CORNER_MAX_DIM, at the corners of the box they are sampled from,
        in one batched call; a g that is not finite there is bad input too."""
        pts = sample_points(self, samples, np.random.default_rng(seed))
        if self.n <= CORNER_MAX_DIM:
            lo, hi = sample_box(self)
            pts = np.concatenate([pts, np.array(list(itertools.product(*zip(lo, hi))))])
        with np.errstate(all="ignore"):  # an overflow is reported below as bad input
            g = jets.algebra(self.n, 0).value(self.g(pts, 0))
        bad = ~np.isfinite(g).all(axis=(-2, -1))
        if bad.any():
            at = g[np.argmax(bad)]
            i, j = np.argwhere(~np.isfinite(at))[0]
            raise MetricError(f"metric {self.name!r} is not finite at {first_point(pts, bad)}: "
                              f"g_{i}{j} = {at[i, j]}")
        eig = np.linalg.eigvalsh(g)
        r, s = self.signature
        bad = (np.abs(eig) < DEGENERATE_EIGENVALUE).any(axis=-1) | (
            (eig < 0).sum(axis=-1) != r) | ((eig > 0).sum(axis=-1) != s)
        if bad.any():
            raise SignatureError(self.name, first_point(pts, bad), eig[np.argmax(bad)],
                                 self.signature)
        return True


def sample_box(metric):
    """Lower and upper corners of the domain box, shrunk by SAMPLE_SHRINK of its
    width away from its boundary."""
    lo = np.array([d[0] for d in metric.domain])
    hi = np.array([d[1] for d in metric.domain])
    margin = SAMPLE_SHRINK * (hi - lo) / 2.0
    return lo + margin, hi - margin


def sample_points(metric, count, rng):
    """Uniform points in the sampling box."""
    lo, hi = sample_box(metric)
    return rng.uniform(lo, hi, size=(count, metric.n))


def metric_from_spec(spec: MetricSpec) -> MetricField:
    """Metric of a spec, with all components compiled into one program."""
    n = spec.n
    keys = sorted(spec.components)
    for i, j in keys:
        if not 0 <= i <= j < n:
            raise MetricError(f"component g_{i}{j} out of range for dimension {n}")
    try:
        program = expr.Program([spec.components[k] for k in keys], n)
    except expr.ExprError as exc:
        raise MetricError(f"metric {spec.name!r}: {exc}") from exc
    domain = spec.domain or [(-1.0, 1.0)] * n
    return MetricField(spec.name, n, spec.signature, _symmetric(keys, n, program), domain)


def _symmetric(keys, n, components):
    """g_fn of the components g_ij, i <= j, of `keys`: `components(point, order)`
    gives their jets (..., len(keys), NC) in that order, and each fills (i, j)
    and, off the diagonal, (j, i)."""
    src = [r for r, (i, j) in enumerate(keys)] + [r for r, (i, j) in enumerate(keys) if i != j]
    rows = [i for i, _ in keys] + [j for i, j in keys if i != j]
    cols = [j for _, j in keys] + [i for i, j in keys if i != j]

    def g_fn(point, order):
        comps = components(point, order)
        out = np.zeros(comps.shape[:-2] + (n, n, comps.shape[-1]))
        out[..., rows, cols, :] = comps[..., src, :]
        return out

    return g_fn


# -- catalog ------------------------------------------------------------------


def _flat_spec(name, n, signature):
    eta = eta_matrix(signature)
    comps = {(i, i): expr.const(eta[i, i]) for i in range(n)}
    return MetricSpec(name, n, signature, comps, [(-1.0, 1.0)] * n)


def _conformal_factor_components(factor_ast, n, signature):
    """Components e^{2*Omega} eta_{mu,nu}."""
    eta = eta_matrix(signature)
    weight = expr.Call("exp", expr.mul(expr.const(2.0), factor_ast))
    comps = {}
    for i in range(n):
        comps[(i, i)] = expr.mul(weight, expr.const(eta[i, i])) if eta[i, i] != 1.0 else weight
    return comps


def flat_euclidean(n=4):
    return metric_from_spec(_flat_spec("flat_euclidean", n, (0, n)))


def flat_minkowski(n=4):
    return metric_from_spec(_flat_spec("flat_minkowski", n, (1, n - 1)))


def conformally_flat(factor="0.3*x0", n=4, signature=None):
    """g = exp(2*Omega(x)) eta with Omega given as an expression."""
    factor_ast = expr.parse(factor) if isinstance(factor, str) else factor
    signature = tuple(signature) if signature else (0, n)
    comps = _conformal_factor_components(factor_ast, n, signature)
    spec = MetricSpec("conformally_flat", n, signature, comps, [(-1.0, 1.0)] * n)
    return metric_from_spec(spec)


def round_sphere(n=4):
    """Unit n-sphere in stereographic coordinates: g = 4/(1+|x|^2)^2 delta."""
    r2 = expr.add(*[expr.Pow(expr.coord(i), 2) for i in range(n)])
    factor = expr.BinOp("/", expr.const(4.0), expr.Pow(expr.BinOp("+", expr.const(1.0), r2), 2))
    comps = {(i, i): factor for i in range(n)}
    spec = MetricSpec("round_sphere", n, (0, n), comps, [(-0.8, 0.8)] * n)
    return metric_from_spec(spec)


def schwarzschild(mass=1.0, n=4):
    """Schwarzschild in isotropic coordinates; chart box keeps r well off the horizon."""
    if n != 4:
        raise MetricError("schwarzschild requires n = 4")
    r = expr.Call("sqrt", expr.add(*[expr.Pow(expr.coord(i), 2) for i in (1, 2, 3)]))
    half_m_over_r = expr.BinOp("/", expr.const(mass / 2.0), r)
    a = expr.BinOp("+", expr.const(1.0), half_m_over_r)
    b = expr.BinOp("-", expr.const(1.0), half_m_over_r)
    g00 = expr.Neg(expr.Pow(expr.BinOp("/", b, a), 2))
    spatial = expr.Pow(a, 4)
    comps = {(0, 0): g00, (1, 1): spatial, (2, 2): spatial, (3, 3): spatial}
    domain = [(-0.5, 0.5), (2.0, 3.0), (2.0, 3.0), (2.0, 3.0)]
    return metric_from_spec(MetricSpec("schwarzschild", n, (1, 3), comps, domain))


def poly_perturbation(amplitude=0.05, seed=0, n=4, degree=3):
    """Flat Euclidean metric plus a seeded random polynomial perturbation: one
    random polynomial per component g_ij, i <= j, all evaluated by one product."""
    rng = np.random.default_rng(int(seed))
    keys = [(i, j) for i in range(n) for j in range(i, n)]
    polys = [random_polynomial(rng, n, degree, float(amplitude)) for _ in keys]
    for (i, j), poly in zip(keys, polys):
        if i == j:
            poly[(0,) * n] = 1.0 + poly[(0,) * n]
    evaluator = expr.PolynomialEvaluator(polys, n)
    g_fn = _symmetric(keys, n, lambda p, k: evaluator.coeffs_at(p, jets.algebra(n, k)))
    name = f"poly_perturbation(a={amplitude},seed={seed})"
    return MetricField(name, n, (0, n), g_fn, [(-0.3, 0.3)] * n)


_BUILDERS = {
    "flat_euclidean": flat_euclidean,
    "flat_minkowski": flat_minkowski,
    "conformally_flat": conformally_flat,
    "round_sphere": round_sphere,
    "schwarzschild": schwarzschild,
    "poly_perturbation": poly_perturbation,
}


def _check_params(name, params):
    """Parameters of a catalog builder, checked against the types of its defaults."""
    sig = inspect.signature(_BUILDERS[name])
    try:
        sig.bind(**params)
    except TypeError as exc:
        raise MetricError(f"metric {name!r}: {exc}") from None
    out = {}
    for key, value in params.items():
        default = sig.parameters[key].default
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if isinstance(default, str) and (number or isinstance(value, str)):
            out[key] = str(value)
        elif isinstance(default, float) and number and math.isfinite(value):
            out[key] = float(value)
        elif isinstance(default, int) and number and isinstance(value, int) and value >= 0:
            out[key] = value
        elif default is None and isinstance(value, list) and len(value) == 2 and all(
                isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in value):
            out[key] = tuple(value)
        else:
            raise MetricError(f"metric {name!r}: bad value {value!r} for parameter {key!r}")
    if not 3 <= out.get("n", 3) <= MAX_DIMENSION:  # before anything of size n is built
        raise MetricError(f"metric {name!r}: n must be in 3..{MAX_DIMENSION}, got {out['n']}")
    if out.get("degree", 0) > MAX_POLY_DEGREE:
        raise MetricError(f"metric {name!r}: degree must be in 0..{MAX_POLY_DEGREE}, "
                          f"got {out['degree']}")
    return out


def load_metric(source, **params) -> MetricField:
    """Catalog name, spec file path, or MetricSpec -> validated MetricField."""
    if isinstance(source, MetricSpec):
        metric = metric_from_spec(source)
    elif isinstance(source, str) and source in _BUILDERS:
        metric = _BUILDERS[source](**_check_params(source, params))
    elif isinstance(source, str) and os.path.exists(source):
        metric = metric_from_spec(parse_metric_file(source))
    else:
        raise MetricError(f"unknown metric source {source!r}; catalog: {', '.join(CATALOG)}")
    metric.check_signature()
    return metric


def _parse_signature(text, n):
    text = text.strip().lower().strip("()")
    if text == "euclidean":
        return (0, n)
    if text == "lorentzian":
        return (1, n - 1)
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != 2 or min(parts) < 0:
        raise MetricError(f"cannot parse signature {text!r}")
    return parts


def _parse_float(text, what):
    try:
        value = float(text)
    except ValueError:
        raise MetricError(f"{what}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise MetricError(f"{what}: {text!r} is not finite")
    return value


def parse_metric_file(path) -> MetricSpec:
    """INI-style metric spec: [metric] name/n/signature, [components], [domain].

    Malformed files raise MetricError, malformed expressions ExprError.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), comment_prefixes=("#",),
                                   interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise MetricError(f"{path}: {exc}") from None
    if "metric" not in cp:
        raise MetricError(f"{path}: missing [metric] section")
    meta = cp["metric"]
    n = meta.get("n", "4").strip()
    if not n.isdecimal() or not 3 <= int(n) <= MAX_DIMENSION:
        raise MetricError(f"{path}: n must be an integer in 3..{MAX_DIMENSION}, got {n!r}")
    n = int(n)
    name = meta.get("name", "unnamed")
    signature = _parse_signature(meta.get("signature", "euclidean"), n)
    comps = {}
    for key, text in cp.items("components") if cp.has_section("components") else []:
        match = re.fullmatch(r"g_(\d)(\d)", key)
        if not match or max(int(match[1]), int(match[2])) >= n:
            raise MetricError(f"{path}: component key {key!r} must look like g_01, "
                              f"with indices below n = {n}")
        i, j = sorted((int(match[1]), int(match[2])))
        comps[(i, j)] = expr.parse(text)
    domain = [(-1.0, 1.0)] * n
    if cp.has_section("domain"):
        for key, text in cp.items("domain"):
            match = re.fullmatch(r"x(\d+)", key)
            if not match or int(match[1]) >= n:
                raise MetricError(f"{path}: domain key {key!r} must be x0..x{n - 1}")
            bounds = text.split(",")
            if len(bounds) != 2:
                raise MetricError(f"{path}: domain of {key} must be 'low, high', got {text!r}")
            lo, hi = (_parse_float(v, f"{path}: domain of {key}") for v in bounds)
            if not lo < hi:
                raise MetricError(f"{path}: domain of {key} has low {lo} not below high {hi}")
            domain[int(match[1])] = (lo, hi)
    return MetricSpec(name, n, signature, comps, domain)
