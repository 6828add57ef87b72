"""The benchmark's workloads.

A workload has three steps:

* `setup()` loads and signature-checks every metric the workload uses; it is
  what `setup_s` times in a fresh interpreter;
* `prepare(r)` builds the inputs of round r with fresh metric objects, so that
  no round finds the caches of an earlier one warm; it is not timed;
* `round(inputs)` is the timed operation, one verdict as a user waits for it.

`round_ops` checks a round's outputs after the clock has stopped and
`run_probes` checks properties of the whole run.  Both count operations: one
check, one equivalence check or one probe each.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
from tractorlab import cli, metrics, suites, tractor
from tractorlab.fields import ScalarField
from tractorlab.geometry import Geometry

import probes

EXPECTED_CHECKS = 62
CALIBRATION_Z = suites.DEFAULT_Z
# acceptance criterion 1: the paper's result on the whole catalog
FLAGSHIP_CONFIGS = (
    ("flat_euclidean", {}),
    ("conformally_flat", {"factor": "0.3*x0 + 0.1*x1^2"}),
    ("round_sphere", {}),
    ("schwarzschild", {}),
    ("poly_perturbation", {"seed": 1}),
    ("poly_perturbation", {"seed": 2}),
    ("poly_perturbation", {"seed": 3}),
)
PROBE_POINTS = 5


def expected_ids(suite_names, tiny):
    ids = [cid for name in suite_names for cid, _ in suites.SUITES[name]]
    if not tiny and len(ids) < EXPECTED_CHECKS:
        raise RuntimeError(f"a full verdict has {len(ids)} checks, expected {EXPECTED_CHECKS}")
    return ids


def reference_map(name, seed):
    """The convention map calibrated on a flat metric, independently of the workload."""
    metric = metrics.load_metric(name)
    rng = np.random.default_rng([seed, 991])
    pts = metrics.sample_points(metric, 5, rng)
    cmap = tractor.calibrate_convention_map(metric, ScalarField.from_expression(CALIBRATION_Z),
                                            pts, rng)
    return probes.map_label(cmap)


def _values(arr):
    return np.asarray(arr)[..., 0]


def _probe_points(metric, seed, salt):
    return [tuple(p) for p in metrics.sample_points(
        metric, PROBE_POINTS, np.random.default_rng([seed, salt]))]


def _worst(found):
    return max(found, key=lambda p: (not p.ok, p.residual))


def schwarzschild_probe(seed, mass=1.0):
    metric = metrics.load_metric("schwarzschild", mass=mass)
    found = []
    for p in _probe_points(metric, seed, 11):
        geom = Geometry(metric, p)
        found.append(probes.schwarzschild(_values(geom.riemann1), _values(geom.g(0)),
                                          _values(geom.ginv(0)), p, mass))
    return _worst(found)


def round_sphere_probe(seed):
    metric = metrics.load_metric("round_sphere")
    found = []
    for p in _probe_points(metric, seed, 12):
        geom = Geometry(metric, p)
        found.append(probes.round_sphere(geom.weyl, _values(geom.schouten1), _values(geom.g(0))))
    return _worst(found)


def flat_probe(seed):
    metric = metrics.load_metric("flat_euclidean")
    found = []
    for p in _probe_points(metric, seed, 13):
        geom = Geometry(metric, p)
        found.append(probes.flat({
            "christoffel": geom.gamma2, "riemann": geom.riemann1, "ricci": geom.ricci1,
            "schouten": geom.schouten1, "cotton": geom.cotton, "weyl": geom.weyl,
        }))
    return _worst(found)


def christoffel_probe(metric, seed):
    def g_at(x):
        return _values(metric.g(tuple(x), 0))

    found = [probes.christoffel_fd(_values(Geometry(metric, p).gamma2), g_at, p)
             for p in _probe_points(metric, seed, 14)]
    return _worst(found)


class Workload:
    name = ""

    def __init__(self, seed, tiny, out_dir):
        self.seed = seed
        self.tiny = tiny
        self.out_dir = out_dir

    def count(self, found):
        """(attempted, failed, messages) of a list of probes."""
        bad = [f"{p.name}: residual {p.residual:.3e} (tol {p.tol:.1e}) {p.detail}"
               for p in found if not p.ok]
        return len(found), len(bad), bad


class VerdictSchwarzschild(Workload):
    """`tractorlab run --metric schwarzschild --suite all --points 20` through the CLI."""

    name = "verdict-schwarzschild"

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        self.suites = ["riemann-laws", "tractor-equivalence"] if tiny else list(suites.SUITES)
        self.ids = expected_ids(self.suites, tiny)
        self.report_path = out_dir / f"{self.name}-seed{seed}-report.json"
        self.maps = []

    def setup(self):
        return metrics.load_metric("schwarzschild")

    def prepare(self, r):
        suite_args = ["--suite", "all"] if not self.tiny else \
            [a for s in self.suites for a in ("--suite", s)]
        return ["run", "--metric", "schwarzschild", *suite_args,
                "--points", "2" if self.tiny else "20", "--seed", str(self.seed),
                "--report", str(self.report_path), "--format", "json"]

    def round(self, argv):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(argv)
        return code, text.getvalue()

    def round_ops(self, inputs, out):
        code, text = out
        with open(self.report_path) as fh:
            report = json.load(fh)
        attempted, failed, msgs = probes.check_ops(report["checks"], self.ids)
        a, f, m = self.count([probes.cli_report(code, report, text, len(self.ids))])
        self.maps += [probes.map_from_note(c.get("note")) for c in report["checks"]
                      if c["check_id"] == "convention-calibration"]
        return attempted + a, failed + f, msgs + m

    def run_probes(self):
        return self.count([
            probes.single_map(self.maps, reference_map("flat_euclidean", self.seed)),
            schwarzschild_probe(self.seed),
        ])


class FlagshipCatalog(Workload):
    """`tractor.equivalence_check` at 100 points on the seven flagship configurations."""

    name = "flagship-catalog"

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        self.points = 3 if tiny else 100
        self.maps = []

    def setup(self):
        return [metrics.load_metric(name, **params) for name, params in FLAGSHIP_CONFIGS]

    def prepare(self, r):
        return self.setup()

    def round(self, catalog):
        reports = []
        for i, metric in enumerate(catalog):
            rng = np.random.default_rng([self.seed, i])
            pts = metrics.sample_points(metric, self.points, rng)
            reports.append(tractor.equivalence_check(metric, pts, rng))
        return reports

    def round_ops(self, catalog, reports):
        self.maps += [probes.map_label(rep["map"]) for rep in reports]
        return self.count([probes.equivalence(rep["max_residual"], metric.name)
                           for metric, rep in zip(catalog, reports)])

    def run_probes(self):
        return self.count([
            probes.single_map(self.maps, reference_map("flat_minkowski", self.seed)),
            round_sphere_probe(self.seed),
            flat_probe(self.seed),
            schwarzschild_probe(self.seed),
        ])


class SweepPoly(Workload):
    """`suites.run_suites(..., "all", npoints=3)` on poly_perturbation seeds other than 1-3."""

    name = "sweep-poly-3pt"
    n_metrics = 6

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        self.suites = ["riemann-laws", "tractor-equivalence"] if tiny else "all"
        self.ids = expected_ids(self.suites if tiny else list(suites.SUITES), tiny)
        self.poly_seeds = [4 + self.n_metrics * seed + i for i in range(self.n_metrics)]
        self.maps = []

    def setup(self):
        return [metrics.load_metric("poly_perturbation", seed=s) for s in self.poly_seeds]

    def prepare(self, r):
        return metrics.load_metric("poly_perturbation", seed=self.poly_seeds[r % self.n_metrics])

    def round(self, metric):
        return suites.run_suites(metric, self.suites, seed=self.seed,
                                 npoints=2 if self.tiny else 3)

    def round_ops(self, metric, results):
        checks = [r.to_dict() for r in results]
        attempted, failed, msgs = probes.check_ops(checks, self.ids)
        a, f, m = self.count([christoffel_probe(metric, self.seed)])
        self.maps += [probes.map_from_note(c.get("note")) for c in checks
                      if c["check_id"] == "convention-calibration"]
        return attempted + a, failed + f, msgs + m

    def run_probes(self):
        return self.count([
            probes.single_map(self.maps, reference_map("flat_minkowski", self.seed)),
        ])


WORKLOADS = {w.name: w for w in (VerdictSchwarzschild, FlagshipCatalog, SweepPoly)}
