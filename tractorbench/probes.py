"""Correctness probes of the benchmark's outputs.

Each probe is a plain function of values that the workload computed (or of a
callable evaluating the metric), and returns a `Probe`.  The reference values
come from closed forms (Schwarzschild, the round sphere, flat space) or from
finite differences computed here, never from tractorlab's own oracle, so a
probe can fail where the program's checks would not.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

EQUIVALENCE_TOL = 1e-8
_MAP_RE = re.compile(r"reverse=(\w+), lower=(\w+), s_ell=(-?\d+), s_rho=(-?\d+)")


@dataclass
class Probe:
    name: str
    residual: float
    tol: float
    detail: str = ""

    @property
    def ok(self):
        return bool(np.isfinite(self.residual) and self.residual < self.tol)


def check_ops(checks, expected_ids):
    """One operation per expected check: it must be present once, have run, and pass.

    `checks` are report dicts (or CheckResult.to_dict()).  Returns (attempted,
    failed, messages).
    """
    by_id = {}
    for c in checks:
        by_id.setdefault(c["check_id"], []).append(c)
    failed, messages = 0, []
    for cid in expected_ids:
        found = by_id.get(cid, [])
        c = found[0] if len(found) == 1 else None
        ok = (c is not None and c["passed"] is True
              and not (c.get("note") or "").startswith("error:")
              and math.isfinite(c["max_residual"]) and c["max_residual"] < c["tolerance"])
        if not ok:
            failed += 1
            messages.append(f"check {cid}: {found or 'missing'}")
    extra = set(by_id) - set(expected_ids)
    if extra:
        messages.append(f"unexpected checks {sorted(extra)}")
    return len(expected_ids), failed + len(extra), messages


def cli_report(exit_code, report, text, expected_count):
    """The CLI's exit code, JSON report and text summary agree with each other."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report.get("passed") is not True:
        problems.append("report not passed")
    if report.get("passed") != all(c["passed"] for c in report.get("checks", [])):
        problems.append("'passed' disagrees with the checks")
    if len(report.get("checks", [])) != expected_count:
        problems.append(f"{len(report.get('checks', []))} checks, expected {expected_count}")
    if f"{expected_count}/{expected_count} checks passed" not in text:
        problems.append("text summary does not report every check passed")
    return Probe("cli-report", float(len(problems)), 0.5, "; ".join(problems))


def equivalence(residual, label=""):
    return Probe(f"equivalence {label}".strip(), float(residual), EQUIVALENCE_TOL)


def map_label(cmap):
    return f"reverse={cmap.reverse}, lower={cmap.lower}, s_ell={cmap.s_ell}, s_rho={cmap.s_rho}"


def map_from_note(note):
    """The calibrated map as printed in a convention-calibration note, or None."""
    m = _MAP_RE.search(note or "")
    return None if m is None else f"reverse={m[1]}, lower={m[2]}, s_ell={m[3]}, s_rho={m[4]}"


def single_map(labels, reference):
    """Calibration found a map every time, always the same one, equal to `reference`.

    `labels` come from the workload's metrics; `reference` is calibrated on a
    metric of the other signature.
    """
    distinct = set(labels)
    bad = (None in distinct) + max(len(distinct) - 1, 0) + (distinct != {reference})
    return Probe("single-convention-map", float(bad), 0.5,
                 f"maps {sorted(map(str, distinct))}, reference {reference}")


def _lower_all(riemann, g, ginv):
    """R_{rho sigma mu nu} and R^{rho sigma mu nu} from R^rho_{sigma mu nu}."""
    down = np.einsum("ra,asmn->rsmn", g, riemann)
    up = np.einsum("rsmn,sb,mc,nd->rbcd", riemann, ginv, ginv, ginv)
    return down, up


def schwarzschild(riemann, g, ginv, point, mass):
    """Ricci = 0 and Kretschmann = 48 M^2 / R^6 with R = r (1 + M / 2r)^2.

    Values at one point of isotropic coordinates (t, x, y, z).
    """
    ricci = np.einsum("msmn->sn", riemann)
    down, up = _lower_all(riemann, g, ginv)
    kretschmann = float(np.einsum("rsmn,rsmn->", down, up))
    r = float(np.linalg.norm(np.asarray(point)[1:]))
    areal = r * (1.0 + mass / (2.0 * r)) ** 2
    expected = 48.0 * mass**2 / areal**6
    residual = max(float(np.abs(ricci).max()) / float(np.abs(riemann).max()),
                   abs(kretschmann / expected - 1.0))
    return Probe("schwarzschild-invariants", residual, 1e-9,
                 f"K={kretschmann:.12e} expected {expected:.12e}")


def round_sphere(weyl, schouten, g):
    """Unit sphere: Weyl = 0 and Schouten = -g/2 (P = -(Ric - R g / 2(n-1)) / (n-2))."""
    residual = max(float(np.abs(weyl).max()), float(np.abs(schouten + 0.5 * g).max()))
    return Probe("round-sphere-curvature", residual, 1e-10)


def flat(tensors):
    """Every curvature tensor of flat space vanishes."""
    residual = max(float(np.abs(t).max()) for t in tensors.values())
    return Probe("flat-curvature", residual, 1e-12, ", ".join(sorted(tensors)))


def christoffel_fd(gamma, g_at, point, h=1e-3):
    """Gamma^a_{bc} against 1/2 g^{ad} (d_b g_dc + d_c g_db - d_d g_bc).

    The derivatives of g are fourth-order central differences of `g_at`
    (point -> (n, n) metric values).
    """
    x = np.asarray(point, dtype=float)
    n = len(x)
    dg = np.empty((n, n, n))  # dg[d, b, c] = d_d g_bc
    for d in range(n):
        step = np.zeros(n)
        step[d] = h
        dg[d] = (-g_at(x + 2 * step) + 8 * g_at(x + step)
                 - 8 * g_at(x - step) + g_at(x - 2 * step)) / (12 * h)
    ginv = np.linalg.inv(g_at(x))
    lowered = np.einsum("bdc->dbc", dg) + np.einsum("cdb->dbc", dg) - dg  # [d, b, c]
    expected = 0.5 * np.einsum("ad,dbc->abc", ginv, lowered)
    residual = float(np.abs(expected - gamma).max())
    return Probe("christoffel-fd", residual, 1e-8)
