"""Span tracing for the traced benchmark run.

`instrument(tracer)` wraps, from outside the package, the public functions of
every tractorlab module, the hot methods of its classes, and each evaluation
of a lazy field.  A field evaluation (`JetField.at`, `ConnectionField.at` and
`col0`, `ScalarField.coeffs` and `jet`, `RowField.coeffs`) is attributed to
the module that defined the field's function, because that is where the work
of cartan, dressing and tractor actually runs.  The returned `Instrumentation`
restores every original on `restore()`.

Spans stay in memory as flat arrays (name id, parent, start, end) and are
summarised or written out when the run ends.  A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter

import numpy as np

# module -> layer; ghosts (graded arithmetic) is part of the BRST layer
LAYERS = {
    "jets": "jets", "expr": "expr", "fields": "fields",
    "metrics": "metrics", "geometry": "geometry", "cartan": "cartan",
    "dressing": "dressing", "tractor": "tractor", "ghosts": "brst", "brst": "brst",
    "oracle": "oracle", "suites": "suites", "cli": "cli",
}
LAYER_ORDER = ("bench", "cli", "suites", "metrics", "expr", "fields", "geometry",
               "cartan", "dressing", "tractor", "brst", "oracle", "jets")

# class methods that get their own span, by module
METHODS = {
    "jets": {"JetAlgebra": ("powi", "inv_matrix")},
    "expr": {"PolynomialEvaluator": ("coeffs_at",)},
    "metrics": {"MetricField": ("g", "g_inv", "component_jet", "check_signature")},
    "geometry": {"Geometry": ("covariant_derivative", "laplacian")},
    "cartan": {"ConnectionField": ("frame",)},
    "tractor": {"ConventionMap": ("apply", "apply_inverse")},
    "brst": {"Ghost": ("value", "matrix_field")},
    "ghosts": {"GradedValue": ("d", "matmul", "bracket", "truncate")},
    "suites": {"Context": ("pipeline",)},
}
# lazy fields: (module, class, {evaluation method: attribute holding the function}, span op)
FIELDS = (
    ("fields", "JetField", {"at": "_fn"}, "field.at"),
    ("fields", "ScalarField", {"coeffs": "_fn", "jet": "_fn"}, "field.at"),
    ("cartan", "ConnectionField", {"at": "_at", "col0": "_col0"}, "connection.at"),
)
# thin helpers called per coefficient; their cost stays in the caller's self time
SKIP = {"suites": {"check"}, "ghosts": {"merge_sign"}}


def layer_of(module_name):
    return LAYERS.get(module_name.rsplit(".", 1)[-1], "bench")


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.keys = []  # name id -> (layer, op)
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters = Counter()
        self.shapes = Counter()  # (kernel, B, NC) -> calls

    def key(self, layer, op):
        k = (layer, op)
        if k not in self._ids:
            self._ids[k] = len(self.keys)
            self.keys.append(k)
        return self._ids[k]

    def enter(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.current = idx
        return idx

    def exit(self, idx):
        self.end[idx] = time.perf_counter()
        self.current = self.parent[idx]

    def wrap(self, fn, layer, op):
        nid = self.key(layer, op)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)

        return traced

    # -- summaries ------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        return name, parent, start, end

    def per_key(self, lo=0, hi=None):
        """{(layer, op): (calls, inclusive_s, self_s)} over spans lo..hi-1.

        Spans are stored in the order they start, so the spans of one root
        are the contiguous range from the root to the next root.
        """
        name, parent, start, end = (a[lo:hi] for a in self.arrays())
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= lo
        np.add.at(child, parent[nested] - lo, dur[nested])
        own = dur - child
        k = len(self.keys)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        selft = np.bincount(name, weights=own, minlength=k)
        return {key: (int(calls[i]), float(incl[i]), float(selft[i]))
                for i, key in enumerate(self.keys) if calls[i]}

    def write(self, stem):
        """Spans to `<stem>-spans.npz`, readable without this module."""
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            f"{stem}-spans.npz", name=name, parent=parent, start=start - start.min(initial=0.0),
            end=end - start.min(initial=0.0),
            keys=np.array(["/".join(k) for k in self.keys] or [""]),
        )


class Instrumentation:
    """Record of every patched attribute, so the package can be restored."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, value):
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = value
            return
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._saved.clear()


def _modules():
    from tractorlab import (brst, cartan, cli, dressing, expr, fields, geometry, ghosts,
                            jets, metrics, oracle, suites, tractor)

    mods = (jets, expr, fields, metrics, geometry, cartan, dressing, tractor, ghosts, brst,
            oracle, suites, cli)
    return {m.__name__.rsplit(".", 1)[-1]: m for m in mods}


def instrument(tracer: Tracer) -> Instrumentation:
    mods = _modules()
    inst = Instrumentation()

    # module functions: rebind every module attribute that names the original,
    # so `from .x import f` call sites are traced as well
    originals = {}
    for short, mod in mods.items():
        skip = SKIP.get(short, set())
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and attr not in skip
                    and not (short == "suites" and attr.startswith("check_"))):
                originals[id(obj)] = (obj, tracer.wrap(obj, layer_of(mod.__name__), attr))
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in originals and originals[id(obj)][0] is obj:
                inst.patch(mod, attr, originals[id(obj)][1])

    for short, classes in METHODS.items():
        for cls_name, names in classes.items():
            cls = getattr(mods[short], cls_name)
            for attr in names:
                inst.patch(cls, attr, tracer.wrap(cls.__dict__[attr], layer_of(short), attr))

    _instrument_jets(tracer, inst, mods["jets"].JetAlgebra)
    _instrument_fields(tracer, inst, mods)
    _instrument_metrics(tracer, inst, mods["metrics"].MetricField)
    _instrument_geometry(tracer, inst, mods["geometry"].Geometry)
    _instrument_suites(tracer, inst, mods["suites"])
    return inst


def _instrument_jets(tracer, inst, JetAlgebra):
    shapes = tracer.shapes
    enter, exit_ = tracer.enter, tracer.exit
    mul, matmul, compose = JetAlgebra.mul, JetAlgebra.matmul, JetAlgebra._compose
    nid_mul, nid_matmul = tracer.key("jets", "mul"), tracer.key("jets", "matmul")

    def traced_mul(alg, a, b):
        idx = enter(nid_mul)
        try:
            out = mul(alg, a, b)
        finally:
            exit_(idx)
        shapes[("mul", out.size // alg.ncoef, alg.ncoef)] += 1
        return out

    def traced_matmul(alg, a, b):
        idx = enter(nid_matmul)
        try:
            out = matmul(alg, a, b)
        finally:
            exit_(idx)
        rows = out.size // (out.shape[-3] * out.shape[-2] * alg.ncoef)
        shapes[("matmul", rows, alg.ncoef)] += 1
        return out

    inst.patch(JetAlgebra, "mul", traced_mul)
    inst.patch(JetAlgebra, "matmul", traced_matmul)
    inst.patch(JetAlgebra, "_compose", tracer.wrap(compose, "jets", "compose"))


def _instrument_fields(tracer, inst, mods):
    enter, exit_ = tracer.enter, tracer.exit
    nids = {}

    def evaluator(method, fn_attr, op):
        def traced(self, *args, **kwargs):
            module = getattr(getattr(self, fn_attr), "__module__", None) or ""
            nid = nids.get((module, op))
            if nid is None:
                nid = nids[module, op] = tracer.key(layer_of(module), op)
            idx = enter(nid)
            try:
                return method(self, *args, **kwargs)
            finally:
                exit_(idx)
        return traced

    for short, cls_name, methods, op in FIELDS:
        cls = getattr(mods[short], cls_name)
        for method, fn_attr in methods.items():
            inst.patch(cls, method, evaluator(cls.__dict__[method], fn_attr, op))
    row = mods["fields"].RowField
    inst.patch(row, "coeffs", tracer.wrap(row.__dict__["coeffs"], "fields", "row.coeffs"))


def _instrument_metrics(tracer, inst, MetricField):
    init = MetricField.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        # component evaluations that missed the metric's cache
        self._g_fn = tracer.wrap(self._g_fn, "metrics", "g.eval")

    inst.patch(MetricField, "__init__", traced_init)


def _instrument_geometry(tracer, inst, Geometry):
    counters = tracer.counters
    new = Geometry.__dict__["__new__"]
    wrapped_new = tracer.wrap(new.__func__, "geometry", "lookup")

    def traced_new(cls, metric, point):
        obj = wrapped_new(cls, metric, point)
        if "_bench_seen" not in obj.__dict__:
            obj.__dict__["_bench_seen"] = True
            counters["geometry.built"] += 1
        return obj

    inst.patch(Geometry, "__new__", staticmethod(traced_new))
    for attr, obj in list(Geometry.__dict__.items()):
        if isinstance(obj, functools.cached_property):
            inst.patch(obj, "func", tracer.wrap(obj.func, "geometry", attr))


def _instrument_suites(tracer, inst, suites):
    points = suites.Context.points

    def traced_points(ctx, rng, count=None):
        out = points(ctx, rng, count)
        tracer.counters["suites.points_sampled"] += len(out)
        return out

    inst.patch(suites.Context, "points", traced_points)
    for suite, jobs in suites.SUITES.items():
        inst.patch(suites.SUITES, suite, [
            (cid, tracer.wrap(fn, "suites", f"check:{cid}")) for cid, fn in jobs
        ])


# -- layer metrics -----------------------------------------------------------


def layer_metrics(tracer, round_span, suite_of):
    """Per-layer metrics of the traced round whose spans are `round_span` = (lo, hi).

    Counters cover the round only: the caller clears them when it starts.
    `suite_of` maps a check id to its suite.
    """
    stats = tracer.per_key(*round_span)
    zero = (0, 0.0, 0.0)

    def calls(layer, op):
        return stats.get((layer, op), zero)[0]

    def incl(layer, op):
        return stats.get((layer, op), zero)[1]

    def own(layer, op):
        return stats.get((layer, op), zero)[2]

    def calls_of(op):
        return sum(n for (_, o), (n, _, _) in stats.items() if o == op)

    layer_self = dict.fromkeys(LAYER_ORDER, 0.0)
    for (layer, _), (_, _, s) in stats.items():
        layer_self[layer] += s

    c = tracer.counters
    rows = Counter()
    for (kernel, b, _), n in tracer.shapes.items():
        rows[kernel] += b * n
    verdict = float(tracer.end[round_span[0]] - tracer.start[round_span[0]])
    kernel_calls = calls("jets", "mul") + calls("jets", "matmul")
    out = {
        "trace.verdict_s": (verdict, "s"),
        "trace.accounted_share": (sum(layer_self.values()) / verdict, "ratio"),
        "trace.spans": (round_span[1] - round_span[0], "count"),
        "jets.mul.calls": (calls("jets", "mul"), "count"),
        "jets.mul.rows": (rows["mul"], "count"),
        "jets.mul.s": (own("jets", "mul"), "s"),
        "jets.matmul.calls": (calls("jets", "matmul"), "count"),
        "jets.matmul.rows": (rows["matmul"], "count"),
        "jets.matmul.s": (own("jets", "matmul"), "s"),
        "jets.rows_per_call": ((rows["mul"] + rows["matmul"]) / max(kernel_calls, 1), "ratio"),
        "jets.compose.calls": (calls("jets", "compose"), "count"),
        "jets.compose.s": (own("jets", "compose"), "s"),
        "jets.inv_matrix.calls": (calls("jets", "inv_matrix"), "count"),
        "expr.evaluate.calls": (calls("expr", "evaluate"), "count"),
        "expr.evaluate.s": (own("expr", "evaluate"), "s"),
        "expr.poly.calls": (calls("expr", "coeffs_at"), "count"),
        "expr.poly.s": (own("expr", "coeffs_at"), "s"),
        "fields.at.calls": (calls_of("field.at") + calls_of("connection.at"), "count"),
        "metrics.g.calls": (calls("metrics", "g"), "count"),
        "metrics.g.evals": (calls("metrics", "g.eval"), "count"),
        "metrics.g.s": (own("metrics", "g") + own("metrics", "g.eval"), "s"),
        "geometry.lookups": (calls("geometry", "lookup"), "count"),
        "geometry.built": (c["geometry.built"], "count"),
        "geometry.memo_hit_ratio": (1.0 - c["geometry.built"] / max(calls("geometry", "lookup"), 1),
                                    "ratio"),
        "cartan.connection.calls": (calls_of("connection.at"), "count"),
        "tractor.calibrate.calls": (calls("tractor", "calibrate_convention_map"), "count"),
        "tractor.calibrate.s": (incl("tractor", "calibrate_convention_map"), "s"),
        "oracle.fd.calls": (calls("oracle", "fd_first") + calls("oracle", "fd_second"), "count"),
        "suites.checks": (sum(n for (_, op), (n, _, _) in stats.items()
                              if op.startswith("check:")), "count"),
        "suites.points_sampled": (c["suites.points_sampled"], "count"),
        "cli.report.s": (layer_self["cli"], "s"),
    }
    for layer in LAYER_ORDER:
        if layer != "cli":
            out[f"{layer}.s"] = (layer_self[layer], "s")
    per_suite = Counter()
    for (layer, op), (_, t, _) in stats.items():
        if layer == "suites" and op.startswith("check:"):
            per_suite[suite_of[op[len("check:"):]]] += t
    for suite in sorted(set(suite_of.values())):
        out[f"suites.{suite}.s"] = (float(per_suite[suite]), "s")
    for label, lo, hi in (("b1", 1, 1), ("b2_15", 2, 15), ("b16_255", 16, 255),
                          ("b256up", 256, float("inf"))):
        out[f"jets.calls.{label}"] = (
            sum(n for (_, rows, _), n in tracer.shapes.items() if lo <= rows <= hi), "count")
    return out, stats


def write_summary(path, metrics, stats, tracer, extra):
    """The layer metrics, per-span-name totals and the kernel shape histogram as JSON."""
    doc = dict(extra)
    doc["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
    doc["spans"] = {f"{layer}/{op}": {"calls": n, "inclusive_s": t, "self_s": s}
                    for (layer, op), (n, t, s) in sorted(stats.items())}
    doc["kernel_shapes"] = [{"kernel": k, "B": b, "NC": nc, "calls": n}
                            for (k, b, nc), n in sorted(tracer.shapes.items())]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
