"""Span tracing of berwald's layers from outside the package.

``Tracer.install()`` replaces the public functions and methods of each layer
with wrappers that record a span (name, start, end, parent span, job) per
call.  A function is rebound in every ``berwald`` module namespace that holds
it, because ``from .x import f`` copies the binding: ``curvature_profile``,
for example, is called through ``classifier``, ``metrizer`` and ``verifier``.
``integrate_ode`` gets a different name per importing module, since the one
bound in ``metrizer`` runs potential-transport legs and the one in
``geodesic_engine`` runs trajectories.

Spans stay in memory; ``pass_metrics()`` turns one pass's spans into calls,
self times (span minus the spans it directly caused) and work counters, and
``write_spans()`` writes the spans out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from collections import defaultdict

# (metric name, unit, better): the per-layer metrics, in report order.
PER_LAYER = [
    ("scalar_field.ScalarField.jet.calls", "count", "lower"),
    ("scalar_field.ScalarField.jet.self_s", "s", "lower"),
    ("scalar_field.ScalarField.value.calls", "count", "lower"),
    ("scalar_field.ScalarField.value.self_s", "s", "lower"),
    ("geometry_core.curvature_profile.calls", "count", "lower"),
    ("geometry_core.curvature_profile.self_s", "s", "lower"),
    ("geometry_core.bracket_vectors.calls", "count", "lower"),
    ("geometry_core.bracket_vectors.self_s", "s", "lower"),
    ("geometry_core.vertical_holonomy_rank.self_s", "s", "lower"),
    ("geometry_core.spray_coefficients.calls", "count", "lower"),
    ("geometry_core.spray_coefficients.self_s", "s", "lower"),
    ("geometry_core.sample_tangent_points.calls", "count", "lower"),
    ("geometry_core.sample_tangent_points.accept_ratio", "ratio", "higher"),
    ("classifier.classify.self_s", "s", "lower"),
    ("classifier.check_finsler_constraints.self_s", "s", "lower"),
    ("classifier.assign_class.self_s", "s", "lower"),
    ("metrizer.build_power_law.self_s", "s", "lower"),
    ("metrizer.build_exponential.self_s", "s", "lower"),
    ("metrizer.build_class3.self_s", "s", "lower"),
    ("metrizer.build_class4.self_s", "s", "lower"),
    ("metrizer.build_class5.self_s", "s", "lower"),
    ("metrizer.PotentialSystem.values.calls", "count", "lower"),
    ("metrizer.PotentialSystem.values.self_s", "s", "lower"),
    ("metrizer.PotentialSystem.values.no_transport_ratio", "ratio", "higher"),
    ("metrizer.PotentialSystem.values.cache_size", "count", "lower"),
    ("metrizer.transport.legs", "count", "lower"),
    ("metrizer.transport.rhs_calls", "count", "lower"),
    ("metrizer.transport.steps", "count", "lower"),
    ("metrizer.transport.rejected", "count", "lower"),
    ("metrizer.transport.self_s", "s", "lower"),
    ("multijet.form_jet.calls", "count", "lower"),
    ("multijet.form_jet.self_s", "s", "lower"),
    ("geodesic_engine.finsler_spray.calls", "count", "lower"),
    ("geodesic_engine.finsler_spray.self_s", "s", "lower"),
    ("geodesic_engine.integrate_finsler.self_s", "s", "lower"),
    ("geodesic_engine.integrate_spray.self_s", "s", "lower"),
    ("geodesic_engine.trajectory.rhs_calls", "count", "lower"),
    ("geodesic_engine.trajectory.steps", "count", "lower"),
    ("geodesic_engine.trajectory.rejected", "count", "lower"),
    ("geodesic_engine.trajectory.self_s", "s", "lower"),
    ("verifier.check_horizontal_constancy.self_s", "s", "lower"),
    ("verifier.check_homogeneity.self_s", "s", "lower"),
    ("verifier.check_hessian.self_s", "s", "lower"),
    ("verifier.berwald_check.self_s", "s", "lower"),
    ("verifier.levi_civita_roundtrip.self_s", "s", "lower"),
    ("verifier.checks.passed", "count", "higher"),
    ("verifier.checks.failed", "count", "lower"),
    ("cli.load_config.self_s", "s", "lower"),
    ("cli.cmd_classify.self_s", "s", "lower"),
    ("cli.cmd_metrize.self_s", "s", "lower"),
    ("cli.cmd_verify.self_s", "s", "lower"),
    ("cli.cmd_geodesic.self_s", "s", "lower"),
    ("trace.wall_s_untraced", "s", "lower"),
    ("trace.wall_s_traced", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# span name -> (module, attribute) of the plain functions wrapped
FUNCTIONS = {
    "geometry_core.curvature_profile": ("geometry_core", "curvature_profile"),
    "geometry_core.bracket_vectors": ("geometry_core", "bracket_vectors"),
    "geometry_core.spray_coefficients": ("geometry_core", "spray_coefficients"),
    "classifier.classify": ("classifier", "classify"),
    "classifier.check_finsler_constraints": ("classifier", "check_finsler_constraints"),
    "classifier.assign_class": ("classifier", "assign_class"),
    "metrizer.build_power_law": ("metrizer", "build_power_law"),
    "metrizer.build_exponential": ("metrizer", "build_exponential"),
    "metrizer.build_class3": ("metrizer", "build_class3"),
    "metrizer.build_class4": ("metrizer", "build_class4"),
    "metrizer.build_class5": ("metrizer", "build_class5"),
    "geodesic_engine.finsler_spray": ("geodesic_engine", "finsler_spray"),
    "geodesic_engine.integrate_finsler": ("geodesic_engine", "integrate_finsler"),
    "geodesic_engine.integrate_spray": ("geodesic_engine", "integrate_spray"),
    "cli.load_config": ("cli", "load_config"),
    "cli.cmd_classify": ("cli", "cmd_classify"),
    "cli.cmd_metrize": ("cli", "cmd_metrize"),
    "cli.cmd_verify": ("cli", "cmd_verify"),
    "cli.cmd_geodesic": ("cli", "cmd_geodesic"),
}
# The classifier calls holonomy_rank_details directly; vertical_holonomy_rank
# only delegates to it.  Both are the holonomy-rank layer.
RANK = "geometry_core.vertical_holonomy_rank"
RANK_FUNCTIONS = ("vertical_holonomy_rank", "holonomy_rank_details")
CHECKS = ("check_horizontal_constancy", "check_homogeneity", "check_hessian",
          "berwald_check", "levi_civita_roundtrip")
SAMPLER = "geometry_core.sample_tangent_points"
VALUES = "metrizer.PotentialSystem.values"
FORM_JET = "multijet.form_jet"
# integrate_ode as bound in each importing module
ODE_NAMES = {"metrizer": "metrizer.transport", "geodesic_engine": "geodesic_engine.trajectory"}


class Tracer:
    def __init__(self, extra=()):
        """``extra``: more (span name, module, attribute) functions to wrap."""
        self.extra = list(extra)
        self.spans = []          # [name, start, end, parent index, job]
        self.stack = []
        self.job = None
        self.counts = defaultdict(int)
        self._undo = []

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name, after=None, before=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if after is not None:
                after(args, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, orig, wrapper):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, wrapper)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "berwald" or n.startswith("berwald.")]
        by_name = {m.__name__.split(".")[-1]: m for m in modules}
        count = self.counts

        targets = [(n, m, a) for n, (m, a) in FUNCTIONS.items()] + self.extra
        targets += [(RANK, "geometry_core", a) for a in RANK_FUNCTIONS]
        for name, mod, attr in targets:
            orig = getattr(by_name[mod], attr)
            self._rebind(modules, orig, self._wrap(orig, name))

        def check_done(_args, result):
            count["verifier.checks.passed" if result.passed else "verifier.checks.failed"] += 1

        for attr in CHECKS:
            orig = getattr(by_name["verifier"], attr)
            self._rebind(modules, orig, self._wrap(orig, "verifier." + attr, after=check_done))

        def count_samples(args, kwargs):
            args = list(args)
            pred = args[4] if len(args) > 4 else kwargs.get("predicate")

            def counted(p):
                count[SAMPLER + ".tries"] += 1
                return pred is None or pred(p)
            if len(args) > 4:
                args[4] = counted
            else:
                kwargs["predicate"] = counted
            return tuple(args), kwargs

        def samples_done(_args, pts):
            count[SAMPLER + ".accepted"] += len(pts)

        orig = by_name["geometry_core"].sample_tangent_points
        self._rebind(modules, orig, self._wrap(orig, SAMPLER, after=samples_done,
                                               before=count_samples))

        ode = by_name["geodesic_engine"].integrate_ode
        for mod_name, name in ODE_NAMES.items():
            self._set(by_name[mod_name], "integrate_ode", self._ode_wrapper(ode, name))

        psys = by_name["metrizer"].PotentialSystem

        def values_done(args, _out):
            cache = vars(args[0]).get("_value_cache", ())
            count[VALUES + ".cache_size"] = max(count[VALUES + ".cache_size"], len(cache))

        self._set(psys, "values", self._wrap(psys.values, VALUES, after=values_done))

        sf = by_name["scalar_field"].ScalarField
        for attr in ("jet", "value"):
            self._set(sf, attr, self._wrap(getattr(sf, attr), "scalar_field.ScalarField." + attr))

        for cls in vars(by_name["metrizer"]).values():
            if (isinstance(cls, type) and cls.__module__ == "berwald.metrizer"
                    and cls.__name__.endswith("Form") and "jet" in vars(cls)):
                self._set(cls, "jet", self._wrap(cls.jet, FORM_JET))

    def _ode_wrapper(self, ode, name):
        count = self.counts

        def before(args, kwargs):
            f = args[0]

            def counted_rhs(s, y):
                count[name + ".rhs_calls"] += 1
                return f(s, y)
            return (counted_rhs,) + tuple(args[1:]), kwargs

        def after(_args, out):
            stats = out[1]
            count[name + ".legs"] += 1
            count[name + ".steps"] += stats.steps
            count[name + ".rejected"] += stats.rejected

        return self._wrap(ode, name, after=after, before=before)

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -- results ---------------------------------------------------------------

    def start_pass(self):
        self.spans.clear()
        self.counts.clear()

    def pass_metrics(self) -> dict:
        """Calls, self time and counters of the spans since ``start_pass``."""
        spans = self.spans
        child = [0.0] * len(spans)
        transported = set()
        for name, t0, t1, parent, _job in spans:
            if parent >= 0:
                child[parent] += t1 - t0
                if name == "metrizer.transport" and spans[parent][0] == VALUES:
                    transported.add(parent)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, t0, t1, _parent, _job) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
        values_calls = calls[VALUES]
        out = {}
        for name in calls:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        out.update(self.counts)
        tries = self.counts.get(SAMPLER + ".tries", 0)
        out[SAMPLER + ".accept_ratio"] = (self.counts.get(SAMPLER + ".accepted", 0) / tries
                                          if tries else 0.0)
        out[VALUES + ".no_transport_ratio"] = (
            (values_calls - len(transported)) / values_calls if values_calls else 0.0)
        return out

    def write_spans(self, path: str):
        """Write the spans of the current pass as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")


def summarize(passes: list, untraced_wall: float, traced_walls: list) -> dict:
    """Per-layer metrics: counts from the first traced pass, times as medians."""
    first = passes[0]
    metrics = {}
    for name, unit, _better in PER_LAYER:
        if unit == "s":
            vals = [p.get(name, 0.0) for p in passes]
            metrics[name] = statistics.median(vals)
        else:
            metrics[name] = first.get(name, 0)
    traced = statistics.median(traced_walls)
    metrics["trace.wall_s_untraced"] = untraced_wall
    metrics["trace.wall_s_traced"] = traced
    metrics["trace.overhead_s"] = traced - untraced_wall
    return metrics


def counts_of(pass_metrics: dict) -> dict:
    """The deterministic part of a pass: every metric that is not a time."""
    return {k: v for k, v in pass_metrics.items() if not k.endswith("_s")}
