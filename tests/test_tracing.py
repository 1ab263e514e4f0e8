"""The benchmark's layer tracer (perfbench/tracing.py) against the package.

The tracer wraps functions and methods of `berwald` by name, so renaming or
moving one breaks ``perfbench/run.py --trace 1`` and ``check_counts.py``.  A
traced `verify` run must find every name, count the work of its layers, and
leave every binding as it found it.
"""

import os
import sys

from berwald.cli import EXIT_OK, main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                "perfbench"))
import tracing  # noqa: E402

EX1_5X5 = """
[connection]
k1 = 2*r*(alpha-2)
k4 = 4*alpha*r^3*(alpha-1)
k6 = -2*alpha*r
k8 = -2*r
k10 = alpha*r

[params]
alpha = 3

[grid]
t = 0.5:2.5:5
r = 0.5:2.5:5

[samples]
count = 40
seed = 20240601
require = tdot
require = 4*alpha*r^2*tdot^2 - 4*tdot*rdot - alpha*(thetadot^2 + phidot^2*sin(theta)^2)
"""


def _bindings() -> dict:
    """Every attribute of the berwald modules and of the classes they define."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "berwald" or name.startswith("berwald."):
            for attr, val in vars(mod).items():
                out[(name, attr)] = val
                if isinstance(val, type) and val.__module__ == name:
                    out.update(((name, attr, a), v) for a, v in vars(val).items())
    return out


def test_traced_verify_counts_work_and_uninstall_restores(tmp_path):
    cfg = tmp_path / "ex1.cfg"
    cfg.write_text(EX1_5X5)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.start_pass()
    tracer.install()
    try:
        rc = main(["verify", str(cfg), "--json", str(tmp_path / "ex1.json"), "--quiet"])
    finally:
        tracer.uninstall()
    assert rc == EXIT_OK
    metrics = tracer.pass_metrics()
    assert metrics["geometry_core.curvature_profile.calls"] > 0
    assert metrics["metrizer.transport.legs"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_classify_runs_no_per_node_evaluation(tmp_path):
    """`classify` evaluates the curvature programs once per grid on arrays: a
    fallback to per-node `curvature_profile` or `bracket_vectors` shows here."""
    cfg = tmp_path / "ex1.cfg"
    cfg.write_text(EX1_5X5.replace("0.5:2.5:5", "0.5:2.5:15"))
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.start_pass()
    tracer.install()
    try:
        rc = main(["classify", str(cfg), "--json", str(tmp_path / "ex1.json"), "--quiet"])
    finally:
        tracer.uninstall()
    assert rc == EXIT_OK
    metrics = tracer.pass_metrics()
    assert metrics["classifier.classify.calls"] == 1
    assert metrics["geometry_core.vertical_holonomy_rank.calls"] == 1
    assert metrics.get("geometry_core.curvature_profile.calls", 0) == 0
    assert metrics.get("geometry_core.bracket_vectors.calls", 0) == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
