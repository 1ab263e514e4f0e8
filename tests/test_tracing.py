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


def _traced_main(argv: list) -> dict:
    """The tracer's metrics of one ``main(argv)`` pass, which must exit 0;
    uninstalling must leave every binding as it found it."""
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.start_pass()
    tracer.install()
    try:
        rc = main(argv)
    finally:
        tracer.uninstall()
    assert rc == EXIT_OK
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    return tracer.pass_metrics()


def test_traced_verify_counts_work_and_uninstall_restores(tmp_path):
    cfg = tmp_path / "ex1.cfg"
    cfg.write_text(EX1_5X5)
    metrics = _traced_main(["verify", str(cfg), "--json", str(tmp_path / "ex1.json"), "--quiet"])
    assert metrics["metrizer.build_power_law.calls"] == 1
    assert metrics["multijet.form_jet.calls"] > 0
    # the checks read the potentials from the table with `values_at`, never `values`
    assert metrics.get("metrizer.PotentialSystem.values.calls", 0) == 0
    # the builder reads one curvature grid, and no transport leg is an ODE
    assert metrics.get("geometry_core.curvature_profile.calls", 0) == 0
    assert metrics.get("metrizer.transport.legs", 0) == 0


def test_traced_geodesic_reads_the_potentials_once(tmp_path):
    """`geodesic --both` reads the potentials at its start state alone: the
    Finsler flow carries them in its state from there."""
    cfg = tmp_path / "ex1.cfg"
    cfg.write_text(EX1_5X5)
    metrics = _traced_main(["geodesic", str(cfg), "--state",
                            "1,2,1.5707963267948966,0,0.2,0.02,0.01,0.004", "--T", "0.1",
                            "--n-out", "20", "--both", "--out", str(tmp_path / "ex1.traj"),
                            "--quiet"])
    assert metrics["metrizer.PotentialSystem.values.calls"] == 1


def test_traced_classify_runs_no_per_node_evaluation(tmp_path):
    """`classify` evaluates the curvature programs once per grid on arrays: a
    fallback to per-node `curvature_profile` or `bracket_vectors` shows here."""
    cfg = tmp_path / "ex1.cfg"
    cfg.write_text(EX1_5X5.replace("0.5:2.5:5", "0.5:2.5:15"))
    metrics = _traced_main(["classify", str(cfg), "--json", str(tmp_path / "ex1.json"),
                            "--quiet"])
    assert metrics["classifier.classify.calls"] == 1
    assert metrics["geometry_core.vertical_holonomy_rank.calls"] == 1
    assert metrics.get("geometry_core.curvature_profile.calls", 0) == 0
    assert metrics.get("geometry_core.bracket_vectors.calls", 0) == 0
