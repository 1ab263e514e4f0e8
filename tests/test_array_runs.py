"""Each job runs each compiled program at most once per point set.

A job's curvature grid is evaluated once, by `classify`, in the same runs
as its holonomy samples while both stay below `_LEAN_POINTS` points, and the
builders read it from the `ConnectionProfile`; the verifier computes a
sample set's Christoffel table and a Riemann form's coefficient table on the
grid once; and `PotentialSystem.table` moves the two base lines in one
`_panels` call and the two sweeps in one more, as long as a call stays
below `_LEAN_POINTS` nodes.  Array arithmetic is elementwise, so none of
this moves a bit of any output: the merged tables equal the per-axis
transports, and errors keep their stage.
"""

import hashlib
import os
import sys

import numpy as np
import pytest

from berwald import classifier
from berwald.classifier import MixedClass, classify
from berwald.cli import EXIT_OK, load_config, main
from berwald.geometry_core import (ConnectionProfile, NonFiniteData, UnsupportedConnection,
                                   curvature_grid)
from berwald.metrizer import (PotentialSystem, build_class3, build_class4, build_exponential,
                              build_power_law)
from berwald.scalar_field import DomainError, compile_program

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDENS = ["ex1", "exponential", "class3", "flat_cartesian", "class4_general"]
EX1_STATE = "1,2,1.5707963267948966,0,0.2,0.02,0.01,0.004"


def _env_digest(env: dict) -> str:
    """The names, shape and bytes of an array run's inputs."""
    shape = np.broadcast_shapes(*map(np.shape, env.values()))
    h = hashlib.sha256(repr(shape).encode())
    for name in sorted(env):
        h.update(name.encode() + b"\0")
        h.update(np.ascontiguousarray(np.broadcast_to(env[name], shape), dtype=float).tobytes())
    return h.hexdigest()


@pytest.fixture
def array_runs(monkeypatch):
    """Every array run of every program compiled from here on, as (the
    program's fields, the digest of its inputs)."""
    runs = []

    def counted(exprs):
        exprs = tuple(exprs)
        run = compile_program(exprs)
        on_arrays = run.on_arrays

        def recorded(env):
            runs.append((exprs, _env_digest(env)))
            return on_arrays(env)

        run.on_arrays = recorded
        return run

    for name, module in list(sys.modules.items()):
        if name.startswith("berwald") and getattr(module, "compile_program", None) is compile_program:
            monkeypatch.setattr(module, "compile_program", counted)
    return runs


def _repeated(runs) -> int:
    return len(runs) - len(set(runs))


@pytest.mark.parametrize("name", GOLDENS)
def test_verify_runs_no_program_twice_on_the_same_inputs(name, array_runs, tmp_path):
    rc = main(["verify", os.path.join(GOLDEN, name + ".cfg"), "--grid", "7x7",
               "--json", str(tmp_path / "r.json"), "--quiet"])
    assert rc == EXIT_OK
    assert array_runs and _repeated(array_runs) == 0


def test_geodesic_both_runs_no_program_twice_on_the_same_inputs(array_runs, tmp_path):
    rc = main(["geodesic", os.path.join(GOLDEN, "ex1.cfg"), "--state", EX1_STATE,
               "--T", "0.1", "--n-out", "5", "--both", "--out", str(tmp_path / "t.traj"),
               "--quiet"])
    assert rc == EXIT_OK
    assert array_runs and _repeated(array_runs) == 0


def test_classify_runs_each_curvature_program_once(array_runs):
    """At 5x5 the grid's 25 nodes and the 25 holonomy samples share one run
    of each curvature program; the builder reads the grid's."""
    cfg = load_config(os.path.join(GOLDEN, "ex1.cfg"))
    cfg.t_n = cfg.r_n = 5
    conn, grid = cfg.connection_profile(), cfg.grid()
    classify(conn, grid, seed=cfg.seed)
    curvature = [tuple(f for _, f in conn._curvature_quantities(w)) for w in (0, 1)]
    assert [exprs for exprs, _ in array_runs] == curvature
    cg = curvature_grid(conn, grid)
    build_power_law(conn, grid)
    assert [exprs for exprs, _ in array_runs if exprs in curvature] == curvature
    assert not cg.a.flags.writeable and not cg.DEF.flags.writeable


def test_large_grids_keep_their_samples_apart(array_runs):
    """Grid and samples together at `_LEAN_POINTS` points or more run apart:
    the samples at the holonomy stage."""
    cfg = load_config(os.path.join(GOLDEN, "ex1.cfg"))
    cfg.t_n = cfg.r_n = 32   # 1024 nodes
    classify(cfg.connection_profile(), cfg.grid(), seed=cfg.seed)
    assert [len(exprs) for exprs, _ in array_runs] == [54, 10, 54, 10]


def _potentials(name: str, t_n: int = 5, r_n: int = 5) -> PotentialSystem:
    cfg = load_config(os.path.join(GOLDEN, name + ".cfg"))
    cfg.t_n, cfg.r_n = t_n, r_n
    conn, grid = cfg.connection_profile(), cfg.grid()
    build = {"ex1": build_power_law, "exponential": build_exponential,
             "class3": lambda c, g: build_class3(c, g)[0],
             "class4_general": build_class4}[name]
    return build(conn, grid).scale_pot


def _per_axis_table(pot: PotentialSystem, ts, rs) -> tuple:
    """`table` with each of its four sweeps moved alone."""
    (t0, r0), y0 = pot.base, pot.base_values[None]
    (base_t,) = pot._sweeps([(True, np.array([r0]), t0, y0, ts)])
    (base_r,) = pot._sweeps([(False, np.array([t0]), r0, y0, rs)])
    (t_first,) = pot._sweeps([(False, ts, r0, base_t[0], rs)])
    (r_first,) = pot._sweeps([(True, rs, t0, base_r[0], ts)])
    return t_first, r_first.transpose(1, 0, 2)


@pytest.mark.parametrize("name, t_n, r_n", [
    ("ex1", 5, 5), ("exponential", 5, 5), ("class3", 5, 5), ("class4_general", 5, 5),
    ("ex1", 5, 9)])
def test_merged_table_is_the_per_axis_transports(name, t_n, r_n, monkeypatch):
    """Bit for bit: class3's one-forms read their components, class4_general
    redoes lines gap by gap, and 5x9 has sides of unequal gap counts."""
    pot = _potentials(name, t_n, r_n)
    ts, rs, _ = pot._table
    transports = []
    transport = PotentialSystem._transport
    monkeypatch.setattr(PotentialSystem, "_transport",
                        lambda self, *a, **k: transports.append(1) or transport(self, *a, **k))
    merged = pot.table(ts, rs)
    assert (len(transports) > 0) == (name == "class4_general")
    for a, b in zip(merged, _per_axis_table(pot, ts, rs)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, t_n, r_n, calls", [
    ("ex1", 5, 5, [2 * 4, 8 * 4]), ("exponential", 5, 5, [2 * 4, 8 * 4]),
    ("class3", 5, 5, [2 * 4, 8 * 4]), ("ex1", 5, 9, [4, 8, 4 * 8, 8 * 4]),
    ("ex1", 15, 15, [2 * 14, 14 * 14, 14 * 14])])
def test_one_panels_call_per_table_phase(name, t_n, r_n, calls, monkeypatch):
    """The panels of each `_panels` call: a square grid's two base lines
    share one call, and so do the two sweeps while they stay below
    `_LEAN_POINTS` nodes (at 15x15 each sweep has 14 x 14 x 16 = 3136);
    sides of unequal gap counts (5x9) keep their own calls.  A sweep's line
    through the base point is the other base line, and is not moved again."""
    pot = _potentials(name, t_n, r_n)
    ts, rs, _ = pot._table
    panels = []
    move = PotentialSystem._panels
    monkeypatch.setattr(PotentialSystem, "_panels",
                        lambda self, along, fixed, starts, *a: panels.append(starts.size)
                        or move(self, along, fixed, starts, *a))
    pot.table(ts, rs)
    assert panels == calls


# finite at every node of a 5x5 grid on [0.5, 2.5] (t = 1.0 and 1.5 among
# them), not finite for 1.05 < t < 1.45, where most seeds put a sample
_BETWEEN = "sqrt((t - 1.05)*(t - 1.45))"


def _stages(monkeypatch) -> list:
    """The classifier stages entered, in order."""
    seen = []
    for name in ("check_finsler_constraints", "holonomy_rank_details"):
        fn = getattr(classifier, name)
        monkeypatch.setattr(classifier, name,
                            lambda *a, _fn=fn, _name=name, **k: seen.append(_name) or _fn(*a, **k))
    return seen


def _grid5():
    return [(float(t), float(r)) for t in np.linspace(0.5, 2.5, 5)
            for r in np.linspace(0.5, 2.5, 5)]


def test_a_failing_sample_raises_at_the_holonomy_stage(monkeypatch):
    grid = _grid5()
    conn = ConnectionProfile({1: _BETWEEN, 10: "1"})
    # finite on the grid (read by a second profile, so that conn keeps nothing)
    curvature_grid(ConnectionProfile({1: _BETWEEN, 10: "1"}), grid)
    seen = _stages(monkeypatch)
    with pytest.raises((DomainError, NonFiniteData)) as err:
        classify(conn, grid, seed=3)
    assert seen == ["check_finsler_constraints", "holonomy_rank_details"]
    t = float(str(err.value).split("(t, r) = (")[1].split(",")[0])
    assert 1.05 < t < 1.45


def test_unsupported_samples_are_refused_at_the_holonomy_stage(monkeypatch):
    """k11 vanishes at every node but not between them."""
    between = "(t - 1.05)*(t - 1.45)"
    conn = ConnectionProfile({10: "1", 11: "abs(%s) - (%s)" % (between, between)})
    seen = _stages(monkeypatch)
    with pytest.raises(UnsupportedConnection) as err:
        classify(conn, _grid5(), seed=3)
    assert seen == ["check_finsler_constraints", "holonomy_rank_details"]
    t = float(str(err.value).split("(t, r) = (")[1].split(",")[0])
    assert 1.05 < t < 1.45


def test_a_mixed_class_grid_wins_over_a_failing_sample(monkeypatch):
    """k10 = t - 1 vanishes, with the rest of the w-corner, at the nodes
    t = 1 only: the grid's regime changes, which is raised before the
    samples are read."""
    conn = ConnectionProfile({1: _BETWEEN, 10: "t - 1"})
    seen = _stages(monkeypatch)
    with pytest.raises(MixedClass):
        classify(conn, _grid5(), seed=3)
    assert seen == ["check_finsler_constraints"]
    with pytest.raises((DomainError, NonFiniteData)):
        curvature_grid(conn, [(1.25, 1.0)])


def test_a_failing_node_raises_before_any_stage(monkeypatch):
    conn = ConnectionProfile({1: "sqrt((t - 1.05)*(t - 2.05))", 10: "1"})
    seen = _stages(monkeypatch)
    with pytest.raises((DomainError, NonFiniteData), match=r"\(t, r\) = \(1\.5, 0\.5\)"):
        classify(conn, _grid5(), seed=3)
    assert seen == []
