import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from berwald import metrizer
from berwald.geodesic_engine import StepFailure, finsler_spray, integrate_ode
from berwald.geometry_core import (ConnectionProfile, NonFiniteData, TangentPoint,
                                   curvature_profile, sample_tangent_points)
from berwald.metrizer import (DeltaVanishes, ExponentialForm, LambdaEqualsOne,
                              LambdaNotConstant, MuNotConstant, NotClosed,
                              NotRiemannMetrizable, PathDependent, PotentialSystem,
                              PowerLawForm, RiemannForm,
                              SingularQuadratic, _base_point, build_class3,
                              build_class4, build_class5, build_exponential,
                              build_power_law)
from berwald.scalar_field import DomainError, ScalarField, compile_program
from berwald.verifier import check_horizontal_constancy, draw_jets, levi_civita_roundtrip

from conftest import (admissible, class5_broken_ricci, class5_curved_block, count_values_at,
                      default_grid, ex1_admissible, ex1_paper_L, ex2_paper_L, exp_admissible,
                      exp_paper_L, exponential_example, flat_cartesian,
                      flat_spherical, horizontal_residual, power_law_nonsymmetric,
                      power_law_symmetric)
from generators import make_class3, make_class5
from oracles import class3_delta, class5_det_formula, m_shift_by_max, path_integral


def _sparse_probes(grid) -> list:
    """Nine nodes of ``grid``, evenly spaced in its order."""
    return [grid[i] for i in np.linspace(0, len(grid) - 1, 9).astype(int)]


@pytest.fixture(scope="module")
def exp_form():
    return build_exponential(exponential_example(), default_grid())


@pytest.fixture(scope="module")
def c3_forms():
    conn, meta = make_class3(41)
    fins, riem = build_class3(conn, default_grid(), "identity")
    return conn, fins, riem


class TestPathIntegral:
    def test_zero_form(self):
        assert path_integral("0", "0", (0, 0), (1, 2)) == 0.0

    def test_exact_potential_tr(self):
        val = path_integral("r", "t", (0, 0), (1, 2))
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_single_variable(self):
        val = path_integral("2*t", "0", (0, 0), (3, 5))
        assert val == pytest.approx(9.0, abs=1e-10)

    def test_not_closed(self):
        with pytest.raises(NotClosed):
            path_integral("r*r", "0", (0, 0), (1, 1))

    def test_curl_is_checked_at_every_probe(self):
        # curl g'(t) h'(r) with g(t) = (t - 1) exp(-100 (t - 1)^2) and h the
        # same in r - 2: 1 at the node (1, 2), below 1e-40 at every other
        # lattice point, and g, h vanish at every node, so both sweeps agree
        P, Q = "0", "(t - 1) * exp(-100 * (t - 1)^2) * (1 - 200 * (r - 2)^2) * exp(-100 * (r - 2)^2)"
        lattice = [(float(t), float(r)) for t in range(5) for r in range(5)]
        probes = lattice + [(4.0, 4.0)]
        assert (1.0, 2.0) not in _sparse_probes(probes)
        with pytest.raises(NotClosed, match="curl residual 1 "):
            PotentialSystem(["psi"], [P], [Q], (0.0, 0.0)).certify(probes)
        with pytest.raises(NotClosed, match="curl residual 1 "):
            path_integral(P, Q, (0.0, 0.0), (4.0, 4.0))

    def test_matches_potential_system(self):
        pots = PotentialSystem(["psi"], ["cos(t) * r"], ["sin(t) + 2 * r"], (0.3, 0.4))
        quad = path_integral("cos(t) * r", "sin(t) + 2 * r", (0.3, 0.4), (1.7, 2.1))
        transported = pots.values(1.7, 2.1)["psi"]
        assert transported == pytest.approx(quad, abs=1e-9)
        # exact potential: sin(t) r + r^2
        exact = (math.sin(1.7) * 2.1 + 2.1 ** 2) - (math.sin(0.3) * 0.4 + 0.4 ** 2)
        assert transported == pytest.approx(exact, abs=1e-10)


class TestPotentialSystem:
    def test_path_residual_of_non_closed_form(self):
        # d(psi) = r dt is not closed: the t-first and r-first transports to
        # (t, r) differ by (t - 0.5)(r - 0.5), relative gap 2/3 at (1.5, 1.5)
        window = [(t, r) for t in np.linspace(0.5, 1.5, 4) for r in np.linspace(0.5, 1.5, 4)]
        probes = _sparse_probes(window)

        def system():
            return PotentialSystem(["psi"], ["r"], ["0"], (0.5, 0.5))

        fresh = system()
        assert fresh.path_independence_residual(probes) == pytest.approx(2 / 3, rel=1e-9)
        queried = system()
        for (t, r) in window:
            queried.values(t, r)
        assert queried.path_independence_residual(probes) == pytest.approx(2 / 3, rel=1e-9)


    def test_closedness_is_exact(self, grid):
        # d(psi) = r dt: d_t Q - d_r P = -1
        assert PotentialSystem(["psi"], ["r"], ["0"], (0.5, 0.5)).closedness_residual(
            [(1.0, 1.5)]) == 1.0
        # components enter their own forms with their one-forms as gradients:
        # d(psi) = psi (dt + dr) is closed, d(psi) = psi dt + t psi dr is not (curl psi)
        assert PotentialSystem(["psi"], ["psi"], ["psi"], (0.0, 0.0), [2.0]).closedness_residual(
            [(0.0, 0.0)]) == 0.0
        assert PotentialSystem(["psi"], ["psi"], ["t*psi"], (0.0, 0.0), [2.0]).closedness_residual(
            [(0.0, 0.0)]) == 2.0
        # the class-5 form reads second partials of the k_i; its curl is rounding
        pot = build_class5(class5_curved_block(), grid).meta["potentials"]
        assert pot.closedness_residual(_sparse_probes(grid)) < 1e-12

    def test_non_finite_curl_is_an_error_not_a_pass(self):
        """A NaN curl would certify: max() passes over it, and NaN > tol is
        false.  inf - inf in Q raises DomainError instead."""
        pot = PotentialSystem(["psi"], ["0"], ["1e200*1e200*t - 1e200*1e200*t"], (1.0, 1.0))
        with pytest.raises(DomainError, match="jet is not finite at"):
            pot.closedness_residual([(1.0, 1.0)])

    def test_freed_without_a_gc_pass(self):
        """No reference cycle holds a system: it dies, with its programs,
        when its last reference goes, not at a later cyclic gc pass."""
        import gc
        import weakref
        gc.disable()
        try:
            pot = PotentialSystem(["psi"], ["t + psi"], ["0"], (0.0, 0.0))
            assert pot.closedness_residual([(0.5, 0.0), (0.5, 0.0)]) == 0.0
            ref = weakref.ref(pot)
            del pot
            assert ref() is None
        finally:
            gc.enable()

    def test_parameter_named_like_a_potential_keeps_its_value(self):
        """A field built with psi = 1 reads 1 there; the component psi in the
        same one-form moves: psi' = 1*t + psi, psi(0) = 0, is e^t - t - 1."""
        pot = PotentialSystem(["psi"], [ScalarField("psi*t", {"psi": 1.0}) + ScalarField("psi")],
                              ["0"], (0.0, 0.0))
        assert pot.values(1.0, 0.0)["psi"] == pytest.approx(math.e - 2.0, rel=1e-12)
        assert pot.closedness_residual([(0.5, 0.0), (1.0, 0.0)]) < 1e-12


def _ode_table(pot: PotentialSystem, grid, tol: float = 1e-13) -> dict:
    """The t-first transport to every grid node by scalar ODE legs: one along
    the base line through every t, then one per t through every r."""
    n, (t0, r0) = len(pot.names), pot.base
    ts = sorted({t for t, _ in grid})
    rs = sorted({r for _, r in grid})

    def solve(rhs, y0, s0, nodes):
        out = {s0: np.asarray(y0, dtype=float)}
        for side in ([s for s in nodes if s > s0], [s for s in nodes if s < s0][::-1]):
            if side:
                states, _ = integrate_ode(rhs, y0, [s0] + side, rtol=tol, atol=tol)
                out.update(zip(side, states[1:]))
        return out

    table = {}
    base_line = solve(lambda s, y: np.array(pot._forms(s, r0, y.tolist())[:n]),
                      pot.base_values, t0, ts)
    for t in ts:
        line = solve(lambda s, y: np.array(pot._forms(t, s, y.tolist())[n:]),
                     base_line[t], r0, rs)
        table.update(((t, r), line[r]) for r in rs)
    return table


def _c3_pots(grid):
    return build_class3(make_class3(41)[0], grid)[0].scale_pot


def _general_class4(grid):
    # h' = M h with M != 0: the one-form reads h, so Picard iterates
    return build_class4(ConnectionProfile({1: "1", 5: "1/r"}), grid).scale_pot


class TestPanelTransport:
    """Chebyshev-panel transport against scalar ODE legs, and its fallback."""

    @pytest.mark.parametrize("build", [
        lambda g: build_power_law(power_law_nonsymmetric(3.0), g).scale_pot,
        lambda g: build_exponential(exponential_example(), g).scale_pot,
        _c3_pots,
        lambda g: build_class4(flat_cartesian(), g).scale_pot,
        _general_class4,
        lambda g: build_class5(class5_curved_block(), g).scale_pot,
    ], ids=["power_law", "exponential", "class3", "flat_class4", "general_class4", "class5"])
    def test_table_matches_ode_sweep(self, build):
        grid = default_grid(5)
        pot = build(grid)
        ref = _ode_table(pot, grid)
        got = np.array([[pot.values(t, r)[n] for n in pot.names] for (t, r) in grid])
        want = np.array([ref[q] for q in grid])
        scale = 1.0 + np.max(np.abs(want), axis=0)
        assert np.max(np.abs(got - want) / scale) < 1e-11

    def test_pole_ends_in_step_failure(self):
        pot = PotentialSystem(["psi"], ["1/(t-1.2)"], ["0"], (1.0, 1.0))
        with pytest.raises(StepFailure, match="at s = 1.2"):
            pot.values(1.5, 1.0)

    def test_overflow_is_a_located_domain_error(self):
        # the derivative exp(800 t) nears the float maximum at t = 0.887
        pot = PotentialSystem(["psi"], ["exp(800*t)"], ["0"], (0.88, 1.0))
        with pytest.raises(DomainError, match=r"psi overflows near \(t, r\) = \(0\.88"):
            pot.values(1.0, 1.0)
        pot = PotentialSystem(["psi"], ["exp(800*t)"], ["exp(800*r)"], (0.5, 1.0))
        with pytest.raises(DomainError,
                           match=r"one-form of psi overflows at \(t, r\) = \(0\.5, 1\)"):
            pot.values(1.5, 1.0)

    def test_off_probe_values_do_not_depend_on_query_order(self):
        grid = default_grid(5)
        # clusters nearer to each other than to any probe: a value that
        # continued from the previous query would depend on the order
        points = [(2.2, 1.3), (2.15, 1.25), (2.1, 1.2), (0.75, 1.3), (0.7, 1.25),
                  (1.3, 2.2), (1.2, 2.25)]

        def certified():
            pot = PotentialSystem(["psi"], ["cos(t)*r + r^2*exp(t)"],
                                  ["sin(t) + 2*r*exp(t)"], _base_point(grid))
            pot.certify(_sparse_probes(grid))
            return pot

        forward, backward = certified(), certified()
        a = [forward.values(*q)["psi"] for q in points]
        b = [backward.values(*q)["psi"] for q in points[::-1]][::-1]
        assert a == b


class TestBatchedTransport:
    """`values_at` and `table`: legs batched across points and lines."""

    @pytest.mark.parametrize("build", [
        lambda g: build_power_law(power_law_nonsymmetric(3.0), g).scale_pot,
        lambda g: build_exponential(exponential_example(), g).scale_pot,
        _c3_pots,
    ], ids=["example1", "exponential", "class3"])
    def test_a_value_does_not_depend_on_its_batch(self, build, monkeypatch):
        grid = default_grid(5)
        points = [tuple(q) for q in np.random.default_rng(3).uniform(0.6, 2.4, size=(50, 2))]
        pot = build(grid)
        alone = [pot.values_at([q])[0] for q in points]
        batch = pot.values_at(points)
        backwards = build(grid).values_at(points[::-1])[::-1]
        assert all(np.array_equal(a, b) for a, b in zip(alone, batch))
        assert np.array_equal(batch, backwards)
        # values() is one one-point values_at, and stores nothing
        batches = count_values_at(monkeypatch, pot)
        for _ in range(2):
            assert np.array_equal(list(pot.values(*points[0]).values()), batch[0])
        assert batches == [1, 1]

    def test_nearest_node_is_argmins(self):
        """`values_at` reads a point from the node that np.argmin of
        |x - node| picks, the lowest on a tie, in 2000 random cases: grid
        nodes and uneven ones, one-node axes, exact midpoints and points
        outside the axis."""
        rng = np.random.default_rng(12)
        for case in range(2000):
            n = int(rng.integers(1, 9))
            nodes = (np.sort(rng.choice(np.linspace(-2.0, 2.0, 17), n, replace=False)) if case % 2
                     else np.unique(rng.uniform(-2.0, 2.0, n)))
            x = np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:]), rng.uniform(-4.0, 4.0, 8),
                                [-300.0, 300.0]])
            want = np.argmin(np.abs(x[:, None] - nodes), axis=1)
            assert metrizer._nearest(x, nodes).tolist() == want.tolist()

    def test_values_before_certify_move_from_the_base_point(self):
        """Before `certify` the table is the base point alone: a one-node
        axis each way."""
        pot = PotentialSystem(["psi"], ["1"], ["2"], (1.0, 1.0), [0.25])
        assert pot.values_at([(1.0, 1.0), (1.5, 0.5), (3.0, 2.0)])[:, 0].tolist() == pytest.approx(
            [0.25, -0.25, 4.25], abs=1e-12)

    def test_sweeps_that_agree_at_the_probes_only_are_refused(self):
        """d(psi) = -bump(r) dt has curl bump'(r), zero off r in (0.69, 0.89),
        which holds only r_2 of the 15 x 15 grid's r and no probe's: the two
        sweeps differ by (t - t0) bump(r) there, and agree at every probe."""
        grid = default_grid(15)
        x = "(1 - ((r - %r)/0.1)^2)" % grid[2][1]
        bump = "((%s + abs(%s))/2)^4" % (x, x)

        def system():
            return PotentialSystem(["psi"], ["-" + bump], ["0"], _base_point(grid))

        probes = _sparse_probes(grid)
        assert grid[2][1] not in {r for _, r in probes}
        assert system().path_independence_residual(probes) == 0.0
        assert system().closedness_residual(probes) == 0.0
        with pytest.raises(NotClosed, match="path-dependent transport"):
            system().certify(grid)

    @pytest.mark.parametrize("build", [
        lambda g: build_exponential(exponential_example(), g).scale_pot,
        lambda g: build_class5(class5_curved_block(), g).scale_pot,
        _c3_pots,
        lambda g: build_class4(flat_cartesian(), g).scale_pot,
        _general_class4,
    ], ids=["exponential", "class5", "class3", "flat_class4", "general_class4"])
    def test_whole_lines_are_the_panels_gap_by_gap(self, build):
        """Every gap of every line at once gives the table that moving one
        gap at a time gives, bit for bit: in these systems each Picard pass
        repeats the earlier components' bits, and a gap's start state is
        the same sum in the same order."""
        grid = default_grid(15)
        pot = build(grid)
        ts, rs, _ = pot._table
        whole = pot.table(ts, rs)
        assert all(np.array_equal(a, b) for a, b in zip(whole, _gap_by_gap_table(pot, ts, rs)))

    @pytest.mark.parametrize("build", [
        _c3_pots,
        lambda g: build_class4(flat_cartesian(), g).scale_pot,
    ], ids=["class3", "flat_class4"])
    def test_a_tables_array_runs_do_not_grow_with_the_grid(self, build, monkeypatch):
        """Both systems read their own components; each of their lines moves
        in one array run per Picard pass, whatever its number of gaps: every
        `_panels` call of a table makes as many runs at 5x5 as at 15x15, and
        a table makes at most two calls per phase (two at 15x15, where a
        phase's sweeps together reach `_LEAN_POINTS` nodes; one at 5x5)."""
        runs = []
        quadrature, panels = PotentialSystem._quadrature, PotentialSystem._panels
        monkeypatch.setattr(PotentialSystem, "_quadrature",
                            lambda self, *args: runs.append(1) or quadrature(self, *args))

        def counted(self, *args):
            start = len(runs)
            out = panels(self, *args)
            per_call.append(len(runs) - start)
            return out

        monkeypatch.setattr(PotentialSystem, "_panels", counted)
        counts, per_call = [], []
        for n in (5, 15):
            pot = build(default_grid(n))
            ts, rs, _ = pot._table
            per_call.clear()
            pot.table(ts, rs)
            counts.append(list(per_call))
        assert len(counts[0]) == 2 and len(counts[1]) == 3
        assert set(counts[0]) == set(counts[1]) and len(set(counts[0])) == 1

    def test_a_line_that_fails_the_whole_line_pass_falls_back_alone(self):
        """psi' = 0.3 chi X, chi' = -0.3 psi X with X = 1 except at (c, 0.9),
        where it is 0/0: c is a Chebyshev node of the third gap's panel, so
        of the t-lines only r = 0.9 fails its whole-line pass.  That line goes
        gap by gap, its third gap an ODE leg; every other line keeps the
        states of its whole-line pass."""
        nodes = np.linspace(0.0, 1.0, 6)
        rs = np.array([0.5, 0.7, 0.9, 1.1])
        c = float(nodes[2] + 0.5 * (nodes[3] - nodes[2]) * (metrizer._PANEL_X[5] + 1.0))
        x = "((t - %r)^2 + (r - 0.9)^2)/((t - %r)^2 + (r - 0.9)^2)" % (c, c)
        pot = PotentialSystem(["psi", "chi"], ["0.3*chi*" + x, "-0.3*psi*" + x], ["0", "0"],
                              (0.0, 0.5))
        y0 = np.tile([1.0, 0.5], (4, 1))
        ends = np.tile(nodes[1:], (4, 1))
        starts = np.tile(nodes[:-1], (4, 1))
        whole, ok, failed = pot._panels(True, rs, starts, ends, y0)
        assert failed.tolist() == [False, False, True, False]
        assert ok.tolist() == [True, True, False, True]
        out = pot._sweeps([(True, rs, 0.0, y0, nodes)])[0]
        assert np.array_equal(out[:, 0], y0)
        assert np.array_equal(out[[0, 1, 3], 1:], whole[[0, 1, 3]])
        y, alone = y0[2:3], []
        for a, b in zip(nodes[:-1], nodes[1:]):
            y = pot._transport(True, rs[2:3], np.array([a]), np.array([b]), y)
            alone.append(y[0])
        assert np.array_equal(out[2, 1:], alone)
        # the ODE leg and the panels agree on the rotation by 0.3 (t - 0)
        angle = 0.3 * nodes[1:]
        want = np.column_stack([np.cos(angle) + 0.5 * np.sin(angle),
                                0.5 * np.cos(angle) - np.sin(angle)])
        assert np.max(np.abs(out[:, 1:] - want)) < 1e-11

    def test_a_one_gap_line_is_one_panel_by_picard(self):
        """One gap per line is Picard iteration on one panel per leg: Y <-
        y_a + h S F(s, Y) from Y = y_a until the change is within
        _TRANSPORT_TOL (1 + |Y|), accepted where h times the tail is too;
        a leg still iterating after `_PICARD_PASSES` is not accepted."""
        pot = PotentialSystem(["psi"], ["psi*cos(t) + t"], ["0"], (0.0, 0.0))
        a, b = np.array([0.0, 0.3, 1.0, -2.0]), np.array([0.2, 0.9, 5.0, 4.0])
        ya = np.array([[0.5], [1.0], [-2.0], [0.1]])
        y, ok, failed = pot._panels(True, np.zeros(4), a[:, None], b[:, None], ya)
        assert not failed.any() and ok[:2].all() and not ok[2:].any()
        for i in range(4):
            h = 0.5 * (b[i:i + 1] - a[i:i + 1])
            s = a[i:i + 1, None] + h[:, None] * (metrizer._PANEL_X + 1.0)
            Y = np.broadcast_to(ya[i], (1, metrizer._PANEL_N, 1))
            for _ in range(metrizer._PICARD_PASSES):
                inc, tail, _ran = pot._quadrature(True, np.zeros(s.shape), s, h, Y)
                Y, prev = ya[i] + inc, Y
                bound = metrizer._TRANSPORT_TOL * (1.0 + np.max(np.abs(Y), axis=1))
                if np.all(np.max(np.abs(Y - prev), axis=1) <= bound):
                    assert ok[i] == np.all(tail <= bound)
                    assert y[i, 0].tolist() == Y[0, -1].tolist()
                    break
            else:
                assert not ok[i]

    def test_a_failed_panel_is_an_ode_leg_and_leaves_its_batch_alone(self):
        """d psi = ((t - c)/(t - c) + t) dt fails at t = c alone, a Chebyshev
        node of the middle leg's panel: that leg is an ODE leg, which never
        meets c, and each leg's state is the one it has alone."""
        a, b = np.zeros(3), np.array([1.0, 2.0, 3.0])
        c = float(0.5 * (b[1] - a[1]) * (metrizer._PANEL_X[5] + 1.0))
        pot = PotentialSystem(["psi"], ["(t - %r)/(t - %r) + t" % (c, c)], ["0"], (0.0, 0.0))
        fixed, ya = np.zeros(3), np.zeros((3, 1))
        _y, ok, failed = pot._panels(True, fixed, a[:, None], b[:, None], ya)
        assert failed.tolist() == [False, True, False] and ok.tolist() == [True, False, True]
        batch = pot._transport(True, fixed, a, b, ya)
        alone = [pot._transport(True, fixed[:1], a[i:i + 1], b[i:i + 1], ya[:1])[0]
                 for i in range(3)]
        assert batch.tolist() == np.array(alone).tolist()
        assert batch[1].tolist() == pot._ode_leg(True, 0.0, 0.0, 2.0, ya[0]).tolist()
        assert batch[:, 0] == pytest.approx(b + 0.5 * b * b, rel=1e-12)
        # a line of several gaps fails as a whole where one of its nodes does
        _y, ok, failed = pot._panels(True, np.zeros(1), np.array([[0.0, 2.0]]),
                                     np.array([[2.0, 3.0]]), ya[:1])
        assert ok.tolist() == [False] and failed.tolist() == [True]

    def test_panels_are_accepted_on_the_transported_values(self):
        """The tail bound scales with the value the panel ends at, base value
        and increment together: psi = 1e8 + sin(20 t) - sin(10) takes one
        panel per gap, most of which the increment's own size would refuse."""
        pot = PotentialSystem(["psi"], ["20*cos(20*t)"], ["0"], (0.5, 0.5), [1e8])
        nodes = np.linspace(0.5, 2.5, 15)
        a, b = nodes[:-1], nodes[1:]
        h = 0.5 * (b - a)
        s = a[:, None] + h[:, None] * (metrizer._PANEL_X + 1.0)
        inc, tail, ok = pot._quadrature(True, np.full(s.shape, 0.5), s, h, np.zeros(s.shape + (1,)))
        assert ok.all()
        assert np.sum(tail > metrizer._TRANSPORT_TOL * (1.0 + np.max(np.abs(inc), axis=1))) >= 10
        y, ok, failed = pot._panels(True, np.array([0.5]), a[None], b[None], pot.base_values[None])
        assert ok.tolist() == [True] and failed.tolist() == [False]
        assert y[0, :, 0] == pytest.approx(1e8 + np.sin(20 * nodes[1:]) - math.sin(10.0),
                                           abs=1e-6)


def _gap_by_gap_table(pot: PotentialSystem, ts, rs) -> tuple:
    """`table` with every line moved one gap at a time, the same gap of
    every line in one `_transport` call."""
    (t0, r0), n = pot.base, len(pot.names)

    def lines(along_t, fixed, s0, y0, nodes):
        out = np.empty((len(fixed), len(nodes), n))
        out[:, nodes == s0] = y0[:, None]
        for side in (np.flatnonzero(nodes > s0), np.flatnonzero(nodes < s0)[::-1]):
            y, a = y0, s0
            for j in side:
                y = out[:, j] = pot._transport(along_t, fixed, np.full(len(fixed), a),
                                               np.full(len(fixed), nodes[j]), y)
                a = nodes[j]
        return out

    base_t = lines(True, np.array([r0]), t0, pot.base_values[None], ts)[0]
    base_r = lines(False, np.array([t0]), r0, pot.base_values[None], rs)[0]
    return (lines(False, ts, r0, base_t, rs),
            lines(True, rs, t0, base_r, ts).transpose(1, 0, 2))


class TestPowerLaw:
    def test_example1_lambda_rho_scale(self, grid):
        form = build_power_law(power_law_nonsymmetric(3.0), grid)
        assert form.lam == pytest.approx(0.5, abs=1e-12)
        for (t, r) in grid[::7]:
            assert form.rho_field.value(t, r) == pytest.approx(4 * r * r, rel=1e-10)
        # the conformal factor integrand vanishes identically: theta == 1
        for (t, r) in grid[::5]:
            assert form.scale_pot.values(t, r)["psi"] == pytest.approx(0.0, abs=1e-12)

    def test_example1_matches_displayed_L_up_to_constant(self, grid, rng):
        conn = power_law_nonsymmetric(3.0)
        form = build_power_law(conn, grid)
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 50,
                                    predicate=admissible(form))
        ratios = np.array([form.jet(p).value / ex1_paper_L(p) for p in pts])
        assert np.all(ratios > 0)
        assert float(np.var(ratios)) < 1e-8
        assert ratios.mean() == pytest.approx(3 ** -0.5, rel=1e-10)

    def test_example2_lambda_rho_and_L(self, grid, rng):
        conn = power_law_symmetric()
        form = build_power_law(conn, grid)
        assert form.lam == pytest.approx(0.75, abs=1e-12)
        for (t, r) in grid[::6]:
            assert form.rho_field.value(t, r) == pytest.approx(0.0, abs=1e-12)
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 40,
                                    predicate=admissible(form))
        ratios = np.array([form.jet(p).value / ex2_paper_L(p) for p in pts])
        assert float(np.var(ratios)) / ratios.mean() ** 2 < 1e-8

    def test_horizontal_constancy_of_built_forms(self, grid, rng):
        for conn in (power_law_nonsymmetric(3.0), power_law_symmetric()):
            form = build_power_law(conn, grid)
            pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 25,
                                        predicate=admissible(form))
            assert max(horizontal_residual(form, conn, p) for p in pts) < 1e-7

    def test_lambda_not_constant_when_D_degenerates(self, grid):
        # k1 += t*r^2 shifts a1 by 2 t r, so F/D = a1/(a1 - 2) drifts over the grid
        spoiled = ConnectionProfile(
            {1: "2*r*(alpha-2) + t*r^2", 4: "4*alpha*r^3*(alpha-1)", 6: "-2*alpha*r",
             8: "-2*r", 10: "alpha*r"}, params={"alpha": 3.0})
        with pytest.raises(LambdaNotConstant):
            build_power_law(spoiled, grid)

    def test_lambda_equals_one(self, grid):
        # constant k8 makes a5 = 0, hence D = F and lambda = 1 exactly
        conn = ConnectionProfile(
            {1: "2*r*(alpha-2)", 4: "4*alpha*r^3*(alpha-1)", 6: "-2*alpha*r",
             8: "1", 10: "alpha*r"}, params={"alpha": 3.0})
        with pytest.raises(LambdaEqualsOne):
            build_power_law(conn, grid)


class TestExponential:
    def test_mu_matches_closed_form(self, grid, exp_form):
        form = exp_form
        for (t, r) in grid:
            assert form.mu_field.value(t, r) == pytest.approx(
                math.exp(-(r - t) ** 2), rel=1e-9)

    def test_phi_matches_closed_form_after_anchoring(self, grid, exp_form):
        form = exp_form
        t0, r0 = min(grid)
        phi = lambda t, r: math.exp((3 * t * t - 2 * r * t - 1) * math.exp(-(r - t) ** 2))
        anchor = phi(t0, r0)
        for (t, r) in grid:
            built = math.exp(form.scale_pot.values(t, r)["psi"]) * anchor
            assert built == pytest.approx(phi(t, r), rel=1e-8)

    def test_built_L_matches_displayed(self, grid, rng, exp_form):
        conn = exponential_example()
        form = exp_form
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 30,
                                    predicate=admissible(form))
        ratios = np.array([form.jet(p).value / exp_paper_L(p) for p in pts])
        assert float(np.var(ratios)) / ratios.mean() ** 2 < 1e-8
        assert max(horizontal_residual(form, conn, p) for p in pts) < 1e-6

    def test_u_degenerate_ray_excluded(self, grid, exp_form):
        form = exp_form
        p = TangentPoint(1.0, 1.5, 1.2, 0.0, 0.7, 0.7, 0.2, 0.1)
        assert not admissible(form)(p)

    def test_form_jet_runs_one_abc_program(self, monkeypatch, exp_form):
        """The form jet is one program, compiled on the first call, that
        reads (a, b, c) and mu from L's own expression: no (a, b, c)
        program and no field jet runs beside it.  Its outputs are the 30
        numbers of `FormJet` and the potential's one-form P, Q."""
        form = dataclasses.replace(exp_form)
        assert "_jet_run" not in vars(form)
        calls = []
        monkeypatch.setattr(ScalarField, "jet", lambda *a: calls.append("field jet"))
        compiled = []
        monkeypatch.setattr(metrizer, "compile_program",
                            lambda fields: compiled.append(len(fields)) or compile_program(fields))
        p = TangentPoint(1.0, 1.5, 1.2, 0.0, 1.0, 0.3, 0.2, 0.1)
        first = form.jet(p)
        assert form.jet(p).metric_tensor().tolist() == first.metric_tensor().tolist()
        assert calls == [] and compiled == [32]

    def test_mu_undefined_raises(self, grid):
        # E = b a3 vanishes identically when k8 = 0
        conn = ConnectionProfile({1: "r", 9: "t/3", 10: "t/3"})
        with pytest.raises(MuNotConstant):
            build_exponential(conn, grid)


def _paper_L_sympy(name: str):
    """The paper's closed-form L of Example 1 (alpha = 3) or of the
    exponential example in sympy, as `ex1_paper_L` and `exp_paper_L`
    evaluate it, with its chart and velocity symbols."""
    import sympy
    t, r, th, td, rd, thd, phd = xs = sympy.symbols("t r theta tdot rdot thetadot phidot")
    w2 = thd ** 2 + phd ** 2 * sympy.sin(th) ** 2
    if name == "ex1":
        alpha = sympy.Integer(3)
        base = 4 * alpha * r ** 2 * td ** 2 - 4 * td * rd - alpha * w2
        return td ** (2 / (alpha - 1)) * base ** ((alpha - 2) / (alpha - 1)), xs
    u2 = (rd - td) ** 2
    e = sympy.exp(-(r - t) ** 2)
    scale = sympy.exp((3 * t ** 2 - 2 * r * t - 1) * e)
    return scale * sympy.exp(e * (2 * rd ** 2 - 2 * td * rd - w2) / u2) * u2, xs


class TestFormJetOracle:
    @pytest.mark.parametrize("name", ["ex1", "exponential"])
    def test_blocks_match_sympy_derivatives_of_the_closed_form(self, name, grid, exp_form):
        """All 30 entries of the five blocks (L, d/dxdot, d/dx, the mixed
        block, the Hessian) at 5 samples against sympy's derivatives of the
        paper's L times the constant factor read at the first sample."""
        import mpmath
        import sympy
        form = build_power_law(power_law_nonsymmetric(3.0), grid) if name == "ex1" else exp_form
        L, xs = _paper_L_sympy(name)
        chart, vel = xs[:3], xs[3:]
        exprs = ([L] + [sympy.diff(L, y) for y in vel] + [sympy.diff(L, x) for x in chart]
                 + [sympy.diff(L, x, y) for x in chart for y in vel]
                 + [sympy.diff(L, y, z) / 2 for y in vel for z in vel])
        ref = sympy.lambdify(xs, exprs, "mpmath")
        pts = sample_tangent_points(np.random.default_rng(8), (0.6, 2.4), (0.6, 2.4), 5,
                                    predicate=admissible(form))
        factor = None
        with mpmath.workdps(30):
            for p in pts:
                want = np.array([float(v) for v in ref(p.t, p.r, p.theta, p.tdot, p.rdot,
                                                       p.thetadot, p.phidot)])
                jet = form.jet(p)
                factor = factor or jet.value / want[0]
                blocks = [(np.array([jet.value]), want[:1]),
                          (jet.vertical_gradient(), want[1:5]),
                          (jet.horizontal_gradient()[:3], want[5:8]),
                          (jet.mixed_block()[:3].ravel(), want[8:20]),
                          (jet.metric_tensor().ravel(), want[20:])]
                for got, exact in blocks:
                    exact = factor * exact
                    assert np.max(np.abs(got - exact)) <= 1e-10 * np.max(np.abs(exact))


class TestClass3:
    def test_generated_profiles_round_trip(self, grid):
        for seed in (11, 12):
            conn, meta = make_class3(seed)
            fins, riem = build_class3(conn, grid, "identity")
            assert levi_civita_roundtrip(riem, conn, grid).residual < 1e-8

    def test_potential_K_matches_generator(self, grid):
        conn, meta = make_class3(21)
        fins, riem = build_class3(conn, grid, "identity")
        pots = riem.meta["potentials"]
        t0, r0 = min(grid)
        base = meta["K_closed_form"](t0, r0)
        for (t, r) in grid[::6]:
            assert pots.values(t, r)["K"] == pytest.approx(
                meta["K_closed_form"](t, r) - base, abs=1e-9)

    def test_det_formula(self, grid, rng):
        conn, _ = make_class3(31)
        fins, riem = build_class3(conn, grid, "identity")
        pots = riem.meta["potentials"]
        for _ in range(10):
            t, r = rng.uniform(0.7, 2.3, size=2)
            th = rng.uniform(0.4, 2.6)
            p = TangentPoint(t, r, th, 0.0, 1.0, 0.3, 0.2, -0.4)
            detg = np.linalg.det(riem.jet(p).metric_tensor())
            K = pots.values(t, r)["K"]
            pred = math.sin(th) ** 2 * math.exp(6 * K) * class3_delta(riem, t, r)
            assert detg == pytest.approx(pred, rel=1e-6)

    def test_identity_theta_reproduces_A(self, grid, rng, c3_forms):
        conn, fins, riem = c3_forms
        for _ in range(10):
            t, r = rng.uniform(0.6, 2.4, size=2)
            p = TangentPoint(t, r, 1.1, 0.2, 1.0, 0.4, -0.2, 0.3)
            assert fins.jet(p).value == pytest.approx(riem.jet(p).value, rel=1e-12)

    def test_coefficient_table_is_the_coefficient_jets(self, grid, c3_forms):
        """One array run over the grid gives each node's coefficients and
        their partials, the coefficients' program run on floats at that node,
        to a few ulps; the partials move the potentials along their one-forms."""
        _conn, _fins, riem = c3_forms
        table = riem.coefficient_table(grid)
        ref = np.array([riem._coefficient_run(riem._env(t, r, None))
                        for (t, r) in grid]).reshape(-1, 4, 3)
        assert table.shape == (len(grid), 4, 3)
        assert np.all(np.abs(table - ref) <= 8 * np.spacing(np.abs(ref)))
        vals = riem.scale_pot.values_at(grid)
        assert riem.coefficient_table(grid, vals).tolist() == table.tolist()
        # d/dt of e^G (M + m_shift) along the one-forms of G and M
        pots = riem.scale_pot
        vals = pots.values(1.23, 1.37)
        G, M = vals["G"], vals["M"]
        P = pots._forms(1.23, 1.37, [float(vals[n]) for n in pots.names])
        m_shift = riem.meta["m_shift"]
        att_dt = riem.coefficient_table([(1.23, 1.37)])[0, 0, 1]
        assert att_dt == pytest.approx(math.exp(G) * (P[0] * (M + m_shift) + P[2]), rel=1e-12)

    def test_coefficient_table_raises_at_the_first_failing_node(self):
        """Failing and passing nodes in one run: the first failing node in
        order raises, naming the coefficient and the point; a run per node
        (the former fallback) raises the same text unlocated at a failing
        node, and gives inf where a product overflows."""
        form = RiemannForm(ScalarField("1/(t - 1)"), ScalarField("t*t"), ScalarField("-1"),
                           ScalarField("-r*r"))
        good = [(0.5, 1.0), (2.0, 1.5), (3.0, 0.5)]
        run = form._coefficient_run
        assert form.coefficient_table(good).tolist() == [
            np.reshape(run({"t": t, "r": r}), (4, 3)).tolist() for t, r in good]
        with pytest.raises(DomainError, match="^division by zero$"):
            run({"t": 1.0, "r": 1.0})
        assert run({"t": 1e200, "r": 1.0})[3] == math.inf
        for bad, error, text in (([(1.0, 1.0), (1e200, 1.0)], DomainError,
                                  "att at (t, r) = (1, 1): division by zero"),
                                 ([(1e200, 1.0), (1.0, 1.0)], NonFiniteData,
                                  "atr is not finite at (t, r) = (1e+200, 1)")):
            with pytest.raises(error, match="^%s$" % re.escape(text)):
                form.coefficient_table(good[:2] + bad + good[2:])

    def test_m_shift_scores_do_not_grow_with_the_grid(self, monkeypatch):
        """`_choose_m_shift` scores (min |Delta| over the grid) as many
        candidates at 60x60 as at 15x15: a midpoint between forbidden shifts
        is scored only while its bound can beat the best score so far."""
        choose, counts = metrizer._choose_m_shift, []

        def counted(*args):
            n = [0]

            def profile(frame, event, _arg):
                n[0] += event == "call" and frame.f_code.co_name == "score"
            sys.setprofile(profile)
            try:
                return choose(*args)
            finally:
                sys.setprofile(None)
                counts.append(n[0])

        monkeypatch.setattr(metrizer, "_choose_m_shift", counted)
        conn = make_class3(41)[0]
        shifts = [build_class3(conn, default_grid(n))[1].meta["m_shift"] for n in (15, 60)]
        assert counts[0] == counts[1] < 15, counts
        assert all(math.isfinite(m) for m in shifts)

    def test_m_shift_is_the_first_best_candidate(self):
        """The bounded search picks what scoring every candidate picks, the
        first in list order on a tie, and raises where that does, with the
        same text.  With G = K = b = 0, Delta = (M + m) c at a node.  One node,
        M = 0 and c = 1: 2 and -2 tie.  Forbidden shifts -M at -2, -1, 0, 1,
        2, 6, 14, 18, c = 1/4 at 18, else 1: the midpoints 4 and 10 both
        score 2, and 4, the first, is scored last, as its bound is 2 and
        that of 10 is 4."""
        from types import SimpleNamespace
        rng = np.random.default_rng(5)
        far = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 6.0, 14.0, 18.0])
        cases = [(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]])),
                 (np.stack([0 * far, 0 * far, -far], axis=1),
                  np.stack([0 * far, 0 * far, np.where(far == 18.0, 0.25, 1.0)], axis=1))] + [
            (rng.integers(-2, 3, size=(n, 3)) * np.array([0.5, 0.5, 1.0]),
             rng.integers(-2, 3, size=(n, 3)).astype(float)) for n in rng.integers(2, 30, 300)]
        shifts = []
        for vals, abc in cases:
            pots = SimpleNamespace(names=["G", "K", "M"], values_at=lambda _grid: vals)
            cg = SimpleNamespace(abc=abc)
            try:
                want = m_shift_by_max(pots, None, cg)
            except DeltaVanishes as exc:
                with pytest.raises(DeltaVanishes, match="^%s$" % re.escape(str(exc))):
                    metrizer._choose_m_shift(pots, None, cg)
                continue
            shifts.append(metrizer._choose_m_shift(pots, None, cg))
            assert repr(shifts[-1]) == repr(want) and type(shifts[-1]) is type(want)
        assert shifts[:2] == [2.0, 4.0] and len(shifts) > 100

    def test_square_theta_is_not_quadratic(self, grid, c3_forms):
        conn = c3_forms[0]
        fins, _ = build_class3(conn, grid, "square")
        base = (1.3, 1.7, 1.0, 0.0)
        v1 = np.array([1.0, 0.3, 0.2, -0.1])
        v2 = np.array([0.2, -0.5, 0.4, 0.3])
        L = lambda v: fins.jet(TangentPoint(*base, *v)).value
        defect = L(v1 + v2) + L(v1 - v2) - 2 * L(v1) - 2 * L(v2)
        assert abs(defect) > 1e-3  # parallelogram law fails: not quadratic

    def test_square_theta_still_horizontally_constant(self, grid, rng):
        conn, _ = make_class3(41)
        fins, _ = build_class3(conn, grid, "square")
        pts = sample_tangent_points(rng, (0.7, 2.3), (0.7, 2.3), 20,
                                    predicate=admissible(fins))
        assert max(horizontal_residual(fins, conn, p) for p in pts) < 1e-7

    def test_flat_spherical_routes_to_class3(self, grid):
        conn = flat_spherical()
        fins, riem = build_class3(conn, grid, "identity")
        assert levi_civita_roundtrip(riem, conn, grid).residual < 1e-10
        # recovered K = ln r up to the base-point constant
        pots = riem.meta["potentials"]
        t0, r0 = min(grid)
        for (t, r) in grid[::5]:
            assert pots.values(t, r)["K"] == pytest.approx(
                math.log(r / r0), abs=1e-10)

    def test_not_closed_on_class1_input(self, grid):
        with pytest.raises(NotClosed):
            build_class3(power_law_nonsymmetric(3.0), grid)


def _domain_candidates(abc, rng, n: int = 300) -> list:
    """n tangent points whose u = tdot - a rdot has either sign and one of the
    scales around the 1e-6 floor (w = 0 at every third, every fifth at t =
    1.5), then points with rdot = 0, where u = tdot: 1e-6 and its float
    neighbours, and the exponential example's point where L underflows."""
    pts = []
    for i in range(n):
        t = 1.5 if i % 5 == 0 else rng.uniform(0.6, 2.4)
        r, theta = rng.uniform(0.6, 2.4), rng.uniform(0.2, 2.9)
        rdot = rng.uniform(-2.0, 2.0)
        thetadot, phidot = rng.uniform(-2.0, 2.0, 2) if i % 3 else (0.0, 0.0)
        u = rng.choice([0.0, 1e-7, 1e-6, 1.000001e-6, 1e-5, 1e-3, 0.1, 1.0]) * rng.choice([-1, 1])
        a = abc({"t": t, "r": r})[0]
        pts.append(TangentPoint(t, r, theta, 0.0, a * rdot + u, rdot, thetadot, phidot))
    for tdot in (math.nextafter(1e-6, 0.0), 1e-6, math.nextafter(1e-6, 1.0), -1e-6, 2e-6):
        pts.append(TangentPoint(1.3, 1.1, 1.0, 0.0, tdot, 0.0, 0.5, 0.3))
    return pts + [TangentPoint(1.0, 1.5, 1.2, 0.0, 0.701, 0.7, 0.2, 0.1)]


def _reference_domain(form, abc, p) -> str:
    """Whether ``form`` is defined at p ("in"), or why not, from float
    formulas written out by hand: u = tdot - a rdot, v = c rdot^2 + 2 b tdot
    rdot - w^2; the power law needs u and v + rho u^2 above 1e-6, the other
    forms |u| above 1e-6, and the exponential form L a finite normal float."""
    try:
        a, b, c = abc({"t": p.t, "r": p.r})
        s = math.sin(p.theta)
        w2 = p.thetadot * p.thetadot + p.phidot * p.phidot * s * s
        u = p.tdot - a * p.rdot
        v = c * p.rdot * p.rdot + 2.0 * b * p.tdot * p.rdot - w2
        if isinstance(form, PowerLawForm):
            base = v + form.rho_field.value(p.t, p.r) * u * u
            return "in" if u > 1e-6 and base > 1e-6 else "floor"
        if abs(u) <= 1e-6:
            return "floor"
        if isinstance(form, ExponentialForm):
            psi = form.scale_pot.values(p.t, p.r)["psi"]
            L = math.exp(psi) * u * u * math.exp(form.mu_field.value(p.t, p.r) * v / (u * u))
            if L < sys.float_info.min:
                return "underflow"
            return "in" if L <= sys.float_info.max else "overflow"
        return "in"
    except DomainError:
        return "domain"
    except OverflowError:
        return "overflow"


@pytest.fixture(scope="module")
def finsler_forms(exp_form, c3_forms):
    ex1 = build_power_law(power_law_nonsymmetric(3.0), default_grid())
    # rho + 0/(t - 1.5): the same rho, but its division fails at t = 1.5
    pole = dataclasses.replace(ex1, rho_field=ex1.rho_field + ScalarField("0/(t - 1.5)"))
    return {"ex1": ex1, "ex1-rho-pole": pole,
            "ex2": build_power_law(power_law_symmetric(), default_grid()),
            "exponential": exp_form, "class3": c3_forms[1]}


class TestDomain:
    @pytest.mark.parametrize("name, reasons", [
        ("ex1", {"in", "floor"}), ("ex1-rho-pole", {"in", "floor", "domain"}),
        ("ex2", {"in", "floor"}), ("exponential", {"in", "floor", "overflow", "underflow"}),
        ("class3", {"in", "floor"})])
    def test_admissible_agrees_with_hand_written_formulas(self, finsler_forms, name, reasons):
        form = finsler_forms[name]
        abc = compile_program(form.conn.curvature_fields()[1])
        pts = _domain_candidates(abc, np.random.default_rng(17))
        want = [_reference_domain(form, abc, p) for p in pts]
        assert set(want) == reasons
        assert [admissible(form)(p) for p in pts] == [w == "in" for w in want]
        assert form.admit(pts)[0] == [w == "in" for w in want]

    @pytest.mark.parametrize("name", ["ex1", "ex2", "exponential", "class3"])
    def test_drawing_jets_evaluates_no_field_alone(self, finsler_forms, name, monkeypatch):
        """Admission runs the form's domain program: no `ScalarField.value`."""
        form = dataclasses.replace(finsler_forms[name])
        calls = []
        value = ScalarField.value
        monkeypatch.setattr(ScalarField, "value",
                            lambda f, t, r: calls.append((t, r)) or value(f, t, r))
        jets = draw_jets(form, np.random.default_rng(3), (0.6, 2.4), (0.6, 2.4), 20)
        assert len(jets.points) == 20 and calls == []


class TestJetOneForms:
    @pytest.mark.parametrize("name", ["ex1", "exponential", "class3"])
    def test_appended_one_forms_are_the_potentials_own(self, finsler_forms, name):
        """The jet program's outputs after its 30 numbers are P_1..P_n,
        Q_1..Q_n: the same floats as the potentials' own program gives at
        the same (t, r) and values."""
        form = finsler_forms[name]
        pots = form.scale_pot
        pts = sample_tangent_points(np.random.default_rng(11), (0.6, 2.4), (0.6, 2.4), 12,
                                    predicate=admissible(form))
        _, vals = form.admit(pts)
        for p, v in zip(pts, vals):
            env = {"t": float(p.t), "r": float(p.r)}
            env.update((n, float(v[n])) for n in pots.names)
            want = pots._run(env)
            assert len(want) == 2 * len(pots.names)
            assert form.jet(p, v).out[30:].tolist() == list(want)

    @pytest.mark.parametrize("name", ["ex1", "exponential", "class3"])
    def test_spray_and_rates_read_the_jet(self, finsler_forms, name):
        """`finsler_spray` is the jet's `spray`, (1/4) g^{-1} (xdot^c d_c
        ddot L - d L) from the blocks the verifier reads (to rounding, as g
        can be ill-conditioned), and its `rates`, P_i tdot + Q_i rdot from
        the potentials' own one-forms, bit for bit."""
        form = finsler_forms[name]
        pts = sample_tangent_points(np.random.default_rng(13), (0.6, 2.4), (0.6, 2.4), 6,
                                    predicate=admissible(form))
        _, vals = form.admit(pts)
        n = len(form.scale_pot.names)
        for p, v in zip(pts, vals):
            jet = form.jet(p, v)
            rhs = p.velocity @ jet.mixed_block() - jet.horizontal_gradient()
            G, rates = finsler_spray(form, p, v)
            assert G.tolist() == pytest.approx(
                (0.25 * np.linalg.solve(jet.metric_tensor(), rhs)).tolist(), rel=1e-8, abs=1e-10)
            env = dict(v, t=float(p.t), r=float(p.r))
            pq = np.array(form.scale_pot._run(env))
            assert rates.tolist() == (pq[:n] * p.tdot + pq[n:] * p.rdot).tolist()


class TestClass4:
    def test_flat_lorentzian(self, grid):
        A = build_class4(flat_cartesian(), grid, "lorentzian")
        assert tuple(A.coefficient_table([(1.3, 2.0)])[0, :, 0]) == pytest.approx(
            (1.0, 0.0, -1.0, -1.0))
        k = A.christoffels([(1.7, 0.9)])[0]
        assert np.max(np.abs(k)) == 0.0

    def test_flat_euclidean_also_metrizes(self, grid):
        A = build_class4(flat_cartesian(), grid, "euclidean")
        assert tuple(A.coefficient_table([(1.0, 1.0)])[0, :, 0]) == pytest.approx(
            (1.0, 0.0, 1.0, 1.0))
        assert levi_civita_roundtrip(A, flat_cartesian(), grid).residual == 0.0

    def test_k1_only_transport(self, grid):
        conn = ConnectionProfile({1: "1"})
        A = build_class4(conn, grid, "lorentzian")
        t0, r0 = min(grid)
        for (t, r) in grid[::4]:
            att, atr, arr, aw = A.coefficient_table([(t, r)])[0, :, 0]
            assert att == pytest.approx(math.exp(2 * (t - t0)), rel=1e-10)
            assert atr == pytest.approx(0.0, abs=1e-12)
            assert arr == pytest.approx(-1.0, rel=1e-12)
        assert levi_civita_roundtrip(A, conn, grid).residual < 1e-9

    def test_path_dependent_on_curved_block(self):
        # small window keeps e^{r^2} tame; the curvature obstruction is there anyway
        small = [(t, r) for t in np.linspace(0.5, 1.5, 4) for r in np.linspace(0.5, 1.5, 4)]
        with pytest.raises(PathDependent):
            build_class4(class5_curved_block(), small, "lorentzian")

    def test_unknown_signature(self, grid):
        with pytest.raises(ValueError):
            build_class4(flat_cartesian(), grid, "riemannian")


class TestClass5:
    def test_curved_block_reconstruction(self, grid, rng):
        conn = class5_curved_block()
        A = build_class5(conn, grid, C1=1.0, C2=1.0)
        assert levi_civita_roundtrip(A, conn, grid).residual < 1e-10
        pts = sample_tangent_points(rng, (0.6, 2.4), (0.6, 2.4), 25)
        assert max(horizontal_residual(A, conn, p) for p in pts) < 1e-10

    def test_phi_closed_form(self, grid):
        # delta_a A = 0 forces e^{-2 phi} (1 + r^2) = const: phi = ln(1+r^2)/2 + c
        conn = class5_curved_block()
        A = build_class5(conn, grid)
        pot = A.meta["potentials"]
        vals = [pot.values(t, r)["phi"] - 0.5 * math.log(1 + r * r) for (t, r) in grid]
        assert max(vals) - min(vals) < 1e-10

    def test_det_formula(self, grid, rng):
        conn = class5_curved_block()
        A = build_class5(conn, grid, C1=0.7, C2=1.3)
        for _ in range(10):
            t, r = rng.uniform(0.6, 2.4, size=2)
            th = rng.uniform(0.4, 2.6)
            p = TangentPoint(t, r, th, 0.0, 1.0, 0.2, 0.3, 0.1)
            detg = abs(np.linalg.det(A.jet(p).metric_tensor()))
            assert detg == pytest.approx(class5_det_formula(A, conn, t, r, th), rel=1e-6)

    def test_generated_profiles(self, grid):
        for seed in (5, 6):
            conn, _ = make_class5(seed)
            A = build_class5(conn, grid)
            assert levi_civita_roundtrip(A, conn, grid).residual < 1e-8

    def test_not_riemann_metrizable(self, grid):
        with pytest.raises(NotRiemannMetrizable):
            build_class5(class5_broken_ricci(0.1), grid)
        conn, _ = make_class5(5, eps=0.03)
        with pytest.raises(NotRiemannMetrizable):
            build_class5(conn, grid)

    def test_singular_quadratic(self, grid):
        # k4 = r alone gives a3 = 1, a1 = a2 = a4 = 0: a1 a4 - a2 a3 = 0
        conn = ConnectionProfile({4: "r"})
        with pytest.raises(SingularQuadratic):
            build_class5(conn, grid)

    def test_nonzero_constants_required(self, grid):
        with pytest.raises(ValueError):
            build_class5(class5_curved_block(), grid, C1=0.0)


class TestHomogeneityProperty:
    def test_built_forms_are_positively_2_homogeneous(self, grid, rng):
        conn = power_law_nonsymmetric(3.0)
        form = build_power_law(conn, grid)
        pts = sample_tangent_points(rng, (0.7, 2.3), (0.7, 2.3), 10,
                                    predicate=admissible(form))
        for p in pts:
            for s in (0.3, 2.0, 7.5):
                q = TangentPoint(p.t, p.r, p.theta, p.phi, s * p.tdot, s * p.rdot,
                                 s * p.thetadot, s * p.phidot)
                assert form.jet(q).value == pytest.approx(
                    s * s * form.jet(p).value, rel=1e-10)
            # Euler vector field: C(L) = 2L from exact vertical gradients
            jet = form.jet(p)
            cl = p.velocity @ jet.vertical_gradient()
            assert cl == pytest.approx(2 * jet.value, rel=1e-10)
