"""Construction of metrizing Finsler functions and affinely equivalent metrics.

Scale fields that the paper defines only up to quadrature (the power-law and
exponential conformal factors, the Class-3 potentials, the Class-4 flat
2-metric, the Class-5 conformal exponent) are represented by
`PotentialSystem`: their values are transported along axis-parallel paths
from a base point by Chebyshev-panel quadrature (Picard iteration with
cumulative Clenshaw-Curtis integration, the one-form program run on arrays),
with an adaptive scalar ODE leg only where a panel cannot be evaluated or
does not converge.  Their derivatives come from the defining one-forms
themselves, so every downstream derivative is analytic in the transported
values.  Each builder states its one-forms as fields, reads its
curvature from the grid's `curvature_grid` (which `classify` has evaluated
for the job, and the connection profile keeps) and certifies its potentials
with `PotentialSystem.certify`.  Path independence is certified, never assumed,
at every grid node: the curl of the defining form exactly, the agreement of
two transport routes numerically.

Every constructed form states L as one field (`ExpressionForm`) in the
chart (t, r, theta), the velocities and its potentials; its `jet` runs one
compiled program of L and the partials the checks read, the potentials
moving along their one-forms (`total_partials`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry_core import (ConnectionProfile, CurvatureGrid, NonFiniteData, TangentPoint,
                            W_CORNER_GENERIC, _located, curvature_grid)
from .geodesic_engine import integrate_ode
from .scalar_field import (_LEAN_POINTS, DomainError, ScalarField, Var, compile_program,
                           derivative, parameter_names)


class MetrizerError(RuntimeError):
    pass


class NotClosed(MetrizerError):
    """The defining one-form of a potential is not closed."""


class PathDependent(MetrizerError):
    """The class-4 transport of h depends on the path: the (t, r) corner is curved."""


class LambdaNotConstant(MetrizerError):
    pass


class LambdaEqualsOne(MetrizerError):
    """F/D = 1: the connection is Levi-Civita of a Riemannian metric."""


class MuNotConstant(MetrizerError):
    """F/E undefined on part of the grid (E vanishes)."""


class DeltaVanishes(MetrizerError):
    pass


class NotRiemannMetrizable(MetrizerError):
    pass


class SingularQuadratic(MetrizerError):
    pass


class GradientNotClosed(NotClosed):
    pass


# ---------------------------------------------------------------------------
# Potential transport
# ---------------------------------------------------------------------------

_TRANSPORT_TOL = 1e-12   # panel acceptance; rtol and atol of a fallback ODE leg
_PANEL_N = 16            # Chebyshev-Lobatto nodes per panel
_PANEL_TAIL = 3          # trailing Chebyshev coefficients of the tail test
_PICARD_PASSES = 12      # Picard passes before a panel is bisected
_BISECTIONS = 8          # bisections before a panel falls back to the ODE
_PATH_TOL = 1e-8         # relative gap of the two sweeps allowed at a node


def _chebyshev_panel(n: int) -> tuple:
    """Chebyshev-Lobatto nodes x on [-1, 1], ascending; the matrix C of the
    Chebyshev coefficients of the interpolant through values at x; and the
    cumulative integration matrix S, (S f)_i = integral from -1 to x_i of
    that interpolant (Clenshaw & Norton, Comput. J. 6, 1963)."""
    x = -np.cos(np.pi * np.arange(n) / (n - 1))
    T = np.empty((n, n + 1))             # T[j, k] = T_k(x_j), by the recurrence
    T[:, 0], T[:, 1] = 1.0, x
    for k in range(1, n):
        T[:, k + 1] = 2.0 * x * T[:, k] - T[:, k - 1]
    w = np.full(n, 2.0 / (n - 1))
    w[[0, -1]] *= 0.5
    C = T[:, :n].T * w
    C[[0, -1]] *= 0.5
    B = np.zeros((n + 1, n))             # coefficients of the antiderivative
    B[1, 0], B[2, 1] = 1.0, 0.25
    for k in range(2, n):
        B[k + 1, k], B[k - 1, k] = 0.5 / (k + 1), -0.5 / (k - 1)
    return x, C, (T - T[0]) @ B @ C     # x_0 = -1


_PANEL_X, _PANEL_C, _PANEL_S = _chebyshev_panel(_PANEL_N)
# the cumulative integration rows, then the tail rows of the coefficient map
_PANEL_SC = np.vstack([_PANEL_S, _PANEL_C[-_PANEL_TAIL:]])


def _panel_rows(F: np.ndarray) -> np.ndarray:
    """`_PANEL_SC` applied to each panel of F, shape (k, _PANEL_N, n): an
    array (k, _PANEL_N + _PANEL_TAIL, n), summed over the nodes in order.
    A matrix product rounds a panel's sums differently with other panels
    beside it; these sums do not."""
    rows = _PANEL_SC[:, :1] * F[:, None, 0]
    for j in range(1, _PANEL_N):
        rows += _PANEL_SC[:, j:j + 1] * F[:, None, j]
    return rows


def _panel_nodes(fixed, a, b) -> tuple:
    """h = (b - a)/2, the Chebyshev-Lobatto nodes s of each [a, b], one row
    per panel, and ``fixed`` at each node."""
    h = 0.5 * (b - a)
    s = a[:, None] + h[:, None] * (_PANEL_X + 1.0)
    return h, s, np.broadcast_to(fixed[:, None], s.shape)


def _acceptance(Y, tail) -> tuple:
    """The bound _TRANSPORT_TOL (1 + |Y|) of each panel and component, Y the
    transported values on the panel's nodes (..., _PANEL_N, n), and whether
    the panel's Chebyshev tail (..., n) is within it."""
    bound = _TRANSPORT_TOL * (1.0 + np.max(np.abs(Y), axis=-2))
    return bound, np.all(tail <= bound, axis=-1)


def _nearest(x, nodes) -> np.ndarray:
    """The index of the node nearest each of ``x``, the lower on a tie, as
    np.argmin(np.abs(x[:, None] - nodes), axis=1) finds it, from the two
    neighbours that np.searchsorted finds in the ascending ``nodes``.  Only
    where rounding makes more than two nodes equally near, far off the axis,
    may argmin pick a lower one."""
    hi = np.searchsorted(nodes[:-1], x)   # the first node >= x, else the last
    lo = np.maximum(hi - 1, 0)
    return np.where(np.abs(x - nodes[lo]) <= np.abs(x - nodes[hi]), lo, hi)


class PotentialSystem:
    """Named scalar quantities defined by one-forms d(psi_i) = P_i dt + Q_i dr.

    ``P_i`` and ``Q_i`` are ScalarFields (or expression text) in t, r and the
    component names, which enter as parameters, so later components may depend
    on earlier ones (as the Class-3 potential M does on G and K).  They compile
    into one program, which transport runs on arrays and its ODE legs on floats.
    The closedness check runs a second one on arrays: P_i and Q_i with their
    total partials (`partials_program`), in which the components move by
    their own one-forms, so every derivative is exact.

    Transport runs on Chebyshev panels (`_panels`): Picard iteration with
    cumulative Clenshaw-Curtis integration, every gap of every line at once
    in one array run of the program per pass, t-lines and r-lines together
    (`_sweeps`) while a run stays below `_LEAN_POINTS` nodes, each line
    reading its own half of the program.  Each line is accepted on its
    own; one that is not goes gap by gap (`_transport`), each gap a one-panel
    leg that is bisected until it is accepted, and one whose array run fails,
    or that is not accepted after `_BISECTIONS` bisections, is an adaptive
    scalar ODE leg instead (`_ode_leg`), which raises the scalar program's
    own errors.

    The path-independence certificate tables two sweeps from the base point
    at every node of a grid (`table`): t-first, (t0, r0) -> (t, r0) -> (t, r),
    and r-first, (t0, r0) -> (t0, r) -> (t, r), one `_sweeps` call for the
    two base lines and one for the two sweeps.  The t-first table is the
    one store values are read from: a node's row as it is, any other point
    by two legs from the nearest node (`values_at`), which is sound only
    where the certificate has passed, and its value is a function of (t, r)
    alone.
    """

    def __init__(self, names: Sequence[str], P: Sequence, Q: Sequence,
                 base: tuple, base_values: Sequence[float] | None = None):
        self.names = list(names)
        self._pq = [ScalarField(f) for f in list(P) + list(Q)]
        self._run = compile_program(self._pq)
        n = len(self.names)
        # does the P (t-leg) or Q (r-leg) half read the components?
        self._reads = [any(parameter_names(f) & set(self.names) for f in half)
                       for half in (self._pq[:n], self._pq[n:])]
        self.base = (float(base[0]), float(base[1]))
        self.base_values = np.array(base_values if base_values is not None
                                    else [0.0] * n, dtype=float)
        # the table's node coordinates and t-first values: the base point
        # until `path_independence_residual` tables a grid
        self._table = (np.array(self.base[:1]), np.array(self.base[1:]),
                       self.base_values[None, None])

    def _forms(self, t, r, vec) -> tuple:
        """P_1..P_n, Q_1..Q_n at (t, r) and component values ``vec``."""
        env = dict(zip(self.names, vec))
        env["t"], env["r"] = t, r
        return self._run(env)

    def values(self, t: float, r: float) -> dict:
        """The components at (t, r): a one-point `values_at`."""
        return dict(zip(self.names, self.values_at([(t, r)])[0]))

    def values_at(self, points: Sequence[tuple]) -> np.ndarray:
        """The components at each (t, r) of ``points``, one row per point: two
        legs from the nearest table node, along t and then along r, all
        points' legs along one axis in one `_transport` call.  At a node both
        legs have length zero, so its row is the table's, bit for bit.  A row
        depends on its point and the table alone, never on the other points
        or on earlier queries; that the route from the node does not matter
        is what the certificate (`path_independence_residual`) has compared
        at every node."""
        t, r = np.array(points, dtype=float).reshape(-1, 2).T
        ts, rs, table = self._table
        i, j = _nearest(t, ts), _nearest(r, rs)
        y = self._legs(True, rs[j], ts[i], t, table[i, j])
        return self._legs(False, t, rs[j], r, y)

    def _legs(self, along_t: bool, fixed, a, b, y) -> np.ndarray:
        """The states at b from the states ``y`` at a, one one-panel leg per
        row; a leg of length zero keeps its state."""
        y = y.copy()
        moving = a != b
        if moving.any():
            y[moving] = self._transport(along_t, fixed[moving], a[moving], b[moving],
                                        y[moving])
        return y

    def _sweeps(self, sweeps: Sequence[tuple]) -> list:
        """The states of each sweep (along_t, fixed, s0, y0, nodes) at its
        ``nodes`` (ascending) on the axis lines through ``fixed`` (r for
        t-lines, t for r-lines) from their states ``y0`` at s0, one row per
        line: an array (lines, nodes, n) per sweep.  On each side of s0 a
        line has one panel per gap between consecutive nodes, and every gap
        of every line moves at once (`_panels`): sides of equal gap counts
        in one call, as long as it stays below `_LEAN_POINTS` nodes.  A line
        that this does not accept goes gap by gap, the same gap of every
        such line of a side in one `_transport` call, side after side in
        the order of the sweeps."""
        n = len(self.names)
        outs, sides = [], []   # sides: (sweep, node indices, `_panels` arguments)
        for k, (along_t, fixed, s0, y0, nodes) in enumerate(sweeps):
            nodes = np.asarray(nodes, dtype=float)
            outs.append(np.empty((len(fixed), len(nodes), n)))
            outs[k][:, nodes == s0] = y0[:, None]
            for idx in (np.flatnonzero(nodes > s0), np.flatnonzero(nodes < s0)[::-1]):
                if len(idx) and len(fixed):
                    ends = np.tile(nodes[idx], (len(fixed), 1))
                    starts = np.concatenate([np.full((len(fixed), 1), s0), ends[:, :-1]], axis=1)
                    sides.append((k, idx, (np.full(len(fixed), along_t), fixed, starts, ends, y0)))
        calls = []   # the sides that each `_panels` call moves, by index
        for i, (_k, idx, _args) in enumerate(sides):
            for call in calls:
                size = _PANEL_N * sum(sides[j][2][2].size for j in call + [i])
                if len(sides[call[0]][1]) == len(idx) and size < _LEAN_POINTS:
                    call.append(i)
                    break
            else:
                calls.append([i])
        accepted = [None] * len(sides)
        for call in calls:
            y, ok, _ = self._panels(*map(np.concatenate, zip(*(sides[i][2] for i in call))))
            first = 0
            for i in call:
                k, idx, args = sides[i]
                rows = slice(first, first + len(args[1]))
                first = rows.stop
                outs[k][:, idx], accepted[i] = y[rows], ok[rows]
        for (k, idx, (along, fixed, starts, ends, y0)), ok in zip(sides, accepted):
            redo = np.flatnonzero(~ok)
            if not len(redo):
                continue
            y = y0[redo]
            for j, a, b in zip(idx, starts[0], ends[0]):
                y = outs[k][redo, j] = self._transport(along[redo], fixed[redo],
                                                       np.full(len(redo), a),
                                                       np.full(len(redo), b), y)
        return outs

    def _transport(self, along_t, fixed, a, b, ya, depth: int = 0) -> np.ndarray:
        """The states at b from the states ``ya`` at a, one leg per row on
        the axis line through ``fixed`` (r for a t-leg, t for an r-leg;
        ``along_t`` says which, per leg or for all): one `_panels` call, one
        gap per leg; a leg whose panel fails is an ODE leg, and one that it
        does not accept is halved, each half again a panel, and is an ODE
        leg after `_BISECTIONS` halvings.  A leg's panel arithmetic is
        elementwise, so no leg's state depends on its batch."""
        along = np.broadcast_to(along_t, a.shape)
        y, ok, failed = self._panels(along, fixed, a[:, None], b[:, None], ya)
        yb = y[:, 0]
        for i in np.flatnonzero(~ok):
            if failed[i] or depth == _BISECTIONS:
                yb[i] = self._ode_leg(bool(along[i]), float(fixed[i]), float(a[i]), float(b[i]),
                                      ya[i])
                continue
            leg = slice(i, i + 1)
            m = 0.5 * (a[leg] + b[leg])
            ym = self._transport(along[leg], fixed[leg], a[leg], m, ya[leg], depth + 1)
            yb[i] = self._transport(along[leg], fixed[leg], m, b[leg], ym, depth + 1)[0]
        return yb

    def _panels(self, along_t, fixed, starts, ends, y0) -> tuple:
        """Lines of consecutive panels [starts, ends], (lines, gaps), on the
        axis lines through ``fixed`` from their states ``y0`` at the first
        start: Picard iteration Y <- y_a + h S F(s, Y) on each panel's
        Chebyshev-Lobatto nodes s, h = (end - start)/2, F the P rows on a
        t-line or the Q rows on an r-line (``along_t``, per line or for all),
        one array run per pass for every panel of the lines still iterating.
        A panel's y_a is y0 plus the end increments of the panels before it,
        summed in order; the first guess is y0.  A line stops once the change
        of its Y is within _TRANSPORT_TOL (1 + |Y|) on every panel (one pass
        where its half reads no component), and is accepted if h times each
        panel's Chebyshev tail of F is within that bound too, and not if it
        still iterates after `_PICARD_PASSES`.  A line fails, and stops,
        where a run fails at one of its nodes or its Y is not finite.
        Returns the states at every panel end (lines, gaps, n), which lines
        were accepted and which failed."""
        (lines, gaps), n = starts.shape, len(self.names)
        along = np.broadcast_to(along_t, (lines,))
        reads = np.where(along, *self._reads)   # does the line's half read the components?
        along = np.repeat(along, gaps)
        h, s, fixed = _panel_nodes(np.repeat(fixed, gaps), starts.ravel(), ends.ravel())
        y, (ok, failed) = np.empty((lines, gaps, n)), np.zeros((2, lines), dtype=bool)
        live = np.arange(lines)
        Y = np.broadcast_to(y0[:, None, None], (lines, gaps, _PANEL_N, n))
        with np.errstate(all="ignore"):
            for _ in range(_PICARD_PASSES):
                rows = (gaps * live[:, None] + np.arange(gaps)).ravel()   # the live panels
                inc, tail, ran = self._quadrature(along[rows], fixed[rows], s[rows], h[rows],
                                                  Y.reshape(-1, _PANEL_N, n))
                inc = inc.reshape(len(live), gaps, _PANEL_N, n)
                ya = np.cumsum(np.concatenate([y0[live, None], inc[:, :, -1]], axis=1), axis=1)
                Y, prev = ya[:, :-1, None] + inc, Y   # its last nodes are the sums ya[:, 1:]
                ran = ran.reshape(-1, gaps).all(axis=1) & np.isfinite(Y).all(axis=(1, 2, 3))
                failed[live[~ran]] = True
                bound, accepted = _acceptance(Y, tail.reshape(-1, gaps, n))
                done = ran & (np.all(np.max(np.abs(Y - prev), axis=2) <= bound, axis=(1, 2))
                              | ~reads[live])
                y[live[done]] = ya[done, 1:]
                ok[live[done]] = accepted[done].all(axis=1)
                live, Y = live[ran & ~done], Y[ran & ~done]
                if not len(live):
                    break
        return y, ok, failed

    def _quadrature(self, along_t, fixed, s, h, Y) -> tuple:
        """h S F and h times the Chebyshev tail of F (its largest trailing
        coefficient) on the panels with nodes ``s`` and ``fixed``, shape (k,
        _PANEL_N), the components at ``Y`` (k, _PANEL_N, n), F the P rows
        where ``along_t`` (per panel or for all) and the Q rows elsewhere:
        one array run; and whether it succeeded at every node of a panel,
        with a finite tail."""
        n = len(self.names)
        along = np.reshape(along_t, (-1, 1))
        env = {"t": np.where(along, s, fixed), "r": np.where(along, fixed, s)}
        env.update(zip(self.names, np.moveaxis(Y, 2, 0)))
        out, ok = self._run.on_arrays(env)
        rows = _panel_rows(np.where(along[..., None], out[..., :n], out[..., n:]))
        tail = np.abs(h)[:, None] * np.max(np.abs(rows[:, _PANEL_N:]), axis=1)
        return (h[:, None, None] * rows[:, :_PANEL_N], tail,
                ok.all(axis=1) & np.isfinite(tail).all(axis=1))

    def _ode_leg(self, along_t: bool, fixed: float, a: float, b: float, ya) -> np.ndarray:
        """The state at b from ``ya`` at a by the adaptive scalar ODE, with
        the float program's own errors; an overflow is a located DomainError."""
        n = len(self.names)
        rows = slice(0, n) if along_t else slice(n, 2 * n)
        where = [(a, fixed) if along_t else (fixed, a)]   # the last (t, r) read

        def rhs(s, y):
            where[0] = t, r = (float(s), fixed) if along_t else (fixed, float(s))
            try:
                return np.array(self._forms(t, r, y.tolist())[rows])
            except OverflowError:
                raise DomainError("one-form of %s overflows at (t, r) = (%g, %g)"
                                  % (",".join(self.names), t, r)) from None

        try:
            with np.errstate(over="raise", invalid="raise"):
                states, _ = integrate_ode(rhs, ya, [a, b], rtol=_TRANSPORT_TOL,
                                          atol=_TRANSPORT_TOL)
        except FloatingPointError:
            raise DomainError("%s overflows near (t, r) = (%g, %g)"
                              % (",".join(self.names), *where[0])) from None
        return states[1]

    def table(self, ts, rs) -> tuple:
        """The t-first and the r-first sweep from the base point at every node
        (t_i, r_j), each an array (len(ts), len(rs), n): the two base lines
        through every node coordinate, then all legs along the other axis
        from them, each phase in one `_sweeps` call.  A sweep's line through
        the base point is the other base line, which it copies."""
        ts, rs = np.asarray(ts, dtype=float), np.asarray(rs, dtype=float)
        (t0, r0), y0 = self.base, self.base_values[None]
        base_t, base_r = self._sweeps([(True, np.array([r0]), t0, y0, ts),
                                       (False, np.array([t0]), r0, y0, rs)])
        ti, ri = ts != t0, rs != r0
        lines = self._sweeps([(False, ts[ti], r0, base_t[0, ti], rs),
                              (True, rs[ri], t0, base_r[0, ri], ts)])
        shape = (len(ts), len(rs), len(self.names))
        t_first, r_first = np.empty(shape), np.empty(shape)
        t_first[ti], t_first[~ti] = lines[0], base_r[0]
        r_first[:, ri], r_first[:, ~ri] = lines[1].transpose(1, 0, 2), base_t[0, :, None]
        return t_first, r_first

    @cached_property
    def _partials_run(self):
        """P_1..P_n, Q_1..Q_n, each followed by its total t- and r-partials."""
        return partials_program(self._pq, self)

    def closedness_residual(self, points: Sequence[tuple]) -> float:
        """max_i max_points |d_t Q_i - d_r P_i| over each (t, r) of ``points``,
        exact total derivatives (`partials_program`), the components read
        with one `values_at`: one array run.  Where it fails at a point, the
        first such point raises DomainError, named by its first output that
        is not finite: a NaN curl would certify."""
        n = len(self.names)
        t, r = np.array(points, dtype=float).reshape(-1, 2).T
        env = {"t": t, "r": r}
        env.update(zip(self.names, self.values_at(points).T))
        out, ok = self._partials_run.on_arrays(env)
        if not ok.all():
            i = int(np.argmin(ok))
            m = int(np.argmin(np.isfinite(out[i]))) // 3
            raise DomainError("%s_%s jet is not finite at (t, r) = (%g, %g)"
                              % ("PQ"[m // n], self.names[m % n], t[i], r[i]))
        return float(np.max(np.abs(out[:, 3 * n + 1::3] - out[:, 2:3 * n:3]), initial=0.0))

    def path_independence_residual(self, points: Sequence[tuple]) -> float:
        """max over the components and the nodes of the grid that ``points``
        span (each of their t against each of their r) of the relative gap
        between the t-first and the r-first sweep (`table`).  Neither sweep
        reads the earlier table, so the residual does not depend on earlier
        queries.  The t-first table becomes the one values are read from."""
        # (np.unique would import numpy.ma, 2 MB of resident memory)
        ts = np.array(sorted({float(t) for t, _ in points}))
        rs = np.array(sorted({float(r) for _, r in points}))
        a, b = self.table(ts, rs)
        self._table = (ts, rs, a)
        return float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))

    def certify(self, grid: Sequence[tuple], closed_tol: float = 1e-8, label: str = "",
                error_cls=NotClosed):
        """Both sweeps at every node of ``grid`` within `_PATH_TOL`, and the
        curl within ``closed_tol`` at every point of ``grid``; else
        ``error_cls``.  Returns the path residual."""
        grid = list(grid)
        # the sweep first, so that the curl check reads tabled values
        path_res = self.path_independence_residual(grid)
        res = self.closedness_residual(grid)
        if res > closed_tol:
            raise error_cls("%s: one-form not closed (curl residual %.3g > %.3g)"
                            % (label or ",".join(self.names), res, closed_tol))
        if path_res > _PATH_TOL:
            raise error_cls("%s: path-dependent transport (residual %.3g > %.3g)"
                            % (label or ",".join(self.names), path_res, _PATH_TOL))
        return path_res


# ---------------------------------------------------------------------------
# Total partials along the potentials
# ---------------------------------------------------------------------------

def total_partials(fields: Sequence[ScalarField], pots: PotentialSystem | None = None) -> tuple:
    """The t- and r-partials of fields in t, r and the components of
    ``pots`` (None: no components), each component moving by its own
    one-form: d/dt f = d_t f + sum_i P_i d_{psi_i} f, and d/dr with Q_i.
    One `derivative` call per variable on the tuple of all fields, so their
    shared subtrees are differentiated once."""
    names = pots.names if pots is not None else []
    forms = pots._pq if pots is not None else []
    d = {v: derivative(tuple(fields), v) for v in ["t", "r"] + names}
    out = []
    for var, along in (("t", forms[:len(names)]), ("r", forms[len(names):])):
        totals = []
        for m in range(len(fields)):
            total = d[var][m]
            for name, form in zip(names, along):
                if not d[name][m].is_structural_zero():
                    total = total + form * d[name][m]
            totals.append(total)
        out.append(totals)
    return tuple(out)


def partials_program(fields: Sequence[ScalarField], pots: PotentialSystem | None = None):
    """One program of each field followed by its total t- and r-partials."""
    dt, dr = total_partials(fields, pots)
    return compile_program([g for trio in zip(fields, dt, dr) for g in trio])


# ---------------------------------------------------------------------------
# Forms: L as one field
# ---------------------------------------------------------------------------

VELOCITY = ("tdot", "rdot", "thetadot", "phidot")
TDOT, RDOT, THETADOT, PHIDOT = map(Var, VELOCITY)
_SIN = Var("theta").call("sin")
W2 = THETADOT * THETADOT + PHIDOT * PHIDOT * _SIN * _SIN   # w^2

# `FormJet` layout: L, d/dxdot (4), d/dx for x = t, r, theta (3), the mixed
# block's rows t, r, theta (3 x 4), the velocity Hessian's upper triangle (10)
_UPPER = [(a, b) for a in range(4) for b in range(a, 4)]
_HESSIAN = np.array([[20 + _UPPER.index((min(a, b), max(a, b))) for b in range(4)]
                     for a in range(4)])


class FormJet:
    """L with the blocks of its partials that the checks and the spray read,
    from one run of the form's program: at one tangent point, a (30 + 2k,)
    array, or at n, an (n, 30 + 2k) array, with the k potentials' P_1..P_k,
    Q_1..Q_k after the 30 numbers.  Each block keeps the points' axis first."""

    __slots__ = ("out",)

    def __init__(self, out: np.ndarray):
        self.out = out

    @property
    def value(self):
        """L at the point, or at each of the points."""
        return self.out.T[0]

    def vertical_gradient(self) -> np.ndarray:
        """d L / d xdot^a, a = t, r, theta, phi."""
        return self.out[..., 1:5]

    def horizontal_gradient(self) -> np.ndarray:
        """d L / d x^a, a = t, r, theta, phi (phi identically zero)."""
        return np.concatenate([self.out[..., 5:8], np.zeros(self.out.shape[:-1] + (1,))],
                              axis=-1)

    def mixed_block(self) -> np.ndarray:
        """Rows x^c in (t, r, theta, phi), columns xdot^b: d^2 L/dx^c dxdot^b."""
        lead = self.out.shape[:-1]
        return np.concatenate([self.out[..., 8:20].reshape(lead + (3, 4)),
                               np.zeros(lead + (1, 4))], axis=-2)

    def metric_tensor(self) -> np.ndarray:
        """g_ab = (1/2) d^2 L / d xdot^a d xdot^b."""
        return 0.5 * self.out[..., _HESSIAN]

    def spray(self, xd) -> np.ndarray:
        """G^a = (1/4) g^{ab} (xdot^c d_c ddot_b L - d_b L) at one point of
        velocity xd, read in place from the mixed rows and the gradient
        (their phi parts are zero)."""
        out = self.out
        rhs = xd[0] * out[8:12] + xd[1] * out[12:16] + xd[2] * out[16:20]
        rhs[:3] -= out[5:8]
        return 0.25 * np.linalg.solve(self.metric_tensor(), rhs)

    def rates(self, tdot: float, rdot: float) -> np.ndarray:
        """d(psi_i)/ds = P_i tdot + Q_i rdot at one point, from the one-forms
        after the 30 numbers."""
        pq = self.out[30:]
        return pq[:len(pq) // 2] * tdot + pq[len(pq) // 2:] * rdot


class ExpressionForm:
    """A form given as one field, `lagrangian`, in t, r, theta, the
    velocities tdot, rdot, thetadot, phidot and the components of the form's
    ``scale_pot`` (a PotentialSystem; None or absent where L reads none).

    `jet` runs one program of L and its partials, compiled on the first
    call (`FormJet` lists them): one `derivative` call per velocity on L, one
    per chart variable and potential on L with its velocity partials, the t-
    and r-partials moving the potentials along their one-forms
    (`total_partials`), and one per velocity on the velocity partials; then
    the one-forms themselves, already nodes of the program, for the rates of
    the potentials along a geodesic (`finsler_spray`).
    `domain` states where L is defined, in the same fields L is made
    of; `admit` runs it on arrays of points, compiled once too.
    """

    def lagrangian(self) -> ScalarField:
        raise NotImplementedError

    def domain(self) -> list:
        """(field, bound) pairs, fields in L's own variables: the form is
        defined where each field is finite and above its bound (no pairs:
        everywhere)."""
        return []

    @cached_property
    def _domain_run(self):
        """`domain`'s program and its bounds."""
        pairs = self.domain()
        return compile_program([f for f, _ in pairs]), np.array([b for _, b in pairs])

    def admit(self, points: Sequence[TangentPoint]) -> tuple:
        """Whether each of ``points`` is in the form's domain, and the
        potentials' values at each as dicts (None where the form reads
        none): one run of `domain`'s program on arrays of them
        (`_arrays_env`), a point admitted where the run succeeds and each
        output is above its bound."""
        run, bounds = self._domain_run
        env, rows = self._arrays_env(points)
        out, ok = run.on_arrays(env)
        ok &= np.all(out > bounds, axis=-1)
        return ok.tolist(), (None if rows is None
                             else [dict(zip(self.scale_pot.names, row)) for row in rows])

    def _arrays_env(self, points: Sequence[TangentPoint], vals=None) -> tuple:
        """The coordinates and velocities of ``points`` as arrays, and the
        potentials' rows at them (None where the form reads none): from
        ``vals``, a dict per point, or else one `values_at`; where that
        raises DomainError, each point is read alone, with NaN where that
        raises, so that only its own runs fail.  Returns the env and rows."""
        states = np.array([q.state() for q in points]).reshape(-1, 8).T
        env = dict(zip(("t", "r", "theta", "phi") + VELOCITY, states))
        pots = getattr(self, "scale_pot", None)
        if pots is None:
            return env, None
        if vals is not None:
            rows = np.reshape([[v[n] for n in pots.names] for v in vals], (-1, len(pots.names)))
        else:
            try:
                rows = pots.values_at(states[:2].T)
            except DomainError:
                rows = np.full((len(points), len(pots.names)), math.nan)
                for i, key in enumerate(states[:2].T):
                    try:
                        rows[i] = pots.values_at([key])[0]
                    except DomainError:
                        pass
        env.update(zip(pots.names, rows.T))
        return env, rows

    def _env(self, t: float, r: float, vals: dict | None) -> dict:
        """t, r and the potentials' values ``vals`` at (t, r) (None: transported)."""
        env = {"t": float(t), "r": float(r)}
        pots = getattr(self, "scale_pot", None)
        if pots is not None:
            if vals is None:
                vals = pots.values(t, r)
            env.update((n, float(vals[n])) for n in pots.names)
        return env

    @cached_property
    def _jet_run(self):
        L, pots = self.lagrangian(), getattr(self, "scale_pot", None)
        dv = [L.derivative(v) for v in VELOCITY]
        dt, dr = total_partials([L] + dv, pots)
        dth = list(derivative(tuple([L] + dv), "theta"))
        ddv = [derivative(tuple(dv[:b + 1]), v) for b, v in enumerate(VELOCITY)]
        hessian = [ddv[b][a] for a, b in _UPPER]
        return compile_program([L] + dv + [dt[0], dr[0], dth[0]] + dt[1:] + dr[1:] + dth[1:]
                               + hessian + (pots._pq if pots is not None else []))

    def jet(self, p, vals=None):
        """L and its blocks at p, from the potentials' values ``vals`` at
        (p.t, p.r) (None: transported).  At a sequence of points, with a
        sequence of values or None (`_arrays_env`), the program runs once on
        arrays of them: the jets, and whether the run succeeded at each point
        (`on_arrays`)."""
        if isinstance(p, TangentPoint):
            env = self._env(p.t, p.r, vals)
            env.update(zip(VELOCITY, map(float, (p.tdot, p.rdot, p.thetadot, p.phidot))))
            env["theta"] = float(p.theta)
            return FormJet(np.array(self._jet_run(env)))
        out, ok = self._jet_run.on_arrays(self._arrays_env(p, vals)[0])
        return FormJet(out), ok


def _uv(conn: ConnectionProfile) -> tuple:
    """u = tdot - a rdot and v = c rdot^2 + 2 b tdot rdot - w^2 as fields."""
    a, b, c = conn.curvature_fields()[1]
    return TDOT - a * RDOT, c * RDOT * RDOT + 2.0 * b * TDOT * RDOT - W2


# ---------------------------------------------------------------------------
# Finsler forms
# ---------------------------------------------------------------------------

_DOMAIN_FLOOR = 1e-6   # |u| (u and the power-law base) above it
# the largest subnormal float: the exponential L above it is a normal float
_SUBNORMAL_MAX = math.nextafter(sys.float_info.min, 0.0)


@dataclass
class PowerLawForm(ExpressionForm):
    """L = theta(t,r) u^{2-2 lambda} (v + rho u^2)^lambda (Class 1)."""

    conn: ConnectionProfile
    lam: float
    rho_field: ScalarField              # rho = E / D
    scale_pot: PotentialSystem          # theta = exp(psi)
    tag: str = "power-law"

    def _u_base(self) -> tuple:
        u, v = _uv(self.conn)
        return u, v + self.rho_field * u * u

    def lagrangian(self) -> ScalarField:
        u, base = self._u_base()
        return ScalarField("psi").call("exp") * u ** (2.0 - 2.0 * self.lam) * base ** self.lam

    def domain(self) -> list:
        return [(f, _DOMAIN_FLOOR) for f in self._u_base()]

    def describe(self) -> dict:
        return {"kind": self.tag, "lambda": self.lam,
                "scale": "exp(path integral of (G - lambda*Gt) dt + (H - lambda*Ht) dr)"}


@dataclass
class ExponentialForm(ExpressionForm):
    """L = phi(t,r) u^2 exp(mu v / u^2) (Class 2)."""

    conn: ConnectionProfile
    mu_field: ScalarField               # mu = F / E
    scale_pot: PotentialSystem          # phi = exp(psi)
    tag: str = "exponential"

    def lagrangian(self) -> ScalarField:
        u, v = _uv(self.conn)
        return ScalarField("psi").call("exp") * u * u * (self.mu_field * v / (u * u)).call("exp")

    def domain(self) -> list:
        """|u| above the floor and L a normal float: where mu v / u^2 is far
        below zero, L underflows and its Hessian with it."""
        return [(_uv(self.conn)[0].call("abs"), _DOMAIN_FLOOR),
                (self.lagrangian(), _SUBNORMAL_MAX)]

    def describe(self) -> dict:
        return {"kind": self.tag,
                "scale": "exp(path integral of (G + 2 k4 b mu) dt + (H + 2 k6 b mu) dr)"}


_THETA_BUILTINS = {"identity": ScalarField("z"), "square": ScalarField("z^2")}


@dataclass
class Class3FinslerForm(ExpressionForm):
    """L = e^G u^2 Theta(z e^{-(G - 2K)} + M), z = v / u^2 (Class 3)."""

    conn: ConnectionProfile
    scale_pot: PotentialSystem          # components "G", "K", "M"; e^G scales L
    m_shift: float
    theta: ScalarField                  # Theta, a field in z
    tag: str = "class-3"

    def lagrangian(self) -> ScalarField:
        u, v = _uv(self.conn)
        G, K = ScalarField("G"), ScalarField("K")
        z = v / (u * u)
        arg = z * (-(G - 2.0 * K)).call("exp") + (ScalarField("M") + self.m_shift)
        theta = self.theta.substitute({"z": arg})
        return G.call("exp") * u * u * theta

    def domain(self) -> list:
        return [(_uv(self.conn)[0].call("abs"), _DOMAIN_FLOOR)]

    def describe(self) -> dict:
        return {"kind": self.tag, "m_shift": self.m_shift}


@dataclass
class RiemannForm(ExpressionForm):
    """A = att tdot^2 + 2 atr tdot rdot + arr rdot^2 + aw w^2.

    The coefficients are fields in t, r and the components of ``scale_pot``
    (the builder's potentials, or None); ``christoffels`` recovers the
    Levi-Civita coefficients in the k-table layout for round-trip checks.
    """

    att: ScalarField
    atr: ScalarField
    arr: ScalarField
    aw: ScalarField
    tag: str = "riemann"
    signature_hint: str = ""
    meta: dict = dc_field(default_factory=dict)
    scale_pot: PotentialSystem | None = None

    def lagrangian(self) -> ScalarField:
        return (self.att * TDOT * TDOT + 2.0 * self.atr * TDOT * RDOT
                + self.arr * RDOT * RDOT + self.aw * W2)

    @cached_property
    def _coefficient_run(self):
        return partials_program([self.att, self.atr, self.arr, self.aw], self.scale_pot)

    @cached_property
    def _coefficient_tables(self) -> dict:
        """The bytes of a `coefficient_table` run's inputs -> its table."""
        return {}

    def coefficient_table(self, points: Sequence[tuple], vals=None) -> np.ndarray:
        """att, atr, arr, aw with their t- and r-partials at each (t, r) of
        ``points``, shape (n, 4, 3), the potentials at their rows ``vals``
        (None: read with one `values_at`): one array run per point set and
        values, whose read-only table the form keeps.  Where it fails at a
        point, the float run at the first such point raises, named by its
        first output that is not finite."""
        t, r = np.array(points, dtype=float).reshape(-1, 2).T
        env = {"t": t, "r": r}
        if self.scale_pot is not None:
            if vals is None:
                vals = self.scale_pot.values_at(points)
            env.update(zip(self.scale_pot.names, vals.T))
        key = b"".join(np.ascontiguousarray(x, dtype=float).tobytes() for x in env.values())
        table = self._coefficient_tables.get(key)
        if table is not None:
            return table
        out, ok = self._coefficient_run.on_arrays(env)
        if not ok.all():
            i = int(np.argmin(ok))
            j = int(np.argmin(np.isfinite(out[i])))
            name = ("%s", "d%s/dt", "d%s/dr")[j % 3] % ("att", "atr", "arr", "aw")[j // 3]
            at = {k: float(v[i]) for k, v in env.items()}
            _located(name, lambda *_: self._coefficient_run(at), t[i], r[i])
            raise NonFiniteData("%s is not finite at (t, r) = (%g, %g)" % (name, t[i], r[i]))
        table = self._coefficient_tables[key] = out.reshape(-1, 4, 3)
        table.flags.writeable = False
        return table

    def christoffels(self, points: Sequence[tuple]) -> np.ndarray:
        """k1..k12 of the Levi-Civita connection of A at each (t, r) of
        ``points``, one row per point, from one `coefficient_table`."""
        jets = self.coefficient_table(points)    # att, atr, arr, aw; value, d/dt, d/dr
        B = jets[:, [[0, 1], [1, 2]]]            # (n, 2, 2, 3)
        dB = np.moveaxis(B[..., 1:], -1, 1)      # dB[:, v] = d B / d x^v, x = (t, r)
        Binv = np.linalg.inv(B[..., 0])
        # Gamma^a_bc = (1/2) B^ad (d_b B_dc + d_c B_bd - d_d B_bc)
        Gam2 = 0.5 * np.einsum("nad,nbcd->nabc", Binv, dB + dB.transpose(0, 2, 1, 3)
                               - dB.transpose(0, 2, 3, 1))
        aw, grad_w = jets[:, 3, 0], jets[:, 3, 1:]
        if np.any(aw == 0.0):
            raise DomainError("degenerate angular block")
        k = np.zeros((len(jets), 12))
        k[:, :6] = Gam2[:, [0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 1, 0], [0, 1, 1, 0, 1, 1]]   # k1..k6
        k[:, 6] = -0.5 * np.einsum("nd,nd->n", Binv[:, 0], grad_w)   # k7
        k[:, 9] = -0.5 * np.einsum("nd,nd->n", Binv[:, 1], grad_w)   # k10
        k[:, 7:9] = 0.5 * grad_w / aw[:, None]                       # k8, k9
        return k

    def describe(self) -> dict:
        d = {"kind": self.tag, "signature_hint": self.signature_hint}
        d.update({k: v for k, v in self.meta.items() if isinstance(v, (int, float, str))})
        return d


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _base_point(grid: Sequence[tuple]) -> tuple:
    return min(grid, key=lambda q: (q[0], q[1]))


def _first_failure(grid: Sequence[tuple], cg: CurvatureGrid, error_cls, corner_msg: str,
                   small=None, small_msg: str = "") -> None:
    """Raise ``error_cls`` at the first node whose w-corner is not generic,
    or where |x| < 1e-12 (1 + |y|) for the columns (x, y) of ``small``."""
    generic = cg.corner == W_CORNER_GENERIC
    bad = ~generic
    if small is not None:
        x, y = small[0][generic], small[1][generic]
        bad[generic] = np.abs(x) < 1e-12 * (1.0 + np.abs(y))
    if bad.any():
        i = int(np.argmax(bad))
        raise error_cls((small_msg if generic[i] else corner_msg) % tuple(grid[i]))


def build_power_law(conn: ConnectionProfile, grid: Sequence[tuple]) -> PowerLawForm:
    """Class-1 constructor: lambda = F/D (grid-constant), rho = E/D field,
    conformal factor from the (G - lambda Gt, H - lambda Ht) one-form."""
    grid = list(grid)
    cg = curvature_grid(conn, grid)
    D, F = cg.DEF[:, 0], cg.DEF[:, 2]
    _first_failure(grid, cg, LambdaNotConstant, "w-corner not generic at (%g, %g)",
                   (D, F), "D vanishes at (t, r) = (%g, %g)")
    lams = F / D
    if float(np.var(lams)) > 1e-8:
        raise LambdaNotConstant("lambda = F/D varies over the grid (variance %.3g)"
                                % float(np.var(lams)))
    lam = float(np.mean(lams))
    if abs(lam - 1.0) < 1e-8:
        raise LambdaEqualsOne("lambda = 1: Riemannian case, not a proper Class-1 input")

    _a, _abc, (D, E, _F), (G, Gt, H, Ht) = conn.curvature_fields()
    pot = PotentialSystem(["psi"], [G - lam * Gt], [H - lam * Ht], _base_point(grid))
    pot.certify(grid, label="power-law scale")
    return PowerLawForm(conn, lam, E / D, pot)


def build_exponential(conn: ConnectionProfile, grid: Sequence[tuple]) -> ExponentialForm:
    """Class-2 constructor: mu = F/E (accepted as a field; the paper's own
    example has mu depending on (t, r)), scale from (G + 2 k4 b mu, H + 2 k6 b mu)."""
    grid = list(grid)
    cg = curvature_grid(conn, grid)
    _first_failure(grid, cg, MuNotConstant, "w-corner not generic at (%g, %g)",
                   (cg.DEF[:, 1], cg.DEF[:, 2]),
                   "E vanishes at (t, r) = (%g, %g); mu = F/E undefined")

    _a, (_aa, b, _c), (_D, E, F), (G, _Gt, H, _Ht) = conn.curvature_fields()
    mu = F / E
    pot = PotentialSystem(["psi"], [G + 2.0 * conn.k_field(4) * b * mu],
                          [H + 2.0 * conn.k_field(6) * b * mu], _base_point(grid))
    pot.certify(grid, label="exponential scale")
    return ExponentialForm(conn, mu, pot)


def build_class3_potentials(conn: ConnectionProfile, grid: Sequence[tuple]) -> PotentialSystem:
    """G from (G, H), K from (k8, k9), M from the e^{-(G-2K)} b (k4, k6) form."""
    _a, (_aa, b, _c), _DEF, (G, _Gt, H, _Ht) = conn.curvature_fields()
    e_gk = ScalarField("exp(-(G - 2*K))")     # of the potentials G and K
    return PotentialSystem(["G", "K", "M"],
                           [G, conn.k_field(8), 2.0 * b * conn.k_field(4) * e_gk],
                           [H, conn.k_field(9), 2.0 * b * conn.k_field(6) * e_gk],
                           _base_point(grid))


def _choose_m_shift(pots: PotentialSystem, grid: Sequence[tuple], cg: CurvatureGrid):
    """Shift of the free additive constant in M keeping Delta away from zero.

    The candidate with the largest score (min |Delta| over the grid), the
    first in list order on a tie.  A midpoint between two forbidden shifts
    scores at most the smaller of the two nodes' terms, so candidates are
    scored in decreasing order of that bound until none left can win."""
    vals = dict(zip(pots.names, pots.values_at(grid).T))
    G, K, M = (vals[n] for n in ("G", "K", "M"))
    a, b, c = cg.abc.T
    wgt = np.exp(G) * (2.0 * a * b + c)
    delta0 = M * wgt - b * b * np.exp(2.0 * K)
    scale = 1.0 + float(np.max(np.abs(delta0))) + float(np.max(np.abs(wgt)))
    keep = np.abs(wgt) > 1e-12 * scale
    roots = -delta0[keep] / wgt[keep]
    order = np.argsort(roots, kind="stable")
    forbidden, d0, w = roots[order], delta0[keep][order], wgt[keep][order]
    candidates = [0.0, 1.0, -1.0, 2.0, -2.0]
    bounds = np.full(len(candidates), np.inf)
    if len(forbidden):
        mid = 0.5 * (forbidden[:-1] + forbidden[1:])
        candidates += [forbidden[0] - 1.0, forbidden[-1] + 1.0] + list(mid)
        bounds = np.concatenate([bounds, [np.inf, np.inf], np.minimum(
            np.abs(d0[:-1] + mid * w[:-1]), np.abs(d0[1:] + mid * w[1:]))])

    def score(m):
        return float(np.min(np.abs(delta0 + m * wgt)))

    best, top = None, -math.inf
    for i in np.argsort(-bounds, kind="stable").tolist():
        if top > bounds[i]:
            break
        s = score(candidates[i])
        if s > top or (s == top and i < best):
            best, top = i, s
    if top <= 1e-6 * scale:
        raise DeltaVanishes("no additive constant for M keeps Delta away from zero "
                            "(best min |Delta| = %.3g)" % top)
    return candidates[best]


def build_class3(conn: ConnectionProfile, grid: Sequence[tuple],
                 theta: str | ScalarField = "identity") -> tuple:
    """Class-3 constructor.  Returns (Class3FinslerForm, RiemannForm).

    The Riemannian member is A = v e^{2K} + (e^G M) u^2; the Finsler member
    carries the chosen free function Theta (identity reproduces A exactly).
    """
    grid = list(grid)
    cg = curvature_grid(conn, grid)
    _first_failure(grid, cg, NotClosed, "w-corner degenerate at (%g, %g): not a Class-3 input")
    pots = build_class3_potentials(conn, grid)
    pots.certify(grid, label="class-3 potentials")
    m_shift = _choose_m_shift(pots, grid, cg)

    _a, (a, b, c), _DEF, _GH = conn.curvature_fields()
    eg_m = ScalarField("exp(G)") * (ScalarField("M") + m_shift)
    e2k = ScalarField("exp(2*K)")
    riemann = RiemannForm(eg_m, b * e2k - a * eg_m, c * e2k + a * a * eg_m, -e2k,
                          tag="class-3", meta={"m_shift": m_shift, "potentials": pots},
                          scale_pot=pots)
    finsler = Class3FinslerForm(conn, pots, m_shift, ScalarField(_THETA_BUILTINS.get(theta, theta)))
    return finsler, riemann


SIGNATURES = {"lorentzian": ((1.0, 0.0, -1.0), -1.0),
              "euclidean": ((1.0, 0.0, 1.0), 1.0)}


def build_class4(conn: ConnectionProfile, grid: Sequence[tuple],
                 signature: str = "lorentzian") -> RiemannForm:
    """Class-4 constructor: parallel-transport a flat 2-metric h over the
    tr-corner and attach +/- w^2.  Flatness is certified at every grid node
    (`certify`): the curl of h's one-form is the corner's curvature acting
    on h, and the t-first and r-first transports of h from the base point
    must agree, which a curved corner's holonomy prevents."""
    try:
        h0, aw_sign = SIGNATURES[signature]
    except KeyError:
        raise ValueError("signature must be one of %s" % list(SIGNATURES))
    k = {i: conn.k_field(i) for i in range(1, 7)}
    names = ["h_tt", "h_tr", "h_rr"]
    htt, htr, hrr = (ScalarField(n) for n in names)
    # metric-compatibility one-form: d h = (M_t h) dt + (M_r h) dr
    pots = PotentialSystem(
        names,
        [2.0 * (k[1] * htt + k[4] * htr), k[2] * htt + (k[1] + k[6]) * htr + k[4] * hrr,
         2.0 * (k[2] * htr + k[6] * hrr)],
        [2.0 * (k[2] * htt + k[6] * htr), k[3] * htt + (k[2] + k[5]) * htr + k[6] * hrr,
         2.0 * (k[3] * htr + k[5] * hrr)],
        _base_point(grid), base_values=h0)
    pots.certify(grid, label="class-4 flat transport of h", error_cls=PathDependent)
    return RiemannForm(htt, htr, hrr, ScalarField.constant(aw_sign), tag="class-4", signature_hint=signature,
                       meta={"potentials": pots}, scale_pot=pots)


def build_class5(conn: ConnectionProfile, grid: Sequence[tuple], C1: float = 1.0,
                 C2: float = 1.0) -> RiemannForm:
    """Class-5 constructor: recover the conformal exponent phi from the
    horizontal-constancy equations and assemble
    A = C1 e^{-2 phi} (-a3 tdot^2 + 2 a1 tdot rdot + a2 rdot^2) + C2 w^2.

    The tr-block is taken as the signed quadratic form; the displayed |.|
    variant coincides with it up to the branch sign of the quadratic.
    """
    if C1 == 0.0 or C2 == 0.0:
        raise ValueError("C1 and C2 must be nonzero")
    grid = list(grid)
    av = curvature_grid(conn, grid).a[:, :, 0]
    a1, a2, a3, a4 = av[:, :4].T
    local = np.max(np.abs(av), axis=1)
    singular = np.abs(a1 * a4 - a2 * a3) < 1e-8 * (1.0 + local * local)
    if singular.any():
        raise SingularQuadratic("a1 a4 - a2 a3 vanishes at (t, r) = (%g, %g)"
                                % tuple(grid[int(np.argmax(singular))]))
    worst_sym, scale = float(np.max(np.abs(a1 + a4))), float(np.max(local))
    if worst_sym > 1e-8 * (1.0 + scale):
        raise NotRiemannMetrizable(
            "a1 + a4 != 0 on the grid (max %.3g): Ricci tensor not symmetric" % worst_sym)

    a = conn.curvature_fields()[0]
    k = {i: conn.k_field(i) for i in range(1, 7)}

    # fixed admissible velocity for the gradient recovery
    for td, rd in ((1.0, 0.0), (1.0, 0.5)):
        if np.all(np.abs(-a3 * td * td + 2.0 * a1 * td * rd + a2 * rd * rd)
                  >= 1e-8 * (1.0 + scale)):
            break
    else:
        raise SingularQuadratic("quadratic vanishes at both candidate velocities")
    q = -a[3] * td * td + 2.0 * a[1] * td * rd + a[2] * rd * rd
    ddot_t = 2.0 * (a[1] * rd - a[3] * td)
    ddot_r = 2.0 * (a[1] * td + a[2] * rd)

    def dphi(var: str, n_t: ScalarField, n_r: ScalarField) -> ScalarField:
        """Half of delta_var ln q at the fixed velocity; n_t, n_r are N^t_var, N^r_var."""
        return (q.derivative(var) - n_t * ddot_t - n_r * ddot_r) / (2.0 * q)

    pot = PotentialSystem(["phi"], [dphi("t", k[1] * td + k[2] * rd, k[4] * td + k[6] * rd)],
                          [dphi("r", k[2] * td + k[3] * rd, k[6] * td + k[5] * rd)],
                          _base_point(grid))
    pot.certify(grid, closed_tol=1e-6, label="class-5 phi",
                error_cls=GradientNotClosed)

    conformal = C1 * ScalarField("exp(-2*phi)")
    return RiemannForm(conformal * (-1.0 * a[3]), conformal * a[1], conformal * a[2],
                       ScalarField.constant(C2), tag="class-5",
                       meta={"potentials": pot, "C1": C1, "C2": C2,
                             "recovery_velocity": (td, rd)}, scale_pot=pot)
