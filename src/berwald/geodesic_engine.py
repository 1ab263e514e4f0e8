"""Autoparallel / geodesic integration.

A self-contained embedded Dormand-Prince 5(4) integrator with PI step control
drives everything that needs an ODE solve: the affine spray equation
xddot^a = -2 G^a(x, xdot), the Euler-Lagrange flow of a Finsler function
(whose spray is assembled from exact jet derivatives), and the potential
transport's fallback legs (`PotentialSystem` in `metrizer` transports on
Chebyshev panels, and runs a scalar ODE leg only where a panel cannot be
evaluated or does not converge).  Output states land exactly on
the requested parameter values (steps are clipped), so no interpolation error
enters trajectory comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry_core import ConnectionProfile, TangentPoint, spray_coefficients


class IntegrationError(RuntimeError):
    pass


class StepFailure(IntegrationError):
    def __init__(self, s, state):
        self.s = s
        self.state = np.asarray(state)
        super().__init__("step size underflow at s = %g" % s)


class ChartExit(IntegrationError):
    """Trajectory left the valid chart (small r or sin(theta))."""

    def __init__(self, s, state, reason: str):
        self.s = s
        self.state = np.asarray(state)
        self.reason = reason
        super().__init__("chart exit at s = %g: %s" % (s, reason))


# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])


@dataclass
class OdeStats:
    steps: int = 0
    rejected: int = 0
    max_error_estimate: float = 0.0


def integrate_ode(f, y0, s_eval, rtol: float = 1e-10, atol: float = 1e-10,
                  max_steps: int = 200000):
    """Integrate y' = f(s, y) through the strictly monotone nodes ``s_eval``.

    Returns (array of states at the nodes, OdeStats).  The first node is the
    initial parameter.
    """
    s_eval = np.asarray(s_eval, dtype=float)
    if len(s_eval) < 2:
        raise ValueError("need at least two parameter nodes")
    direction = 1.0 if s_eval[-1] > s_eval[0] else -1.0
    y = np.asarray(y0, dtype=float).copy()
    s = s_eval[0]
    out = np.empty((len(s_eval), len(y)))
    out[0] = y
    stats = OdeStats()

    span = abs(s_eval[-1] - s_eval[0])
    h = direction * min(1e-3, span / 10.0)
    k1 = f(s, y)  # FSAL

    for iout in range(1, len(s_eval)):
        target = s_eval[iout]
        while direction * (target - s) > 1e-14 * max(1.0, abs(target)):
            if stats.steps + stats.rejected > max_steps:
                raise StepFailure(s, y)
            if direction * (s + h - target) > 0.0:
                h = target - s
            ks = [k1]
            for i in range(1, 7):
                yi = y + h * (_A[i] @ np.stack(ks[: len(_A[i])]))
                ks.append(f(s + _C[i] * h, yi))
            ks = np.stack(ks)
            y5 = y + h * (_B5 @ ks)
            y4 = y + h * (_B4 @ ks)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            err = math.sqrt(float(np.mean(((y5 - y4) / scale) ** 2)))
            if err <= 1.0:
                s = s + h
                y = y5
                k1 = ks[6]  # FSAL: last stage evaluated at (s+h, y5)
                stats.steps += 1
                stats.max_error_estimate = max(stats.max_error_estimate, err)
            else:
                stats.rejected += 1
            factor = 0.9 * (1.0 / err) ** 0.2 if err > 0.0 else 5.0
            h *= min(5.0, max(0.2, factor))
            if abs(h) < 1e-15 * max(1.0, abs(s)):
                raise StepFailure(s, y)
        out[iout] = y
    return out, stats


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    s: np.ndarray        # parameter values, monotone
    states: np.ndarray   # rows (t, r, theta, phi, tdot, rdot, thetadot, phidot)
    steps: int
    rejected_steps: int
    max_error_estimate: float

    def to_text(self) -> str:
        header = "s t r theta phi tdot rdot thetadot phidot"
        rows = [header]
        for si, st in zip(self.s, self.states):
            rows.append(" ".join("%.17g" % v for v in np.concatenate([[si], st])))
        return "\n".join(rows) + "\n"


_R_MIN = 1e-3     # the chart ends at r < _R_MIN ...
_SIN_MIN = 1e-3   # ... and at |sin(theta)| < _SIN_MIN


def _guard(state):
    if state[1] < _R_MIN:
        return "r < %g" % _R_MIN
    if abs(math.sin(state[2])) < _SIN_MIN:
        return "sin(theta) < %g" % _SIN_MIN
    return None


def integrate_spray(conn: ConnectionProfile, p0: TangentPoint, T: float,
                    n_out: int = 100) -> Trajectory:
    """Autoparallels of the connection: xddot^a = -2 G^a(x, xdot)."""
    if n_out < 2:
        raise ValueError("n_out must be at least 2")
    if T == 0.0:
        raise ValueError("T must be nonzero")

    def rhs(s, y):
        reason = _guard(y)
        if reason is not None:
            raise ChartExit(s, y, reason)
        p = TangentPoint(*y)
        G = spray_coefficients(conn, p)
        return np.concatenate([y[4:], -2.0 * np.asarray(G)])

    s_eval = np.linspace(0.0, T, n_out)
    states, stats = integrate_ode(rhs, p0.state(), s_eval)
    return Trajectory(s_eval, states, stats.steps, stats.rejected, stats.max_error_estimate)


def finsler_spray(evaluator, p: TangentPoint, vals: dict | None = None) -> np.ndarray:
    """G^a = (1/4) g^{ab} (xdot^c d_c ddot_b L - d_b L) from exact jets of L.

    ``vals`` are the values of the evaluator's potentials at (t, r), as
    carried in the state by `integrate_finsler`; without them the evaluator
    looks its potentials up itself.
    """
    return jet_spray(evaluator.jet(p) if vals is None else evaluator.jet(p, vals), p.velocity)


def jet_spray(jet, xd) -> np.ndarray:
    """The spray G^a of `finsler_spray` from the jet of L at a point of velocity xd."""
    mixed = jet.mixed_block()
    rhs = xd[0] * mixed[0] + xd[1] * mixed[1] + xd[2] * mixed[2] - jet.horizontal_gradient()
    return 0.25 * np.linalg.solve(jet.metric_tensor(), rhs)


def integrate_finsler(evaluator, p0: TangentPoint, T: float, n_out: int = 100) -> Trajectory:
    """Euler-Lagrange flow of a pseudo-Finsler function L.

    The potentials that L reads (``evaluator.scale_pot``, a PotentialSystem,
    or None when there are none) ride in the ODE state after the 8 chart
    components: their values are looked up once at the start point and then
    advanced with d(psi_i)/ds = P_i tdot + Q_i rdot, so no right-hand-side
    call transports them afresh.  This relies on the certificate that the
    form's constructor ran (closed one-forms, path-independent transport).
    The potentials take part in the step-size control; the trajectory keeps
    the 8 chart components.
    """
    if n_out < 2:
        raise ValueError("n_out must be at least 2")
    pots = evaluator.scale_pot
    names = pots.names if pots is not None else []
    start = pots.values(p0.t, p0.r) if names else {}
    y0 = np.concatenate([p0.state(), [start[n] for n in names]])

    def rhs(s, y):
        x = y[:8]
        reason = _guard(x)
        if reason is not None:
            raise ChartExit(s, x, reason)
        p = TangentPoint(*x)
        vals = dict(zip(names, y[8:])) if names else None
        G = finsler_spray(evaluator, p, vals)
        dpsi = pots.rates(p.t, p.r, vals, p.tdot, p.rdot) if names else []
        return np.concatenate([x[4:], -2.0 * G, dpsi])

    s_eval = np.linspace(0.0, T, n_out)
    states, stats = integrate_ode(rhs, y0, s_eval)
    return Trajectory(s_eval, states[:, :8], stats.steps, stats.rejected,
                      stats.max_error_estimate)
