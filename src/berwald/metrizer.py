"""Construction of metrizing Finsler functions and affinely equivalent metrics.

Scale fields that the paper defines only up to quadrature (the power-law and
exponential conformal factors, the Class-3 potentials, the Class-4 flat
2-metric, the Class-5 conformal exponent) are represented by
`PotentialSystem`: their values are transported along axis-parallel paths
from a base point by a high-accuracy ODE solve, while their derivatives come
from the defining one-forms themselves, so every downstream derivative is
analytic in the transported values.  Each builder states its one-forms as
expressions.  Path independence is certified, never assumed: the curl of the
defining form exactly, the agreement of two transport routes numerically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .geometry_core import (ConnectionProfile, CurvatureProfile, Partials, TangentPoint,
                            W_CORNER_GENERIC, curvature_profile)
from .geodesic_engine import integrate_ode
from .multijet import MultiJet, w2_jet
from .scalar_field import (DomainError, Expression, Jet2, ScalarField, compile_expression,
                           compile_fields, derivative, parse)


class MetrizerError(RuntimeError):
    pass


class NotClosed(MetrizerError):
    """The defining one-form of a potential is not closed."""


class PathDependent(MetrizerError):
    """Axis-path transport disagrees between leg orders."""


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

_TRANSPORT_TOL = 1e-12   # rtol and atol of every transport leg


class PotentialSystem:
    """Named scalar quantities defined by one-forms d(psi_i) = P_i dt + Q_i dr.

    ``P_i`` and ``Q_i`` are ScalarFields (or expression text) in t, r and the
    component names, which enter as parameters, so later components may depend
    on earlier ones (as the Class-3 potential M does on G and K).  They compile
    into one program, which transport and `rates` run on floats.  `jet2` and
    the closedness check run a second one: P_i and Q_i with their partials in
    t, r and each component, chained with the components' own one-forms, so
    every derivative is exact.  Values are transported from the base point
    along the L-shaped path (t0, r0) -> (t, r0) -> (t, r).

    The path-independence certificate compares that t-first transport with
    the r-first one (t0, r0) -> (t0, r) -> (t, r), both swept afresh from the
    base point.  The t-first sweep fills the value cache at the probes; later
    queries continue from the nearest cached point, which is sound only where
    the certificate has passed.
    """

    def __init__(self, names: Sequence[str], P: Sequence, Q: Sequence,
                 base: tuple, base_values: Sequence[float] | None = None):
        self.names = list(names)
        self._pq = self._fields(list(P) + list(Q))
        self._run = compile_fields(self._pq)
        self._jet_run = None   # `_one_form_jets`' program, compiled on first use
        self.base = (float(base[0]), float(base[1]))
        self.base_values = np.array(base_values if base_values is not None
                                    else [0.0] * len(self.names), dtype=float)
        self._value_cache = {self.base: self.base_values.copy()}
        self._keys_t = [self.base[0]]
        self._keys_r = [self.base[1]]
        self._jets = lru_cache(maxsize=1)(self._one_form_jets)

    def _fields(self, fields: list) -> list:
        """ScalarFields in t, r and the components, none of which they bind."""
        fields = [f if isinstance(f, ScalarField) else ScalarField(f) for f in fields]
        bound = sorted({k for f in fields for k in f.params if k in self.names})
        if bound:
            raise MetrizerError("parameter %s shadows a potential" % ", ".join(bound))
        return fields

    def _forms(self, t, r, vec) -> tuple:
        """P_1..P_n, Q_1..Q_n at (t, r) and component values ``vec``."""
        env = dict(zip(self.names, vec))
        env["t"], env["r"] = t, r
        return self._run(env)

    def _rhs_t(self, r0):
        n = len(self.names)
        return lambda tau, y: np.array(self._forms(float(tau), r0, y.tolist())[:n])

    def _rhs_r(self, t0):
        n = len(self.names)
        return lambda rho, y: np.array(self._forms(t0, float(rho), y.tolist())[n:])

    def _one_form_jets(self, t: float, r: float, vec: tuple) -> tuple:
        """P_1..P_n, Q_1..Q_n as `Partials` of their total derivatives, in
        which each component moves by its own one-form:
        d/dt P_i = d_t P_i + sum_j d_{psi_j} P_i P_j, and d/dr with Q_j.
        A non-finite one raises DomainError: a NaN curl would certify."""
        n, wrt = len(self.names), ["t", "r"] + self.names
        if self._jet_run is None:
            ds = [derivative(tuple(f.expr for f in self._pq), v) for v in wrt]
            self._jet_run = compile_fields([g for m, f in enumerate(self._pq) for g in
                                            [f] + [ScalarField(d[m], f.params) for d in ds]])
        out = self._jet_run(dict(zip(wrt, (t, r, *vec))))
        w = len(wrt) + 1   # each of P_1..Q_n, then its partials
        pq = out[::w]
        jets = []
        for m in range(2 * n):
            v, dt, dr, *dpsi = out[m * w:(m + 1) * w]
            for d, p, q in zip(dpsi, pq, pq[n:]):
                dt, dr = dt + d * p, dr + d * q
            if not all(map(math.isfinite, (v, dt, dr))):
                raise DomainError("%s_%s jet is not finite at (t, r) = (%g, %g)"
                                  % ("PQ"[m // n], self.names[m % n], t, r))
            jets.append(Partials(v, dt, dr))
        return tuple(jets)

    def _jets_at(self, t: float, r: float, vals: dict) -> tuple:
        return self._jets(t, r, tuple(float(vals[n]) for n in self.names))

    def _cache(self, key: tuple, vec) -> None:
        if key not in self._value_cache:
            self._keys_t.append(key[0])
            self._keys_r.append(key[1])
        self._value_cache[key] = vec

    def values(self, t: float, r: float) -> dict:
        key = (t, r)
        hit = self._value_cache.get(key)
        if hit is not None:
            return dict(zip(self.names, hit))
        # continue from the nearest already-transported point: any axis path
        # from there gives the same value only because the certificate
        # (path_independence_residual) has compared two independent routes
        keys_t = np.asarray(self._keys_t)
        keys_r = np.asarray(self._keys_r)
        i = int(np.argmin((keys_t - t) ** 2 + (keys_r - r) ** 2))
        t_from, r_from = float(keys_t[i]), float(keys_r[i])
        vec = self._value_cache[(t_from, r_from)]
        vec = self._leg(self._rhs_t(r_from), vec, t_from, [t])[t]
        vec = self._leg(self._rhs_r(t), vec, r_from, [r])[r]
        self._cache(key, vec)
        return dict(zip(self.names, vec))

    def _leg(self, rhs, y0, s0: float, targets) -> dict:
        """States at every parameter in ``targets`` on one axis line from
        (s0, y0): one ODE solve per side of s0, landing on each node."""
        out = {s0: y0}
        above = sorted({s for s in targets if s > s0})
        below = sorted({s for s in targets if s < s0}, reverse=True)
        for nodes in (above, below):
            if nodes:
                states, _ = integrate_ode(rhs, y0, [s0] + nodes,
                                          rtol=_TRANSPORT_TOL, atol=_TRANSPORT_TOL)
                out.update(zip(nodes, states[1:]))
        return out

    def _sweep(self, probes: Sequence[tuple], t_first: bool) -> dict:
        """Values at the probes transported from the base point, without the
        cache: one leg along the base line of the first axis through every
        probe coordinate on it, then one leg per such coordinate along the
        other axis through its probes."""
        (a0, b0), rhs_a, rhs_b = ((self.base, self._rhs_t, self._rhs_r) if t_first
                                  else (self.base[::-1], self._rhs_r, self._rhs_t))
        pairs = [(t, r) if t_first else (r, t) for (t, r) in probes]
        out = {}
        for a, y in self._leg(rhs_a(b0), self.base_values, a0, [a for a, _ in pairs]).items():
            for b, v in self._leg(rhs_b(a), y, b0, [b for (pa, b) in pairs if pa == a]).items():
                out[(a, b) if t_first else (b, a)] = v
        return out

    def jet2(self, name: str, t: float, r: float, vals: dict | None = None) -> Jet2:
        """Second-order jet of one component; derivatives from the one-form."""
        if vals is None:
            vals = self.values(t, r)
        i = self.names.index(name)
        pq = self._jets_at(t, r, vals)
        pj, qj = pq[i], pq[len(self.names) + i]
        return Jet2(vals[name], pj.value, qj.value,
                    pj.dt, 0.5 * (pj.dr + qj.dt), qj.dr)

    def coefficients(self, fields: Sequence) -> list:
        """Callables ``(t, r, vals=None) -> Jet2`` of fields in t, r and the
        components: one program run on the components' `jet2`s and
        remembered at the last point and component values ``vals`` (None:
        transported)."""
        run = compile_fields(self._fields(list(fields)))

        @lru_cache(maxsize=1)
        def jets(t, r, key) -> list:
            vals = self.values(t, r) if key is None else dict(zip(self.names, key))
            env = {n: self.jet2(n, t, r, vals) for n in self.names}
            env["t"], env["r"] = Jet2.var_t(t), Jet2.var_r(r)
            return [Jet2._lift(x) for x in run(env)]

        def coefficient(i: int):
            def f(t, r, vals=None) -> Jet2:
                return jets(t, r, None if vals is None else tuple(vals[n] for n in self.names))[i]
            return f
        return [coefficient(i) for i in range(len(fields))]

    def rates(self, t: float, r: float, vals: dict, tdot: float, rdot: float) -> np.ndarray:
        """d(psi_i)/ds = P_i tdot + Q_i rdot along a curve through (t, r)
        with velocity (tdot, rdot), at the component values ``vals``."""
        n = len(self.names)
        pq = self._forms(t, r, [float(vals[name]) for name in self.names])
        return np.array([pq[i] * tdot + pq[n + i] * rdot for i in range(n)])

    def closedness_residual(self, probes: Sequence[tuple]) -> float:
        """max_i max_probes |d_t Q_i - d_r P_i|, exact total derivatives."""
        n = len(self.names)
        worst = 0.0
        for (t, r) in probes:
            pq = self._jets_at(t, r, self.values(t, r))
            worst = max([worst] + [abs(pq[n + i].dt - pq[i].dr) for i in range(n)])
        return worst

    def path_independence_residual(self, probes: Sequence[tuple]) -> float:
        """max over probes and components of the relative gap between the
        t-first and the r-first sweep from the base point.  Neither sweep
        reads the value cache, so the residual does not depend on earlier
        queries; the t-first values are then cached."""
        probes = [(float(t), float(r)) for (t, r) in probes]
        a = self._sweep(probes, t_first=True)
        b = self._sweep(probes, t_first=False)
        worst = 0.0
        for key in probes:
            worst = max(worst, float(np.max(np.abs(a[key] - b[key]) / (1.0 + np.abs(a[key])))))
            self._cache(key, a[key])
        return worst

    def certify(self, probes: Sequence[tuple], closed_tol: float = 1e-8,
                path_tol: float = 1e-8, label: str = "", error_cls=NotClosed):
        # the sweep first, so that the curl check reads cached probe values
        path_res = self.path_independence_residual(probes)
        res = self.closedness_residual(probes)
        if res > closed_tol:
            raise error_cls("%s: one-form not closed (curl residual %.3g > %.3g)"
                            % (label or ",".join(self.names), res, closed_tol))
        if path_res > path_tol:
            raise error_cls("%s: path-dependent transport (residual %.3g > %.3g)"
                            % (label or ",".join(self.names), path_res, path_tol))
        return path_res


def _fd_curl(P, Q, probes) -> float:
    """max over the probes of |d_t Q - d_r P| by central differences of the
    plain-value callables P, Q: (t, r) -> float."""
    h = 1e-5
    worst = 0.0
    for (t, r) in probes:
        qt = (Q(t + h, r) - Q(t - h, r)) / (2 * h)
        pr = (P(t, r + h) - P(t, r - h)) / (2 * h)
        worst = max(worst, abs(qt - pr))
    return worst


def path_integral(P, Q, frm: tuple, to: tuple, closedness_probes=None,
                  closed_tol: float = 1e-8, agree_tol: float = 1e-8) -> float:
    """Integral of P dt + Q dr from ``frm`` to ``to`` along the L-shaped path.

    P, Q are plain-value callables (t, r) -> float.  Closedness is checked by
    central differences on the probe set (default: a 5 x 5 lattice over the
    bounding box); the value is a `PotentialSystem` transport checked
    against the transposed path.
    """
    t0, r0 = frm
    t1, r1 = to
    if closedness_probes is None:
        ts = np.linspace(min(t0, t1), max(t0, t1), 5)
        rs = np.linspace(min(r0, r1), max(r0, r1), 5)
        closedness_probes = [(a, b) for a in ts for b in rs]
    worst = _fd_curl(P, Q, closedness_probes)
    if worst > closed_tol:
        raise NotClosed("one-form not closed: curl residual %.3g > %.3g" % (worst, closed_tol))
    pot = PotentialSystem(["psi"], ["0"], ["0"], frm)
    # opaque callables have no jets; transport reads the program on floats only
    pot._run = lambda env: (P(env["t"], env["r"]), Q(env["t"], env["r"]))
    res = pot.path_independence_residual([to])
    if res > agree_tol:
        raise NotClosed("path integral: path-dependent transport (residual %.3g > %.3g)"
                        % (res, agree_tol))
    return pot.values(*to)["psi"]


# ---------------------------------------------------------------------------
# Evaluator plumbing
# ---------------------------------------------------------------------------

def _uv_jets(conn: ConnectionProfile, p: TangentPoint):
    """u = tdot - a rdot and v = c rdot^2 + 2 b tdot rdot - w^2 as MultiJets."""
    aj, bj, cj = (MultiJet.from_jet2(Jet2._lift(x))
                  for x in conn.abc(Jet2.var_t(p.t), Jet2.var_r(p.r)))
    _, _, th, td, rd, thd, phd = MultiJet.seed_point(p.t, p.r, p.theta, p.tdot,
                                                     p.rdot, p.thetadot, p.phidot)
    u = td - aj * rd
    v = cj * rd * rd + 2.0 * bj * td * rd - w2_jet(th, thd, phd)
    return u, v


def _uv_values(conn: ConnectionProfile, p: TangentPoint):
    """The values of `_uv_jets`, in the same order of operations."""
    a, b, c = conn.abc(p.t, p.r)
    s = math.sin(p.theta)
    w2 = p.thetadot * p.thetadot + p.phidot * p.phidot * s * s
    return (p.tdot - a * p.rdot,
            c * p.rdot * p.rdot + 2.0 * b * p.tdot * p.rdot - w2)


# ---------------------------------------------------------------------------
# Finsler forms
# ---------------------------------------------------------------------------

_DOMAIN_FLOOR = 1e-6   # admissible(): |u| (u and the power-law base) above it
_NORMAL_MIN = sys.float_info.min   # admissible(): the exponential L is a normal float


@dataclass
class PowerLawForm:
    """L = theta(t,r) u^{2-2 lambda} (v + rho u^2)^lambda (Class 1)."""

    conn: ConnectionProfile
    lam: float
    rho_field: ScalarField              # rho = E / D
    scale_pot: PotentialSystem          # theta = exp(psi)
    log_scale: float = 0.0
    tag: str = "power-law"

    def rho(self, t: float, r: float) -> Jet2:
        return self.rho_field.jet(t, r)

    def admissible(self, p: TangentPoint) -> bool:
        try:
            u, v = _uv_values(self.conn, p)
            base = v + self.rho_field.value(p.t, p.r) * u * u
        except DomainError:
            return False
        return u > _DOMAIN_FLOOR and base > _DOMAIN_FLOOR

    def jet(self, p: TangentPoint, vals: dict | None = None) -> MultiJet:
        u, v = _uv_jets(self.conn, p)
        base = v + MultiJet.from_jet2(self.rho(p.t, p.r)) * u * u
        psi = MultiJet.from_jet2(self.scale_pot.jet2("psi", p.t, p.r, vals)) + self.log_scale
        return psi.exp() * u ** (2.0 - 2.0 * self.lam) * base ** self.lam

    def scaled(self, c: float) -> "PowerLawForm":
        if c <= 0.0:
            raise ValueError("scale must be positive")
        return PowerLawForm(self.conn, self.lam, self.rho_field, self.scale_pot,
                            self.log_scale + math.log(c), self.tag)

    def describe(self) -> dict:
        return {"kind": self.tag, "lambda": self.lam,
                "scale": "exp(path integral of (G - lambda*Gt) dt + (H - lambda*Ht) dr)"}


@dataclass
class ExponentialForm:
    """L = phi(t,r) u^2 exp(mu v / u^2) (Class 2)."""

    conn: ConnectionProfile
    mu_field: ScalarField               # mu = F / E
    scale_pot: PotentialSystem          # phi = exp(psi)
    log_scale: float = 0.0
    tag: str = "exponential"

    def mu(self, t: float, r: float) -> Jet2:
        return self.mu_field.jet(t, r)

    def admissible(self, p: TangentPoint) -> bool:
        """|u| above the floor and L a normal float: where mu v / u^2 is far
        below zero, L underflows and its Hessian with it."""
        try:
            u, v = _uv_values(self.conn, p)
            if abs(u) <= _DOMAIN_FLOOR:
                return False
            psi = self.scale_pot.values(p.t, p.r)["psi"] + self.log_scale
            L = math.exp(psi) * u * u * math.exp(self.mu_field.value(p.t, p.r) * v / (u * u))
        except (DomainError, OverflowError):
            return False
        return _NORMAL_MIN <= L <= sys.float_info.max

    def jet(self, p: TangentPoint, vals: dict | None = None) -> MultiJet:
        u, v = _uv_jets(self.conn, p)
        mu_j = MultiJet.from_jet2(self.mu(p.t, p.r))
        psi = MultiJet.from_jet2(self.scale_pot.jet2("psi", p.t, p.r, vals)) + self.log_scale
        return psi.exp() * u * u * (mu_j * v / (u * u)).exp()

    def scaled(self, c: float) -> "ExponentialForm":
        if c <= 0.0:
            raise ValueError("scale must be positive")
        return ExponentialForm(self.conn, self.mu_field, self.scale_pot,
                               self.log_scale + math.log(c), self.tag)

    def describe(self) -> dict:
        return {"kind": self.tag,
                "scale": "exp(path integral of (G + 2 k4 b mu) dt + (H + 2 k6 b mu) dr)"}


_THETA_BUILTINS = {"identity": parse("z"), "square": parse("z^2")}


@dataclass
class Class3FinslerForm:
    """L = e^G u^2 Theta(z e^{-(G - 2K)} + M), z = v / u^2 (Class 3)."""

    conn: ConnectionProfile
    scale_pot: PotentialSystem          # components "G", "K", "M"; e^G scales L
    m_shift: float
    theta: Callable                     # compiled Theta: {"z": arg} -> value
    log_scale: float = 0.0
    tag: str = "class-3"

    def admissible(self, p: TangentPoint) -> bool:
        try:
            u, _ = _uv_values(self.conn, p)
        except DomainError:
            return False
        return abs(u) > _DOMAIN_FLOOR

    def jet(self, p: TangentPoint, vals: dict | None = None) -> MultiJet:
        u, v = _uv_jets(self.conn, p)
        if vals is None:
            vals = self.scale_pot.values(p.t, p.r)
        Gj = MultiJet.from_jet2(self.scale_pot.jet2("G", p.t, p.r, vals))
        Kj = MultiJet.from_jet2(self.scale_pot.jet2("K", p.t, p.r, vals))
        Mj = MultiJet.from_jet2(self.scale_pot.jet2("M", p.t, p.r, vals)) + self.m_shift
        z = v / (u * u)
        arg = z * (-(Gj - 2.0 * Kj)).exp() + Mj
        theta = MultiJet._lift(self.theta({"z": arg}))
        return (Gj + self.log_scale).exp() * u * u * theta

    def describe(self) -> dict:
        return {"kind": self.tag, "m_shift": self.m_shift}


@dataclass
class RiemannForm:
    """A = att tdot^2 + 2 atr tdot rdot + arr rdot^2 + aw w^2.

    Coefficients are (t, r) fields with jets; ``christoffels`` recovers the
    Levi-Civita coefficients in the k-table layout for round-trip checks.
    A built form carries the builder's potentials as ``scale_pot``; its
    coefficient fields then also take ``(t, r, vals)`` with the potential
    values ``vals`` at (t, r), as `integrate_finsler` carries them.
    """

    att: Callable[[float, float], Jet2]
    atr: Callable[[float, float], Jet2]
    arr: Callable[[float, float], Jet2]
    aw: Callable[[float, float], Jet2]
    tag: str = "riemann"
    signature_hint: str = ""
    meta: dict = dc_field(default_factory=dict)
    scale_pot: PotentialSystem | None = None

    def admissible(self, p: TangentPoint) -> bool:
        return True

    def coefficient_jets(self, t: float, r: float, vals: dict | None = None):
        fields = (self.att, self.atr, self.arr, self.aw)
        if vals is None:
            return tuple(f(t, r) for f in fields)
        return tuple(f(t, r, vals) for f in fields)

    def jet(self, p: TangentPoint, vals: dict | None = None) -> MultiJet:
        att, atr, arr, aw = self.coefficient_jets(p.t, p.r, vals)
        _, _, th, td, rd, thd, phd = MultiJet.seed_point(p.t, p.r, p.theta, p.tdot,
                                                         p.rdot, p.thetadot, p.phidot)
        att_j, atr_j, arr_j, aw_j = (MultiJet.from_jet2(x) for x in (att, atr, arr, aw))
        return (att_j * td * td + 2.0 * atr_j * td * rd + arr_j * rd * rd
                + aw_j * w2_jet(th, thd, phd))

    def values(self, t: float, r: float) -> tuple:
        att, atr, arr, aw = self.coefficient_jets(t, r)
        return att.value, atr.value, arr.value, aw.value

    def tr_block_det(self, t: float, r: float) -> float:
        att, atr, arr, _ = self.values(t, r)
        return att * arr - atr * atr

    def christoffels(self, t: float, r: float) -> np.ndarray:
        """k1..k12 of the Levi-Civita connection of A at (t, r)."""
        att, atr, arr, aw = self.coefficient_jets(t, r)
        B = np.array([[att.value, atr.value], [atr.value, arr.value]])
        dB = {0: np.array([[att.dt, atr.dt], [atr.dt, arr.dt]]),
              1: np.array([[att.dr, atr.dr], [atr.dr, arr.dr]])}
        Binv = np.linalg.inv(B)
        Gam2 = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    s = 0.0
                    for d in range(2):
                        s += Binv[a, d] * (dB[b][d, c] + dB[c][b, d] - dB[d][b, c])
                    Gam2[a, b, c] = 0.5 * s
        if aw.value == 0.0:
            raise DomainError("degenerate angular block")
        k = np.zeros(12)
        k[0] = Gam2[0, 0, 0]          # k1
        k[1] = Gam2[0, 0, 1]          # k2
        k[2] = Gam2[0, 1, 1]          # k3
        k[3] = Gam2[1, 0, 0]          # k4
        k[4] = Gam2[1, 1, 1]          # k5
        k[5] = Gam2[1, 0, 1]          # k6
        grad_w = np.array([aw.dt, aw.dr])
        k[6] = -0.5 * (Binv[0] @ grad_w)   # k7
        k[9] = -0.5 * (Binv[1] @ grad_w)   # k10
        k[7] = 0.5 * aw.dt / aw.value      # k8
        k[8] = 0.5 * aw.dr / aw.value      # k9
        return k

    def describe(self) -> dict:
        d = {"kind": self.tag, "signature_hint": self.signature_hint}
        d.update({k: v for k, v in self.meta.items() if isinstance(v, (int, float, str))})
        return d


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _grid_probes(grid: Sequence[tuple], n: int = 9) -> list:
    grid = list(grid)
    if len(grid) <= n:
        return grid
    idx = np.linspace(0, len(grid) - 1, n).astype(int)
    return [grid[i] for i in idx]


def _base_point(grid: Sequence[tuple]) -> tuple:
    return min(grid, key=lambda q: (q[0], q[1]))


def build_power_law(conn: ConnectionProfile, grid: Sequence[tuple],
                    lam_var_tol: float = 1e-8) -> PowerLawForm:
    """Class-1 constructor: lambda = F/D (grid-constant), rho = E/D field,
    conformal factor from the (G - lambda Gt, H - lambda Ht) one-form."""
    lams = []
    for (t, r) in grid:
        cp = curvature_profile(conn, t, r)
        if cp.corner != W_CORNER_GENERIC:
            raise LambdaNotConstant("w-corner not generic at (%g, %g)" % (t, r))
        D, _E, F = cp.DEF
        if abs(D) < 1e-12 * (1.0 + abs(F)):
            raise LambdaNotConstant("D vanishes at (t, r) = (%g, %g)" % (t, r))
        lams.append(F / D)
    lams = np.array(lams)
    if float(np.var(lams)) > lam_var_tol:
        raise LambdaNotConstant("lambda = F/D varies over the grid (variance %.3g)"
                                % float(np.var(lams)))
    lam = float(np.mean(lams))
    if abs(lam - 1.0) < 1e-8:
        raise LambdaEqualsOne("lambda = 1: Riemannian case, not a proper Class-1 input")

    _a, _abc, (D, E, _F), (G, Gt, H, Ht) = conn.curvature_fields()
    pot = PotentialSystem(["psi"], [G - lam * Gt], [H - lam * Ht], _base_point(grid))
    pot.certify(_grid_probes(grid), label="power-law scale")
    return PowerLawForm(conn, lam, E / D, pot)


def build_exponential(conn: ConnectionProfile, grid: Sequence[tuple]) -> ExponentialForm:
    """Class-2 constructor: mu = F/E (accepted as a field; the paper's own
    example has mu depending on (t, r)), scale from (G + 2 k4 b mu, H + 2 k6 b mu)."""
    for (t, r) in grid:
        cp = curvature_profile(conn, t, r)
        if cp.corner != W_CORNER_GENERIC:
            raise MuNotConstant("w-corner not generic at (%g, %g)" % (t, r))
        _D, E, F = cp.DEF
        if abs(E) < 1e-12 * (1.0 + abs(F)):
            raise MuNotConstant("E vanishes at (t, r) = (%g, %g); mu = F/E undefined" % (t, r))

    _a, (_aa, b, _c), (_D, E, F), (G, _Gt, H, _Ht) = conn.curvature_fields()
    mu = F / E
    pot = PotentialSystem(["psi"], [G + 2.0 * conn.k_field(4) * b * mu],
                          [H + 2.0 * conn.k_field(6) * b * mu], _base_point(grid))
    pot.certify(_grid_probes(grid), label="exponential scale")
    return ExponentialForm(conn, mu, pot)


def build_class3_potentials(conn: ConnectionProfile, grid: Sequence[tuple]) -> PotentialSystem:
    """G from (G, H), K from (k8, k9), M from the e^{-(G-2K)} b (k4, k6) form."""
    _a, (_aa, b, _c), _DEF, (G, _Gt, H, _Ht) = conn.curvature_fields()
    e_gk = ScalarField("exp(-(G - 2*K))")     # of the potentials G and K
    return PotentialSystem(["G", "K", "M"],
                           [G, conn.k_field(8), 2.0 * b * conn.k_field(4) * e_gk],
                           [H, conn.k_field(9), 2.0 * b * conn.k_field(6) * e_gk],
                           _base_point(grid))


def _choose_m_shift(pots: PotentialSystem, cps: Sequence[CurvatureProfile],
                    floor_tol: float = 1e-6):
    """Shift of the free additive constant in M keeping Delta away from zero."""
    delta0 = []
    wgt = []
    for cp in cps:
        a, b, c = cp.abc
        vals = pots.values(cp.t, cp.r)
        eg = math.exp(vals["G"])
        e2k = math.exp(2.0 * vals["K"])
        W = eg * (2.0 * a * b + c)
        delta0.append(vals["M"] * W - b * b * e2k)
        wgt.append(W)
    delta0 = np.array(delta0)
    wgt = np.array(wgt)
    scale = 1.0 + float(np.max(np.abs(delta0))) + float(np.max(np.abs(wgt)))
    forbidden = sorted(-delta0[np.abs(wgt) > 1e-12 * scale] / wgt[np.abs(wgt) > 1e-12 * scale])
    candidates = [0.0, 1.0, -1.0, 2.0, -2.0]
    if forbidden:
        lo, hi = forbidden[0] - 1.0, forbidden[-1] + 1.0
        candidates += [lo, hi]
        candidates += [0.5 * (forbidden[i] + forbidden[i + 1]) for i in range(len(forbidden) - 1)]

    def score(m):
        return float(np.min(np.abs(delta0 + m * wgt)))

    best = max(candidates, key=score)
    if score(best) <= floor_tol * scale:
        raise DeltaVanishes("no additive constant for M keeps Delta away from zero "
                            "(best min |Delta| = %.3g)" % score(best))
    return best


def build_class3(conn: ConnectionProfile, grid: Sequence[tuple],
                 theta: str | Expression = "identity") -> tuple:
    """Class-3 constructor.  Returns (Class3FinslerForm, RiemannForm).

    The Riemannian member is A = v e^{2K} + (e^G M) u^2; the Finsler member
    carries the chosen free function Theta (identity reproduces A exactly).
    """
    cps = [curvature_profile(conn, t, r) for (t, r) in grid]
    for cp in cps:
        if cp.corner != W_CORNER_GENERIC:
            raise NotClosed("w-corner degenerate at (%g, %g): not a Class-3 input" % (cp.t, cp.r))
    pots = build_class3_potentials(conn, grid)
    pots.certify(_grid_probes(grid), label="class-3 potentials")
    m_shift = _choose_m_shift(pots, cps)

    if isinstance(theta, str):
        theta_expr = _THETA_BUILTINS.get(theta)
        if theta_expr is None:
            theta_expr = parse(theta)
    else:
        theta_expr = theta

    _a, (a, b, c), _DEF, _GH = conn.curvature_fields()
    eg_m = ScalarField("exp(G)") * (ScalarField("M") + m_shift)
    e2k = ScalarField("exp(2*K)")
    coeffs = pots.coefficients([eg_m, b * e2k - a * eg_m, c * e2k + a * a * eg_m, -e2k])
    riemann = RiemannForm(*coeffs, tag="class-3", meta={"m_shift": m_shift, "potentials": pots},
                          scale_pot=pots)
    finsler = Class3FinslerForm(conn, pots, m_shift, compile_expression(theta_expr))
    return finsler, riemann


def class3_delta(riemann: RiemannForm, t: float, r: float) -> float:
    """Delta = M e^G (2ab + c) - b^2 e^{2K} = e^{-2K} det(tr block)."""
    pots: PotentialSystem = riemann.meta["potentials"]
    vals = pots.values(t, r)
    return riemann.tr_block_det(t, r) / math.exp(2.0 * vals["K"])


SIGNATURES = {"lorentzian": ((1.0, 0.0, -1.0), -1.0),
              "euclidean": ((1.0, 0.0, 1.0), 1.0)}


def build_class4(conn: ConnectionProfile, grid: Sequence[tuple],
                 signature: str = "lorentzian", path_tol: float = 1e-8) -> RiemannForm:
    """Class-4 constructor: parallel-transport a flat 2-metric h over the
    tr-corner and attach +/- w^2.  Flatness is certified by path independence:
    the t-first and r-first transports of h from the base point must agree at
    the grid probes, which a curved corner's holonomy prevents."""
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
    res = pots.path_independence_residual(_grid_probes(grid))
    if res > path_tol:
        raise PathDependent("flat-transport legs disagree (residual %.3g > %.3g): "
                            "tr-corner is not flat" % (res, path_tol))
    coeffs = pots.coefficients([htt, htr, hrr, ScalarField.constant(aw_sign)])
    return RiemannForm(*coeffs, tag="class-4", signature_hint=signature,
                       meta={"potentials": pots}, scale_pot=pots)


def build_class5(conn: ConnectionProfile, grid: Sequence[tuple], C1: float = 1.0,
                 C2: float = 1.0, sym_tol: float = 1e-8, closed_tol: float = 1e-6,
                 quad_floor: float = 1e-8) -> RiemannForm:
    """Class-5 constructor: recover the conformal exponent phi from the
    horizontal-constancy equations and assemble
    A = C1 e^{-2 phi} (-a3 tdot^2 + 2 a1 tdot rdot + a2 rdot^2) + C2 w^2.

    The tr-block is taken as the signed quadratic form; the displayed |.|
    variant coincides with it up to the branch sign of the quadratic.
    """
    if C1 == 0.0 or C2 == 0.0:
        raise ValueError("C1 and C2 must be nonzero")
    worst_sym = 0.0
    scale = 0.0
    for (t, r) in grid:
        cp = curvature_profile(conn, t, r)
        worst_sym = max(worst_sym, abs(cp.a[1].value + cp.a[4].value))
        local = float(np.max(np.abs(cp.a_values())))
        scale = max(scale, local)
        if abs(cp.a[1].value * cp.a[4].value - cp.a[2].value * cp.a[3].value) \
                < quad_floor * (1.0 + local * local):
            raise SingularQuadratic("a1 a4 - a2 a3 vanishes at (t, r) = (%g, %g)" % (t, r))
    if worst_sym > sym_tol * (1.0 + scale):
        raise NotRiemannMetrizable(
            "a1 + a4 != 0 on the grid (max %.3g): Ricci tensor not symmetric" % worst_sym)

    a = conn.curvature_fields()[0]
    k = {i: conn.k_field(i) for i in range(1, 7)}

    # fixed admissible velocity for the gradient recovery
    for td, rd in ((1.0, 0.0), (1.0, 0.5)):
        q = -a[3] * td * td + 2.0 * a[1] * td * rd + a[2] * rd * rd
        if all(abs(q.value(t, r)) >= quad_floor * (1.0 + scale) for (t, r) in grid):
            break
    else:
        raise SingularQuadratic("quadratic vanishes at both candidate velocities")
    ddot_t = 2.0 * (a[1] * rd - a[3] * td)
    ddot_r = 2.0 * (a[1] * td + a[2] * rd)

    def dphi(var: str, n_t: ScalarField, n_r: ScalarField) -> ScalarField:
        """Half of delta_var ln q at the fixed velocity; n_t, n_r are N^t_var, N^r_var."""
        return (q.derivative(var) - n_t * ddot_t - n_r * ddot_r) / (2.0 * q)

    pot = PotentialSystem(["phi"], [dphi("t", k[1] * td + k[2] * rd, k[4] * td + k[6] * rd)],
                          [dphi("r", k[2] * td + k[3] * rd, k[6] * td + k[5] * rd)],
                          _base_point(grid))
    pot.certify(_grid_probes(grid), closed_tol=closed_tol, label="class-5 phi",
                error_cls=GradientNotClosed)

    conformal = C1 * ScalarField("exp(-2*phi)")
    coeffs = pot.coefficients([conformal * (-1.0 * a[3]), conformal * a[1], conformal * a[2],
                               ScalarField.constant(C2)])
    return RiemannForm(*coeffs, tag="class-5",
                       meta={"potentials": pot, "C1": C1, "C2": C2,
                             "recovery_velocity": (td, rd)}, scale_pot=pot)


def class5_det_formula(riemann: RiemannForm, conn: ConnectionProfile,
                       t: float, r: float, theta: float) -> float:
    """|det g| predicted: C1^2 C2^2 e^{-4 phi} |a1^2 + a2 a3| sin^2(theta)."""
    pot: PotentialSystem = riemann.meta["potentials"]
    C1 = riemann.meta["C1"]
    C2 = riemann.meta["C2"]
    cp = curvature_profile(conn, t, r)
    phi = pot.values(t, r)["phi"]
    val = (C1 ** 2) * (C2 ** 2) * math.exp(-4.0 * phi) \
        * abs(cp.a[1].value ** 2 + cp.a[2].value * cp.a[3].value) * math.sin(theta) ** 2
    return val
