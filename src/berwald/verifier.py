"""Independent numerical certification of constructed forms and claims.

Every check reports a normalized residual with the sample where it was
attained; nothing is trusted from the construction path it certifies.  The
form checks are array passes over the admitted samples (`draw_jets`: L
and its partials from one run of the form's compiled program on arrays of
all of them); the Berwald check compares L's Euler-Lagrange spray with the
connection's own; the Levi-Civita round trip rebuilds Christoffel
coefficients from metric derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .geometry_core import ConnectionProfile, christoffel_table, sample_tangent_points
from .metrizer import FormJet, RiemannForm


class VerificationError(RuntimeError):
    pass


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    sample: Optional[tuple] = None
    extra: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {"name": self.name, "residual": self.residual,
             "tolerance": self.tolerance, "passed": self.passed}
        if self.sample is not None:
            d["sample"] = list(self.sample)
        if self.extra:
            d["extra"] = {k: v for k, v in self.extra.items()
                          if isinstance(v, (int, float, str, list, tuple, bool))}
        return d


@dataclass
class ResidualReport:
    checks: list = dc_field(default_factory=list)
    seed: Optional[int] = None

    def add(self, result: CheckResult) -> CheckResult:
        if any(c.name == result.name for c in self.checks):
            raise ValueError("duplicate check name %r in one run" % result.name)
        self.checks.append(result)
        return result

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"seed": self.seed, "passed": self.all_passed(),
                "checks": [c.to_dict() for c in self.checks]}


def _ratio(x, scale):
    """|x| / scale elementwise, with 0/0 read as 0 and x/0 as infinity."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.abs(x) / scale
    return np.where(scale > 0.0, q, np.where(x != 0.0, np.inf, 0.0))


def _below(name: str, res: np.ndarray, tol: float, where, extra=None) -> CheckResult:
    """Whether the largest residual of ``res`` (one row per sample) is below
    ``tol``, at the first sample attaining it (``where[i]`` for sample i),
    as a scan from 0 that keeps a strictly larger residual finds them: a NaN
    is never kept, and the sample is None where no residual exceeds 0."""
    per = np.max(np.where(np.isnan(res), 0.0, res).reshape(len(res), -1), axis=1)
    i = int(np.argmax(per))
    worst = float(per[i]) if per[i] > 0.0 else 0.0
    return CheckResult(name, worst, tol, worst < tol, tuple(where[i]) if worst else None,
                       extra or {})


# ---------------------------------------------------------------------------
# Checks on the jets of a form at its samples, each an array pass
# ---------------------------------------------------------------------------

def _norm(v: np.ndarray) -> np.ndarray:
    """|v| of each row.  Where the plain norm overflows (its squares do from
    about 1e154), the row is recomputed with its largest entry factored out."""
    out = np.linalg.norm(v, axis=1)
    big = np.flatnonzero(np.isinf(out) & np.isfinite(v).all(axis=1))
    if len(big):
        top = np.max(np.abs(v[big]), axis=1)
        out[big] = top * np.linalg.norm(v[big] / top[:, None], axis=1)
    return out


@dataclass
class SampleJets:
    """A form's admitted samples, their (t, r, theta, phi, tdot, rdot,
    thetadot, phidot) one row each, the jets of L at them as one `FormJet`
    (one row per sample), |L| + |y| |d L / d y| per sample, which neither L
    -> cL nor y -> s y moves, and how many samples were skipped."""
    points: list
    states: np.ndarray
    jet: FormJet
    scale: np.ndarray
    skipped: int
    _gamma: dict = dc_field(default_factory=dict, init=False, repr=False)

    def christoffels(self, conn: ConnectionProfile) -> np.ndarray:
        """Gamma[e, c, d] at each sample (n, 4, 4, 4), read-only: k1..k12 in
        one array run, once per connection; the checks that read it share it."""
        gam = self._gamma.get(conn)
        if gam is None:
            gam = christoffel_table(conn.k_values(*self.states[:, :2].T), self.states[:, 2])
            gam.flags.writeable = False
            self._gamma[conn] = gam
        return gam


def _jets(evaluator, points: list, vals: list | None = None) -> SampleJets:
    """The jets at ``points`` from the potentials' values ``vals`` (None:
    read by the form): one array run of the form's program, the points where
    it fails or where the scale is not finite skipped."""
    jet, ok = evaluator.jet(points, vals)
    states = np.array([p.state() for p in points]).reshape(len(points), 8)
    with np.errstate(all="ignore"):   # inf and NaN at failed points; overflowing norms
        scale = np.abs(jet.value) + _norm(states[:, 4:]) * _norm(jet.vertical_gradient())
    ok = ok & np.isfinite(scale)
    if not ok.any():
        raise VerificationError("no admissible samples: each is outside the form's domain")
    kept = [p for p, keep in zip(points, ok.tolist()) if keep]
    return SampleJets(kept, states[ok], FormJet(jet.out[ok]), scale[ok],
                      len(points) - len(kept))


def draw_jets(evaluator, rng: np.random.Generator, t_range: tuple, r_range: tuple,
              n: int, predicate=None) -> SampleJets:
    """The jets of L (`_jets`) at n samples drawn by `sample_tangent_points`
    that ``predicate`` and `evaluator` admit, each chunk of candidates
    admitted at once, with the potentials' values it read kept for the jets."""
    kept = {}

    def admit_chunk(points):
        ok, vals = evaluator.admit(points)
        kept.update(zip([(p.t, p.r) for p in points], vals or ()))
        return ok

    points = sample_tangent_points(rng, t_range, r_range, n, predicate, admit_chunk)
    vals = [kept.get((p.t, p.r)) for p in points]
    return _jets(evaluator, points, None if None in vals else vals)


def check_horizontal_constancy(jets: SampleJets, conn: ConnectionProfile,
                               tol: float = 1e-7, name: str = "horizontal-constancy"
                               ) -> CheckResult:
    """max_a |delta_a L| / (|L| + |y| |d L / d y|) over the samples, where
    delta_a L = d_a L - N^b_a d L / d ydot^b and N^b_a = Gamma^b_ac ydot^c."""
    N = np.einsum("nbac,nc->nba", jets.christoffels(conn), jets.states[:, 4:])
    delta = jets.jet.horizontal_gradient() - np.einsum("nba,nb->na", N,
                                                       jets.jet.vertical_gradient())
    return _below(name, _ratio(delta, jets.scale[:, None]), tol, jets.states,
                  {"samples_used": len(jets.points), "samples_skipped": jets.skipped})


def check_homogeneity(jets: SampleJets) -> CheckResult:
    """C(L) = 2L: Euler vector field applied through exact vertical gradients;
    the residual |C(L) - 2L| / (|L| + |y| |d L / d y|), below 1e-10."""
    cl = np.einsum("na,na->n", jets.states[:, 4:], jets.jet.vertical_gradient())
    return _below("euler-homogeneity", _ratio(cl - 2.0 * jets.jet.value, jets.scale), 1e-10,
                  jets.states, {"samples_used": len(jets.points)})


def check_hessian(jets: SampleJets, det_floor: float = 1e-10,
                  name: str = "hessian-nondegeneracy") -> CheckResult:
    """g_ab = (1/2) ddot_a ddot_b L nonsingular; eigenvalue sign pattern observed.

    Nondegeneracy is read from |det g| |y|^8 / L^4, which does not change
    under L -> cL or y -> lambda y: its logarithm, with log |det g| from
    ``slogdet``, must exceed log(det_floor) at every sample.  The residual is
    the smallest such ratio, at the first sample attaining it.
    """
    g = jets.jet.metric_tensor()
    sign, logdet = np.linalg.slogdet(g)
    eig = np.linalg.eigvalsh(g)
    signatures = set(zip(np.sum(eig > 0, axis=1).tolist(), np.sum(eig < 0, axis=1).tolist()))
    L = np.abs(jets.jet.value)   # 0 on a null direction of a nondegenerate form
    with np.errstate(divide="ignore", invalid="ignore"):
        level = logdet + 8.0 * np.log(np.linalg.norm(jets.states[:, 4:], axis=1)) - 4.0 * np.log(L)
    level = np.where(sign == 0.0, -math.inf, np.where(L == 0.0, math.inf, level))
    i = int(np.argmin(level))
    floor = math.log(det_floor) if det_floor > 0.0 else -math.inf
    passed = level[i] > floor and len(signatures) == 1
    return CheckResult(name, math.exp(min(level[i], 700.0)), det_floor, bool(passed),
                       tuple(jets.states[i]),
                       {"signatures": [list(s) for s in sorted(signatures)],
                        "samples_used": len(jets.points),
                        "comparison": "residual is min |det g| |y|^8 / L^4, must exceed tolerance"})


def levi_civita_roundtrip(A: RiemannForm, conn: ConnectionProfile,
                          grid: Sequence[tuple], tol: float = 1e-6) -> CheckResult:
    """Christoffels rebuilt from A's coefficient partials vs the input
    k-table, max |k_round - k_in| / (1 + max |k_in|) over the grid."""
    grid = list(grid)
    k_in = conn.k_values(*np.array(grid, dtype=float).reshape(-1, 2).T)
    return _below("levi-civita-roundtrip", np.max(np.abs(A.christoffels(grid) - k_in), axis=1)
                  / (1.0 + np.max(np.abs(k_in), axis=1)), tol, grid)


def berwald_check(jets: SampleJets, conn: ConnectionProfile, tol: float = 1e-5) -> CheckResult:
    """L's spray is the connection's G^a = (1/2) Gamma^a_bc xdot^b xdot^c: the
    Euler-Lagrange identity 4 g_ab G^b = xdot^c d_c ddot_a L - d_a L (no solve with
    g), relative to max |rhs| + max |4 g| max |G|, which L -> cL, y -> s y keep.
    A sample where these overflow has residual infinity, not NaN, which
    `_below` would pass over."""
    vel = jets.states[:, 4:]
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = (np.einsum("nc,ncb->nb", vel, jets.jet.mixed_block())
               - jets.jet.horizontal_gradient())
        g4 = 4.0 * jets.jet.metric_tensor()
        G = 0.5 * np.einsum("nabc,nb,nc->na", jets.christoffels(conn), vel, vel)
        res = _ratio(np.abs(np.einsum("nab,nb->na", g4, G) - rhs).max(axis=1),
                     np.abs(rhs).max(axis=1) + np.abs(g4).max(axis=(1, 2)) * np.abs(G).max(axis=1))
    return _below("berwald-spray", np.where(np.isnan(res), np.inf, res), tol, jets.states,
                  {"samples_used": len(jets.points)})
