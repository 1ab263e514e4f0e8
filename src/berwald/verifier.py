"""Independent numerical certification of constructed forms and claims.

Every check reports a normalized residual with the sample where it was
attained; nothing is trusted from the construction path it certifies.  The
form checks are array passes over the admitted samples (`sample_jets`: L
and its partials from one run of the form's compiled program on arrays of
all of them); the Berwald check compares L's Euler-Lagrange spray with the
connection's own; the Levi-Civita round trip rebuilds Christoffel
coefficients from metric derivatives; geodesic agreement runs two
independent integrations; the quadratic-fit falsification searches for
*any* metric compatible with the bracket constraints and reports the
least-squares floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .geodesic_engine import discrepancy, integrate_finsler, integrate_spray
from .geometry_core import (ConnectionProfile, TangentPoint, bracket_matrix,
                            christoffel_table, curvature_profile, sample_tangent_points)
from .metrizer import FormJet, RiemannForm


class VerificationError(RuntimeError):
    pass


class Degenerate(VerificationError):
    def __init__(self, sample, det):
        self.sample = sample
        self.det = det
        super().__init__("degenerate Hessian (det = %.3g) at %s" % (det, sample))


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

    def christoffels(self, conn: ConnectionProfile) -> np.ndarray:
        """Gamma[e, c, d] at each sample (n, 4, 4, 4): k1..k12 in one array run."""
        return christoffel_table(conn.k_values(*self.states[:, :2].T), self.states[:, 2])


def _jets(evaluator, points: list, vals: list | None = None,
          drawn: int | None = None) -> SampleJets:
    """The jets at ``points`` from the potentials' values ``vals`` (None:
    read by the form): one array run of the form's program, the points where
    it fails or where the scale is not finite skipped.  ``drawn`` (default:
    all of them) counts the samples the points were admitted from."""
    drawn = len(points) if drawn is None else drawn
    jet, ok = evaluator.jet(points, vals)
    states = np.array([p.state() for p in points]).reshape(len(points), 8)
    with np.errstate(all="ignore"):   # inf and NaN at failed points; overflowing norms
        scale = np.abs(jet.value) + _norm(states[:, 4:]) * _norm(jet.vertical_gradient())
    ok = ok & np.isfinite(scale)
    if not ok.any():
        raise VerificationError("no admissible samples: each is outside the form's domain")
    kept = [p for p, keep in zip(points, ok.tolist()) if keep]
    return SampleJets(kept, states[ok], FormJet(jet.out[ok]), scale[ok], drawn - len(kept))


def sample_jets(evaluator, samples: Sequence[TangentPoint]) -> SampleJets:
    """The jets of L at the samples that `evaluator` admits (its `admit`)
    and can evaluate; the others are skipped."""
    ok, vals = evaluator.admit(samples)
    keep = [i for i, a in enumerate(ok) if a]
    return _jets(evaluator, [samples[i] for i in keep],
                 None if vals is None else [vals[i] for i in keep], len(samples))


def draw_jets(evaluator, rng: np.random.Generator, t_range: tuple, r_range: tuple,
              n: int, predicate=None) -> SampleJets:
    """`sample_jets` at n samples drawn by `sample_tangent_points` that
    ``predicate`` and `evaluator` admit, each chunk of candidates admitted
    at once, with the potentials' values it read kept for the jets."""
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


def signature_observation(evaluator, samples: Sequence[TangentPoint]) -> tuple:
    """(n_positive, n_negative) eigenvalue counts, if consistent across samples."""
    res = check_hessian(sample_jets(evaluator, samples))
    sigs = res.extra["signatures"]
    if not res.passed or len(sigs) != 1:
        raise Degenerate(res.sample, res.residual)
    return tuple(sigs[0])


def levi_civita_roundtrip(A: RiemannForm, conn: ConnectionProfile,
                          grid: Sequence[tuple], tol: float = 1e-6) -> CheckResult:
    """Christoffels rebuilt from A's coefficient partials vs the input
    k-table, max |k_round - k_in| / (1 + max |k_in|) over the grid."""
    grid = list(grid)
    k_in = conn.k_values(*np.array(grid, dtype=float).reshape(-1, 2).T)
    return _below("levi-civita-roundtrip", np.max(np.abs(A.christoffels(grid) - k_in), axis=1)
                  / (1.0 + np.max(np.abs(k_in), axis=1)), tol, grid)


def geodesic_agreement(evaluator, conn: ConnectionProfile, p0: TangentPoint, T: float,
                       n_out: int = 100) -> CheckResult:
    """Affine autoparallel vs Finsler Euler-Lagrange trajectory, within
    1e-6, plus the conservation of L along the autoparallel, within 1e-8: L
    at all its states from one jet run (`_jets`), the potentials read at all
    of them at once.  A state where L cannot be evaluated makes the drift
    infinite."""
    tr_a = integrate_spray(conn, p0, T, n_out)
    tr_f = integrate_finsler(evaluator, p0, T, n_out)
    disc = discrepancy(tr_a, tr_f)
    jets = _jets(evaluator, [TangentPoint(*st) for st in tr_a.states])
    Ls = jets.jet.value
    drift = (math.inf if jets.skipped
             else float(np.max(np.abs(Ls - Ls[0]))) / (1.0 + abs(float(Ls[0]))))
    passed = disc < 1e-6 and drift < 1e-8
    return CheckResult("geodesic-agreement", max(disc, drift), 1e-6, passed,
                       tuple(p0.state()),
                       {"trajectory_discrepancy": disc, "L_drift": drift,
                        "steps_affine": tr_a.steps, "steps_finsler": tr_f.steps})


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


# ---------------------------------------------------------------------------
# Quadratic-fit falsification
# ---------------------------------------------------------------------------

# the ten symmetric unknowns A_ij, i <= j, row by row: their rows, their columns
_ROWS, _COLS = zip(*[(i, j) for i in range(4) for j in range(i, 4)])
_FIT_FLOOR = 1e-3   # the least-squares floor above which a quadratic fit is falsified


def _sym_matrix(x: np.ndarray) -> np.ndarray:
    A = np.zeros((4, 4))
    A[_ROWS, _COLS] = A[_COLS, _ROWS] = x
    return A


def _bracket_coefficient_tensors(conn: ConnectionProfile, t: float, r: float,
                                 theta: float) -> list:
    """The depth-1/2 bracket vectors are linear in the velocity; extract their
    coefficient tensors T[c, d] by evaluating at the four basis velocities."""
    cp = curvature_profile(conn, t, r)
    per_basis = np.stack([bracket_matrix(conn, TangentPoint(t, r, theta, 0.0, *v), 2, cp)
                          for v in np.eye(4)])
    return [T for T in per_basis.transpose(1, 0, 2) if float(np.max(np.abs(T))) > 1e-13]


def _annihilation_rows(T: np.ndarray) -> np.ndarray:
    """Rows of A -> (T o A) + (T o A)^T over the ten symmetric unknowns.

    A parallel metric is annihilated by the curvature endomorphism and by its
    horizontal derivatives; both appear among the bracket coefficient tensors
    (their Gamma-correction terms are curvature recombinations, annihilating A
    as well), so M_ce = T[c, d] A_de + T[e, d] A_dc must vanish: row (c, e),
    c <= e, column ij is M_ce at A = E_ij.
    """
    TE = T @ np.array([_sym_matrix(e) for e in np.eye(10)])   # T o E_ij, E_ij = E_ji = 1
    return (TE + TE.transpose(0, 2, 1))[:, _ROWS, _COLS].T


def riemann_falsification(conn: ConnectionProfile, t: float, r: float, theta: float,
                          rng: np.random.Generator) -> CheckResult:
    """Least-squares evidence that no nondegenerate quadratic form survives the
    pointwise integrability constraints.

    A parallel metric A must be annihilated by the curvature endomorphism and
    its first horizontal derivatives: stacking (T o A) + (T o A)^T = 0 over all
    bracket coefficient tensors gives a linear system in the ten components of
    A.  Falsification is established when either the system has no kernel at
    all (fit floor above the threshold), or every kernel member is degenerate
    as a quadratic form and any nondegenerate candidate pays a least-squares
    residual above the threshold.  Metrizable connections put the true metric
    itself in the kernel and drive the reported residual to zero.

    ``passed`` is True when falsification is established.
    """
    tensors = _bracket_coefficient_tensors(conn, t, r, theta)
    rows = []
    for T in tensors:
        for row in _annihilation_rows(T):
            n = float(np.linalg.norm(row))
            if n > 1e-12:
                rows.append(row / n)
    if len(rows) < 10:
        # curvature too degenerate to constrain anything (e.g. flat profiles)
        return CheckResult("quadratic-fit-floor", 0.0, _FIT_FLOOR, False, (t, r, theta),
                           {"rows": len(rows), "kernel_dim": 10,
                            "kernel_max_det": 1.0})
    M = np.stack(rows)
    U, sv, Vt = np.linalg.svd(M)
    kernel = [Vt[i] for i in range(10) if sv[i] < 1e-8 * max(sv[0], 1.0)] \
        if len(sv) == 10 else []
    sigma_min = float(sv[-1]) if len(sv) == 10 else 0.0

    if not kernel:
        return CheckResult("quadratic-fit-floor", sigma_min, _FIT_FLOOR, sigma_min > _FIT_FLOOR,
                           (t, r, theta),
                           {"rows": len(rows), "kernel_dim": 0,
                            "comparison": "residual must exceed tolerance"})

    def max_det_on_sphere(basis, tries=400):
        best = 0.0
        k = len(basis)
        B = np.stack(basis)
        for _ in range(tries):
            x = rng.normal(size=k)
            x /= np.linalg.norm(x)
            best = max(best, abs(float(np.linalg.det(_sym_matrix(x @ B)))))
        return best

    kernel_det = max_det_on_sphere(kernel)
    if kernel_det > 1e-6:
        # a nondegenerate candidate satisfies every constraint: not falsified
        return CheckResult("quadratic-fit-floor", sigma_min, _FIT_FLOOR, False, (t, r, theta),
                           {"rows": len(rows), "kernel_dim": len(kernel),
                            "kernel_max_det": kernel_det})

    # only degenerate kernel members: price of the cheapest nondegenerate mix
    extra = [Vt[i] for i in range(10) if sv[i] >= 1e-8 * max(sv[0], 1.0)]
    best_residual = math.inf
    for _ in range(2000):
        xk = rng.normal(size=len(kernel))
        xe = rng.normal(size=len(extra))
        mix = rng.uniform(0.05, 1.0)
        x = (1 - mix) * (xk / np.linalg.norm(xk)) @ np.stack(kernel) \
            + mix * (xe / np.linalg.norm(xe)) @ np.stack(extra)
        x /= np.linalg.norm(x)
        if abs(float(np.linalg.det(_sym_matrix(x)))) < 1e-2:
            continue
        best_residual = min(best_residual, float(np.linalg.norm(M @ x)))
    if not math.isfinite(best_residual):
        best_residual = sigma_min if sigma_min > 0 else float(sv[-1])
    return CheckResult("quadratic-fit-floor", best_residual, _FIT_FLOOR,
                       best_residual > _FIT_FLOOR, (t, r, theta),
                       {"rows": len(rows), "kernel_dim": len(kernel),
                        "kernel_max_det": kernel_det,
                        "comparison": "residual is the cheapest nondegenerate "
                                      "candidate's defect"})
