"""Independent numerical certification of constructed forms and claims.

Every check reports a normalized residual with the sample where it was
attained; nothing is trusted from the construction path it certifies.  The
form checks read one `FormJet` per admissible sample (`sample_jets`: L and
its partials from one compiled program); the Berwald check compares L's
Euler-Lagrange spray with the connection's own; the Levi-Civita round trip
rebuilds Christoffel coefficients from metric derivatives; geodesic
agreement runs two independent integrations; the quadratic-fit
falsification searches for *any* metric compatible with the bracket
constraints and reports the least-squares floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .geodesic_engine import integrate_finsler, integrate_spray
from .geometry_core import (ConnectionProfile, TangentPoint, bracket_matrix,
                            curvature_profile, nonlinear_connection, spray_coefficients)
from .metrizer import RiemannForm
from .scalar_field import DomainError


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


def _sample_key(p: TangentPoint) -> tuple:
    return tuple(p.state())


def _ratio(x: float, scale: float) -> float:
    """|x| / scale, with 0/0 read as 0 and x/0 as infinity."""
    return abs(x) / scale if scale > 0.0 else (math.inf if x else 0.0)


def _scaled_residual(x: float, jet, p: TangentPoint) -> float:
    """|x| / (|L| + |y| |d L / d y|) at p, which neither L -> cL nor y -> s y moves."""
    return _ratio(x, abs(jet.value) + float(np.linalg.norm(p.velocity)
                                            * np.linalg.norm(jet.vertical_gradient())))


# ---------------------------------------------------------------------------
# Pointwise checks on the jets of a form at its samples
# ---------------------------------------------------------------------------

@dataclass
class SampleJets:
    """A form's admissible samples, each with its jet, and how many were skipped."""
    points: list
    jets: list
    skipped: int

    def __iter__(self):
        return zip(self.points, self.jets)


def _potential_values(evaluator, points: Sequence[tuple]) -> list:
    """The values of the potentials that ``evaluator`` reads at each (t, r)
    of ``points`` as dicts, from one `values_at` call (None where it reads
    none)."""
    pots = getattr(evaluator, "scale_pot", None)
    if pots is None:
        return [None] * len(points)
    return [dict(zip(pots.names, row)) for row in pots.values_at(points)]


def sample_jets(evaluator, samples: Sequence[TangentPoint]) -> SampleJets:
    """One jet per sample that `evaluator` admits and can evaluate (a sample
    whose jet raises `DomainError` is skipped), the potentials of all samples
    read at once."""
    admitted = [p for p in samples if evaluator.admissible(p)]
    try:
        vals = _potential_values(evaluator, [(p.t, p.r) for p in admitted])
    except DomainError:   # some sample's transport fails: each jet transports its own
        vals = [None] * len(admitted)
    points, jets = [], []
    for p, v in zip(admitted, vals):
        try:
            jets.append(evaluator.jet(p, v))
        except DomainError:
            continue
        points.append(p)
    if not points:
        raise VerificationError("no admissible samples: each is outside the form's domain")
    return SampleJets(points, jets, len(samples) - len(points))


def check_horizontal_constancy(jets: SampleJets, conn: ConnectionProfile,
                               tol: float = 1e-7, name: str = "horizontal-constancy"
                               ) -> CheckResult:
    """max_a |delta_a L| / (|L| + |y| |d L / d y|) over the samples."""
    worst, where = 0.0, None
    for p, jet in jets:
        N = nonlinear_connection(conn, p)
        dv = jet.vertical_gradient()
        dh = jet.horizontal_gradient()
        for a in range(4):
            res = _scaled_residual(dh[a] - N[:, a] @ dv, jet, p)
            if res > worst:
                worst, where = res, _sample_key(p)
    return CheckResult(name, worst, tol, worst < tol, where,
                       {"samples_used": len(jets.points), "samples_skipped": jets.skipped})


def check_homogeneity(jets: SampleJets, tol: float = 1e-10,
                      name: str = "euler-homogeneity") -> CheckResult:
    """C(L) = 2L: Euler vector field applied through exact vertical gradients;
    the residual |C(L) - 2L| / (|L| + |y| |d L / d y|)."""
    worst, where = 0.0, None
    for p, jet in jets:
        cl = p.velocity @ jet.vertical_gradient()
        res = _scaled_residual(cl - 2.0 * jet.value, jet, p)
        if res > worst:
            worst, where = res, _sample_key(p)
    return CheckResult(name, worst, tol, worst < tol, where,
                       {"samples_used": len(jets.points)})


def check_hessian(jets: SampleJets, det_floor: float = 1e-10,
                  name: str = "hessian-nondegeneracy") -> CheckResult:
    """g_ab = (1/2) ddot_a ddot_b L nonsingular; eigenvalue sign pattern observed.

    Nondegeneracy is read from |det g| |y|^8 / L^4, which does not change
    under L -> cL or y -> lambda y: its logarithm, with log |det g| from
    ``slogdet``, must exceed log(det_floor) at every sample.  The residual is
    the smallest such ratio.
    """
    worst, where = math.inf, None
    signatures = set()
    for p, jet in jets:
        g = jet.metric_tensor()
        sign, logdet = np.linalg.slogdet(g)
        eig = np.linalg.eigvalsh(g)
        signatures.add((int(np.sum(eig > 0)), int(np.sum(eig < 0))))
        L = abs(jet.value)   # 0 on a null direction of a nondegenerate form
        level = (-math.inf if sign == 0.0 else math.inf if L == 0.0 else float(logdet)
                 + 8.0 * math.log(float(np.linalg.norm(p.velocity))) - 4.0 * math.log(L))
        if level < worst or where is None:
            worst, where = level, _sample_key(p)
    floor = math.log(det_floor) if det_floor > 0.0 else -math.inf
    passed = worst > floor and len(signatures) == 1
    return CheckResult(name, math.exp(min(worst, 700.0)), det_floor, passed, where,
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
                          grid: Sequence[tuple], tol: float = 1e-6,
                          name: str = "levi-civita-roundtrip") -> CheckResult:
    """Christoffels rebuilt from A's coefficient partials vs the input k-table."""
    worst = 0.0
    where = None
    for (t, r), vals in zip(grid, _potential_values(A, grid)):
        k_round = A.christoffels(t, r, vals)
        k_in = conn.k_values(t, r)
        denom = 1.0 + float(np.max(np.abs(k_in)))
        res = float(np.max(np.abs(k_round - k_in))) / denom
        if res > worst:
            worst, where = res, (t, r)
    return CheckResult(name, worst, tol, worst < tol, where)


def geodesic_agreement(evaluator, conn: ConnectionProfile, p0: TangentPoint, T: float,
                       n_out: int = 100, disc_tol: float = 1e-6,
                       drift_tol: float = 1e-8, name: str = "geodesic-agreement"
                       ) -> CheckResult:
    """Affine autoparallel vs Finsler Euler-Lagrange trajectory, plus the
    conservation of L along the autoparallel, its potentials read at all
    states at once."""
    tr_a = integrate_spray(conn, p0, T, n_out)
    tr_f = integrate_finsler(evaluator, p0, T, n_out)
    scale = 1.0 + float(np.max(np.abs(tr_a.states)))
    disc = float(np.max(np.abs(tr_a.states - tr_f.states))) / scale
    vals = _potential_values(evaluator, tr_a.states[:, :2])
    Ls = np.array([evaluator.jet(TangentPoint(*st), v).value
                   for st, v in zip(tr_a.states, vals)])
    drift = float(np.max(np.abs(Ls - Ls[0]))) / (1.0 + abs(Ls[0]))
    passed = disc < disc_tol and drift < drift_tol
    return CheckResult(name, max(disc, drift), max(disc_tol, drift_tol), passed,
                       tuple(p0.state()),
                       {"trajectory_discrepancy": disc, "L_drift": drift,
                        "steps_affine": tr_a.steps, "steps_finsler": tr_f.steps})


def berwald_check(jets: SampleJets, conn: ConnectionProfile, tol: float = 1e-5,
                  name: str = "berwald-spray") -> CheckResult:
    """L's spray is the connection's G^a = (1/2) Gamma^a_bc xdot^b xdot^c: the
    Euler-Lagrange identity 4 g_ab G^b = xdot^c d_c ddot_a L - d_a L (no solve with
    g), relative to max |rhs| + max |4 g| max |G|, which L -> cL, y -> s y keep."""
    worst, where = 0.0, None
    for p, jet in jets:
        rhs = p.velocity @ jet.mixed_block() - jet.horizontal_gradient()
        g4 = 4.0 * jet.metric_tensor()
        G = np.array(spray_coefficients(conn, p))
        res = _ratio(float(np.max(np.abs(g4 @ G - rhs))),
                     float(np.max(np.abs(rhs)) + np.max(np.abs(g4)) * np.max(np.abs(G))))
        if res > worst:
            worst, where = res, _sample_key(p)
    return CheckResult(name, worst, tol, worst < tol, where,
                       {"samples_used": len(jets.points)})


# ---------------------------------------------------------------------------
# Quadratic-fit falsification
# ---------------------------------------------------------------------------

_SYM10 = [(i, j) for i in range(4) for j in range(i, 4)]


def _bracket_coefficient_tensors(conn: ConnectionProfile, t: float, r: float,
                                 theta: float) -> list:
    """The depth-1/2 bracket vectors are linear in the velocity; extract their
    coefficient tensors T[c, d] by evaluating at the four basis velocities."""
    cp = curvature_profile(conn, t, r)
    per_basis = []
    for c in range(4):
        v = np.zeros(4)
        v[c] = 1.0
        p = TangentPoint(t, r, theta, 0.0, *v)
        per_basis.append(bracket_matrix(conn, p, 2, cp))
    tensors = []
    for k in range(per_basis[0].shape[0]):
        T = np.stack([per_basis[c][k] for c in range(4)])  # T[c, d]
        if float(np.max(np.abs(T))) > 1e-13:
            tensors.append(T)
    return tensors


def _annihilation_rows(T: np.ndarray) -> list:
    """Rows of A -> (T o A) + (T o A)^T over the ten symmetric unknowns.

    A parallel metric is annihilated by the curvature endomorphism and by its
    horizontal derivatives; both appear among the bracket coefficient tensors
    (their Gamma-correction terms are curvature recombinations, annihilating A
    as well), so M_ce = T[c, d] A_de + T[e, d] A_dc must vanish.
    """
    rows = []
    for c in range(4):
        for e in range(c, 4):
            row = np.zeros(10)
            for col, (i, j) in enumerate(_SYM10):
                val = 0.0
                for d in range(4):
                    if (min(d, e), max(d, e)) == (i, j):
                        val += T[c, d]
                    if (min(d, c), max(d, c)) == (i, j):
                        val += T[e, d]
                row[col] = val
            rows.append(row)
    return rows


def _sym_matrix(x: np.ndarray) -> np.ndarray:
    A = np.zeros((4, 4))
    for col, (i, j) in enumerate(_SYM10):
        A[i, j] = A[j, i] = x[col]
    return A


def riemann_falsification(conn: ConnectionProfile, t: float, r: float, theta: float,
                          rng: np.random.Generator, floor: float = 1e-3,
                          det_tol: float = 1e-6, name: str = "quadratic-fit-floor"
                          ) -> CheckResult:
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
        return CheckResult(name, 0.0, floor, False, (t, r, theta),
                           {"rows": len(rows), "kernel_dim": 10,
                            "kernel_max_det": 1.0})
    M = np.stack(rows)
    U, sv, Vt = np.linalg.svd(M)
    kernel = [Vt[i] for i in range(10) if sv[i] < 1e-8 * max(sv[0], 1.0)] \
        if len(sv) == 10 else []
    sigma_min = float(sv[-1]) if len(sv) == 10 else 0.0

    if not kernel:
        return CheckResult(name, sigma_min, floor, sigma_min > floor, (t, r, theta),
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
    if kernel_det > det_tol:
        # a nondegenerate candidate satisfies every constraint: not falsified
        return CheckResult(name, sigma_min, floor, False, (t, r, theta),
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
    return CheckResult(name, best_residual, floor, best_residual > floor,
                       (t, r, theta),
                       {"rows": len(rows), "kernel_dim": len(kernel),
                        "kernel_max_det": kernel_det,
                        "comparison": "residual is the cheapest nondegenerate "
                                      "candidate's defect"})
