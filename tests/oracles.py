"""Reference oracles that the tests compare the package against.

None of these runs in a command.  Each either states what the package
computes on arrays as a one-point computation (`sample_jets`,
`signature_observation`, `class3_delta`, `class5_det_formula`,
`ricci_asymmetry`, `bracket_matrix`), does what the package does without
its shortcut (`m_shift_by_max` scores every candidate shift of class 3's
M, `derivative_at_every_node` applies the derivative rules to every node),
composes the package's own parts the way a user of the library would
(`path_integral`, `geodesic_agreement`), or gives independent evidence for a verdict
(`riemann_falsification`, the paper's "no nondegenerate quadratic form
survives the curvature constraints").
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from berwald.geodesic_engine import discrepancy, integrate_finsler, integrate_spray
from berwald.geometry_core import (ConnectionProfile, CurvatureProfile, TangentPoint,
                                   bracket_vectors, curvature_profile)
from berwald.metrizer import DeltaVanishes, PotentialSystem, RiemannForm
from berwald.scalar_field import (_ONE, _ZERO, BinOp, Call, Neg, Num, Param, Var, _add,
                                  _is, _mul, _sub)
from berwald.verifier import (CheckResult, SampleJets, VerificationError, _jets,
                              check_hessian)


# ---------------------------------------------------------------------------
# One-point forms of array paths
# ---------------------------------------------------------------------------

class Degenerate(VerificationError):
    def __init__(self, sample, det):
        self.sample = sample
        self.det = det
        super().__init__("degenerate Hessian (det = %.3g) at %s" % (det, sample))


def sample_jets(evaluator, samples: Sequence[TangentPoint]) -> SampleJets:
    """The jets of L at the samples that `evaluator` admits (its `admit`)
    and can evaluate; the others are skipped, and counted as skipped."""
    ok, vals = evaluator.admit(samples)
    keep = [i for i, a in enumerate(ok) if a]
    jets = _jets(evaluator, [samples[i] for i in keep],
                 None if vals is None else [vals[i] for i in keep])
    jets.skipped = len(samples) - len(jets.points)
    return jets


def signature_observation(evaluator, samples: Sequence[TangentPoint]) -> tuple:
    """(n_positive, n_negative) eigenvalue counts, if consistent across samples."""
    res = check_hessian(sample_jets(evaluator, samples))
    sigs = res.extra["signatures"]
    if not res.passed or len(sigs) != 1:
        raise Degenerate(res.sample, res.residual)
    return tuple(sigs[0])


def ricci_asymmetry(cp: CurvatureProfile) -> float:
    """R_rt - R_tr = a1 + a4 + 2 a5; zero iff the connection Ricci is symmetric."""
    return cp.a[1].value + cp.a[4].value + 2.0 * cp.a[5].value


def bracket_matrix(conn: ConnectionProfile, p: TangentPoint, depth: int = 2,
                   cp: CurvatureProfile | None = None) -> np.ndarray:
    vecs = bracket_vectors(conn, p, depth, cp)
    return np.stack([v.components for v in vecs])


def m_shift_by_max(pots: PotentialSystem, grid, cg) -> float:
    """`_choose_m_shift` scoring every candidate: the first candidate of
    largest score."""
    vals = dict(zip(pots.names, pots.values_at(grid).T))
    G, K, M = (vals[n] for n in ("G", "K", "M"))
    a, b, c = cg.abc.T
    wgt = np.exp(G) * (2.0 * a * b + c)
    delta0 = M * wgt - b * b * np.exp(2.0 * K)
    scale = 1.0 + float(np.max(np.abs(delta0))) + float(np.max(np.abs(wgt)))
    forbidden = sorted(-delta0[np.abs(wgt) > 1e-12 * scale] / wgt[np.abs(wgt) > 1e-12 * scale])
    candidates = [0.0, 1.0, -1.0, 2.0, -2.0]
    if forbidden:
        candidates += [forbidden[0] - 1.0, forbidden[-1] + 1.0]
        candidates += [0.5 * (forbidden[i] + forbidden[i + 1]) for i in range(len(forbidden) - 1)]

    def score(m):
        return float(np.min(np.abs(delta0 + m * wgt)))

    best = max(candidates, key=score)
    if score(best) <= 1e-6 * scale:
        raise DeltaVanishes("no additive constant for M keeps Delta away from zero "
                            "(best min |Delta| = %.3g)" % score(best))
    return best


def class3_delta(riemann: RiemannForm, t: float, r: float) -> float:
    """Delta = M e^G (2ab + c) - b^2 e^{2K} = e^{-2K} det(tr block), the
    block's att, atr, arr from `coefficient_table`."""
    pots: PotentialSystem = riemann.meta["potentials"]
    vals = pots.values(t, r)
    att, atr, arr = riemann.coefficient_table([(t, r)])[0, :3, 0]
    return (att * arr - atr * atr) / math.exp(2.0 * vals["K"])


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


# ---------------------------------------------------------------------------
# Derivative rules at every node
# ---------------------------------------------------------------------------

def derivative_at_every_node(e, var: str):
    """`derivative` with no skip: the chain rule of each node kind applied to
    every distinct subexpression, also to one that reads no leaf named
    ``var``, which the rules fold to `Num(0.0)`."""
    memo = {}

    def d(x):
        if x not in memo:
            memo[x] = rule(x)
        return memo[x]

    def rule(x):
        if isinstance(x, Num):
            return _ZERO
        if isinstance(x, (Var, Param)):
            return _ONE if x.name == var else _ZERO
        if isinstance(x, Neg):
            return _sub(_ZERO, d(x.arg))
        if isinstance(x, Call):
            u, du = x.arg, d(x.arg)
            if _is(du, 0.0):
                return _ZERO
            outer = {"sin": lambda: Call("cos", u), "cos": lambda: Neg(Call("sin", u)),
                     "tan": lambda: BinOp("+", _ONE, BinOp("*", x, x)), "exp": lambda: x,
                     "ln": lambda: BinOp("/", _ONE, u),
                     "sqrt": lambda: BinOp("/", Num(0.5), x), "abs": lambda: BinOp("/", u, x)}
            return _mul(outer[x.fn](), du)
        a, b = x.left, x.right
        da, db = d(a), d(b)
        if x.op in "+-":
            return _add(da, db) if x.op == "+" else _sub(da, db)
        if x.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if x.op == "/":
            if _is(da, 0.0) and _is(db, 0.0):
                return _ZERO
            return BinOp("/", _sub(da, _mul(x, db)), b)
        if not _is(db, 0.0):
            return _mul(x, _add(_mul(da, BinOp("/", b, a)), _mul(Call("ln", a), db)))
        if _is(b, 0.0):
            return _ZERO
        n1 = Num(b.number - 1.0) if isinstance(b, Num) else BinOp("-", b, _ONE)
        return _mul(_mul(b, BinOp("^", a, n1)), da)

    return d(e)


# ---------------------------------------------------------------------------
# The package's parts composed
# ---------------------------------------------------------------------------

def path_integral(P, Q, frm: tuple, to: tuple) -> float:
    """Integral of P dt + Q dr from ``frm`` to ``to`` along the L-shaped path.

    P, Q are expression text or ScalarFields in t and r.  The one-form is
    certified (`PotentialSystem.certify`) on a 5 x 5 lattice over the
    bounding box and ``to``: closedness exactly at each of them, the
    transport against the transposed path at every node of the grid that
    they span.
    """
    ts = np.linspace(min(frm[0], to[0]), max(frm[0], to[0]), 5)
    rs = np.linspace(min(frm[1], to[1]), max(frm[1], to[1]), 5)
    probes = [(a, b) for a in ts for b in rs] + [to]
    pot = PotentialSystem(["psi"], [P], [Q], frm)
    pot.certify(probes, label="path integral")
    return pot.values(*to)["psi"]


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
