"""Metrizability classification of SO(3)-invariant torsion-free connections.

Decision pipeline:

1. reject non-finite coefficients and k11/k12 (outside the classified family);
2. establish the w-corner regime (k7, k8, k9, k10 all zero, or k10 generic);
3. check the algebraic metrizability constraints: in the generic regime the
   three scalar constraints and the six product relations tying the angular
   curvature coefficients to (a, b, c), in the zero-corner regime the
   vanishing of a6..a13; in both regimes the proportionality of the
   second-level (t, r)-brackets to the first-level one;
4. assign Class 1..5 from the (D, E, F) / tr-corner signature across the grid;
5. decide Riemann metrizability from the class table, with the Class-5 case
   conditional on a1 + a4 vanishing;
6. cross-check against the holonomy rank and the Ricci asymmetry and refuse
   inconsistent reports.

Zero/nonzero decisions use a two-threshold scheme: a quantity is "zero" when
its grid maximum stays below zero_tol * scale, "nonzero" when it exceeds
nonzero_tol somewhere, and in between the verdict is undetermined.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .geometry_core import (_R_TABLE, R, T, ConnectionProfile, CurvatureProfile,
                            TangentPoint, W_CORNER_GENERIC, W_CORNER_K10_DEGENERATE,
                            W_CORNER_ZERO, K10Degenerate, UnsupportedConnection,
                            christoffel_table, curvature_profile, holonomy_rank_details,
                            sample_tangent_points)


class ClassifierError(RuntimeError):
    pass


class MixedClass(ClassifierError):
    """The zero/nonzero signature of D, E, F changes across the grid."""

    def __init__(self, message: str, partition: dict):
        self.partition = partition
        super().__init__(message + " (partition: %s)" % partition)


class InternalInconsistency(ClassifierError):
    """Report contradicts the rank/Ricci theorems: tolerance failure."""


@dataclass
class Tolerances:
    zero: float = 1e-9          # "identically zero on the grid" (scaled)
    nonzero: float = 1e-6       # "definitely nonzero somewhere"
    rank_svd: float = 1e-8
    ricci: float = 1e-8         # |a1 + a4 + 2 a5| over 1 + max_i |a_i| at one node


@dataclass
class ResidualStat:
    value: float
    at: tuple

    def to_dict(self):
        return {"max": self.value, "at": list(self.at)}


@dataclass
class ClassificationReport:
    finsler_metrizable: str = "undetermined"  # yes / no / undetermined
    class_label: Optional[int] = None
    riemann_metrizable: str = "undetermined"  # yes / no / undetermined / conditional text
    ricci_asymmetry: float = 0.0
    holonomy_rank: int = 0
    evidence: dict = dc_field(default_factory=dict)
    notes: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        ev = {}
        for k, v in self.evidence.items():
            if isinstance(v, ResidualStat):
                ev[k] = v.to_dict()
            elif isinstance(v, (int, float, str, bool, list)):
                ev[k] = v
        return {"finsler_metrizable": self.finsler_metrizable,
                "class": self.class_label,
                "riemann_metrizable": self.riemann_metrizable,
                "ricci_asymmetry": self.ricci_asymmetry,
                "holonomy_rank": self.holonomy_rank,
                "evidence": ev,
                "notes": list(self.notes)}


# deterministic velocity probes for the bracket-proportionality residuals
_PROBE_VELOCITIES = np.array(((1.0, 0.3, 0.2, -0.4), (1.0, -0.5, 0.1, 0.2),
                              (0.7, 1.1, -0.3, 0.15)))
_PROBE_THETA = 1.0


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m[..., e, d] x[..., d], summed over d from left to right: one fixed
    order, so a node's values do not depend on the batch it is in."""
    out = m[..., 0] * x[..., None, 0]
    for d in (1, 2, 3):
        out = out + m[..., d] * x[..., None, d]
    return out


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis from one dot product per vector,
    as `np.linalg.norm` takes them of a single vector (its axis form sums in
    another order)."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _proportionality_residuals(profiles: Sequence[CurvatureProfile]) -> np.ndarray:
    """Defect of [delta_t, [delta_t, delta_r]] ~ [delta_t, delta_r] and of the
    delta_r analogue at each node, maximized over the probe velocities.

    Reads only the (t, r) bracket R^e = A^e_d xdot^d, whose velocity gradient
    A and its (t, r)-partials come from a1..a5, and the slices Gamma[:, c, :]
    for c in {t, r}.  The second-level rows are
        partial_c R^e - A^e_d N^d_c + Gamma^e_cd R^d,   N^d_c = Gamma^d_cf xdot^f.
    The residual is the largest 2x2 minor of a second-level row against the
    first-level one over the product of their norms.  A vector whose norm is
    at or below the node's round-off floor 1e-12 s^2, with s = 1 + the largest
    |k_i|, |a_i| or partial of an a_i there, counts as zero (trivially
    parallel), so that pure cancellation noise is not normalized into an O(1)
    direction.
    """
    n = len(profiles)
    a = np.empty((n, 5, 3))                     # a1..a5: value, d/dt, d/dr
    gam = np.empty((n, 2, 1, 4, 4))             # Gamma[e, c, d] at [node, c, :, e, d]
    floor = np.empty((n, 1, 1))
    for node, cp in enumerate(profiles):
        scale = 1.0 + max(max(max(abs(j.value), abs(j.dt), abs(j.dr)) for j in cp.a.values()),
                          max(map(abs, cp.k)))
        floor[node] = 1e-12 * scale ** 2
        a[node] = [cp.a[i] for i in range(1, 6)]
        gam[node, :, 0] = christoffel_table(cp.k, _PROBE_THETA)[:, :2, :].transpose(1, 0, 2)

    grad = np.zeros((n, 3, 4, 4))               # value, d/dt, d/dr of A[e, d]
    for e, terms in enumerate(_R_TABLE[(T, R)]):
        for sign, i, d, _s2 in terms:
            grad[:, :, e, d] = sign * a[:, i - 1, :]

    vel = _PROBE_VELOCITIES
    rv = _apply(grad[:, :, None], vel)           # node, (R, R_t, R_r), velocity, e
    first = rv[:, 0]
    second = rv[:, 1:] - _apply(grad[:, :1, None], _apply(gam, vel)) \
        + _apply(gam, first[:, None])           # node, c, velocity, e
    minors = np.zeros(second.shape[:-1])
    for i in range(4):
        for j in range(i + 1, 4):
            minors = np.maximum(minors, np.abs(second[..., i] * first[:, None, :, j]
                                               - second[..., j] * first[:, None, :, i]))
    n_first = _norms(first)[:, None]
    n_second = _norms(second)
    resolved = (n_second > floor) & (n_first > floor)
    ratio = np.divide(minors, n_second * n_first, out=np.zeros_like(minors),
                      where=resolved)
    return ratio.max(axis=(1, 2))


def check_finsler_constraints(conn: ConnectionProfile, grid: Sequence[tuple],
                              profiles: Optional[dict] = None) -> dict:
    """Residual map of the algebraic metrizability constraints over the grid.

    Returns name -> ResidualStat; the caller owns thresholds.  Raises
    K10Degenerate / MixedClass when the w-corner regime is unusable, and
    UnsupportedConnection for k11/k12.
    """
    grid = list(grid)
    conn.require_classifiable(grid)
    if profiles is None:
        profiles = {}
    for q in grid:
        if q not in profiles:
            profiles[q] = curvature_profile(conn, *q)

    corners = {q: profiles[q].corner for q in grid}
    kinds = set(corners.values())
    if W_CORNER_K10_DEGENERATE in kinds:
        bad = [q for q in grid if corners[q] == W_CORNER_K10_DEGENERATE]
        raise K10Degenerate(
            "k10 vanishes against a nonzero w-corner at %d grid points (first: %s); "
            "(a, b, c) undefined there" % (len(bad), bad[0]))
    if kinds == {W_CORNER_GENERIC, W_CORNER_ZERO}:
        part = {"generic": sum(1 for v in corners.values() if v == W_CORNER_GENERIC),
                "w_zero": sum(1 for v in corners.values() if v == W_CORNER_ZERO)}
        raise MixedClass("w-corner regime changes across the grid", part)
    regime = kinds.pop()

    res = {}

    def _record(name: str, value: float, at: tuple):
        cur = res.get(name)
        if cur is None or value > cur.value:
            res[name] = ResidualStat(value, at)

    for q in grid:
        cp = profiles[q]
        a = {i: cp.a[i].value for i in range(1, 15)}
        if regime == W_CORNER_GENERIC:
            aa, bb, cc = cp.abc
            A = bb * (aa * a[1] + a[2]) + (aa * bb + cc) * (aa * a[3] + a[4]) \
                - a[5] * (2 * aa * bb + cc)
            B = aa * (aa * a[3] + a[4]) - (aa * a[1] + a[2])
            C = (aa * bb + cc) * a[3] + bb * (aa * a[3] + a[4]) + bb * (a[1] - 2 * a[5])
            _record("A", abs(A), q)
            _record("B", abs(B), q)
            _record("C", abs(C), q)
            _record("a6-a*a7", abs(a[6] - aa * a[7]), q)
            _record("a8-b*a7", abs(a[8] - bb * a[7]), q)
            _record("a9-(ab+c)*a7", abs(a[9] - (aa * bb + cc) * a[7]), q)
            _record("a10-a*a11", abs(a[10] - aa * a[11]), q)
            _record("a12-b*a11", abs(a[12] - bb * a[11]), q)
            _record("a13-(ab+c)*a11", abs(a[13] - (aa * bb + cc) * a[11]), q)
        else:
            for i in range(6, 14):
                _record("a%d" % i, abs(a[i]), q)

    prop = _proportionality_residuals([profiles[q] for q in grid])
    worst = int(np.argmax(prop))   # the first node on ties
    res["proportionality-ttr"] = ResidualStat(float(prop[worst]), grid[worst])
    res["__regime__"] = ResidualStat(0.0, (regime, regime))
    return res


def _status(values: Sequence[float], scale: float, tols: Tolerances) -> str:
    mx = max(abs(v) for v in values)
    if mx < tols.zero * scale:
        return "zero"
    if mx > tols.nonzero:
        return "nonzero"
    return "gap"


def assign_class(conn: ConnectionProfile, grid: Sequence[tuple],
                 profiles: Optional[dict] = None,
                 tols: Tolerances = Tolerances()) -> Optional[int]:
    """Class 1..5 per the (D, E, F) / tr-corner decision tree; None when the
    gap band makes the verdict undetermined."""
    grid = list(grid)
    if profiles is None:
        profiles = {q: curvature_profile(conn, *q) for q in grid}
    regime = {profiles[q].corner for q in grid}
    scale = 1.0 + max(float(np.max(np.abs(profiles[q].a_values()))) for q in grid)

    if regime == {W_CORNER_GENERIC}:
        D = [profiles[q].DEF[0] for q in grid]
        E = [profiles[q].DEF[1] for q in grid]
        F = [profiles[q].DEF[2] for q in grid]
        Dst = _status(D, scale, tols)
        if Dst == "nonzero":
            return 1
        if Dst == "gap":
            return None
        Est, Fst = _status(E, scale, tols), _status(F, scale, tols)
        if Est == "nonzero" and Fst == "nonzero":
            return 2
        if Est == "zero" and Fst == "zero":
            return 3
        if "gap" in (Est, Fst):
            return None
        raise MixedClass("D = 0 but E/F signatures disagree",
                         {"E": Est, "F": Fst})
    if regime == {W_CORNER_ZERO}:
        tr = [max(abs(profiles[q].a[i].value) for i in range(1, 6)) for q in grid]
        st = _status(tr, scale, tols)
        if st == "zero":
            return 4
        if st == "nonzero":
            return 5
        return None
    raise MixedClass("w-corner regime changes across the grid", {})


def classify(conn: ConnectionProfile, grid: Sequence[tuple],
             samples: Optional[Sequence[TangentPoint]] = None,
             seed: int = 20240601, n_samples: int = 25,
             tols: Tolerances = Tolerances()) -> ClassificationReport:
    """Full classification pipeline; see the module docstring."""
    grid = list(grid)
    report = ClassificationReport()
    profiles = {q: curvature_profile(conn, *q) for q in grid}

    res = check_finsler_constraints(conn, grid, profiles)
    regime = res.pop("__regime__").at[0]
    # curvature scale 1 + max_i |a_i| of each node; the largest is the grid's
    node_scale = [1.0 + float(np.max(np.abs(profiles[q].a_values()))) for q in grid]
    scale = max(node_scale)
    worst = max(s.value for s in res.values())
    if worst < tols.zero * scale:
        report.finsler_metrizable = "yes"
    elif worst > tols.nonzero:
        report.finsler_metrizable = "no"
    else:
        report.finsler_metrizable = "undetermined"
    report.evidence.update(res)
    report.evidence["constraint_scale"] = scale
    report.evidence["w_corner_regime"] = regime
    report.evidence["grid_size"] = len(grid)

    # Ricci asymmetry: signed value of largest magnitude over the grid, and
    # the node where it is largest against that node's curvature scale
    ric = [profiles[q].ricci_asymmetry() for q in grid]
    report.ricci_asymmetry = float(max(ric, key=abs))
    ratio = [abs(x) / s for x, s in zip(ric, node_scale)]
    witness = int(np.argmax(ratio))
    report.evidence["ricci_witness"] = ResidualStat(ratio[witness], grid[witness])

    if samples is None:
        rng = np.random.default_rng(seed)
        tmin = min(q[0] for q in grid)
        tmax = max(q[0] for q in grid)
        rmin = min(q[1] for q in grid)
        rmax = max(q[1] for q in grid)
        samples = sample_tangent_points(rng, (tmin, tmax), (rmin, rmax),
                                        max(n_samples, 20))
    rank, raw_rank, _per = holonomy_rank_details(conn, samples, tols.rank_svd)
    report.holonomy_rank = rank
    report.evidence["holonomy_rank_raw"] = raw_rank
    report.evidence["seed"] = seed

    if report.finsler_metrizable == "yes":
        label = assign_class(conn, grid, profiles, tols)
        report.class_label = label
        if label == 1:
            D = np.array([profiles[q].DEF[0] for q in grid])
            F = np.array([profiles[q].DEF[2] for q in grid])
            lam = F / D
            report.evidence["lambda"] = float(np.mean(lam))
            report.evidence["lambda_variance"] = float(np.var(lam))
            if abs(float(np.mean(lam)) - 1.0) < 1e-8:
                report.class_label = None
                report.riemann_metrizable = (
                    "yes (lambda = 1: the input is the Levi-Civita connection of a "
                    "Riemannian metric; trivially Finslerian, outside the taxonomy)")
                report.notes.append("lambda = F/D equals 1")
        if label == 5:
            quad = [profiles[q].a[1].value * profiles[q].a[4].value
                    - profiles[q].a[2].value * profiles[q].a[3].value for q in grid]
            variant = [profiles[q].a[1].value * profiles[q].a[3].value
                       - profiles[q].a[2].value * profiles[q].a[4].value for q in grid]
            report.evidence["a1a4-a2a3_min_abs"] = float(min(abs(v) for v in quad))
            report.evidence["a1a3-a2a4_min_abs"] = float(min(abs(v) for v in variant))
            report.notes.append(
                "class-5 nondegeneracy uses a1*a4 - a2*a3 (the lemma's form); the "
                "section-level variant a1*a3 - a2*a4 is reported alongside")
            if _status(quad, scale, tols) != "nonzero":
                report.class_label = None
                report.notes.append("a1*a4 - a2*a3 not bounded away from zero: "
                                    "class-5 premises fail")
    elif report.finsler_metrizable == "no":
        report.class_label = None
        report.notes.append("metrizability constraints violated; no class assigned")

    report = _riemann_verdict(conn, report, grid, profiles, tols)
    _cross_check(report, tols)
    return report


def _riemann_verdict(conn: ConnectionProfile, report: ClassificationReport,
                     grid, profiles, tols: Tolerances) -> ClassificationReport:
    if report.riemann_metrizable != "undetermined":
        return report  # lambda = 1 special case already decided
    label = report.class_label
    if label in (1, 2):
        report.riemann_metrizable = "no"
    elif label in (3, 4):
        report.riemann_metrizable = "yes"
    elif label == 5:
        s = [profiles[q].a[1].value + profiles[q].a[4].value for q in grid]
        scale = report.evidence.get("constraint_scale", 1.0)
        st = _status(s, scale, tols)
        report.evidence["a1+a4_max_abs"] = float(max(abs(v) for v in s))
        if st == "zero":
            report.riemann_metrizable = "yes"
        elif st == "nonzero":
            report.riemann_metrizable = "no"
        else:
            report.riemann_metrizable = "undetermined"
        report.notes.append("class 5: Riemann metrizability decided by a1 + a4 "
                            "(a5 vanishes in this regime)")
    else:
        # no class: necessary conditions can still refuse
        if report.evidence["ricci_witness"].value > tols.ricci:
            report.riemann_metrizable = "no"
            report.notes.append("Ricci tensor not symmetric: necessary condition fails")
        elif report.holonomy_rank >= 3 and report.finsler_metrizable == "no":
            report.riemann_metrizable = "undetermined"
        elif report.holonomy_rank >= 3:
            report.riemann_metrizable = "no"
            report.notes.append("vertical holonomy rank 3: necessary condition fails")
    return report


def _cross_check(report: ClassificationReport, tols: Tolerances):
    label = report.class_label
    rank = report.holonomy_rank
    if label in (1, 2) and rank != 3:
        raise InternalInconsistency(
            "class %s requires holonomy rank 3 but rank %d was measured "
            "(tolerance failure?)" % (label, rank))
    if label in (3, 5) and rank > 2:
        raise InternalInconsistency(
            "class %s requires holonomy rank <= 2 but rank %d was measured"
            % (label, rank))
    if label == 4 and rank != 1:
        raise InternalInconsistency("class 4 requires holonomy rank 1, got %d" % rank)
    if report.riemann_metrizable == "yes":
        if rank > 2:
            raise InternalInconsistency("Riemann-metrizable verdict with rank %d" % rank)
        if report.evidence["ricci_witness"].value > tols.ricci:
            raise InternalInconsistency(
                "Riemann-metrizable verdict with asymmetric Ricci (%.3g)"
                % report.ricci_asymmetry)
