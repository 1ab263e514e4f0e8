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

from .geometry_core import (R, T, ConnectionProfile, CurvatureGrid,
                            W_CORNER_GENERIC, W_CORNER_K10_DEGENERATE, W_CORNER_ZERO,
                            K10Degenerate, NonFiniteData, UnsupportedConnection,
                            _bracket_rows, curvature_grid, holonomy_rank_details,
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


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis from one dot product per vector,
    as `np.linalg.norm` takes them of a single vector (its axis form sums in
    another order)."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _proportionality_residuals(cg: CurvatureGrid) -> np.ndarray:
    """Defect of [delta_t, [delta_t, delta_r]] ~ [delta_t, delta_r] and of the
    delta_r analogue at each node, maximized over the probe velocities.

    The brackets [t, r], [t, [t, r]] and [r, [t, r]] are `_bracket_rows` of
    the (t, r) pair at each node and probe velocity.  The
    residual is the largest 2x2 minor of a second-level row against the
    first-level one over the product of their norms.  A vector whose norm is
    at or below the node's round-off floor 1e-12 s^2, with s = 1 + the largest
    |k_i|, |a_i| or partial of an a_i there, counts as zero (trivially
    parallel), so that pure cancellation noise is not normalized into an O(1)
    direction.  Raises `NonFiniteData` at the first node where s^2 overflows.
    """
    n, nvel = len(cg), len(_PROBE_VELOCITIES)
    scale = 1.0 + np.maximum(np.max(np.abs(cg.a), axis=(1, 2)), np.max(np.abs(cg.k), axis=1))
    with np.errstate(over="ignore"):
        floor = 1e-12 * scale ** 2
    bad = np.flatnonzero(np.isinf(floor))
    if bad.size:
        raise NonFiniteData("squared curvature scale overflows at (t, r) = (%g, %g)"
                            % (cg.t[bad[0]], cg.r[bad[0]]))
    node = np.repeat(np.arange(n), nvel)
    rows = _bracket_rows(cg.k[node], cg.a[node], np.full(n * nvel, _PROBE_THETA),
                         np.tile(_PROBE_VELOCITIES, (n, 1)), 2, pairs=((T, R),))
    rows = rows[:, :3].reshape(n, nvel, 3, 4)
    first = rows[:, :, 0]                            # node, velocity, e
    second = rows[:, :, 1:].transpose(0, 2, 1, 3)    # node, c, velocity, e
    minors = np.zeros(second.shape[:-1])
    for i in range(4):
        for j in range(i + 1, 4):
            minors = np.maximum(minors, np.abs(second[..., i] * first[:, None, :, j]
                                               - second[..., j] * first[:, None, :, i]))
    n_first = _norms(first)[:, None]
    n_second = _norms(second)
    resolved = (n_second > floor[:, None, None]) & (n_first > floor[:, None, None])
    ratio = np.divide(minors, n_second * n_first, out=np.zeros_like(minors),
                      where=resolved)
    return ratio.max(axis=(1, 2))


def _worst(values: np.ndarray, grid: Sequence[tuple]) -> ResidualStat:
    """The largest value and its node; the first node on ties."""
    i = int(np.argmax(values))
    return ResidualStat(float(values[i]), grid[i])


def check_finsler_constraints(conn: ConnectionProfile, grid: Sequence[tuple],
                              cg: CurvatureGrid) -> dict:
    """Residual map of the algebraic metrizability constraints over the grid.

    Returns name -> ResidualStat; the caller owns thresholds.  Raises
    K10Degenerate / MixedClass when the w-corner regime is unusable, and
    UnsupportedConnection for k11/k12.  ``cg`` is the grid's `curvature_grid`.
    """
    grid = list(grid)
    conn.require_classifiable(grid)

    kinds = set(cg.corner.tolist())
    if W_CORNER_K10_DEGENERATE in kinds:
        bad = np.flatnonzero(cg.corner == W_CORNER_K10_DEGENERATE)
        raise K10Degenerate(
            "k10 vanishes against a nonzero w-corner at %d grid points (first: %s); "
            "(a, b, c) undefined there" % (len(bad), grid[bad[0]]))
    if kinds == {W_CORNER_GENERIC, W_CORNER_ZERO}:
        part = {"generic": int(np.sum(cg.corner == W_CORNER_GENERIC)),
                "w_zero": int(np.sum(cg.corner == W_CORNER_ZERO))}
        raise MixedClass("w-corner regime changes across the grid", part)
    regime = kinds.pop()

    a = {i: cg.a[:, i - 1, 0] for i in range(1, 15)}
    if regime == W_CORNER_GENERIC:
        aa, bb, cc = cg.abc.T
        A = bb * (aa * a[1] + a[2]) + (aa * bb + cc) * (aa * a[3] + a[4]) \
            - a[5] * (2 * aa * bb + cc)
        B = aa * (aa * a[3] + a[4]) - (aa * a[1] + a[2])
        C = (aa * bb + cc) * a[3] + bb * (aa * a[3] + a[4]) + bb * (a[1] - 2 * a[5])
        residuals = {"A": A, "B": B, "C": C,
                     "a6-a*a7": a[6] - aa * a[7],
                     "a8-b*a7": a[8] - bb * a[7],
                     "a9-(ab+c)*a7": a[9] - (aa * bb + cc) * a[7],
                     "a10-a*a11": a[10] - aa * a[11],
                     "a12-b*a11": a[12] - bb * a[11],
                     "a13-(ab+c)*a11": a[13] - (aa * bb + cc) * a[11]}
    else:
        residuals = {"a%d" % i: a[i] for i in range(6, 14)}
    res = {name: _worst(np.abs(v), grid) for name, v in residuals.items()}
    res["proportionality-ttr"] = _worst(_proportionality_residuals(cg), grid)
    res["__regime__"] = ResidualStat(0.0, (regime, regime))
    return res


def _status(values: np.ndarray, scale: float, tols: Tolerances) -> str:
    mx = float(np.max(np.abs(values)))
    if mx < tols.zero * scale:
        return "zero"
    if mx > tols.nonzero:
        return "nonzero"
    return "gap"


def assign_class(cg: CurvatureGrid, tols: Tolerances = Tolerances()) -> Optional[int]:
    """Class 1..5 per the (D, E, F) / tr-corner decision tree on the grid's
    `curvature_grid` ``cg``; None when the gap band makes the verdict
    undetermined."""
    regime = set(cg.corner.tolist())
    scale = 1.0 + float(np.max(np.abs(cg.a[:, :, 0])))

    if regime == {W_CORNER_GENERIC}:
        D, E, F = cg.DEF.T
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
        st = _status(cg.a[:, :5, 0], scale, tols)
        if st == "zero":
            return 4
        if st == "nonzero":
            return 5
        return None
    raise MixedClass("w-corner regime changes across the grid", {})


def classify(conn: ConnectionProfile, grid: Sequence[tuple], seed: int = 20240601,
             tols: Tolerances = Tolerances()) -> ClassificationReport:
    """Full classification pipeline; see the module docstring."""
    grid = list(grid)
    report = ClassificationReport()
    cg = curvature_grid(conn, grid)
    a = {i: cg.a[:, i - 1, 0] for i in range(1, 6)}

    res = check_finsler_constraints(conn, grid, cg)
    regime = res.pop("__regime__").at[0]
    # curvature scale 1 + max_i |a_i| of each node; the largest is the grid's
    node_scale = 1.0 + np.max(np.abs(cg.a[:, :, 0]), axis=1)
    scale = float(np.max(node_scale))
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
    ric = a[1] + a[4] + 2.0 * a[5]
    report.ricci_asymmetry = float(ric[np.argmax(np.abs(ric))])
    report.evidence["ricci_witness"] = _worst(np.abs(ric) / node_scale, grid)

    rng = np.random.default_rng(seed)
    tmin = min(q[0] for q in grid)
    tmax = max(q[0] for q in grid)
    rmin = min(q[1] for q in grid)
    rmax = max(q[1] for q in grid)
    samples = sample_tangent_points(rng, (tmin, tmax), (rmin, rmax), 25)
    rank, raw_rank, _per = holonomy_rank_details(conn, samples, tols.rank_svd)
    report.holonomy_rank = rank
    report.evidence["holonomy_rank_raw"] = raw_rank
    report.evidence["seed"] = seed

    if report.finsler_metrizable == "yes":
        label = assign_class(cg, tols)
        report.class_label = label
        if label == 1:
            lam = cg.DEF[:, 2] / cg.DEF[:, 0]
            report.evidence["lambda"] = float(np.mean(lam))
            report.evidence["lambda_variance"] = float(np.var(lam))
            if abs(float(np.mean(lam)) - 1.0) < 1e-8:
                report.class_label = None
                report.riemann_metrizable = (
                    "yes (lambda = 1: the input is the Levi-Civita connection of a "
                    "Riemannian metric; trivially Finslerian, outside the taxonomy)")
                report.notes.append("lambda = F/D equals 1")
        if label == 5:
            quad = a[1] * a[4] - a[2] * a[3]
            variant = a[1] * a[3] - a[2] * a[4]
            report.evidence["a1a4-a2a3_min_abs"] = float(np.min(np.abs(quad)))
            report.evidence["a1a3-a2a4_min_abs"] = float(np.min(np.abs(variant)))
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

    report = _riemann_verdict(report, a[1] + a[4], tols)
    _cross_check(report, tols)
    return report


def _riemann_verdict(report: ClassificationReport, a1_plus_a4: np.ndarray,
                     tols: Tolerances) -> ClassificationReport:
    if report.riemann_metrizable != "undetermined":
        return report  # lambda = 1 special case already decided
    label = report.class_label
    if label in (1, 2):
        report.riemann_metrizable = "no"
    elif label in (3, 4):
        report.riemann_metrizable = "yes"
    elif label == 5:
        scale = report.evidence.get("constraint_scale", 1.0)
        st = _status(a1_plus_a4, scale, tols)
        report.evidence["a1+a4_max_abs"] = float(np.max(np.abs(a1_plus_a4)))
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
