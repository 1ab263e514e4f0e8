"""Connection/curvature data model and pointwise geometric computations.

The connection is the general SO(3)-invariant torsion-free one in spherical
coordinates (t, r, theta, phi), parametrized by twelve coefficient functions
k1..k12 of (t, r).  Its nonlinear-connection curvature is described by
fourteen coefficient functions a1..a14 of (t, r); the six horizontal Lie
brackets [delta_a, delta_b] are vertical vectors linear in the velocities
with those coefficients, and second-level brackets follow from

    [delta_c, [delta_a, delta_b]] = (delta_c R^e_ab + R^d_ab Gamma^e_cd) ddot_e.

The vertical span of all of these, maximized over sample points, gives the
holonomy-distribution rank used by the classifier.

`curvature_profile` evaluates one point; `curvature_grid` evaluates many at
once on numpy arrays, and the bracket matrices and their ranks are array
passes over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .scalar_field import (_LEAN_POINTS, DomainError, Partials, ScalarField, compile_program,
                           derivative)

T, R, TH, PH = range(4)
COORD_NAMES = ("t", "r", "theta", "phi")

_CORNER_TOL = 1e-10   # a k_i below this times (1 + max |k_i|) counts as zero
_MIN_SAMPLES = 20     # fewest admissible samples a holonomy rank is read from
_MAX_TRIES = 20000    # sample draws before a too-strict predicate is reported


class GeometryError(ValueError):
    pass


class UnsupportedConnection(GeometryError):
    """k11/k12 outside the classified 10-function family."""


class K10Degenerate(GeometryError):
    """k10 vanishes while the rest of the w-corner does not; (a, b, c) undefined."""


class InsufficientSamples(GeometryError):
    pass


class NonFiniteData(GeometryError):
    """A coefficient is infinite, NaN or overflows at a grid node."""


def _located(name: str, evaluate, t: float, r: float):
    """``evaluate(t, r)``, its failure raised again naming ``name`` and the point."""
    try:
        return evaluate(t, r)
    except DomainError as exc:
        raise DomainError("%s at (t, r) = (%g, %g): %s" % (name, t, r, exc)) from None
    except OverflowError as exc:
        raise NonFiniteData("%s overflows at (t, r) = (%g, %g): %s" % (name, t, r, exc)) from None


# ---------------------------------------------------------------------------
# Tangent points and connection profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentPoint:
    t: float
    r: float
    theta: float
    phi: float
    tdot: float
    rdot: float
    thetadot: float
    phidot: float

    def __post_init__(self):
        if self.tdot == self.rdot == self.thetadot == self.phidot == 0.0:
            raise ValueError("zero velocity: point must lie in TM minus the zero section")
        if math.sin(self.theta) == 0.0:
            raise ValueError("sin(theta) = 0: outside the spherical chart")

    @property
    def velocity(self) -> np.ndarray:
        return np.array([self.tdot, self.rdot, self.thetadot, self.phidot])

    def state(self) -> np.ndarray:
        return np.array([self.t, self.r, self.theta, self.phi,
                         self.tdot, self.rdot, self.thetadot, self.phidot])


class ConnectionProfile:
    """The twelve k_i(t, r) of an SO(3)-invariant torsion-free connection.

    Missing entries default to the zero field.  Keys of ``fields`` are 1..12;
    k1..k12 are Gamma^t_tt, Gamma^t_tr, Gamma^t_rr, Gamma^r_tt, Gamma^r_rr,
    Gamma^r_tr, Gamma^t_thth, Gamma^ph_pht, Gamma^ph_phr, Gamma^r_thth,
    sin(th) Gamma^ph_tth and sin(th) Gamma^ph_rth (see `christoffel_table`).
    ``params`` binds the parameters of each k_i as `ScalarField` does; a
    field's own bound values stay.
    """

    def __init__(self, fields: Mapping[int, object], params: Mapping[str, float] | None = None):
        self.k = tuple(ScalarField.zero() if f is None else ScalarField(f, params)
                       for f in map(fields.get, range(1, 13)))  # k[0] is k1
        self._run = None   # k1..k12 as one program, compiled on first use
        self._curvature_fields = None
        self._curvature_runs = None
        self._grids = {}   # the bytes of a point set -> its `curvature_grid` and where it ran

    def k_field(self, i: int) -> ScalarField:
        return self.k[i - 1]

    def k_values(self, t, r) -> np.ndarray:
        """k1..k12 at (t, r); where t and r are arrays, one row per point
        from one array run.  Where a point fails, the first k_i that fails or
        is not finite there names the error of the first such point."""
        if self._run is None:
            self._run = compile_program(self.k)
        if np.ndim(t):
            out, ok = self._run.on_arrays({"t": t, "r": r})
            if not ok.all():
                i = int(np.argmin(ok))
                self.k_values(t[i], r[i])
            return out
        t, r = float(t), float(r)
        try:
            out = self._run({"t": t, "r": r})
        except (DomainError, OverflowError):
            out = [_located("k%d" % i, f.value, t, r) for i, f in enumerate(self.k, start=1)]
        for i, v in enumerate(out, start=1):
            if not math.isfinite(v):
                raise NonFiniteData("k%d is not finite at (t, r) = (%g, %g)" % (i, t, r))
        return np.array([float(v) for v in out])

    def _curvature_quantities(self, which: int) -> list:
        """(name, field) of `_curvature`'s program ``which``: 0 is k1..k12,
        then each a_i with its t- and r-partial by `derivative`; 1 is
        (a, b, c), (D, E, F), (G, Gt, H, Ht)."""
        a, abc, DEF, GH = self.curvature_fields()
        if which == 1:
            return list(zip(("a", "b", "c", "D", "E", "F", "G", "Gt", "H", "Ht"), abc + DEF + GH))
        out = [("k%d" % i, f) for i, f in enumerate(self.k, start=1)]
        at, ar = (derivative(tuple(a[i] for i in range(1, 15)), v) for v in "tr")
        for i in range(1, 15):
            out += [("a%d" % i, a[i]), ("da%d/dt" % i, at[i - 1]), ("da%d/dr" % i, ar[i - 1])]
        return out

    def _curvature_programs(self) -> list:
        """The two programs of `_curvature_quantities`, compiled on first use."""
        if self._curvature_runs is None:
            self._curvature_runs = [compile_program([f for _, f in self._curvature_quantities(w)])
                                    for w in (0, 1)]
        return self._curvature_runs

    def _curvature(self, which: int, t: float, r: float) -> tuple:
        """Float program ``which`` of `curvature_profile` at (t, r).

        Where it fails or an output is not finite, the k_i jets (each k_i
        with its first partials, `ScalarField.jet`) locate the failure: the
        first k_i whose jet fails, else the first whose jet is not finite;
        else it is the first output that fails or is not finite on its own."""
        try:
            out = self._curvature_programs()[which]({"t": t, "r": r})
            if all(map(math.isfinite, out)):
                return out
        except (DomainError, OverflowError):
            pass
        jets = [_located("k%d" % i, f.jet, t, r) for i, f in enumerate(self.k, start=1)]
        for i, j in enumerate(jets, start=1):
            if not all(map(math.isfinite, j)):
                raise NonFiniteData("k%d is not finite at (t, r) = (%g, %g): %r" % (i, t, r, j))
        for name, f in self._curvature_quantities(which):
            if not math.isfinite(_located(name, f.value, t, r)):
                raise NonFiniteData("%s is not finite at (t, r) = (%g, %g)" % (name, t, r))
        raise NonFiniteData("curvature is not finite at (t, r) = (%g, %g)" % (t, r))

    def has_angular_rotation(self) -> bool:
        """True when k11 or k12 is structurally present."""
        return not (self.k[10].is_structural_zero() and self.k[11].is_structural_zero())

    def require_classifiable(self, grid: Sequence[tuple] = ()):
        """The classification covers the 10-function family only (k11 = k12 = 0):
        one `k_values` run over ``grid``, the first node in its order raising."""
        if not self.has_angular_rotation():
            return
        if not grid:
            raise UnsupportedConnection("k11/k12 structurally nonzero")
        t, r = np.array(grid, dtype=float).reshape(-1, 2).T
        bad = np.any(np.abs(self.k_values(t, r)[:, 10:]) > 1e-12, axis=1)
        if bad.any():
            raise UnsupportedConnection("k11/k12 nonzero at (t, r) = (%g, %g); outside the "
                                        "classified family" % tuple(grid[int(np.argmax(bad))]))

    def curvature_fields(self) -> tuple:
        """`curvature_formulas` of the k_i: a1..a14, (a, b, c), (D, E, F) and
        (G, Gt, H, Ht) as closed-form ScalarFields, built on first use."""
        if self._curvature_fields is None:
            self._curvature_fields = curvature_formulas(self.k)
        return self._curvature_fields


# ---------------------------------------------------------------------------
# Curvature coefficients
# ---------------------------------------------------------------------------

W_CORNER_GENERIC = "generic"
W_CORNER_ZERO = "w_zero"
W_CORNER_K10_DEGENERATE = "k10_degenerate"


@dataclass
class CurvatureProfile:
    t: float
    r: float
    a: dict                      # 1..14 -> Partials
    corner: str                  # one of the W_CORNER_* markers
    abc: Optional[tuple] = None  # (a, b, c) when defined
    DEF: Optional[tuple] = None  # (D, E, F) when abc defined
    GH: Optional[tuple] = None   # (G, Gtilde, H, Htilde) when abc defined
    k: tuple = ()                # k1..k12


@dataclass(eq=False)
class CurvatureGrid:
    """`CurvatureProfile` of n points as arrays; ``a[:, i - 1]`` is a_i with
    its (t, r)-partials, and the rows of abc, DEF and GH are NaN where the
    node is not generic."""
    t: np.ndarray         # (n,)
    r: np.ndarray         # (n,)
    k: np.ndarray         # (n, 12): k1..k12
    a: np.ndarray         # (n, 14, 3): a_i, d/dt, d/dr
    corner: np.ndarray    # (n,): W_CORNER_* markers
    abc: np.ndarray       # (n, 3)
    DEF: np.ndarray       # (n, 3)
    GH: np.ndarray        # (n, 4)

    def __len__(self) -> int:
        return len(self.k)

    @classmethod
    def from_profiles(cls, profiles: Sequence[CurvatureProfile]) -> "CurvatureGrid":
        def rows(name, width):
            return np.array([getattr(cp, name) or (math.nan,) * width for cp in profiles])
        return cls(np.array([cp.t for cp in profiles], dtype=float),
                   np.array([cp.r for cp in profiles], dtype=float),
                   np.array([cp.k for cp in profiles]),
                   np.array([[cp.a[i] for i in range(1, 15)] for cp in profiles]),
                   np.array([cp.corner for cp in profiles]),
                   rows("abc", 3), rows("DEF", 3), rows("GH", 4))


def curvature_formulas(k: Sequence[ScalarField]) -> tuple:
    """a1..a14 (a dict), (a, b, c), (D, E, F) and (G, Gt, H, Ht) as fields
    of k1..k12 (``k[0]`` is k1) and their (t, r)-partials by `derivative`;
    (a, b, c) and what depends on them are defined where k10 != 0."""
    k = dict(enumerate(k, start=1))
    kt, kr = (dict(zip(k, derivative(tuple(k.values()), v))) for v in "tr")
    a = {
        1: kr[1] - kt[2] + k[3] * k[4] - k[2] * k[6],
        2: kr[2] - kt[3] + k[2] * k[2] + k[3] * k[6] - k[1] * k[3] - k[2] * k[5],
        3: kr[4] - kt[6] + k[1] * k[6] + k[4] * k[5] - k[2] * k[4] - k[6] * k[6],
        4: kr[6] - kt[5] + k[2] * k[6] - k[3] * k[4],
        5: kr[8] - kt[9],
        6: -kt[7] + k[7] * k[8] - k[1] * k[7] - k[2] * k[10],
        7: -kt[10] + k[8] * k[10] - k[4] * k[7] - k[6] * k[10],
        8: -kt[8] + k[1] * k[8] + k[4] * k[9] - k[8] * k[8],
        9: -kt[9] + k[2] * k[8] + k[6] * k[9] - k[8] * k[9],
        10: -kr[7] + k[7] * k[9] - k[2] * k[7] - k[3] * k[10],
        11: -kr[10] + k[9] * k[10] - k[6] * k[7] - k[5] * k[10],
        12: -kr[8] + k[2] * k[8] + k[6] * k[9] - k[8] * k[9],
        13: -kr[9] + k[3] * k[8] + k[5] * k[9] - k[9] * k[9],
        14: 1.0 + k[7] * k[8] + k[9] * k[10],
    }
    aa = k[7] / k[10]
    bb = k[8] / k[10]
    cc = (k[9] * k[10] - k[7] * k[8]) / (k[10] * k[10])
    G = 2.0 * (k[1] - k[4] * aa)
    H = 2.0 * (k[2] - k[6] * aa)
    return (a, (aa, bb, cc), (aa * a[3] - a[1] + a[5], bb * a[3], aa * a[3] - a[1]),
            (G, G - 2.0 * k[8], H, H - 2.0 * k[9]))


def _corners(k: np.ndarray) -> np.ndarray:
    """The w-corner marker of each row k1..k12 of ``k``.

    It records whether (a, b, c) are defined there: they need k10 != 0; if
    the whole corner k7, k8, k9, k10 vanishes the connection sits in the
    [delta_t, delta_r]-only regime instead.
    """
    tol = _CORNER_TOL * (1.0 + np.max(np.abs(k), axis=-1))
    w = np.abs(k[..., 6:10])
    return np.where(np.max(w, axis=-1) <= tol, W_CORNER_ZERO,
                    np.where(w[..., 3] <= tol, W_CORNER_K10_DEGENERATE, W_CORNER_GENERIC))


def curvature_profile(conn: ConnectionProfile, t: float, r: float) -> CurvatureProfile:
    """All fourteen a_i with first partials, plus (a, b, c), (D, E, F), (G, ...)
    where the w-corner marker (`_corners`) says they are defined."""
    out = conn._curvature(0, float(t), float(r))
    k = out[:12]
    corner = _corners(np.array(k)).item()
    a = {i: Partials(*out[9 + 3 * i:12 + 3 * i]) for i in range(1, 15)}
    if corner != W_CORNER_GENERIC:
        return CurvatureProfile(t=t, r=r, a=a, corner=corner, k=k)
    g = conn._curvature(1, float(t), float(r))
    return CurvatureProfile(t=t, r=r, a=a, corner=corner, abc=g[:3], DEF=g[3:6],
                            GH=g[6:], k=k)


def _points_key(points: Sequence[tuple]) -> tuple:
    """The (t, r) of ``points`` as two float arrays, and their bytes, which
    tell -0.0 from 0.0 where a tuple of floats would not."""
    tr = np.array(points, dtype=float).reshape(-1, 2)
    return tr[:, 0], tr[:, 1], tr.tobytes()


def curvature_grid(conn: ConnectionProfile, points: Sequence[tuple],
                   also: Sequence[Sequence[tuple]] = ()) -> CurvatureGrid:
    """`curvature_profile` at each (t, r) of ``points``, as read-only arrays.

    Each program runs once per point set and job: ``conn`` keeps the grid of
    every point set it has evaluated, and a later call on the same points
    reads it.  The point sets of ``also`` are evaluated in the same runs, as
    long as all of them together stay below `_LEAN_POINTS` points, and kept
    for their own later call.  The first program runs on every point, the
    second on the generic ones.  Where either fails at a point of
    ``points``, `curvature_profile` at the first such point raises its
    located error; a failure in a set of ``also`` is raised by that set's
    own call."""
    t, r, key = _points_key(points)
    if key not in conn._grids:
        sets = {key: (t, r)}
        for t2, r2, key2 in map(_points_key, also):
            if key2 not in conn._grids:
                sets.setdefault(key2, (t2, r2))
        if sum(len(q[0]) for q in sets.values()) >= _LEAN_POINTS:
            sets = {key: (t, r)}
        _evaluate(conn, sets)
    cg, ok = conn._grids[key]
    if not ok.all():
        i = int(np.argmin(ok))
        curvature_profile(conn, t[i], r[i])
        raise NonFiniteData("curvature is not finite at (t, r) = (%g, %g)" % (t[i], r[i]))
    return cg


def _evaluate(conn: ConnectionProfile, sets: dict) -> None:
    """Run both curvature programs once on all the point sets ``sets``, key
    -> (t, r) of `_points_key`, and keep with ``conn``, under each key, the
    set's read-only grid and whether both programs ran at each point."""
    t = np.concatenate([q[0] for q in sets.values()])
    r = np.concatenate([q[1] for q in sets.values()])
    first, second = conn._curvature_programs()
    out, ok = first.on_arrays({"t": t, "r": r})
    corner = _corners(out[:, :12])
    generic = corner == W_CORNER_GENERIC
    g = np.full((len(t), 10), math.nan)
    if generic.any():
        g[generic], ok_generic = second.on_arrays({"t": t[generic], "r": r[generic]})
        ok[generic] &= ok_generic
    for arr in (t, r, out, corner, g, ok):
        arr.flags.writeable = False
    start = 0
    for key, (ts, _rs) in sets.items():
        rows = slice(start, start + len(ts))
        start = rows.stop
        conn._grids[key] = (CurvatureGrid(t[rows], r[rows], out[rows, :12],
                                          out[rows, 12:].reshape(-1, 14, 3), corner[rows],
                                          g[rows, :3], g[rows, 3:6], g[rows, 6:]), ok[rows])


# ---------------------------------------------------------------------------
# Christoffel table and spray
# ---------------------------------------------------------------------------

def christoffel_table(kvals, theta) -> np.ndarray:
    """Gamma[e, c, d] at a point, including the explicit theta entries; at n
    points (``kvals`` (n, 12) and an array ``theta``) an (n, 4, 4, 4) array."""
    k = np.asarray(kvals, dtype=float).T     # k[i - 1] is k_i, or its row over the points
    if isinstance(theta, np.ndarray):
        s, c = np.sin(theta), np.cos(theta)
        off_chart = not s.all()
    else:
        s, c = math.sin(theta), math.cos(theta)
        off_chart = s == 0.0
    if off_chart:
        raise GeometryError("chart breaks down at sin(theta) = 0")
    G = np.zeros((4, 4, 4) + k.shape[1:])    # the points' axis last while filling
    G[T, T, T] = k[0]
    G[T, T, R] = G[T, R, T] = k[1]
    G[T, R, R] = k[2]
    G[T, TH, TH] = k[6]
    G[T, PH, PH] = k[6] * s * s
    G[R, T, T] = k[3]
    G[R, T, R] = G[R, R, T] = k[5]
    G[R, R, R] = k[4]
    G[R, TH, TH] = k[9]
    G[R, PH, PH] = k[9] * s * s
    G[TH, T, TH] = G[TH, TH, T] = k[7]
    G[TH, R, TH] = G[TH, TH, R] = k[8]
    G[TH, PH, PH] = -s * c
    G[PH, T, PH] = G[PH, PH, T] = k[7]
    G[PH, R, PH] = G[PH, PH, R] = k[8]
    G[PH, TH, PH] = G[PH, PH, TH] = c / s
    if k[10:12].any():
        G[TH, T, PH] = G[TH, PH, T] = -k[10] * s
        G[TH, R, PH] = G[TH, PH, R] = -k[11] * s
        G[PH, T, TH] = G[PH, TH, T] = k[10] / s
        G[PH, R, TH] = G[PH, TH, R] = k[11] / s
    return np.moveaxis(G, -1, 0) if G.ndim > 3 else G


def spray_coefficients(conn: ConnectionProfile, p: TangentPoint) -> tuple:
    """G^a = (1/2) Gamma^a_bc xdot^b xdot^c (quadratic: Berwald by construction)."""
    kv = conn.k_values(p.t, p.r)
    Gam = christoffel_table(kv, p.theta)
    xd = p.velocity
    G = 0.5 * np.einsum("abc,b,c->a", Gam, xd, xd)
    return tuple(G)


# ---------------------------------------------------------------------------
# Bracket vectors
# ---------------------------------------------------------------------------

@dataclass
class BracketVector:
    label: tuple
    components: np.ndarray  # vertical components in the ddot basis


# R^e_ab component tables: per pair, per component e, a list of terms
# (coefficient index or signed pair, velocity index, carries sin^2 factor).
# Coefficient entries are (sign, i) meaning sign * a_i, or None for zero.
_R_TABLE = {
    (T, R): (((1, 1, T, False), (1, 2, R, False)),
             ((1, 3, T, False), (1, 4, R, False)),
             ((1, 5, TH, False),),
             ((1, 5, PH, False),)),
    (T, TH): (((1, 6, TH, False),),
              ((1, 7, TH, False),),
              ((1, 8, T, False), (1, 9, R, False)),
              ()),
    (T, PH): (((1, 6, PH, True),),
              ((1, 7, PH, True),),
              (),
              ((1, 8, T, False), (1, 9, R, False))),
    (R, TH): (((1, 10, TH, False),),
              ((1, 11, TH, False),),
              ((1, 12, T, False), (1, 13, R, False)),
              ()),
    (R, PH): (((1, 10, PH, True),),
              ((1, 11, PH, True),),
              (),
              ((1, 12, T, False), (1, 13, R, False))),
    (TH, PH): ((),
               (),
               ((-1, 14, PH, True),),
               ((1, 14, TH, False),)),
}

BRACKET_PAIRS = tuple(_R_TABLE.keys())
# row labels of `bracket_vectors`: the six pairs, then delta_c of each pair
BRACKET_LABELS = tuple((COORD_NAMES[a], COORD_NAMES[b]) for a, b in BRACKET_PAIRS) + tuple(
    (COORD_NAMES[c], (COORD_NAMES[a], COORD_NAMES[b])) for a, b in BRACKET_PAIRS for c in range(4))


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m[..., e, d] x[..., d], summed over d from left to right: one fixed
    order, so a point's values do not depend on the batch it is in."""
    out = m[..., 0] * x[..., None, 0]
    for d in (1, 2, 3):
        out = out + m[..., d] * x[..., None, d]
    return out


def _bracket_rows(k: np.ndarray, a: np.ndarray, theta: np.ndarray, vel: np.ndarray,
                  depth: int, pairs: Sequence[tuple] = BRACKET_PAIRS) -> np.ndarray:
    """Components of the brackets of ``pairs`` at n tangent points, ordered
    as `BRACKET_LABELS` orders them for all six pairs: (n, len(pairs), 4) at
    depth 1, (n, 5 len(pairs), 4) at depth 2.  Each point has k (n, 12) and
    a (n, 14, 3) at its (t, r), its theta (n,) and its velocity (n, 4).

    Each R^e_ab = A^e_d xdot^d, with A and its t-, r- and theta-partials
    read off `_R_TABLE`; the second-level rows are
        partial_c R^e - A^e_d N^d_c + Gamma^e_cd R^d,   N^d_c = Gamma^d_cf xdot^f.
    """
    n = len(vel)
    s, c = np.sin(theta), np.cos(theta)
    s2, ds2 = s * s, 2.0 * s * c
    grad = np.zeros((n, len(pairs), 4, 4, 4))   # point, pair, (A, A_t, A_r, A_theta), e, d
    for p, pair in enumerate(pairs):
        for e, terms in enumerate(_R_TABLE[pair]):
            for sign, i, d, has_s2 in terms:
                coef = sign * a[:, i - 1]
                if has_s2:
                    grad[:, p, :3, e, d] = coef * s2[:, None]
                    grad[:, p, 3, e, d] = coef[:, 0] * ds2
                else:
                    grad[:, p, :3, e, d] = coef
    rv = _apply(grad, vel[:, None, None, :])            # point, pair, (R, R_t, R_r, R_theta), e
    first = rv[:, :, 0]
    if depth == 1:
        return first
    gam = christoffel_table(k, theta)                    # point, e, c, d
    N = _apply(gam, vel[:, None, :])                     # point, d, c
    partial_c = np.concatenate([rv[:, :, 1:], np.zeros((n, len(pairs), 1, 4))], axis=2)
    second = partial_c - _apply(grad[:, :, 0, None], N.transpose(0, 2, 1)[:, None]) \
        + _apply(gam.transpose(0, 2, 1, 3)[:, None], first[:, :, None])   # point, pair, c, e
    return np.concatenate([first, second.reshape(n, -1, 4)], axis=1)


def bracket_vectors(conn: ConnectionProfile, p: TangentPoint, depth: int = 1,
                    cp: CurvatureProfile | None = None) -> list:
    """Vertical parts of [delta_a, delta_b] (depth 1) and of
    [delta_c, [delta_a, delta_b]] as well (depth 2).

    Valid for the classified family only (k11 = k12 = 0): the coefficient
    table encodes that case.
    """
    if depth not in (1, 2):
        raise ValueError("depth must be 1 or 2")
    if conn.has_angular_rotation():
        conn.require_classifiable([(p.t, p.r)])
    if cp is None or (cp.t, cp.r) != (p.t, p.r):
        cp = curvature_profile(conn, p.t, p.r)
    g = CurvatureGrid.from_profiles([cp])
    rows = _bracket_rows(g.k, g.a, np.array([p.theta]), p.velocity[None], depth)[0]
    return [BracketVector(label, row) for label, row in zip(BRACKET_LABELS, rows)]


def numeric_rank(mat: np.ndarray, tol: float = 1e-8):
    """Numerical rank of a matrix, or of each matrix of a stack."""
    sv = np.linalg.svd(mat, compute_uv=False)
    return np.sum(sv > tol * np.maximum(sv[..., :1], 1.0), axis=-1)


def vertical_holonomy_rank(conn: ConnectionProfile, samples: Sequence[TangentPoint],
                           tol: float = 1e-8) -> int:
    """Max over samples of the rank of the stacked depth-2 bracket components.

    The algebraic cap of 3 holds for any Finsler-metrizable connection; the
    raw rank is available through `holonomy_rank_details`.
    """
    rank, _raw, _per = holonomy_rank_details(conn, samples, tol)
    return rank


def holonomy_rank_details(conn: ConnectionProfile, samples: Sequence[TangentPoint],
                          tol: float = 1e-8):
    """(capped rank, raw rank, rank per sample): the `curvature_grid` of the
    samples' (t, r) (`classify` evaluates it with its grid's), every depth-2
    bracket matrix in one array pass and one stacked SVD."""
    samples = list(samples)
    if len(samples) < _MIN_SAMPLES:
        raise InsufficientSamples(
            "need at least %d admissible samples, got %d" % (_MIN_SAMPLES, len(samples)))
    points = [(p.t, p.r) for p in samples]
    if conn.has_angular_rotation():
        conn.require_classifiable(points)
    cg = curvature_grid(conn, points)
    mats = _bracket_rows(cg.k, cg.a, np.array([p.theta for p in samples]),
                         np.array([p.velocity for p in samples]), 2)
    per = numeric_rank(mats, tol).tolist()
    raw = max(per)
    return min(raw, 3), raw, per


# ---------------------------------------------------------------------------
# Sample generation
# ---------------------------------------------------------------------------

def sample_tangent_points(rng: np.random.Generator, t_range: tuple, r_range: tuple,
                          n: int, predicate=None, admit=None) -> list:
    """Random admissible points: tdot > 0, sin(theta) in [0.2, 0.98],
    velocity components in [-2, 2].  An optional predicate filters further,
    one point at a time, and an optional ``admit`` a batch: it maps a list
    of points to whether each is admitted.

    A candidate is nine uniform draws (t, r, sin(theta), the side of the
    equator, phi, tdot, rdot, thetadot, phidot).  Candidates come in chunks
    of one ``rng.random`` call each; once the n-th is accepted the generator
    is set back and advanced by the draws of the candidates used, so the
    points and the generator's next draw are those of drawing one candidate
    at a time.  In a chunk, ``admit`` sees every candidate with tdot > 1e-6,
    and the predicate, in order, those a one-at-a-time draw would show it.
    """
    lo = np.array([t_range[0], r_range[0], 0.2, 0.0, 0.0, 0.0, -2.0, -2.0, -2.0])
    hi = np.array([t_range[1], r_range[1], 0.98, 1.0, 2.0 * math.pi, 2.0, 2.0, 2.0, 2.0])
    pts = []
    tries = 0
    while len(pts) < n:
        if tries == _MAX_TRIES:
            raise InsufficientSamples("predicate rejected too many samples")
        # the tries the points still needed take at the acceptance so far, a quarter more
        need = n - len(pts)
        k = need * 5 * tries // (4 * max(len(pts), 1)) if tries else need
        k = min(k + 4, _MAX_TRIES - tries)
        state = rng.bit_generator.state
        draws = (lo + (hi - lo) * rng.random((k, 9))).tolist()
        cands = [(i, _candidate(d)) for i, d in enumerate(draws) if d[5] > 1e-6]
        admitted = admit([p for _, p in cands]) if admit is not None else None
        used = k
        for j, (i, p) in enumerate(cands):
            if predicate is not None and not predicate(p):
                continue
            if admitted is not None and not admitted[j]:
                continue
            pts.append(p)
            if len(pts) == n:
                used = i + 1
                break
        tries += used
        if used < k:
            rng.bit_generator.state = state
            rng.random(9 * used)
    return pts


def _candidate(d: list) -> TangentPoint:
    """The tangent point of one candidate's nine draws."""
    t, r, s, side, phi, tdot, rdot, thetadot, phidot = d
    theta = math.asin(s)
    if side < 0.5:
        theta = math.pi - theta
    return TangentPoint(t, r, theta, phi, tdot, rdot, thetadot, phidot)
