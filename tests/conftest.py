import math

import numpy as np
import pytest

from berwald.geometry_core import (ConnectionProfile, NonFiniteData, TangentPoint,
                                   christoffel_table)
from berwald.metrizer import ExpressionForm
from berwald.scalar_field import (Call, DomainError, Neg, Num, Param, Partials, Var,
                                  compile_program)


def default_grid(n: int = 8):
    return [(float(t), float(r))
            for t in np.linspace(0.5, 2.5, n) for r in np.linspace(0.5, 2.5, n)]


@pytest.fixture
def grid():
    return default_grid()


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


# -- worked example profiles -------------------------------------------------

def power_law_nonsymmetric(alpha: float = 3.0) -> ConnectionProfile:
    """Power-law connection with non-symmetric Ricci tensor."""
    return ConnectionProfile(
        {1: "2*r*(alpha-2)", 4: "4*alpha*r^3*(alpha-1)", 6: "-2*alpha*r",
         8: "-2*r", 10: "alpha*r"}, params={"alpha": alpha})


def power_law_symmetric() -> ConnectionProfile:
    """Power-law connection with symmetric Ricci tensor, Phi = t*r."""
    return ConnectionProfile({1: "r", 5: "t/3", 9: "t/3", 10: "t/3"})


_W = "r*exp((r-t)^2) - 3*t^3 + 5*r*t^2 - 2*r^2*t"
_K1 = "r - 4*t - (%s)" % _W
_K2 = "(%s) + 2*t" % _W


def exponential_example() -> ConnectionProfile:
    """Exponential-class connection.

    The k2 printed in the source table ends in a bare '+2'; only '+2*t'
    makes the displayed metrizing function horizontally constant (and gives
    D = 0, E = e^{(r-t)^2}, F = 1), so that is what this fixture encodes.
    """
    return ConnectionProfile({
        1: _K1, 2: _K2, 3: "-((%s) + 2*(%s))" % (_K1, _K2),
        4: "2*(%s) + (%s) + 2*t" % (_K1, _K2), 5: "-(%s) + 2*t" % _K2,
        6: "-(%s) - 2*t" % _K1, 7: "t", 8: "-t", 9: "t", 10: "t"})


def flat_cartesian() -> ConnectionProfile:
    return ConnectionProfile({})


def flat_spherical() -> ConnectionProfile:
    """Levi-Civita of the Minkowski metric written in spherical coordinates."""
    return ConnectionProfile({9: "1/r", 10: "-r"})


def class5_curved_block() -> ConnectionProfile:
    """Levi-Civita of e^{r^2} tdot^2 - rdot^2 + C2 w^2 (curved tr-block,
    constant angular coefficient)."""
    return ConnectionProfile({2: "r", 4: "r*exp(r^2)"})


def class5_broken_ricci(eps: float = 0.1) -> ConnectionProfile:
    return ConnectionProfile({2: "r", 4: "r*exp(r^2)", 6: "%g*r" % eps})


@pytest.fixture
def ex1():
    return power_law_nonsymmetric()


@pytest.fixture
def ex2():
    return power_law_symmetric()


@pytest.fixture
def exp_conn():
    return exponential_example()


# -- helpers ------------------------------------------------------------------

class Scaled(ExpressionForm):
    """c L: the same form with L multiplied by the constant c."""

    def __init__(self, form, c):
        self.form, self.c, self.scale_pot = form, c, getattr(form, "scale_pot", None)

    def domain(self):
        return self.form.domain()

    def lagrangian(self):
        return self.c * self.form.lagrangian()


def count_values_at(monkeypatch, pots) -> list:
    """The number of points of each later `pots.values_at` call, in order."""
    batches, values_at = [], pots.values_at
    monkeypatch.setattr(pots, "values_at",
                        lambda points: batches.append(len(points)) or values_at(points))
    return batches


def nonlinear_connection(conn: ConnectionProfile, p: TangentPoint) -> np.ndarray:
    """N^a_b = Gamma^a_bc xdot^c at p."""
    return np.einsum("abc,c->ab", christoffel_table(conn.k_values(p.t, p.r), p.theta),
                     p.velocity)


def horizontal_residual(form, conn: ConnectionProfile, p: TangentPoint) -> float:
    jet = form.jet(p)
    N = nonlinear_connection(conn, p)
    dv = jet.vertical_gradient()
    dh = jet.horizontal_gradient()
    return max(abs(dh[a] - N[:, a] @ dv) for a in range(4)) / (1.0 + abs(jet.value))


def ex1_paper_L(p: TangentPoint, alpha: float = 3.0) -> float:
    w2 = p.thetadot ** 2 + p.phidot ** 2 * math.sin(p.theta) ** 2
    base = 4 * alpha * p.r ** 2 * p.tdot ** 2 - 4 * p.tdot * p.rdot - alpha * w2
    return p.tdot ** (2.0 / (alpha - 1.0)) * base ** ((alpha - 2.0) / (alpha - 1.0))


def ex2_paper_L(p: TangentPoint) -> float:
    w2 = p.thetadot ** 2 + p.phidot ** 2 * math.sin(p.theta) ** 2
    phi_field = p.t * p.r
    return math.exp(0.5 * phi_field) * p.tdot ** 0.5 * (p.rdot ** 2 - w2) ** 0.75


def exp_paper_L(p: TangentPoint) -> float:
    w2 = p.thetadot ** 2 + p.phidot ** 2 * math.sin(p.theta) ** 2
    u2 = (p.rdot - p.tdot) ** 2
    e = math.exp(-(p.r - p.t) ** 2)
    scale = math.exp((3 * p.t ** 2 - 2 * p.r * p.t - 1) * e)
    return scale * math.exp(e * (2 * p.rdot ** 2 - 2 * p.tdot * p.rdot - w2) / u2) * u2


def ex1_admissible(p: TangentPoint, alpha: float = 3.0) -> bool:
    w2 = p.thetadot ** 2 + p.phidot ** 2 * math.sin(p.theta) ** 2
    base = 4 * alpha * p.r ** 2 * p.tdot ** 2 - 4 * p.tdot * p.rdot - alpha * w2
    return p.tdot > 1e-4 and base > 1e-4


def ex2_admissible(p: TangentPoint) -> bool:
    w2 = p.thetadot ** 2 + p.phidot ** 2 * math.sin(p.theta) ** 2
    return p.tdot > 1e-4 and p.rdot ** 2 - w2 > 1e-4


def exp_admissible(p: TangentPoint) -> bool:
    return abs(p.rdot - p.tdot) > 1e-3


def admissible(form):
    """Whether a point is in ``form``'s domain, asked one point at a time:
    a one-point `admit`."""
    return lambda p: form.admit([p])[0][0]


# -- the compiled k1..k12 program against the fields one by one --------------

def jet_slots(j):
    """Every slot of a jet (value, dt, dr), by repr, so that signed zeros count."""
    return tuple(repr(float(x)) for x in j)


def outcome(evaluate_all):
    """The reprs of every slot, or the kind of failure: `ConnectionProfile`
    reports an overflow as NonFiniteData, a single field as OverflowError."""
    try:
        return [jet_slots(v) if isinstance(v, Partials) else repr(float(v))
                for v in evaluate_all()]
    except DomainError:
        return "domain"
    except (OverflowError, NonFiniteData):
        return "overflow"


def assert_program_matches_fields(conn, points):
    """k1..k12 as one program, and with their partials as one program, give
    the per-field values and jets bit for bit and fail alike."""
    jets = compile_program([g for f in conn.k for g in (f, f.derivative("t"), f.derivative("r"))])

    def program_jets(t, r):
        out = jets({"t": t, "r": r})
        return [Partials(*out[i:i + 3]) for i in range(0, len(out), 3)]
    for (t, r) in points:
        assert outcome(lambda: program_jets(t, r)) == outcome(lambda: [f.jet(t, r) for f in conn.k])
        assert outcome(lambda: conn.k_values(t, r)) == outcome(
            lambda: [f.value(t, r) for f in conn.k])


# -- sympy reference --------------------------------------------------------

def to_sympy(e, syms):
    """The sympy expression of an AST; ``syms`` maps variable and parameter
    names to sympy expressions."""
    import sympy
    fns = {"sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan, "exp": sympy.exp,
           "ln": sympy.log, "sqrt": sympy.sqrt, "abs": sympy.Abs}
    if isinstance(e, Num):
        return sympy.Rational(repr(e.number))
    if isinstance(e, (Var, Param)):
        return syms[e.name]
    if isinstance(e, Neg):
        return -to_sympy(e.arg, syms)
    if isinstance(e, Call):
        return fns[e.fn](to_sympy(e.arg, syms))
    a, b = to_sympy(e.left, syms), to_sympy(e.right, syms)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b, "^": a ** b}[e.op]
