import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from berwald import scalar_field
from berwald.geometry_core import ConnectionProfile, TangentPoint
from berwald.metrizer import ExpressionForm, PotentialSystem, partials_program
from berwald.scalar_field import (FUNCTIONS, BinOp, Call, DomainError, ExpressionError,
                                  ExpressionSyntaxError, Neg, Num, Param, ScalarField,
                                  UnboundParameter, UnknownIdentifier, Var, compile_program,
                                  derivative, parse, to_source)

from conftest import assert_program_matches_fields, to_sympy
from oracles import derivative_at_every_node


def evaluate(e, env):
    """The value of ``e`` in ``env``, from its one-output program."""
    return compile_program([e])(env)[0]


def jet(src, t, r, **params):
    """The first-order jet (value, dt, dr) of an expression at (t, r)."""
    return ScalarField(src, params).jet(t, r)


class FieldForm(ExpressionForm):
    """L = tdot^2 f(t, r): a form whose horizontal partials are the field's."""

    def __init__(self, field):
        self.field = field

    def lagrangian(self):
        return self.field * ScalarField(Var("tdot")) * ScalarField(Var("tdot"))


def form_jet(field, t, r):
    """(L, dL/dt, dL/dr) of `FieldForm` at tdot = 1: the field's jet."""
    j = FieldForm(field).jet(TangentPoint(t, r, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    return (float(j.value), *map(float, j.horizontal_gradient()[:2]))


class TestParse:
    def test_power_law_coefficient(self):
        # value 2r at alpha = 3
        e = parse("2*r*(alpha-2)")
        for r in (0.5, 1.0, 2.5):
            assert evaluate(e, {"t": 0.0, "r": r, "alpha": 3.0}) == pytest.approx(2 * r)

    def test_zero(self):
        assert evaluate(parse("0"), {}) == 0.0
        assert jet("0", 1.0, 2.0).value == 0.0

    def test_exp_square_against_finite_differences(self):
        j = jet("exp((r-t)^2)", 1.0, 2.0)
        h = 1e-5
        f = lambda t, r: math.exp((r - t) ** 2)
        assert j.value == pytest.approx(math.e, rel=1e-12)
        assert j.dt == pytest.approx((f(1 + h, 2) - f(1 - h, 2)) / (2 * h), rel=1e-6)
        assert j.dt == pytest.approx(-2 * math.e, rel=1e-10)

    def test_pi(self):
        assert evaluate(parse("cos(pi)"), {}) == pytest.approx(-1.0)

    def test_syntax_error_position(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse("2*+r")
        assert exc.value.position == 2

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier):
            parse("sinh(t)")

    def test_function_name_without_call(self):
        with pytest.raises(UnknownIdentifier):
            parse("sin + 2")

    def test_empty(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("   ")

    def test_unary_binds_before_power(self):
        # the grammar reads factor := unary ('^' factor)?, so -2^2 = (-2)^2
        assert evaluate(parse("-2^2"), {}) == 4.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), {}) == 512.0

    def test_scientific_numbers(self):
        assert evaluate(parse("1.5e-3 + 2E2"), {}) == pytest.approx(200.0015)


class TestEvalJet2:
    """`ScalarField.jet`: a value with its first partials, from one program
    of the expression and its `derivative`s."""

    def test_bilinear(self):
        j = jet("t*r", 2.0, 3.0)
        assert (j.value, j.dt, j.dr) == (6.0, 3.0, 2.0)
        assert form_jet(ScalarField("t*r"), 2.0, 3.0) == (6.0, 3.0, 2.0)

    def test_sin_at_zero(self):
        j = jet("sin(t)", 0.0, 5.0)
        assert j.value == 0.0
        assert j.dt == 1.0
        assert jet("cos(t)", 0.0, 5.0).dt == 0.0

    def test_radial_coefficient_field(self):
        # (1/3) d_r(t*r) = t/3; equals 1 at t = 3
        phi = jet("t*r", 3.0, 1.7)
        assert phi.dr / 3.0 == pytest.approx(1.0)
        assert ScalarField("t/3").value(3.0, 0.0) == pytest.approx(1.0)

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameter):
            jet("alpha*t", 1.0, 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jet("ln(t-2)", 1.0, 0.0)
        with pytest.raises(DomainError):
            jet("sqrt(0-r)", 0.0, 1.0)
        with pytest.raises(DomainError):
            jet("1/(t-1)", 1.0, 0.0)
        with pytest.raises(DomainError):
            jet("t^0.5", -1.0, 0.0)

    def test_integer_power_of_negative_base(self):
        j = jet("t^3", -2.0, 0.0)
        assert j.value == -8.0
        assert j.dt == 12.0
        assert jet("3*t^2", -2.0, 0.0).dt == -12.0

    def test_abs_kink_flag(self):
        # d|t| divides by |t|: the corner of abs is outside the jet's domain
        with pytest.raises(DomainError):
            jet("abs(t)", 0.0, 0.0)
        assert jet("abs(t)", 2.0, 0.0).dt == 1.0
        assert jet("abs(t)", -2.0, 0.0).dt == -1.0


# -- randomized ASTs for the property tests ----------------------------------

_LEAVES = [Num(0.5), Num(2.0), Num(3.0), Var("t"), Var("r"), Param("alpha")]
_FUNCS = ["sin", "cos", "exp"]


def _random_ast(rng, depth):
    if depth == 0:
        return _LEAVES[rng.integers(len(_LEAVES))]
    kind = rng.integers(5)
    if kind == 0:
        return Neg(_random_ast(rng, 0))
    if kind == 1:
        return Call(_FUNCS[rng.integers(len(_FUNCS))], _random_ast(rng, depth - 1))
    op = "+-*"[rng.integers(3)]
    return BinOp(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


def _fd(expr, t, r, params, h=1e-5):
    f = lambda tt, rr: evaluate(expr, {"t": tt, "r": rr, **params})
    dt = (f(t + h, r) - f(t - h, r)) / (2 * h)
    dr = (f(t, r + h) - f(t, r - h)) / (2 * h)
    dtt = (f(t + h, r) - 2 * f(t, r) + f(t - h, r)) / h ** 2
    drr = (f(t, r + h) - 2 * f(t, r) + f(t, r - h)) / h ** 2
    dtr = (f(t + h, r + h) - f(t + h, r - h) - f(t - h, r + h) + f(t - h, r - h)) / (4 * h * h)
    return dt, dr, dtt, dtr, drr


def test_ad_matches_finite_differences_on_random_expressions():
    """First partials from `ScalarField.jet`, second ones from `derivative`
    applied twice (as a form's velocity Hessian is), against differences."""
    rng = np.random.default_rng(1234)
    params = {"alpha": 1.3}
    checked = 0
    while checked < 100:
        expr = _random_ast(rng, int(rng.integers(1, 4)))
        t, r = rng.uniform(0.3, 2.0, size=2)
        try:
            j = ScalarField(expr, params).jet(t, r)
            second = [ScalarField(derivative(derivative(expr, a), b), params).value(t, r)
                      for a, b in ("tt", "tr", "rr")]
        except DomainError:
            continue
        if abs(j.value) > 1e3:
            continue
        dt, dr, *fd2 = _fd(expr, t, r, params)
        scale1 = 1.0 + max(abs(j.dt), abs(j.dr))
        scale2 = 1.0 + max(map(abs, second))
        assert abs(j.dt - dt) / scale1 < 1e-6
        assert abs(j.dr - dr) / scale1 < 1e-6
        for exact, approx in zip(second, fd2):
            assert abs(exact - approx) / scale2 < 1e-4
        checked += 1


def test_product_rule_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        f = _random_ast(rng, 2)
        g = _random_ast(rng, 2)
        t, r = rng.uniform(0.3, 2.0, size=2)
        params = {"alpha": 0.7}
        try:
            jf, jg, jfg = (ScalarField(e, params).jet(t, r) for e in (f, g, BinOp("*", f, g)))
        except DomainError:
            continue
        leib = (jf.value * jg.value, jf.dt * jg.value + jf.value * jg.dt,
                jf.dr * jg.value + jf.value * jg.dr)
        scale = 1.0 + max(map(abs, leib))
        for got, ref in zip(jfg, leib):
            assert abs(got - ref) / scale < 1e-12


def test_jet_types_share_one_algebra():
    """On random ASTs, a form's jet (L = tdot^2 f at tdot = 1) gives the
    value and (t, r)-partials of `ScalarField.jet` bit for bit, or both fail:
    both are `derivative` programs."""
    rng = np.random.default_rng(2024)
    params = {"alpha": 1.3}
    checked = 0
    while checked < 100:
        field = ScalarField(_random_ast(rng, int(rng.integers(1, 4))), params)
        t, r = rng.uniform(0.3, 2.0, size=2)
        try:
            ref = field.jet(t, r)
        except (DomainError, OverflowError) as exc:
            with pytest.raises(type(exc)):
                form_jet(field, t, r)
            continue
        assert list(map(repr, form_jet(field, t, r))) == list(map(repr, ref))
        checked += 1


def test_jet_domain_errors_agree():
    # d|t| divides by |t| and d sqrt(t) by sqrt(t), in either jet
    for src in ("abs(t)", "sqrt(t)"):
        with pytest.raises(DomainError):
            jet(src, 0.0, 1.0)
        with pytest.raises(DomainError):
            form_jet(ScalarField(src), 0.0, 1.0)
    # exponent 0 gives the constant 1 with +0.0 derivatives, also at the kink
    assert jet("abs(t)^0", 0.0, 0.0) == (1.0, 0.0, 0.0)
    assert math.copysign(1.0, jet("(-t)^0", 1.0, 0.0).dt) == 1.0


def test_quotient_rule_exact():
    jf = jet("sin(t) + 2", 0.7, 1.1)
    jg = jet("exp(r) + t", 0.7, 1.1)
    jq = jet("(sin(t) + 2)/(exp(r) + t)", 0.7, 1.1)
    ref = (jf.value / jg.value, (jf.dt * jg.value - jf.value * jg.dt) / jg.value ** 2,
           (jf.dr * jg.value - jf.value * jg.dr) / jg.value ** 2)
    for got, want in zip(jq, ref):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_parse_print_round_trip_random():
    rng = np.random.default_rng(99)
    pts = [(0.7, 1.3), (1.9, 0.4), (2.2, 2.2)]
    params = {"alpha": 0.9}
    for _ in range(150):
        expr = _random_ast(rng, int(rng.integers(1, 4)))
        text = to_source(expr)
        reparsed = parse(text)
        for (t, r) in pts:
            env = {"t": t, "r": r, **params}
            try:
                v1 = evaluate(expr, env)
            except DomainError:
                continue
            v2 = evaluate(reparsed, env)
            assert v2 == pytest.approx(v1, rel=1e-14, abs=1e-14)


@given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3),
       st.floats(min_value=0.2, max_value=2.5), st.floats(min_value=0.2, max_value=2.5))
@settings(max_examples=200, deadline=None)
def test_round_trip_fixed_shape(a, b, t, r):
    expr = BinOp("*", BinOp("+", Num(a), Var("t")),
                 BinOp("-", Num(b), Call("sin", Var("r"))))
    env = {"t": t, "r": r}
    assert evaluate(parse(to_source(expr)), env) == pytest.approx(
        evaluate(expr, env), rel=1e-13, abs=1e-13)


def test_substitute_composition():
    base = parse("t^2 + sin(r)")
    composed = base.substitute({"t": parse("t + r"), "r": parse("2*r")})
    env = {"t": 0.4, "r": 0.9}
    assert evaluate(composed, env) == pytest.approx((0.4 + 0.9) ** 2 + math.sin(1.8))


def test_field_algebra_jets_are_exact():
    f = ScalarField("t^2*r") / ScalarField("1 + r^2") - 3.0 * ScalarField("sin(t)")
    j = f.jet(1.1, 0.8)
    g = lambda t, r: t * t * r / (1 + r * r) - 3 * math.sin(t)
    h = 1e-5
    assert j.value == pytest.approx(g(1.1, 0.8), rel=1e-13)
    assert j.dt == pytest.approx((g(1.1 + h, 0.8) - g(1.1 - h, 0.8)) / (2 * h), rel=1e-7)
    assert j.dr == pytest.approx((g(1.1, 0.8 + h) - g(1.1, 0.8 - h)) / (2 * h), rel=1e-7)


def test_fields_keep_their_own_parameter_values():
    """A parameter is a number from the moment a field is built, so fields
    that bind one name to different values combine, each with its own."""
    f = ScalarField("alpha*t", {"alpha": 1.0})
    g = ScalarField("alpha*r", {"alpha": 2.0})
    assert (f + g).value(3.0, 5.0) == 1.0 * 3.0 + 2.0 * 5.0
    assert (f * g).jet(3.0, 5.0) == (30.0, 10.0, 6.0)
    assert ScalarField("alpha*t + beta", {"alpha": 1.0}).substitute(
        {"beta": g}).value(3.0, 5.0) == 13.0


# -- the compiled program ------------------------------------------------------

def test_program_matches_per_field_evaluation_on_random_asts():
    """k1..k12 as one program give the per-field jets and values bit for bit,
    and fail with DomainError at the same points.  Quotients, ln and sqrt of
    random ASTs put domain errors in; parameter values differ per field."""
    rng = np.random.default_rng(77)
    exprs = [_random_ast(rng, int(rng.integers(1, 4))) for _ in range(200)]
    for i in range(0, 200, 12):
        chunk = exprs[i:i + 12]
        spec = {j + 1: (e, {"alpha": 0.5 * j - 1.0}) for j, e in enumerate(chunk)}
        if i % 24:
            spec[10] = (Call("sqrt", chunk[9]), {"alpha": 1.0})
            spec[11] = (BinOp("/", chunk[0], chunk[1]), {"alpha": 0.0})
            spec[12] = (Call("ln", chunk[2]), {"alpha": -0.0})
        conn = ConnectionProfile({j: ScalarField(e, p) for j, (e, p) in spec.items()})
        pts = [tuple(rng.uniform(0.3, 2.0, size=2)) for _ in range(4)]
        pts += [tuple(rng.uniform(-2.0, 2.0, size=2)), (0.0, 0.0)]
        assert_program_matches_fields(conn, pts)
        walked, params = zip(*(spec.get(j, (Num(0.0), {})) for j in range(1, 13)))
        assert_array_run_matches(compile_program(conn.k), walked, params, pts)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_NUMPY_BASIS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "ln": np.log,
                "sqrt": np.sqrt, "abs": np.abs}


def _numpy_call(fn, x):
    """numpy's value of a basis function at a float, checked against the
    scalar run's at the same argument (which raises where it does): equal for
    sqrt and abs, at most one ulp apart for the others."""
    ref = evaluate(Call(fn, Num(x)), {})
    with np.errstate(all="raise"):
        got = float(_NUMPY_BASIS[fn](x))
    assert abs(got - ref) <= (0 if fn in ("sqrt", "abs") else np.spacing(abs(ref)))
    return got


def _tree_walk(e, env, call=None):
    """Reference evaluator: a recursive walk that evaluates every AST node
    where it occurs, with no sharing; ``call(fn, x)`` replaces math's basis."""
    if isinstance(e, Num):
        return e.number
    if isinstance(e, (Var, Param)):
        return env[e.name]
    if isinstance(e, Neg):
        return -_tree_walk(e.arg, env, call)
    if isinstance(e, Call):
        x = _tree_walk(e.arg, env, call)
        if call is not None:
            return call(e.fn, x)
        return getattr(math, e.fn)(x)
    return _OPS[e.op](_tree_walk(e.left, env, call), _tree_walk(e.right, env, call))


def assert_array_run_matches(run, exprs, params, points) -> bool:
    """``run.on_arrays`` on all ``points`` as one array against a float tree
    walk of each point with numpy's basis (`_numpy_call`, ``params[i]`` bound
    for ``exprs[i]``): ``ok`` holds at a point exactly where its walk raises
    nothing and gives finite floats, and there the outputs are the walk's bit
    for bit.  True when some point's outputs were compared."""
    t, r = (np.array(x) for x in zip(*points))
    out, ok = run.on_arrays({"t": t, "r": r})
    assert out.shape == t.shape + (len(exprs),) and ok.shape == t.shape
    for i, (tt, rr) in enumerate(points):
        try:
            ref = [_tree_walk(e, dict(p, t=float(tt), r=float(rr)), _numpy_call)
                   for e, p in zip(exprs, params)]
        except (ArithmeticError, DomainError):
            ref = [math.nan]
        assert ok[i] == all(map(math.isfinite, ref))
        if ok[i]:
            assert out[i].tolist() == ref
    return bool(ok.any())


def test_program_equals_a_tree_walk_bit_for_bit():
    """Sums, products and quotients of random ASTs, ten to a program so that
    subtrees are shared, and a constant give the tree walk's floats exactly,
    and on the array of all test points its floats with numpy's basis
    (`assert_array_run_matches`)."""
    rng = np.random.default_rng(5)
    checked = 0
    programs, points = [], []
    for _ in range(20):
        parts = [_random_ast(rng, int(rng.integers(1, 5))) for _ in range(4)]
        exprs = parts + [BinOp(op, a, b) for op in "+*/" for a, b in
                         ((parts[0], parts[1]), (parts[2], parts[0]))] + [Num(2.5)]
        run = compile_program([ScalarField(e, {"alpha": 1.3}) for e in exprs])
        t, r = rng.uniform(0.3, 2.0, size=2)
        programs.append((run, exprs))
        points.append((t, r))
        env = {"t": t, "r": r}
        try:
            ref = [_tree_walk(e, dict(env, alpha=1.3)) for e in exprs]
        except (ArithmeticError, DomainError):
            with pytest.raises((ArithmeticError, DomainError)):
                run(env)
            continue
        assert list(map(repr, run(env))) == list(map(repr, ref))
        checked += 1
    assert checked >= 15
    compared = [assert_array_run_matches(run, exprs, [{"alpha": 1.3}] * len(exprs), pts)
                for run, exprs in programs for pts in (points, points[:1])]
    assert sum(compared) >= 10


def test_large_array_runs_reuse_registers():
    """A run on `_LEAN_POINTS` points or more holds only the arrays still to
    be read: a chain of 200 products holds a few, not 200.  Its floats are
    those of runs on fewer points, which keep every register."""
    import tracemalloc
    n = 2 * scalar_field._LEAN_POINTS
    env = {"t": np.linspace(0.5, 1.5, n), "r": np.linspace(1.0, 2.0, n)}
    chain = compile_program([ScalarField("t" + " * (r - 0.5)" * 200)])
    tracemalloc.start()
    try:
        chain.on_arrays(env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * n
    rng = np.random.default_rng(8)
    halves = [{k: v[:n // 2] for k, v in env.items()}, {k: v[n // 2:] for k, v in env.items()}]
    compared = 0
    for _ in range(10):
        exprs = [_random_ast(rng, 4) for _ in range(6)]
        run = compile_program([ScalarField(e, {"alpha": 1.3}) for e in exprs])
        whole, ok = run.on_arrays(env)
        parts = [run.on_arrays(half) for half in halves]
        assert ok.tolist() == parts[0][1].tolist() + parts[1][1].tolist()
        assert whole[ok].tolist() == np.concatenate([parts[0][0], parts[1][0]])[ok].tolist()
        compared += bool(ok.any())
    assert compared >= 5


@pytest.mark.parametrize("src, bad", [
    ("sin(t)", None), ("cos(t)", None), ("tan(t)", None), ("exp(t)", None), ("abs(r)", None),
    ("ln(t)", -1.0), ("sqrt(t)", -1.0), ("r/t", 0.0), ("t^r", -1.0), ("t^-2", 0.0),
    ("2^t", None), ("r^3", None), ("1.5 + 0*t", None)])
def test_array_run_of_the_function_basis(src, bad):
    """Each basis function, power and quotient on an array of points: at most
    one ulp from the scalar run at each point (equal for abs, sqrt and
    quotients; a constant is broadcast); where one point leaves the domain,
    the scalar run raises DomainError there and the array run fails that
    point alone, the others' values unchanged."""
    run = compile_program([parse(src)])
    t, r = np.linspace(0.25, 3.0, 12), np.linspace(-1.5, 2.5, 12)
    got, ok = run.on_arrays({"t": t, "r": r})
    ref = np.array([run({"t": a, "r": b})[0] for a, b in zip(t.tolist(), r.tolist())])
    ulps = 0 if src.startswith(("abs", "sqrt", "r/", "1.5")) else 1
    assert got.shape == t.shape + (1,) and ok.all()
    assert np.all(np.abs(got[:, 0] - ref) <= ulps * np.spacing(np.abs(ref)))
    if bad is not None:
        t[5] = bad
        with pytest.raises(DomainError):
            run({"t": bad, "r": float(r[5])})
        failed, ok = run.on_arrays({"t": t, "r": r})
        assert ok.tolist() == [i != 5 for i in range(12)] and math.isnan(failed[5, 0])
        assert np.delete(failed, 5).tolist() == np.delete(got, 5).tolist()


@pytest.mark.parametrize("src, t", [
    ("1/(1e300/t)", 1e-10), ("1/t^2", 1e200), ("1/exp(t)", 1000.0), ("ln(t)^0", -1.0),
    ("1^ln(t)", -1.0), ("(t - 2)^-1", 2.0), ("(2 - t)^0.5", 3.0), ("1/ln(t)", 1.0),
    ("exp(-exp(t))", 1000.0), ("1/(t*t)", 1e200), ("sin(t*t)", 1e200), ("t*t - t*t", 1e200),
    ("(t*t - t*t)^0", 1e200), ("1^(t*t - t*t)", 1e200)])
def test_array_run_fails_exactly_where_the_float_run_does(src, t):
    """A point fails where its float run raises, also where a later op would
    hide the failure in the array arithmetic (a quotient, power or exp that
    overflows from finite operands, x^0 or 1^x of a failed x), or gives a
    non-finite output (a power of NaN too); an intermediate inf that the
    float run carries to a finite output is no failure.  The other points
    are unchanged."""
    run = compile_program([parse(src)])
    try:
        value = run({"t": t})[0]
    except (ArithmeticError, DomainError):
        value = math.nan
    out, ok = run.on_arrays({"t": np.array([1.5, t, 0.75])})
    assert ok.tolist() == [True, math.isfinite(value), True]
    assert out[[0, 2], 0].tolist() == [run({"t": 1.5})[0], run({"t": 0.75})[0]]
    if math.isfinite(value):
        assert out[1, 0] == value
    else:
        assert not math.isfinite(out[1, 0])


def test_program_keeps_signed_zeros_and_number_types_apart():
    prog = compile_program([ScalarField(Num(0.0)), ScalarField(Num(-0.0)), ScalarField(Num(1)),
                            ScalarField(Num(1.0)), ScalarField("a*t", {"a": -0.0}),
                            ScalarField("a*t", {"a": 0.0})])
    out = prog({"t": 2.0})
    assert [repr(v) for v in out] == ["0.0", "-0.0", "1", "1.0", "-0.0", "0.0"]


def test_program_raises_the_first_failure_of_a_tree_walk():
    prog = compile_program([parse("alpha*t"), parse("1/t")])
    with pytest.raises(UnboundParameter):
        prog({"t": 0.0})
    prog = compile_program([parse("1/t"), parse("alpha*t")])
    with pytest.raises(DomainError):
        prog({"t": 0.0})


def test_jets_fail_with_domain_error():
    # d(1/t) = -(1/t)/t leaves the floats at t = 1e-170; the others leave the
    # domain of the function or of its derivative
    for src, t in (("1/t", 1e-170), ("ln(t)", 0.0), ("sqrt(t)", 0.0), ("t^0.5", 0.0)):
        with pytest.raises(DomainError):
            ScalarField(src).jet(t, 1.0)
    for src in ("sin(t)", "cos(t)", "tan(t)"):   # math.sin(inf) raises ValueError
        with pytest.raises(DomainError):
            ScalarField(src).jet(math.inf, 1.0)
    pot = PotentialSystem(["psi"], ["1/t"], ["0"], (1e-170, 1.0))
    with pytest.raises(DomainError, match="P_psi jet is not finite"):   # a curl check, too
        pot.closedness_residual([(1e-170, 1.0)])
    # ordinary v keep the derivative rules' arithmetic, on floats and arrays
    v = 0.3
    assert ScalarField("1/t").jet(v, 1.0) == (1.0 / v, -(1.0 / v) / v, 0.0)
    assert ScalarField("ln(t)").jet(v, 1.0) == (math.log(v), 1.0 / v, 0.0)
    out, ok = partials_program(pot._pq, pot).on_arrays(
        {"t": np.array([1e-170, v]), "r": np.ones(2), "psi": np.zeros(2)})
    assert ok.tolist() == [False, True]
    assert tuple(out[1, :3]) == (1.0 / v, -(1.0 / v) / v, 0.0)


# -- derivative: forward mode by source transformation -----------------------

def _asts(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        kids.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), kids, kids).map(lambda x: BinOp(*x)),
        st.tuples(st.sampled_from(FUNCTIONS), kids).map(lambda x: Call(*x))), max_leaves=8)


_AST_LEAVES = st.one_of(st.sampled_from([Var("t"), Var("r")]),
                        st.sampled_from([0.5, 1.0, 2.0, 3.0, -1.5]).map(Num))
ASTS = _asts(_AST_LEAVES)
# with parameters too, one of them named as the variable t
PARAMS = ("a", "b", "t")
PARAM_ASTS = _asts(st.one_of(_AST_LEAVES, st.sampled_from(PARAMS).map(Param)))


@given(ASTS, st.sampled_from("tr"), st.floats(0.3, 2.0), st.floats(0.3, 2.0))
@settings(max_examples=300, deadline=None)
def test_derivative_matches_sympy_and_the_jets(e, var, t, r):
    """Where e evaluates to a float below 1e100, the compiled derivative, and
    the jet's partial with it, either raise DomainError or match sympy.diff
    (at 30 digits) to 1e-10 relative; no other exception escapes them."""
    import sympy
    try:
        value = ScalarField(e).value(t, r)
    except (DomainError, OverflowError):
        return
    if not (math.isfinite(value) and abs(value) < 1e100):
        return
    try:
        d = ScalarField(derivative(e, var)).value(t, r)
        j = ScalarField(e).jet(t, r)
    except DomainError:
        return
    syms = {"t": sympy.Symbol("t", positive=True), "r": sympy.Symbol("r", positive=True)}
    ref = complex(sympy.diff(to_sympy(e, syms), syms[var])
                  .subs({syms["t"]: t, syms["r"]: r}).evalf(30))
    assert abs(d - ref) <= 1e-10 * (1.0 + abs(ref))
    assert (j.dt if var == "t" else j.dr) == d


@given(ASTS, st.floats(0.3, 2.0), st.floats(0.3, 2.0))
@settings(max_examples=300, deadline=None)
def test_printed_ast_parses_to_the_same_values(e, t, r):
    """``parse(to_source(e))`` raises where e raises and gives e's value bit
    for bit elsewhere, also with a negative number under a unary minus."""
    env = {"t": t, "r": r}
    try:
        value = evaluate(e, env)
    except (DomainError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            evaluate(parse(to_source(e)), env)
        return
    assert repr(evaluate(parse(to_source(e)), env)) == repr(value)


def test_printer_parenthesizes_negative_numbers_and_refuses_non_finite_ones():
    assert to_source(Neg(Num(-2.0))) == "-(-2)"
    assert ScalarField("-(a*t)", {"a": -2}).derivative("t").source() == "-(-2)"
    assert to_source(BinOp("-", Var("t"), Num(-1.5))) == "t - -1.5"   # as before
    # a numpy parameter prints as its float, a negative zero keeps its sign
    assert ScalarField("a*t", {"a": np.float64(0.1)}).source() == "0.1 * t"
    zeros = BinOp("+", Num(-0.0), Num(-0.0))
    assert repr(evaluate(parse(to_source(zeros)), {})) == repr(evaluate(zeros, {})) == "-0.0"
    for v in (math.inf, -math.inf, math.nan):
        with pytest.raises(ExpressionError, match="has no source text"):
            to_source(BinOp("*", Num(v), Var("t")))


def _tree(e):
    """Every node of e's tree, a shared one as often as it occurs."""
    yield e
    for x in e._parts():
        if isinstance(x, scalar_field._Node):
            yield from _tree(x)


@given(PARAM_ASTS)
@settings(max_examples=300, deadline=None)
def test_derivative_skips_exactly_what_the_rules_fold(e):
    """A partial is the very node that the rules applied to every node give;
    it is Num(0.0) where no leaf is named as the variable.  A node's leaves,
    and so `parameter_names`, are those of a walk of the whole tree."""
    leaves = {x for x in _tree(e) if isinstance(x, (Var, Param))}
    assert e.leaves() == leaves
    assert scalar_field.parameter_names(e) == {x.name for x in leaves if isinstance(x, Param)}
    for var in ("r",) + PARAMS:
        d = derivative(e, var)
        assert d is derivative_at_every_node(e, var)
        if all(x.name != var for x in leaves):
            assert d is Num(0.0)


def test_derivative_folds_only_zeros_and_ones_and_shares_subtrees():
    d = derivative(parse("t*r + 3*sin(r)"), "t")
    assert d == Var("r")                                  # 1*r + t*0 + 3*0 folded
    assert derivative(parse("2^t"), "t") == parse("2^t * ln(2)")
    shared = parse("exp(t)")
    d = derivative(BinOp("*", shared, shared), "t")
    assert d.left.right is d.right.left is shared       # exp(t)' reused, not rebuilt
    assert derivative(parse("sqrt(t)"), "t") == parse("0.5 / sqrt(t)")
    with pytest.raises(DomainError):                      # d sqrt(t) divides by sqrt(t)
        ScalarField(derivative(parse("sqrt(t)"), "t")).value(0.0, 1.0)
    with pytest.raises(DomainError):                      # d|t| divides by |t|
        ScalarField(derivative(parse("abs(t)"), "t")).value(0.0, 1.0)


class TestInterning:
    """Nodes are hash-consed: one live node per structure."""

    SRC = "(0.25 + t*r)^2 / (1 + (0.25 + t*r)) - sin(alpha*t)"

    def test_equal_sources_parse_to_one_node(self):
        e = parse(self.SRC)
        assert parse(self.SRC) is e
        assert e.left.left.left is e.left.right.right         # (0.25 + t*r) once
        assert derivative(parse(self.SRC), "t") is derivative(e, "t")
        assert parse("t + r") is not parse("r + t")

    def test_numbers_keep_sign_and_type_apart(self):
        assert Num(0.0) is not Num(-0.0)
        assert Num(1) is not Num(1.0)
        assert Num(1.0) is Num(1.0) == Num(1.0)
        assert Num(0.0) != Num(-0.0)

    @pytest.mark.parametrize("node, field", [
        (Num(2.0), "value"), (Var("t"), "name"), (Param("a"), "name"), (Neg(Var("t")), "arg"),
        (BinOp("+", Var("t"), Var("r")), "left"), (Call("sin", Var("t")), "fn")])
    def test_nodes_are_immutable(self, node, field):
        with pytest.raises(AttributeError):
            setattr(node, field, Var("r"))
        with pytest.raises(AttributeError):
            delattr(node, field)

    def test_a_node_takes_exactly_its_fields(self):
        for args in (("+", Var("t")), ("+", Var("t"), Var("r"), Var("r"))):
            with pytest.raises(TypeError, match="BinOp takes op, left, right"):
                BinOp(*args)
        with pytest.raises(TypeError):
            Num()

    def test_field_algebra_of_equal_operands_is_one_node(self):
        def build():
            t, r = ScalarField("t"), ScalarField("r")
            return ((t * r + 1.5) / (2.0 - t)).call("exp") ** 2
        assert build() is build()
        assert -ScalarField("t") is Neg(Var("t"))

    def test_a_field_is_its_node(self):
        """`ScalarField` returns a node itself, parses text, binds parameters
        by rewriting, and refuses anything else."""
        x = parse("a*t + sin(r)")
        assert ScalarField(x) is x and ScalarField("a*t + sin(r)") is x
        assert ScalarField(x, {"a": 2.0}) is parse("2*t + sin(r)")
        assert isinstance(x, ScalarField) and ScalarField.constant(3) is Num(3.0)
        for bad in (1.5, None, [x]):
            with pytest.raises(TypeError, match="not a field or expression text"):
                ScalarField(bad)

    def test_shared_chain_is_walked_once(self):
        """A 60-level chain x_{k+1} = x_k * x_k + p is a tree of about 2^60
        nodes and a DAG of 122: every walk is linear in the DAG."""
        import time
        start = time.perf_counter()
        x, p = Var("t"), Param("p")
        for _ in range(60):
            x = BinOp("+", BinOp("*", x, x), p)
        assert scalar_field.parameter_names(x) == {"p"}
        y = x.substitute({"p": Num(-0.5)})
        assert scalar_field.parameter_names(y) == set()
        same = y is x.substitute({"p": Num(-0.5)})
        shared = y.right is Num(-0.5) and y.left.left is y.left.right
        assert same and shared
        value, slope = compile_program([y, derivative(y, "t")])({"t": 0.25})
        v, dv = 0.25, 1.0
        for _ in range(60):
            v, dv = v * v - 0.5, dv * v + v * dv
        assert (value, slope) == (v, dv)
        assert time.perf_counter() - start < 1.0


    def test_repr_is_bounded(self):
        """The repr of a node or a field prints the tree to a bounded depth:
        a 21-level chain (a tree of 4 M nodes, a DAG of 43) is cut short."""
        import time
        x = Var("t")
        for _ in range(21):
            x = BinOp("+", BinOp("*", x, x), Param("p"))
        start = time.perf_counter()
        texts = [repr(x), repr(ScalarField(x))]
        assert time.perf_counter() - start < 0.2
        assert texts[0].startswith("BinOp(op='+', left=BinOp(op='*', left=BinOp(op='+', ")
        assert "left=..." in texts[0] and len(texts[0]) < 2000
        assert texts[1] == texts[0]   # a field is its node
        assert repr(parse("sin(-t) + a")) == ("BinOp(op='+', left=Call(fn='sin', arg=Neg("
                                              "arg=Var(name='t'))), right=Param(name='a'))")


def test_float_and_array_tables_have_the_same_ops():
    ops = scalar_field._FLOAT.keys()
    assert ops == scalar_field._ARRAY.keys()
    assert set(FUNCTIONS) | set("+-*/^") <= ops


class TestArrayRunLayout:
    def test_points_first_and_contiguous(self):
        run = compile_program([parse("t*r"), parse("2.5"), parse("t - r")])
        for shape in ((7,), (3, 5)):
            t = np.linspace(0.5, 1.5, math.prod(shape)).reshape(shape)
            r = np.full(shape, 2.0)
            out, ok = run.on_arrays({"t": t, "r": r})
            assert out.shape == shape + (3,) and ok.shape == shape and ok.all()
            assert out.flags.c_contiguous and out.dtype == np.float64
            assert out[..., 0].tolist() == (t * r).tolist()
            assert out[..., 1].tolist() == np.full(shape, 2.5).tolist()   # a constant fills its column
            assert out[..., 2].tolist() == (t - r).tolist()

    def test_non_finite_output_fails_its_point(self):
        run = compile_program([parse("r"), parse("t + r"), parse("t")])
        t, r = np.array([1.0, np.inf, 2.0]), np.array([1.0, 2.0, 3.0])
        for env, kept in (({"t": t, "r": r}, [[1.0, 2.0, 1.0], [3.0, 5.0, 2.0]]),
                          ({"t": r, "r": t}, [[1.0, 2.0, 1.0], [2.0, 5.0, 3.0]])):
            out, ok = run.on_arrays(env)
            assert ok.tolist() == [True, False, True] and out[[0, 2]].tolist() == kept
