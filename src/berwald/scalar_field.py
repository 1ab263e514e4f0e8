"""Closed-form scalar fields of (t, r) with exact derivatives to second order.

Expressions are parsed from a small arithmetic grammar (see ``parse``) into an
immutable AST.  `compile_program` hash-conses ASTs into one straight-line
program that runs on plain floats or on truncated second-order jets (`Jet2`),
which carry a value with its first and second partials in t and r.  Jet
arithmetic implements the forward-mode rules, written once in `JetRules` for
all three jet types, so derivatives of any parsed expression are exact for the
supported function basis (no finite differencing).  `derivative` applies the
same rules to an AST, so a partial derivative is again an expression, to be
compiled or differentiated further.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Union


class ExpressionError(ValueError):
    """Base class for parse/evaluation failures."""


class ExpressionSyntaxError(ExpressionError):
    def __init__(self, position: int, expected, found: str = ""):
        self.position = position
        self.expected = tuple(expected)
        self.found = found
        what = found if found else "end of input"
        super().__init__(
            "syntax error at offset %d: found %r, expected one of %s"
            % (position, what, ", ".join(self.expected))
        )


class UnknownIdentifier(ExpressionError):
    def __init__(self, name: str, position: int = -1):
        self.name = name
        self.position = position
        super().__init__("unknown function identifier %r" % name)


class UnboundParameter(ExpressionError):
    def __init__(self, name: str):
        self.name = name
        super().__init__("parameter %r has no bound value" % name)


class DomainError(ExpressionError):
    """Evaluation left the domain of a basis function (ln/sqrt/division)."""


def no_underflow(rule):
    """Raise `DomainError`, not ZeroDivisionError, where a power of a tiny v underflows."""
    def checked(self):
        try:
            return rule(self)
        except ZeroDivisionError:
            raise DomainError("%s jet underflows at %r" % (rule.__name__, self.value)) from None
    return checked


class JetRules:
    """Forward-mode Taylor arithmetic (Griewank & Walther, *Evaluating
    Derivatives*, ch. 13) shared by `Jet2`, `MultiJet` and `Jet1`.

    A jet type supplies its storage, ``_lift`` (number -> constant jet), ``+``,
    unary ``-``, ``*``, ``_is_constant()`` and the chain rule ``_compose(v, d1,
    d2)``: the jet of f(self) where f, f', f'' are v, d1, d2 at ``self.value``.
    Division, powers and the function basis, domain checks included, are here.
    """

    __slots__ = ()

    def _constant(self, v, kink=False):
        """The constant v; only `Jet2` can mark the corner of ``abs`` (kink)."""
        if kink:
            raise DomainError("abs jet on the kink set")
        return self._lift(v)

    def __sub__(self, o):
        return self + (-self._lift(o))

    def __rsub__(self, o):
        return (-self) + o

    @no_underflow
    def reciprocal(self):
        v = self.value
        if v == 0.0:
            raise DomainError("division by zero")
        return self._compose(1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)

    def __truediv__(self, o):
        return self * self._lift(o).reciprocal()

    def __rtruediv__(self, o):
        return self.reciprocal() * o

    def __pow__(self, p):
        if isinstance(p, JetRules):
            if not p._is_constant():
                return (self.ln() * p).exp()
            p = p.value
        v = self.value
        if isinstance(p, (int, float)) and float(p).is_integer():
            n = int(p)
            if n == 0:
                return self._constant(1.0)
            if v == 0.0 and n < 0:
                raise DomainError("zero raised to negative power")
            return self._compose(v ** n, n * v ** (n - 1) if (v != 0.0 or n >= 1) else 0.0,
                                 n * (n - 1) * v ** (n - 2) if (v != 0.0 or n >= 2) else 0.0)
        if v <= 0.0:
            raise DomainError("fractional power of non-positive base")
        return self._compose(v ** p, p * v ** (p - 1.0), p * (p - 1.0) * v ** (p - 2.0))

    def __rpow__(self, base):
        return self._lift(base) ** self

    # -- function basis -----------------------------------------------------

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._compose(s, c, -s)

    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._compose(c, -s, -c)

    def tan(self):
        v = math.tan(self.value)
        u1 = 1.0 + v * v
        return self._compose(v, u1, 2.0 * v * u1)

    def exp(self):
        v = math.exp(self.value)
        return self._compose(v, v, v)

    @no_underflow
    def ln(self):
        v = self.value
        if v <= 0.0:
            raise DomainError("ln of non-positive value")
        return self._compose(math.log(v), 1.0 / v, -1.0 / v ** 2)

    @no_underflow
    def sqrt(self):
        v = self.value
        if v < 0.0:
            raise DomainError("sqrt of negative value")
        if v == 0.0:
            raise DomainError("sqrt jet undefined at zero")
        s = math.sqrt(v)
        return self._compose(s, 0.5 / s, -0.25 / (s * v))

    def absval(self):
        v = self.value
        if v > 0.0:
            return self._compose(v, 1.0, 0.0)
        if v < 0.0:
            return self._compose(-v, -1.0, 0.0)
        return self._constant(0.0, kink=True)


# ---------------------------------------------------------------------------
# Second-order jets in (t, r)
# ---------------------------------------------------------------------------

class Jet2(JetRules):
    """Value plus first and second partials with respect to (t, r).

    The ``kink`` flag records that the value passed through the corner of
    ``abs`` at zero, where the returned derivative (zero) is a convention
    rather than a limit.
    """

    __slots__ = ("value", "dt", "dr", "dtt", "dtr", "drr", "kink")

    def __init__(self, value, dt=0.0, dr=0.0, dtt=0.0, dtr=0.0, drr=0.0, kink=False):
        self.value = float(value)
        self.dt = float(dt)
        self.dr = float(dr)
        self.dtt = float(dtt)
        self.dtr = float(dtr)
        self.drr = float(drr)
        self.kink = bool(kink)

    @staticmethod
    def var_t(v) -> "Jet2":
        return Jet2(v, dt=1.0)

    @staticmethod
    def var_r(v) -> "Jet2":
        return Jet2(v, dr=1.0)

    def __repr__(self):
        return "Jet2(%g; dt=%g, dr=%g; dtt=%g, dtr=%g, drr=%g%s)" % (
            self.value, self.dt, self.dr, self.dtt, self.dtr, self.drr,
            ", kink" if self.kink else "")

    @staticmethod
    def _lift(x):
        if isinstance(x, Jet2):
            return x
        return Jet2(x)

    def _constant(self, v, kink=False):
        return Jet2(v, kink=kink or self.kink)

    def _is_constant(self) -> bool:
        return self.dt == self.dr == self.dtt == self.dtr == self.drr == 0.0

    def __add__(self, o):
        o = self._lift(o)
        return Jet2(self.value + o.value, self.dt + o.dt, self.dr + o.dr,
                    self.dtt + o.dtt, self.dtr + o.dtr, self.drr + o.drr,
                    self.kink or o.kink)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.dt, -self.dr, -self.dtt, -self.dtr,
                    -self.drr, self.kink)

    def __mul__(self, o):
        o = self._lift(o)
        a, b = self, o
        return Jet2(
            a.value * b.value,
            a.dt * b.value + a.value * b.dt,
            a.dr * b.value + a.value * b.dr,
            a.dtt * b.value + 2.0 * a.dt * b.dt + a.value * b.dtt,
            a.dtr * b.value + a.dt * b.dr + a.dr * b.dt + a.value * b.dtr,
            a.drr * b.value + 2.0 * a.dr * b.dr + a.value * b.drr,
            a.kink or b.kink)

    __rmul__ = __mul__

    def _compose(self, v, d1, d2):
        return Jet2(
            v,
            d1 * self.dt,
            d1 * self.dr,
            d2 * self.dt * self.dt + d1 * self.dtt,
            d2 * self.dt * self.dr + d1 * self.dtr,
            d2 * self.dr * self.dr + d1 * self.drr,
            self.kink)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
VARIABLES = ("t", "r")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"


Expression = Union[Num, Var, Param, Neg, BinOp, Call]


def _apply_fn(name: str, x):
    try:
        if not isinstance(x, (int, float)):   # a jet; math.sin(inf) raises here too
            return getattr(x, "absval" if name == "abs" else name)()
        if name == "ln":
            if x <= 0.0:
                raise DomainError("ln of non-positive value")
            return math.log(x)
        if name == "sqrt":
            if x < 0.0:
                raise DomainError("sqrt of negative value")
            return math.sqrt(x)
        if name == "abs":
            return abs(x)
        return getattr(math, name)(x)
    except ValueError as exc:
        raise DomainError(str(exc))


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ---------------------------------------------------------------------------

_DIGITS = "0123456789"


class _Tokenizer:
    def __init__(self, source: str):
        self.src = source
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        src, n = self.src, len(self.src)
        i = 0
        while i < n:
            ch = src[i]
            if ch in " \t\r\n":
                i += 1
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch in _DIGITS or (ch == "." and i + 1 < n and src[i + 1] in _DIGITS):
                j = i
                while j < n and src[j] in _DIGITS:
                    j += 1
                if j < n and src[j] == ".":
                    j += 1
                    while j < n and src[j] in _DIGITS:
                        j += 1
                if j < n and src[j] in "eE":
                    k = j + 1
                    if k < n and src[k] in "+-":
                        k += 1
                    if k < n and src[k] in _DIGITS:
                        j = k
                        while j < n and src[j] in _DIGITS:
                            j += 1
                self.tokens.append(("num", src[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                self.tokens.append(("ident", src[i:j], i))
                i = j
                continue
            raise ExpressionSyntaxError(i, ("number", "identifier", "operator"), ch)
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        if tok[0] != "end":
            self.idx += 1
        return tok


class _Parser:
    """expr := term (('+'|'-') term)*
    term := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary := '-'? atom
    atom := number | ident | ident '(' expr ')' | '(' expr ')'
    """

    def __init__(self, source: str):
        self.tk = _Tokenizer(source)

    def parse(self) -> Expression:
        e = self.expr()
        kind, text, pos = self.tk.peek()
        if kind != "end":
            raise ExpressionSyntaxError(pos, ("operator", "end of input"), text)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.tk.peek()[0] in ("+", "-"):
            op = self.tk.advance()[0]
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expression:
        e = self.factor()
        while self.tk.peek()[0] in ("*", "/"):
            op = self.tk.advance()[0]
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expression:
        e = self.unary()
        if self.tk.peek()[0] == "^":
            self.tk.advance()
            e = BinOp("^", e, self.factor())
        return e

    def unary(self) -> Expression:
        if self.tk.peek()[0] == "-":
            self.tk.advance()
            return Neg(self.atom())
        return self.atom()

    def atom(self) -> Expression:
        kind, text, pos = self.tk.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "(":
            e = self.expr()
            k2, t2, p2 = self.tk.advance()
            if k2 != ")":
                raise ExpressionSyntaxError(p2, (")",), t2)
            return e
        if kind == "ident":
            if self.tk.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifier(text, pos)
                self.tk.advance()
                arg = self.expr()
                k2, t2, p2 = self.tk.advance()
                if k2 != ")":
                    raise ExpressionSyntaxError(p2, (")",), t2)
                return Call(text, arg)
            if text == "pi":
                return Num(math.pi)
            if text in FUNCTIONS:
                raise UnknownIdentifier(text, pos)
            if text in VARIABLES:
                return Var(text)
            return Param(text)
        raise ExpressionSyntaxError(pos, ("number", "identifier", "(", "-"), text)


def parse(source: str) -> Expression:
    if not source or not source.strip():
        raise ExpressionSyntaxError(0, ("expression",), "")
    return _Parser(source).parse()


def _div(a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _pow(a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if float(b).is_integer():
            if a == 0.0 and b < 0:
                raise DomainError("zero raised to negative power")
        elif a <= 0.0:
            raise DomainError("fractional power of non-positive base")
    return a ** b


def _load_param(name: str, env):
    try:
        return env[name]
    except KeyError:
        raise UnboundParameter(name) from None


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "^": _pow}


def compile_program(exprs, bound=None):
    """Compile ASTs into one function env -> tuple of their values: the
    package's one evaluator, a hash-consed DAG run as a straight-line program.

    Each distinct subexpression gets one register and runs once per call, where
    a left-to-right walk of exprs[0], exprs[1], ... first meets it, so the first
    failure is the walk's.  Nothing is rewritten or folded: an instruction is an
    AST node with its domain checks.  Numbers and the parameters valued in
    ``bound[i]`` for ``exprs[i]`` are pre-filled registers keyed on (type,
    repr), so 0.0 and -0.0, or 1 and 1.0, stay apart.  ``env`` gives the
    variables and other parameters as floats, Jet1, Jet2 or MultiJet.
    """
    regs = [None]        # register 0 holds env during a call
    code = []
    index = {}

    def visit(e, params):
        if isinstance(e, Num) or (isinstance(e, Param) and e.name in params):
            v = e.value if isinstance(e, Num) else params[e.name]
            key = (type(v), repr(v))
            if key not in index:
                index[key] = len(regs)
                regs.append(v)
            return index[key]
        if isinstance(e, (Var, Param)):   # loaded from env (register 0)
            key, a, b = (type(e), e.name), 0, None
            fn = operator.itemgetter(e.name) if isinstance(e, Var) else partial(_load_param, e.name)
        elif isinstance(e, Neg):
            a = visit(e.arg, params)
            key, fn, b = ("neg", a), operator.neg, None
        elif isinstance(e, Call):
            a = visit(e.arg, params)
            key, fn, b = (e.fn, a), partial(_apply_fn, e.fn), None
        elif isinstance(e, BinOp) and e.op in _BINARY:
            a = visit(e.left, params)
            b = visit(e.right, params)
            key, fn = (e.op, a, b), _BINARY[e.op]
        else:
            raise TypeError("not an expression node: %r" % (e,))
        if key not in index:
            index[key] = len(regs)
            code.append((fn, len(regs), a, b))
            regs.append(None)
        return index[key]

    outs = [visit(e, bound[i] if bound else {}) for i, e in enumerate(exprs)]

    def run(env):
        r = regs.copy()
        r[0] = env
        for fn, d, a, b in code:
            r[d] = fn(r[a]) if b is None else fn(r[a], r[b])
        return tuple([r[i] for i in outs])
    return run


def compile_fields(fields):
    """One program for ScalarFields, each with its own bound parameters."""
    return compile_program([f.expr for f in fields], [f.params for f in fields])


def compile_expression(e: Expression):
    """The one-output program: a function env -> value of ``e``."""
    run = compile_program([e])
    return lambda env: run(env)[0]


def evaluate(e: Expression, env: Mapping[str, object]):
    return compile_expression(e)(env)


def substitute(e: Expression, mapping: Mapping[str, "Expression"]) -> Expression:
    """Replace variables/parameters by expressions (capture-free tree rewrite)."""
    if isinstance(e, Num):
        return e
    if isinstance(e, (Var, Param)):
        return mapping.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, mapping))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, mapping))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, mapping), substitute(e.right, mapping))
    raise TypeError("not an expression node: %r" % (e,))


def parameter_names(e: Expression) -> set:
    """Names of the parameters ``e`` reads."""
    if isinstance(e, Param):
        return {e.name}
    if isinstance(e, (Neg, Call)):
        return parameter_names(e.arg)
    if isinstance(e, BinOp):
        return parameter_names(e.left) | parameter_names(e.right)
    return set()


_ZERO, _ONE = Num(0.0), Num(1.0)


def _is(e, v) -> bool:
    return isinstance(e, Num) and e.value == v


def _add(a, b):
    return b if _is(a, 0.0) else a if _is(b, 0.0) else BinOp("+", a, b)


def _sub(a, b):
    return a if _is(b, 0.0) else Neg(b) if _is(a, 0.0) else BinOp("-", a, b)


def _mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    return b if _is(a, 1.0) else a if _is(b, 1.0) else BinOp("*", a, b)


def derivative(e: Expression, var: str) -> Expression:
    """The partial derivative of ``e`` in the variable or parameter ``var``.

    Forward mode by source transformation: each node's rule is the chain rule
    of `JetRules` written as an AST, so the result runs through the same
    evaluator with the same domain checks (a quotient still divides by its
    denominator, d sqrt(u) divides by sqrt(u), d|u| by |u|).  Only 0*x, x+0
    and 1*x are folded.  Shared subtrees are differentiated once.
    """
    memo = {}

    def d(x):
        if id(x) not in memo:
            memo[id(x)] = rule(x)
        return memo[id(x)]

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
        if x.op == "/":   # (a / b)' = (a' - (a / b) b') / b
            if _is(da, 0.0) and _is(db, 0.0):
                return _ZERO
            return BinOp("/", _sub(da, _mul(x, db)), b)
        if not _is(db, 0.0):   # a^b = exp(b ln a): a^b (a' b / a + ln(a) b')
            return _mul(x, _add(_mul(da, BinOp("/", b, a)), _mul(Call("ln", a), db)))
        if _is(b, 0.0):
            return _ZERO
        n1 = Num(b.value - 1.0) if isinstance(b, Num) else BinOp("-", b, _ONE)
        return _mul(_mul(b, BinOp("^", a, n1)), da)

    return d(e)


# ---------------------------------------------------------------------------
# Printer (inverse of parse up to evaluation equivalence)
# ---------------------------------------------------------------------------

def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(e: Expression) -> str:
    """Print an AST so that ``parse(to_source(e))`` evaluates identically."""

    def atom_str(x: Expression) -> str:
        s = emit(x)
        if isinstance(x, (Num, Var, Param, Call)):
            return s
        return "(" + s + ")"

    def emit(x: Expression) -> str:
        if isinstance(x, Num):
            return _fmt_num(x.value)
        if isinstance(x, (Var, Param)):
            return x.name
        if isinstance(x, Call):
            return "%s(%s)" % (x.fn, emit(x.arg))
        if isinstance(x, Neg):
            return "-" + atom_str(x.arg)
        if isinstance(x, BinOp):
            if x.op == "^":
                # base must print as a 'unary', exponent as a 'factor'
                lhs = emit(x.left) if isinstance(x.left, (Num, Var, Param, Call, Neg)) else "(" + emit(x.left) + ")"
                rhs_ok = isinstance(x.right, (Num, Var, Param, Call, Neg)) or (
                    isinstance(x.right, BinOp) and x.right.op == "^")
                rhs = emit(x.right) if rhs_ok else "(" + emit(x.right) + ")"
                return "%s^%s" % (lhs, rhs)
            if x.op in "*/":
                lhs_ok = isinstance(x.left, (Num, Var, Param, Call, Neg)) or (
                    isinstance(x.left, BinOp) and x.left.op in "*/^")
                rhs_ok = isinstance(x.right, (Num, Var, Param, Call, Neg)) or (
                    isinstance(x.right, BinOp) and x.right.op == "^")
                lhs = emit(x.left) if lhs_ok else "(" + emit(x.left) + ")"
                rhs = emit(x.right) if rhs_ok else "(" + emit(x.right) + ")"
                return "%s %s %s" % (lhs, x.op, rhs)
            # + or -
            lhs = emit(x.left)
            rhs = emit(x.right) if not (isinstance(x.right, BinOp) and x.right.op in "+-") else "(" + emit(x.right) + ")"
            return "%s %s %s" % (lhs, x.op, rhs)
        raise TypeError("not an expression node: %r" % (x,))

    return emit(e)


# ---------------------------------------------------------------------------
# ScalarField: expression + bound parameters
# ---------------------------------------------------------------------------

def eval_jet2(e: Expression, t: float, r: float, params: Mapping[str, float]) -> Jet2:
    return ScalarField(e, params).jet(t, r)


def _merge_params(params: dict, more: Mapping[str, float]) -> dict:
    """Add ``more`` to ``params`` in place; a name bound to two values is an error."""
    for k, v in more.items():
        if k in params and params[k] != v:
            raise ValueError("conflicting values for parameter %r" % k)
        params[k] = v
    return params


class ScalarField:
    """A function of (t, r): parsed expression plus bound parameter values.

    Fields support +, -, *, / and unary minus, which compose the underlying
    ASTs; derivatives of composites therefore stay exact.
    """

    __slots__ = ("expr", "params", "_run")

    def __init__(self, expr, params: Mapping[str, float] | None = None):
        if isinstance(expr, str):
            expr = parse(expr)
        self.expr = expr
        self.params = dict(params or {})
        self._run = None   # compiled on first evaluation

    @staticmethod
    def zero() -> "ScalarField":
        return ScalarField(Num(0.0))

    @staticmethod
    def constant(v: float) -> "ScalarField":
        return ScalarField(Num(float(v)))

    def is_structural_zero(self) -> bool:
        return isinstance(self.expr, Num) and self.expr.value == 0.0

    def _eval(self, t, r):
        if self._run is None:
            self._run = compile_fields([self])
        return self._run({"t": t, "r": r})[0]

    def value(self, t: float, r: float) -> float:
        return float(self._eval(float(t), float(r)))

    def jet(self, t: float, r: float) -> Jet2:
        return Jet2._lift(self._eval(Jet2.var_t(t), Jet2.var_r(r)))

    def source(self) -> str:
        return to_source(self.expr)

    def derivative(self, var: str) -> "ScalarField":
        return ScalarField(derivative(self.expr, var), self.params)

    # -- field algebra ------------------------------------------------------

    def _binop(self, op: str, other) -> "ScalarField":
        if not isinstance(other, ScalarField):
            other = ScalarField.constant(other)
        return ScalarField(BinOp(op, self.expr, other.expr),
                           _merge_params(dict(self.params), other.params))

    def __add__(self, o):
        return self._binop("+", o)

    def __sub__(self, o):
        return self._binop("-", o)

    def __mul__(self, o):
        return self._binop("*", o)

    def __truediv__(self, o):
        return self._binop("/", o)

    def __neg__(self):
        return ScalarField(Neg(self.expr), dict(self.params))

    def __rmul__(self, o):
        return ScalarField.constant(o)._binop("*", self)

    def __radd__(self, o):
        return ScalarField.constant(o)._binop("+", self)

    def __rsub__(self, o):
        return ScalarField.constant(o)._binop("-", self)

    def __rtruediv__(self, o):
        return ScalarField.constant(o)._binop("/", self)

    def substitute(self, mapping: Mapping[str, "ScalarField"]) -> "ScalarField":
        """Compose with fields: replace named variables by other fields' ASTs."""
        expr_map = {}
        params = dict(self.params)
        for name, f in mapping.items():
            if not isinstance(f, ScalarField):
                f = ScalarField.constant(f)
            expr_map[name] = f.expr
            _merge_params(params, f.params).pop(name, None)
        return ScalarField(substitute(self.expr, expr_map), params)

    def __repr__(self):
        return "ScalarField(%r)" % self.source()
