"""Closed-form scalar fields with exact derivatives.

A field is parsed from a small arithmetic grammar (see ``parse``) into an
immutable, interned AST whose every node is a `ScalarField`: one live node
per structure, so equal subexpressions are one object.  `compile_program`
turns fields into one straight-line program that runs on plain floats or on
numpy arrays of points (``on_arrays``).  `derivative` applies the
forward-mode rules to a field (source transformation), so a partial
derivative is again a field, to be compiled with its function or
differentiated further: derivatives of any parsed field are exact for the
supported function basis, with no finite differencing and no jet arithmetic.
"""

from __future__ import annotations

import math
import operator
import weakref
from _weakref import _remove_dead_weakref
from typing import Mapping, NamedTuple

import numpy as np


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


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
VARIABLES = ("t", "r")

# Nodes are hash-consed: `_Node`'s one constructor returns the one live node
# of its structure, so equal subexpressions are one object, ``==`` is
# identity, and every walk memoized on ``id`` visits each distinct
# subexpression once.  `_INTERNED` maps a node's key to a weak reference,
# dropped when the node dies.  A key is the class and the fields; a child
# hashes and compares by identity, and the key holds it no longer than the
# node does.  Numbers are keyed on their type and value, a zero on its repr,
# so 0.0 and -0.0, or 1 and 1.0, stay apart as `compile_program`'s registers
# do (the repr of every number made parsing a tenth slower).  A node keeps
# the set of leaves it reads (`_Node.leaves`), a function of its structure.
_INTERNED = {}
_set = object.__setattr__


class _Entry(weakref.ref):
    """`_INTERNED`'s weak reference to a node, which knows the node's key."""
    __slots__ = ("key",)


def _forget(entry, drop=_remove_dead_weakref, table=_INTERNED):
    """Drop the entry of a node that died (``drop`` and ``table`` are bound
    here, so that a node that dies at interpreter exit still finds them)."""
    drop(table, entry.key)


class Partials(NamedTuple):
    """A value with its first (t, r)-partials."""
    value: float
    dt: float
    dr: float


class ScalarField:
    """A function of (t, r) and of the parameters it reads: an expression
    node, of one of the six kinds below.  ``ScalarField(text)`` parses the
    text, ``ScalarField(field)`` is the field; ``params`` binds parameters,
    each `Param` it names becoming a `Num` of its value (a `Var`, t or r, is
    never replaced), so a field keeps its values in any composite and a
    program reads an unbound parameter from its env.  The operators and `call`
    build nodes; `value` and `jet` compile a program on every call."""
    __slots__ = ()

    def __new__(cls, expr, params: Mapping[str, float] | None = None):
        if isinstance(expr, str):
            expr = parse(expr)
        elif not isinstance(expr, ScalarField):
            raise TypeError("not a field or expression text: %r" % (expr,))
        if params:
            expr = _rewrite(expr, {Param(k): Num(v) for k, v in params.items()})
        return expr

    @staticmethod
    def zero() -> "ScalarField":
        return Num(0.0)

    @staticmethod
    def constant(v: float) -> "ScalarField":
        return Num(float(v))

    def is_structural_zero(self) -> bool:
        return _is(self, 0.0)

    def value(self, t: float, r: float) -> float:
        return float(compile_program([self])({"t": float(t), "r": float(r)})[0])

    def jet(self, t: float, r: float) -> Partials:
        """The value and its t- and r-partials: one program of the field and
        its `derivative`s, with their domain checks."""
        run = compile_program([self, derivative(self, "t"), derivative(self, "r")])
        return Partials(*map(float, run({"t": float(t), "r": float(r)})))

    def source(self) -> str:
        return to_source(self)

    def derivative(self, var: str) -> "ScalarField":
        return derivative(self, var)

    def substitute(self, mapping: Mapping[str, object]) -> "ScalarField":
        """Replace variables/parameters by fields or numbers (capture-free
        rewrite of each distinct subexpression once); an empty ``mapping``
        returns the field itself."""
        return _rewrite(self, {leaf(name): x if isinstance(x, ScalarField) else Num(float(x))
                               for name, x in mapping.items() for leaf in (Var, Param)})

    def call(self, fn: str) -> "ScalarField":
        """fn(self) for a basis function ``fn`` (see FUNCTIONS)."""
        return Call(fn, self)

    def _binop(self, op: str, other) -> "ScalarField":
        return BinOp(op, self, other if isinstance(other, ScalarField)
                     else ScalarField.constant(other))

    def __add__(self, o):
        return self._binop("+", o)

    def __sub__(self, o):
        return self._binop("-", o)

    def __mul__(self, o):
        return self._binop("*", o)

    def __truediv__(self, o):
        return self._binop("/", o)

    def __pow__(self, o):
        return self._binop("^", o)

    def __neg__(self):
        return Neg(self)

    def __radd__(self, o):
        return ScalarField.constant(o)._binop("+", self)

    def __rsub__(self, o):
        return ScalarField.constant(o)._binop("-", self)

    def __rmul__(self, o):
        return ScalarField.constant(o)._binop("*", self)

    def __rtruediv__(self, o):
        return ScalarField.constant(o)._binop("/", self)


class _Node(ScalarField):
    """An interned, immutable expression node.  A kind declares its fields
    once, ``__slots__ = _fields = (...)``, and is built from them in order."""
    __slots__ = ("__weakref__", "_leaves")
    _fields = ()
    _key = None   # a classmethod where the key is not (kind, *fields)

    def __new__(cls, *fields):
        key = (cls, *fields) if cls._key is None else cls._key(*fields)
        ref = _INTERNED.get(key)
        node = ref and ref()
        if node is None:
            if len(fields) != len(cls._fields):
                raise TypeError("%s takes %s" % (cls.__name__, ", ".join(cls._fields)))
            node = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                _set(node, name, value)
            entry = _INTERNED[key] = _Entry(node, _forget)
            entry.key = key
        return node

    def __setattr__(self, name, value):
        raise AttributeError("cannot set %r: expression nodes are immutable" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r: expression nodes are immutable" % name)

    def __repr__(self, depth: int = 6) -> str:
        """The node's fields down to ``depth`` levels, "..." below: a shared
        subexpression prints where it occurs, so the whole text can be
        exponentially longer than the DAG."""
        if depth == 0:
            return "..."
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%s" % (name, x.__repr__(depth - 1) if isinstance(x, _Node) else repr(x))
            for name, x in zip(self._fields, self._parts())))

    def _parts(self) -> list:
        return [getattr(self, name) for name in self._fields]

    def leaves(self) -> frozenset:
        """The `Var` and `Param` nodes this node reads, found on first use
        and kept: a node reuses a child's set where the others add nothing."""
        try:
            return self._leaves
        except AttributeError:
            pass
        out = frozenset()
        for x in self._parts():
            if isinstance(x, _Node):
                s = x.leaves()
                out = s if out <= s else out if s <= out else out | s
        _set(self, "_leaves", out)
        return out


class _Leaf(_Node):
    """A `Var` or `Param`: the one leaf it reads is itself, a set not kept,
    as a node holding a set that holds the node would be a reference cycle."""
    __slots__ = ()

    def leaves(self) -> frozenset:
        return frozenset((self,))


class Num(_Node):
    __slots__ = _fields = ("number",)

    @classmethod
    def _key(cls, number):
        return (cls, type(number), number if number else repr(number))


class Var(_Leaf):
    __slots__ = _fields = ("name",)


class Param(_Leaf):
    __slots__ = _fields = ("name",)


class Neg(_Node):
    __slots__ = _fields = ("arg",)


class BinOp(_Node):
    __slots__ = _fields = ("op", "left", "right")   # op: one of + - * / ^


class Call(_Node):
    __slots__ = _fields = ("fn", "arg")


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
    """sum := term (('+'|'-') term)*
    term := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary := '-'? atom
    atom := number | ident | ident '(' sum ')' | '(' sum ')'
    """

    def __init__(self, source: str):
        self.tk = _Tokenizer(source)

    def parse(self) -> ScalarField:
        e = self.sum()
        kind, text, pos = self.tk.peek()
        if kind != "end":
            raise ExpressionSyntaxError(pos, ("operator", "end of input"), text)
        return e

    def sum(self) -> ScalarField:
        e = self.term()
        while self.tk.peek()[0] in ("+", "-"):
            op = self.tk.advance()[0]
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> ScalarField:
        e = self.factor()
        while self.tk.peek()[0] in ("*", "/"):
            op = self.tk.advance()[0]
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> ScalarField:
        e = self.unary()
        if self.tk.peek()[0] == "^":
            self.tk.advance()
            e = BinOp("^", e, self.factor())
        return e

    def unary(self) -> ScalarField:
        if self.tk.peek()[0] == "-":
            self.tk.advance()
            return Neg(self.atom())
        return self.atom()

    def atom(self) -> ScalarField:
        kind, text, pos = self.tk.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "(":
            e = self.sum()
            k2, t2, p2 = self.tk.advance()
            if k2 != ")":
                raise ExpressionSyntaxError(p2, (")",), t2)
            return e
        if kind == "ident":
            if self.tk.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise UnknownIdentifier(text, pos)
                self.tk.advance()
                arg = self.sum()
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


def parse(source: str) -> ScalarField:
    if not source or not source.strip():
        raise ExpressionSyntaxError(0, ("expression",), "")
    return _Parser(source).parse()


def _div(a, b):
    """a / b; dividing by zero, or a finite a by so small a b that the
    quotient is not finite, leaves the domain."""
    if b == 0.0:
        raise DomainError("division by zero")
    q = a / b
    if math.isinf(q) and math.isfinite(a):
        raise DomainError("quotient overflows")
    return q


def _pow(a, b):
    if a != a or b != b:   # NaN, which x^0 and 1^x would hide
        return math.nan
    if float(b).is_integer():
        if a == 0.0 and b < 0:
            raise DomainError("zero raised to negative power")
    elif a <= 0.0:
        raise DomainError("fractional power of non-positive base")
    return a ** b


def _ln(x):
    if x <= 0.0:
        raise DomainError("ln of non-positive value")
    return math.log(x)


def _sqrt(x):
    if x < 0.0:
        raise DomainError("sqrt of negative value")
    return math.sqrt(x)


def _load_param(env, name: str):
    try:
        return env[name]
    except KeyError:
        raise UnboundParameter(name) from None


# The array arithmetic: each op is NaN where its `_FLOAT` twin raises (np.sqrt
# and the sines are as they are), and NaN where an operand is, so a point
# fails exactly where an output is not finite (see `on_arrays`).

def _div_array(a, b):
    q = np.divide(a, b)
    if np.isfinite(q).all():   # no zero divisor and no overflow: the common case, in 3 ops
        return q
    return np.where((b == 0.0) | (np.isinf(q) & np.isfinite(a)), np.nan, q)


def _pow_array(a, b):
    p = np.power(a, b)
    integer = np.isfinite(b) & (np.floor(b) == b)
    bad = np.where(integer, (a == 0.0) & (b < 0), a <= 0.0) | np.isnan(a) | np.isnan(b)
    return np.where(bad | (np.isinf(p) & np.isfinite(a) & np.isfinite(b)), np.nan, p)


def _exp_array(x):
    y = np.exp(x)
    return np.where(np.isinf(y) & np.isfinite(x), np.nan, y)


def _ln_array(x):
    return np.log(np.where(x > 0.0, x, np.nan))


# An instruction (op, dst, a, b) sets r[dst] = table[op](r[a]), or (r[a], r[b])
# where b is not None; "var" and "param" load the name in r[b] from env, r[0].
_FLOAT = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "^": _pow,
          "neg": operator.neg, "var": operator.getitem, "param": _load_param,
          "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
          "ln": _ln, "sqrt": _sqrt, "abs": abs}
_ARRAY = dict(_FLOAT, **{"/": _div_array, "^": _pow_array, "sin": np.sin, "cos": np.cos,
                         "tan": np.tan, "exp": _exp_array, "ln": _ln_array, "sqrt": np.sqrt,
                         "abs": np.abs})
_LEAN_POINTS = 1024


def compile_program(exprs):
    """Compile fields into one function env -> tuple of their values: the
    package's one evaluator, a hash-consed DAG run as a straight-line program.

    Each distinct subexpression is one instruction (op, dst, a, b), run once
    per call where a left-to-right walk of exprs[0], exprs[1], ... first meets
    it, so the first failure is the walk's.  Nothing is rewritten or folded:
    ``op`` is a key of the float and the array table, `_FLOAT` and `_ARRAY`,
    whose entries carry the domain checks.  Numbers are pre-filled registers
    keyed on (type, repr), so 0.0 and -0.0, or 1 and 1.0, stay apart, and so
    are the names that variables and unbound parameters load from ``env``.

    ``run.on_arrays(env)`` runs the same instructions on numpy arrays of
    points (vector mode) and raises for no point.  It returns one
    C-contiguous array of shape ``points + (n_outputs,)`` (output j, a
    constant too, fills column ``[..., j]``) and ``ok``, true exactly where
    the float run at that point raises nothing and gives finite outputs:
    there the values are the float run's, with numpy's basis functions.  A
    caller that must raise runs the float program at its first failed point.
    A run on at least `_LEAN_POINTS` points holds only the arrays still to
    be read: a register is reused once its last reader has run
    (`_reuse_registers`, renamed on the first such run, as the renaming
    costs about as much as running the instructions on a thousand points).
    """
    regs = [None]        # register 0 holds env during a call
    code = []
    index = {}           # (type, repr) of a constant -> its register
    memo = {}            # node -> its register

    def constant(v):
        key = (type(v), repr(v))
        if key not in index:
            index[key] = len(regs)
            regs.append(v)
        return index[key]

    def visit(e):
        i = memo.get(e)
        if i is not None:
            return i
        kind = type(e)
        if kind is BinOp and e.op in ("+", "-", "*", "/", "^"):
            op, a, b = e.op, visit(e.left), visit(e.right)
        elif kind is Num:
            i = memo[e] = constant(e.number)
            return i
        elif kind is Call and e.fn in FUNCTIONS:
            op, a, b = e.fn, visit(e.arg), None
        elif kind is Neg:
            op, a, b = "neg", visit(e.arg), None
        elif kind is Var or kind is Param:   # loads the name in register b from env
            op, a, b = "var" if kind is Var else "param", 0, constant(e.name)
        else:
            raise TypeError("not an expression node: %r" % (e,))
        i = memo[e] = len(regs)
        code.append((op, i, a, b))
        regs.append(None)
        return i

    outs = [visit(e) for e in exprs]
    del visit   # a recursive closure: free the memo now, not at a gc pass

    def execute(steps, env):
        r = regs.copy()
        r[0] = env
        for fn, d, a, b in steps:
            r[d] = fn(r[a]) if b is None else fn(r[a], r[b])
        return r

    floats = []   # code through _FLOAT, made on the first run
    arrays = {}   # lean -> (code through _ARRAY, outs), registers reused when lean

    def run(env):
        if not floats:
            floats[:] = [(_FLOAT[op], d, a, b) for op, d, a, b in code]
        try:
            r = execute(floats, env)
        except ExpressionError:
            raise
        except ValueError as exc:   # math's own: sin, cos or tan of +-inf
            raise DomainError(str(exc))
        return tuple([r[i] for i in outs])

    def on_arrays(env):
        shape = np.broadcast_shapes(*map(np.shape, env.values()))
        lean = math.prod(shape) >= _LEAN_POINTS
        if lean not in arrays:
            steps, results = _reuse_registers(code, outs) if lean else (code, outs)
            arrays[lean] = [(_ARRAY[op], d, a, b) for op, d, a, b in steps], results
        steps, results = arrays[lean]
        with np.errstate(all="ignore"):
            r = execute(steps, env)
        out = np.empty(shape + (len(results),))
        for j, i in enumerate(results):
            out[..., j] = r[i]
        return out, np.isfinite(out).all(axis=-1)

    run.on_arrays = on_arrays
    return run


def _reuse_registers(code: list, outs: list) -> tuple:
    """``code`` and ``outs`` with the computed registers renamed so that one
    is reused once its last reader has run.  An instruction reads its
    operands before it writes, so its result may take an operand's place."""
    last = {}
    for pos, (_op, _d, a, b) in enumerate(code):
        last[a] = last[b] = pos
    last.update((i, len(code)) for i in outs)
    dying = {}   # position -> the computed registers it reads for the last time
    for _op, d, _a, _b in code:
        if last.get(d, len(code)) < len(code):
            dying.setdefault(last[d], []).append(d)
    name, free, renamed = {}, [], []
    for pos, (op, d, a, b) in enumerate(code):
        a, b = name.get(a, a), name.get(b, b)
        free.extend([name[x] for x in dying.get(pos, ())])
        name[d] = slot = free.pop() if free else d
        renamed.append((op, slot, a, b))
    return renamed, [name.get(i, i) for i in outs]


def _rewrite(e: ScalarField, memo: dict) -> ScalarField:
    """``e`` with each node that is a key of ``memo`` replaced by its value,
    each distinct subexpression rewritten once (into ``memo``)."""

    def sub(x):
        y = memo.get(x)
        if y is None:
            if not isinstance(x, _Node):
                raise TypeError("not an expression node: %r" % (x,))
            parts = x._parts()
            kids = [sub(f) if isinstance(f, _Node) else f for f in parts]
            y = memo[x] = x if kids == parts else type(x)(*kids)
        return y

    out = sub(e)
    del sub   # a recursive closure: free the memo now, not at a gc pass
    return out


def parameter_names(e: ScalarField) -> set:
    """Names of the parameters ``e`` reads: its `Param` leaves."""
    return {x.name for x in e.leaves() if type(x) is Param}


_ZERO, _ONE = Num(0.0), Num(1.0)


def _is(e, v) -> bool:
    return type(e) is Num and e.number == v


def _add(a, b):
    return b if _is(a, 0.0) else a if _is(b, 0.0) else BinOp("+", a, b)


def _sub(a, b):
    return a if _is(b, 0.0) else Neg(b) if _is(a, 0.0) else BinOp("-", a, b)


def _mul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return _ZERO
    return b if _is(a, 1.0) else a if _is(b, 1.0) else BinOp("*", a, b)


# d fn(u) / du of each basis function, as a node of x = fn(u) and u
_OUTER = {"sin": lambda x, u: Call("cos", u), "cos": lambda x, u: Neg(Call("sin", u)),
          "tan": lambda x, u: BinOp("+", _ONE, BinOp("*", x, x)), "exp": lambda x, u: x,
          "ln": lambda x, u: BinOp("/", _ONE, u), "sqrt": lambda x, u: BinOp("/", Num(0.5), x),
          "abs": lambda x, u: BinOp("/", u, x)}


def derivative(e: ScalarField, var: str) -> ScalarField:
    """The partial derivative of ``e`` in the variable or parameter ``var``;
    of a tuple of fields, the tuple of their partials.

    Forward mode by source transformation: each node's rule is the chain rule
    written as an AST, so the result runs through the same
    evaluator with the same domain checks (a quotient still divides by its
    denominator, d sqrt(u) divides by sqrt(u), d|u| by |u|).  Only 0*x, x+0
    and 1*x are folded.  Shared subtrees, also of different members of a
    tuple, are differentiated once.  A subtree that reads no leaf named
    ``var`` is not visited: its partial is `Num(0.0)`, as the rules would
    fold it.  So a rule only meets a leaf named ``var``, whose partial is 1,
    and nodes with children.
    """
    memo = {}
    named = (Var(var), Param(var))

    def d(x):
        y = memo.get(x)
        if y is None:
            y = memo[x] = _ZERO if x.leaves().isdisjoint(named) else rule(x)
        return y

    def rule(x):
        kind = type(x)
        if kind is BinOp:
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
            n1 = Num(b.number - 1.0) if type(b) is Num else BinOp("-", b, _ONE)
            return _mul(_mul(b, BinOp("^", a, n1)), da)
        if kind is Call:
            du = d(x.arg)
            return _ZERO if _is(du, 0.0) else _mul(_OUTER[x.fn](x, x.arg), du)
        if kind is Neg:
            return _sub(_ZERO, d(x.arg))
        return _ONE   # Var(var) or Param(var)

    out = tuple(map(d, e)) if isinstance(e, tuple) else d(e)
    del d, rule   # recursive closures: free the memo now, not at a gc pass
    return out


# ---------------------------------------------------------------------------
# Printer (inverse of parse up to evaluation equivalence)
# ---------------------------------------------------------------------------

def _fmt_num(v: float) -> str:
    """The shortest text that parses to the float of ``v``, its sign too (a
    numpy scalar prints as a float, an integral value without ".0")."""
    if not math.isfinite(v):
        raise ExpressionError("the number %r has no source text" % (v,))
    text = repr(float(v))
    return text[:-2] if text.endswith(".0") else text


def to_source(e: ScalarField) -> str:
    """Print a field so that ``parse(to_source(e))`` evaluates identically."""

    def atom_str(x: ScalarField) -> str:
        s = emit(x)
        if isinstance(x, (Var, Param, Call)) or isinstance(x, Num) and s[0] != "-":
            return s
        return "(" + s + ")"

    def emit(x: ScalarField) -> str:
        if isinstance(x, Num):
            return _fmt_num(x.number)
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
