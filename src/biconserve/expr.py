"""Closed expression trees over chart parameters: jet and array evaluation.

Supported operations: + - * /, power with a real literal exponent, sin, cos,
sinh, cosh, exp, sqrt, negation, and calls to named profile functions that
supply their own derivative ladders.  Trees are frozen dataclasses so charts
stay immutable and picklable for worker pools.

Two evaluators walk the same trees with the same domain guards: jet_eval
gives Taylor coefficients (the forward route), eval_values gives plain values
(the array route).  Both take one point (n,) or a block of points (P, n) and
do one numpy operation per node for the whole block.  The difference quotients
of fd_partial, the oracle's route, use only the array route: one tree walk
covers every stencil point of a stack of multi-indices at every base point.
In both, an overflow raises DomainError naming the node: a non-finite value
of a function call or a power (or, on the jet route, of any derivative
ladder) names that node, a non-finite result of the plain arithmetic names
the whole tree.

Text syntax (used by the CLI):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom (('^' | '**') signed_number)?
    atom   := number | name | name '(' expr ')' | '(' expr ')'

Variable names come from the chart (s, t, u, v for four parameters); any
other call name is looked up in the profile bank, e.g. ``phi(s)*cos(v)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DomainError
from .jets import Jet, JetSpace
from .jets import jet as _jetops
from .jets.jet import check_finite, guard


class Expr:
    """Base class; concrete nodes are frozen dataclasses below."""

    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __radd__(self, other):
        return Add(_as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, _as_expr(other))

    def __rsub__(self, other):
        return Sub(_as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, _as_expr(other))

    def __rmul__(self, other):
        return Mul(_as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return Div(_as_expr(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, p):
        return Pow(self, float(p))


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(float(x))


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int
    name: str = ""


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Pow(Expr):
    a: Expr
    exponent: float


@dataclass(frozen=True)
class Call(Expr):
    fn: str  # sin cos sinh cosh exp sqrt
    a: Expr


@dataclass(frozen=True)
class ProfileCall(Expr):
    name: str
    a: Expr


_UNARY = {
    "sin": _jetops.sin,
    "cos": _jetops.cos,
    "sinh": _jetops.sinh,
    "cosh": _jetops.cosh,
    "exp": _jetops.exp,
    "sqrt": _jetops.sqrt,
}


def _named(node: Expr, err: DomainError) -> DomainError:
    return DomainError(f"{err} in {node_repr(node)}")


def _check_node(node: Expr, vals):
    try:
        check_finite(vals)
    except DomainError as e:
        raise _named(node, e) from None


def _eval(node: Expr, vars_: list[Jet], bank) -> Jet:
    if isinstance(node, Const):
        v = vars_[0]
        out = Jet.constant(v.space, v.order, np.full(v.c.shape[1:], node.value))
    elif isinstance(node, Var):
        out = vars_[node.index]
    elif isinstance(node, Add):
        out = _eval(node.a, vars_, bank) + _eval(node.b, vars_, bank)
    elif isinstance(node, Sub):
        out = _eval(node.a, vars_, bank) - _eval(node.b, vars_, bank)
    elif isinstance(node, Mul):
        out = _eval(node.a, vars_, bank) * _eval(node.b, vars_, bank)
    elif isinstance(node, Div):
        den = _eval(node.b, vars_, bank)
        try:
            out = _eval(node.a, vars_, bank) / den
        except DomainError as e:
            raise _named(node, e) from None
    elif isinstance(node, Neg):
        out = -_eval(node.a, vars_, bank)
    elif isinstance(node, Pow):
        try:
            out = _jetops.powr(_eval(node.a, vars_, bank), node.exponent)
            check_finite(out.c[0])
        except DomainError as e:
            raise _named(node, e) from None
    elif isinstance(node, Call):
        try:
            out = _UNARY[node.fn](_eval(node.a, vars_, bank))
        except DomainError as e:
            raise _named(node, e) from None
    elif isinstance(node, ProfileCall):
        if bank is None or node.name not in bank:
            raise ContractViolation(f"unknown profile function '{node.name}'")
        u = _eval(node.a, vars_, bank)
        dvals = bank[node.name].derivs(u.value, u.order)
        try:
            out = u.compose(dvals)
        except DomainError as e:
            raise _named(node, e) from None
    else:
        raise ContractViolation(f"unknown node type {type(node)!r}")
    return out


def jet_eval(expr: Expr, point, order: int, profile_bank=None) -> Jet:
    """Taylor coefficients of ``expr`` up to total ``order``.

    ``point`` is one point (n,), giving a jet with (ncoef,) coefficients, or
    a block (P, n), giving (ncoef, P) coefficients: the tree is walked once
    for the block, and each point gets the arithmetic it would get alone.  A
    domain guard that fails at any point of a block raises for the block.
    """
    point = np.asarray(point, dtype=float)
    if point.ndim not in (1, 2):
        raise ContractViolation(f"points must be (n,) or (P, n), got shape {point.shape}")
    space = JetSpace.get(point.shape[-1])
    if not (0 <= order <= space.max_order):
        raise ContractViolation(f"order {order} outside supported range")
    vars_ = [Jet.variable(space, order, i, point[..., i]) for i in range(space.nvars)]
    out = _eval(expr, vars_, profile_bank)
    _check_node(expr, out.c[0])
    return out


def eval_value(expr: Expr, point, profile_bank=None):
    """Value by the jet route: a float at one point, a (P,) array for a block."""
    return jet_eval(expr, point, 0, profile_bank).value


_UFUNC = {name: getattr(np, name) for name in ("sin", "cos", "sinh", "cosh", "exp")}


def _reciprocal(den: np.ndarray) -> np.ndarray:
    guard(np.abs(den) <= _jetops.TAU_DIV, den, "division by near-zero value")
    return 1.0 / den


def _powr_values(u: np.ndarray, p: float) -> np.ndarray:
    """Value part of ``jets.powr``: the same exponent split, products and guards."""
    if p == round(p) and abs(p) <= 16:
        k = abs(int(round(p)))
        result, base = np.ones_like(u), u
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return _reciprocal(result) if p < 0 else result
    guard(u <= _jetops.TAU_POW, u, "fractional power of non-positive base")
    return np.power(u, p)


def _eval_arrays(node: Expr, points: np.ndarray, bank) -> np.ndarray:
    # mirrors _eval: the same evaluation order and the same error wrapping
    if isinstance(node, Const):
        out = np.full(len(points), node.value)
    elif isinstance(node, Var):
        out = points[:, node.index]
    elif isinstance(node, Add):
        out = _eval_arrays(node.a, points, bank) + _eval_arrays(node.b, points, bank)
    elif isinstance(node, Sub):
        out = _eval_arrays(node.a, points, bank) - _eval_arrays(node.b, points, bank)
    elif isinstance(node, Mul):
        out = _eval_arrays(node.a, points, bank) * _eval_arrays(node.b, points, bank)
    elif isinstance(node, Div):
        den = _eval_arrays(node.b, points, bank)
        try:
            out = _eval_arrays(node.a, points, bank) * _reciprocal(den)
        except DomainError as e:
            raise _named(node, e) from None
    elif isinstance(node, Neg):
        out = -_eval_arrays(node.a, points, bank)
    elif isinstance(node, (Pow, Call)):
        try:
            u = _eval_arrays(node.a, points, bank)
            p = node.exponent if isinstance(node, Pow) else 0.5 if node.fn == "sqrt" else None
            out = _UFUNC[node.fn](u) if p is None else _powr_values(u, p)
            check_finite(out)
        except DomainError as e:
            raise _named(node, e) from None
    elif isinstance(node, ProfileCall):
        if bank is None or node.name not in bank:
            raise ContractViolation(f"unknown profile function '{node.name}'")
        u = _eval_arrays(node.a, points, bank)
        out = np.asarray(bank[node.name].values(u), dtype=float)
    else:
        raise ContractViolation(f"unknown node type {type(node)!r}")
    return out


def eval_values(expr: Expr, points, profile_bank=None) -> np.ndarray:
    """Values of ``expr`` at each row of ``points`` (P, n), in one tree walk.

    No jets: every node is one numpy operation over the P points.  The value
    arithmetic and the domain guards are those of ``eval_value`` (a division
    by ``|den| <= TAU_DIV``, or a fractional power or square root of a base
    ``<= TAU_POW``, raises ``DomainError`` naming the node), so each entry
    agrees with ``eval_value`` at that point to rounding, and so do the
    overflow checks.  Profile calls use the entries' array method ``values``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ContractViolation(f"points must be a (P, n) array, got shape {points.shape}")
    out = np.array(_eval_arrays(expr, points, profile_bank))
    _check_node(expr, out)
    return out


# Central differences, nested one axis at a time; each level is O(h^2)
# accurate.  Orders three and four add one Richardson pass over the whole
# stencil: a single step cannot keep both the truncation term (wants small h)
# and the eps/h^3 cancellation noise (wants large h) inside the cross-check
# tolerances at float64.
FD_STEPS = {0: 0.0, 1: 1e-4, 2: 1e-4, 3: 6e-3, 4: 2e-2}


def _stencils(expr: Expr, pts: np.ndarray, alphas: np.ndarray, steps: np.ndarray,
              bank) -> np.ndarray:
    """Nested central differences d^alpha (T, B) at the rows of pts (B, n),
    one per row of alphas (T, n) with its step, from one ``eval_values`` call.
    Leaf l's level j moves along the j-th axis (axis i alpha_i times, in
    increasing order), down where bit j of l is set: the additions, in order,
    of a stencil nested level by level.  Values fold back innermost first."""
    depths = alphas.sum(axis=1)
    count = 1 << np.sort(depths)
    stencil = np.repeat(np.argsort(depths, kind="stable"), count)  # of each leaf
    leaf = np.arange(len(stencil)) - np.repeat(np.cumsum(count) - count, count)
    axes = np.repeat(np.arange(alphas.size) % alphas.shape[1], alphas.ravel())
    first = (np.cumsum(depths) - depths)[stencil]  # where each leaf's axes start
    out = np.repeat(pts[None], len(stencil), axis=0)
    for j in range(depths.max()):
        r = depths[stencil] > j
        h = steps[stencil[r]]
        out[r, :, axes[first[r] + j]] += np.where(leaf[r] >> j & 1, -h, h)[:, None]
    vals = eval_values(expr, out.reshape(-1, pts.shape[1]), bank).reshape(len(stencil), -1)
    est = np.empty((len(alphas), len(pts)))
    pos = 0
    for d in range(depths.max() + 1):
        sel = np.flatnonzero(depths == d)
        v = vals[pos:pos + (len(sel) << d)].reshape(len(sel), 1 << d, len(pts))
        div = (2.0 * steps[sel])[:, None, None]
        while v.shape[1] > 1:
            v = (v[:, :v.shape[1] // 2] - v[:, v.shape[1] // 2:]) / div
        est[sel] = v[:, 0]
        pos += len(sel) << d
    return est


def fd_partial(expr: Expr, point, alpha, h: float | None = None, profile_bank=None):
    """Finite-difference estimates of d^alpha expr, from array values only.

    ``point`` is one point (n,) or B base points (B, n), ``alpha`` one
    multi-index (n,) or a stack of K (K, n): the result is a float, (B,),
    (K,) or (K, B).  Each alpha has the step ``FD_STEPS[|alpha|]`` unless
    ``h`` is given.  The leaves of all stencils, both Richardson steps of
    orders 3 and 4 included, take one ``eval_values`` call, and each
    estimate is bitwise the one its alpha gives alone.
    """
    point = np.asarray(point, dtype=float)
    pts = np.atleast_2d(point)
    try:
        alphas = np.array(alpha, dtype=int)
    except (TypeError, ValueError):  # a ragged stack
        alphas = np.zeros(0, dtype=int)
    stack = np.atleast_2d(alphas)
    orders = stack.sum(axis=1)
    if (pts.ndim != 2 or stack.ndim != 2 or stack.shape[1] != pts.shape[1] or not stack.size
            or stack.min() < 0 or orders.max() > 4):
        raise ContractViolation(f"alpha {alpha!r} is not a stack of multi-indices of order "
                                f"<= 4 for points of shape {point.shape}")
    steps = np.array([FD_STEPS[o] if h is None else float(h) for o in orders.tolist()])
    if ((orders > 0) & (steps <= 0)).any():
        raise ContractViolation("step must be positive")
    rich = np.flatnonzero(orders > 2)  # each also gets a stencil at half the step
    est = _stencils(expr, pts, np.concatenate((stack, stack[rich])),
                    np.concatenate((steps, steps[rich] / 2.0)), profile_bank)
    est[rich] = (4.0 * est[len(stack):] - est[rich]) / 3.0
    out = est[:len(stack)].reshape(alphas.shape[:-1] + point.shape[:-1])
    return float(out) if out.ndim == 0 else out


def node_repr(node: Expr) -> str:
    if isinstance(node, Const):
        v = node.value
        return repr(int(v)) if v == int(v) else repr(v)
    if isinstance(node, Var):
        return node.name or f"x{node.index}"
    if isinstance(node, Add):
        return f"({node_repr(node.a)} + {node_repr(node.b)})"
    if isinstance(node, Sub):
        return f"({node_repr(node.a)} - {node_repr(node.b)})"
    if isinstance(node, Mul):
        return f"({node_repr(node.a)}*{node_repr(node.b)})"
    if isinstance(node, Div):
        return f"({node_repr(node.a)}/{node_repr(node.b)})"
    if isinstance(node, Neg):
        return f"(-{node_repr(node.a)})"
    if isinstance(node, Pow):
        return f"{node_repr(node.a)}^{node.exponent:g}"
    if isinstance(node, Call):
        return f"{node.fn}({node_repr(node.a)})"
    if isinstance(node, ProfileCall):
        return f"{node.name}({node_repr(node.a)})"
    return repr(node)


# -- parser ------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[()+\-*/^,]))"
)


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ContractViolation(f"cannot tokenize {text[pos:]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            out.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens, var_names):
        self.toks = tokens
        self.pos = 0
        self.vars = {name: i for i, name in enumerate(var_names)}

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ContractViolation(f"expected {op!r}, found {val!r}")

    def expr(self) -> Expr:
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self) -> Expr:
        if self.peek() == ("op", "-"):
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek() in (("op", "^"), ("op", "**")):
            self.take()
            return Pow(base, self.signed_number())
        return base

    def signed_number(self) -> float:
        sign = 1.0
        while self.peek() == ("op", "-"):
            self.take()
            sign = -sign
        kind, val = self.peek()
        if kind == "num":
            self.take()
            return sign * val
        if kind == "op" and val == "(":
            self.take()
            inner = self.signed_number()
            self.expect_op(")")
            return sign * inner
        raise ContractViolation("exponent must be a numeric literal")

    def atom(self) -> Expr:
        kind, val = self.take()
        if kind == "num":
            return Const(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if self.peek() == ("op", "("):
                self.take()
                arg = self.expr()
                self.expect_op(")")
                if val in _UNARY:
                    return Call(val, arg)
                return ProfileCall(val, arg)
            if val in self.vars:
                return Var(self.vars[val], val)
            raise ContractViolation(f"unknown name {val!r}")
        raise ContractViolation(f"unexpected token {val!r}")


def parse(text: str, var_names=("s", "t", "u", "v")) -> Expr:
    p = _Parser(_tokenize(text), var_names)
    node = p.expr()
    if p.peek() != ("end", None):
        raise ContractViolation(f"trailing input near {p.peek()[1]!r}")
    return node


def var_names_for(nparams: int):
    if nparams <= 4:
        return ("s", "t", "u", "v")[:nparams]
    return ("s",) + tuple(f"t{i}" for i in range(1, nparams))
