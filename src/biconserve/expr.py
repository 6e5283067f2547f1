"""Closed expression trees over chart parameters: jet and array evaluation.

Supported operations: + - * /, power with a real literal exponent, sin, cos,
sinh, cosh, exp, sqrt, negation, and calls to named profile functions that
supply their own derivative ladders.  Trees are frozen dataclasses so charts
stay immutable and picklable for worker pools.

One walker evaluates the trees on two routes with the same domain guards:
jet_eval gives Taylor coefficients (the forward route), eval_values gives
plain values (the array route).  The routes share the walk and differ only in
their arithmetic tables; the array route keeps its own, independent of the
jets.  Both take one point (n,) or a block of points (P, n) and do one numpy
operation per node for the whole block.  fd_partial, the oracle's route,
uses only the array route: one tree walk covers every stencil point of a
stack of multi-indices (laid out once per stack) at every base point.
In both, an overflow raises DomainError naming the node: a non-finite value
of a function call or a power (or, on the jet route, of any derivative
ladder) names that node, a non-finite result of the plain arithmetic names
the whole tree.

A constant operand of + - *, a constant numerator, and the reciprocal of a
constant denominator are floats on both routes: the other operand's own
scalar arithmetic takes them (a tree made only of constants still gives a
jet or an array).  On the jet route every function call, fractional power,
profile call and reciprocal is ``Jet.compose`` of its ladder with the
argument's jet, which decides from the jet's support alone whether the
ladder is placed (a + b x_i, or a constant) or composed by Horner's rule.

Each evaluator takes one tree or a ``Dag``: several trees (a chart's
components) whose equal subtrees are one node.  A tree is the one-root case.
The roots are walked in order, depth first, as tree by tree; a non-leaf node
with more than one parent is computed at its first visit, reused, and dropped
at its last use in the call.  So every value, and every error message, is
the one the trees give one by one.

Text syntax (used by the CLI), with whitespace anywhere:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom (('^' | '**') signed)?
    signed := '-' signed | number | '(' signed ')'
    atom   := number | name | name '(' expr ')' | '(' expr ')'
    number := (digits ['.' [digits]] | '.' digits) [('e' | 'E') ['+' | '-'] digits]
    name   := [A-Za-z_][A-Za-z_0-9]*

Python's own parser reads the text, with ``^`` for ``**``, and ``parse``
keeps the nodes this grammar has and refuses any other.  Variable names come
from the chart (s, t, u, v for four parameters); any other call name is
looked up in the profile bank, e.g. ``phi(s)*cos(v)``.
"""

from __future__ import annotations

import ast
import re
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import lru_cache

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


@dataclass(frozen=True)
class Dag:
    """Trees evaluated together: ``roots`` in order, equal subtrees one
    node, and ``shared`` the (node, uses) of each non-leaf node that a walk
    of the roots reaches more than once.  A pickle keeps the sharing: it
    stores each node once."""

    roots: tuple
    shared: tuple = ()

    def memo(self) -> dict:
        """A fresh memo for one call: [uses left, value] by shared node id."""
        return {id(node): [uses, None] for node, uses in self.shared}


def dag_of(trees) -> Dag:
    """The ``Dag`` of a sequence of trees: each set of equal subtrees becomes
    one node, and the non-leaf nodes with more than one parent (a root counts
    as one) are marked shared."""
    canon, seen, refs, nodes = {}, {}, {}, []

    def intern(node):
        if id(node) not in seen:
            new = [intern(v) if isinstance(v, Expr) else v
                   for v in (getattr(node, f.name) for f in fields(node))]
            # children by identity, floats by their bits: 0.0 and -0.0 stay apart
            key = (type(node), *(id(v) if isinstance(v, Expr) else
                                 v.hex() if isinstance(v, float) else v for v in new))
            seen[id(node)] = canon.setdefault(key, type(node)(*new))
        return seen[id(node)]

    def count(node):
        refs[id(node)] = refs.get(id(node), 0) + 1
        if refs[id(node)] == 1:
            nodes.append(node)
            for f in fields(node):
                if isinstance(getattr(node, f.name), Expr):
                    count(getattr(node, f.name))

    roots = tuple(intern(t) for t in trees)
    for r in roots:
        count(r)
    return Dag(roots, tuple((node, refs[id(node)]) for node in nodes
                            if refs[id(node)] > 1 and not isinstance(node, (Const, Var))))


def _roots(route, expr, leaves, bank):
    """``_eval`` of each root of a tree or a Dag in order on ``route``, with
    one memo for the call, each checked finite."""
    dag = expr if isinstance(expr, Dag) else Dag((expr,))
    memo = dag.memo()
    return [_check_node(root, _eval(root, leaves, bank, memo, route)) for root in dag.roots]


def _named(node: Expr, err: DomainError) -> DomainError:
    return DomainError(f"{err} in {node_repr(node)}")


def _check_node(node: Expr, out):
    try:
        return _finite(out)
    except DomainError as e:
        raise _named(node, e) from None


# The arithmetic of one evaluation route beyond the operands' own + - * and
# negation: a constant shaped like a leaf, the guarded reciprocal, a power and
# a function call (each checked finite where the route checks), a profile
# entry's own values at the argument, and their composition with the argument.
_Route = namedtuple("_Route", "const reciprocal power call profile compose")


def _finite(out):
    """``out``, with its value checked finite."""
    check_finite(out.c[0] if isinstance(out, Jet) else out)
    return out


_JETS = _Route(
    const=lambda value, leaf: Jet.constant(leaf.space, leaf.order,
                                           np.full(leaf.c.shape[1:], value)),
    reciprocal=Jet.reciprocal,
    power=lambda u, p: _finite(_jetops.powr(u, p)),
    call=_jetops.apply,
    profile=lambda entry, u: entry.derivs(u.value, u.order),
    compose=Jet.compose,
)


def _operands(node: Expr, leaves: list, bank, memo: dict, route):
    """The two operands of + - *: a ``Const`` is its float, which the other
    operand's own scalar arithmetic takes (a node of two constants keeps its
    first operand a constant of the route, so the node still gives one)."""
    a, b = node.a, node.b
    if type(b) is Const:
        return _eval(a, leaves, bank, memo, route), b.value
    if type(a) is Const:
        return a.value, _eval(b, leaves, bank, memo, route)
    return _eval(a, leaves, bank, memo, route), _eval(b, leaves, bank, memo, route)


def _eval(node: Expr, leaves: list, bank, memo: dict, route):
    """The value of ``node`` on ``route`` from the leaves (one per variable).

    A DomainError of a reciprocal, a power, a function call or a profile's
    composition names the node; a Div evaluates its denominator first.  A
    constant operand of + - *, or a constant numerator, is a float (see
    ``_operands``); so is the guarded reciprocal 1/c of a ``Const``
    denominator c, whose numerator then is a value of the route.
    """
    if (slot := memo.get(id(node))) and slot[1] is not None:
        slot[0] -= 1  # a shared node's value, dropped at its last use
        return slot[1] if slot[0] else memo.pop(id(node))[1]
    kind = type(node)  # the node classes are final: identity, not isinstance
    if kind is Mul:
        a, b = _operands(node, leaves, bank, memo, route)
        out = a * b
    elif kind is Add:
        a, b = _operands(node, leaves, bank, memo, route)
        out = a + b
    elif kind is Var:
        out = leaves[node.index]
    elif kind is Const:
        out = route.const(node.value, leaves[0])
    elif kind is Sub:
        a, b = _operands(node, leaves, bank, memo, route)
        out = a - b
    elif kind is Pow or kind is Call:
        try:
            u = _eval(node.a, leaves, bank, memo, route)
            out = route.power(u, node.exponent) if kind is Pow else route.call(node.fn, u)
        except DomainError as e:
            raise _named(node, e) from None
    elif kind is Div:
        a, b = node.a, node.b
        const_den = type(b) is Const
        den = b.value if const_den else _eval(b, leaves, bank, memo, route)
        try:
            num = (a.value if type(a) is Const and not const_den
                   else _eval(a, leaves, bank, memo, route))
            out = num * (_reciprocal(den) if const_den else route.reciprocal(den))
        except DomainError as e:
            raise _named(node, e) from None
    elif kind is Neg:
        out = -_eval(node.a, leaves, bank, memo, route)
    elif kind is ProfileCall:
        if bank is None or node.name not in bank:
            raise ContractViolation(f"unknown profile function '{node.name}'")
        u = _eval(node.a, leaves, bank, memo, route)
        vals = route.profile(bank[node.name], u)
        try:
            out = route.compose(u, vals)
        except DomainError as e:
            raise _named(node, e) from None
    else:
        raise ContractViolation(f"unknown node type {type(node)!r}")
    if slot:
        slot[:] = slot[0] - 1, out
    return out


def jet_eval(expr: Expr | Dag, point, order: int, profile_bank=None):
    """Taylor coefficients of ``expr`` up to total ``order``: a Jet for a
    tree, a tuple of one Jet per root for a ``Dag``.

    ``point`` is one point (n,), giving jets with (ncoef,) coefficients, or
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
    out = tuple(_roots(_JETS, expr, vars_, profile_bank))
    return out if isinstance(expr, Dag) else out[0]


def eval_value(expr: Expr | Dag, point, profile_bank=None):
    """Value by the jet route: a float at one point, a (P,) array for a
    block; for a ``Dag``, one value per root on a last axis."""
    out = jet_eval(expr, point, 0, profile_bank)
    return np.stack([j.value for j in out], axis=-1) if isinstance(expr, Dag) else out.value


_UFUNC = {name: getattr(np, name) for name in ("sin", "cos", "sinh", "cosh", "exp")}


def _reciprocal(den: np.ndarray) -> np.ndarray:
    guard(np.abs(den) <= _jetops.TAU_DIV, den, "division by near-zero value")
    return 1.0 / den


def _powr_values(u: np.ndarray, p: float) -> np.ndarray:
    """Value part of ``jets.powr``: the same exponent split, products and guards."""
    if p == round(p) and abs(p) <= 16:
        k = abs(int(round(p)))
        result, base = None, u
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        if result is None:
            return np.ones_like(u)
        return _reciprocal(result) if p < 0 else result
    guard(u <= _jetops.TAU_POW, u, "fractional power of non-positive base")
    return np.power(u, p)


# the oracle's own arithmetic: plain values, independent of the jets
_ARRAYS = _Route(
    const=lambda value, leaf: np.full(len(leaf), value),
    reciprocal=_reciprocal,
    power=lambda u, p: _finite(_powr_values(u, p)),
    call=lambda fn, u: _finite(_powr_values(u, 0.5) if fn == "sqrt" else _UFUNC[fn](u)),
    profile=lambda entry, u: np.asarray(entry.values(u), dtype=float),
    compose=lambda u, vals: vals,
)


def eval_values(expr: Expr | Dag, points, profile_bank=None) -> np.ndarray:
    """Values of ``expr`` at each row of ``points`` (P, n), in one tree walk:
    (P,) for a tree, (P, R) for a ``Dag`` of R roots.

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
    out = np.stack(_roots(_ARRAYS, expr, list(points.T), profile_bank), axis=-1)
    return out if isinstance(expr, Dag) else out[:, 0]


# Central differences, nested one axis at a time; each level is O(h^2)
# accurate.  Orders three and four add one Richardson pass over the whole
# stencil: a single step cannot keep both the truncation term (wants small h)
# and the eps/h^3 cancellation noise (wants large h) inside the cross-check
# tolerances at float64.
FD_STEPS = {0: 0.0, 1: 1e-4, 2: 1e-4, 3: 6e-3, 4: 2e-2}


@lru_cache(maxsize=256)
def _stencil_table(shape: tuple, alpha_bytes: bytes, step_bytes: bytes):
    """The leaf layout of ``_stencils`` for the alphas (T, n) and steps given
    by their bytes, read-only: the leaf count, the (leaves, axes, signed
    steps) of each level and the (alphas, leaves, divisors 2 h) of each depth."""
    alphas = np.frombuffer(alpha_bytes, dtype=int).reshape(shape)
    steps = np.frombuffer(step_bytes)
    depths = alphas.sum(axis=1)
    count = 1 << np.sort(depths)
    stencil = np.repeat(np.argsort(depths, kind="stable"), count)  # of each leaf
    leaf = np.arange(len(stencil)) - np.repeat(np.cumsum(count) - count, count)
    axes = np.repeat(np.arange(alphas.size) % shape[1], alphas.ravel())
    first = (np.cumsum(depths) - depths)[stencil]  # where each leaf's axes start
    moves = []
    for j in range(depths.max()):
        r = np.flatnonzero(depths[stencil] > j)
        h = steps[stencil[r]]
        moves.append((r, axes[first[r] + j], np.where(leaf[r] >> j & 1, -h, h)[:, None]))
    sels = [np.flatnonzero(depths == d) for d in range(depths.max() + 1)]
    ends = np.cumsum([len(sel) << d for d, sel in enumerate(sels)])
    folds = tuple((sel, slice(end - (len(sel) << d), end), (2.0 * steps[sel])[:, None, None, None])
                  for d, (sel, end) in enumerate(zip(sels, ends)) if len(sel))
    for a in (a for t in (*moves, *folds) for a in t if isinstance(a, np.ndarray)):
        a.flags.writeable = False
    return len(stencil), tuple(moves), folds


def _stencils(expr: Expr | Dag, pts: np.ndarray, alphas: np.ndarray, steps: np.ndarray,
              bank) -> np.ndarray:
    """Nested central differences d^alpha (T, B, R) at the rows of pts (B, n),
    one per row of alphas (T, n) with its step, of each of the R roots, from
    one array walk of the Dag over one set of leaves.  Leaf l's level j moves
    along the j-th axis (axis i alpha_i times, in increasing order), down
    where bit j of l is set: the additions, in order, of a stencil nested
    level by level.  The roots' values, stacked on a last axis, fold back
    together, innermost first, one pass per depth."""
    nleaves, moves, folds = _stencil_table(alphas.shape, alphas.tobytes(), steps.tobytes())
    out = np.repeat(pts[None], nleaves, axis=0)
    for rows, axes, h in moves:
        out[rows, :, axes] += h
    vals = eval_values(expr, out.reshape(-1, pts.shape[1]), bank).reshape(nleaves, len(pts), -1)
    est = np.empty((len(alphas),) + vals.shape[1:])
    for sel, leaves, div in folds:
        v = vals[leaves].reshape((len(sel), -1) + vals.shape[1:])
        while v.shape[1] > 1:
            v = (v[:, :v.shape[1] // 2] - v[:, v.shape[1] // 2:]) / div
        est[sel] = v[:, 0]
    return est


def fd_partial(expr: Expr | Dag, point, alpha, h: float | None = None, profile_bank=None):
    """Finite-difference estimates of d^alpha expr, from array values only.

    ``point`` is one point (n,) or B base points (B, n), ``alpha`` one
    multi-index (n,) or a stack of K (K, n): the result is a float, (B,),
    (K,) or (K, B) for a tree; a ``Dag`` of R roots adds a last axis of
    length R.  Each alpha has the step ``FD_STEPS[|alpha|]`` unless ``h`` is
    given.  The leaves of all stencils, both Richardson steps of orders 3
    and 4 included, are built once and take one array walk, and each
    estimate is bitwise the one its alpha and its root give alone.
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
    out = est[:len(stack)].reshape(alphas.shape[:-1] + point.shape[:-1] + est.shape[-1:])
    out = out if isinstance(expr, Dag) else out[..., 0]
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

# a name or a number (group 1) of the grammar; every character it has once ^ reads **
_LEXEME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)")
_CHARS = re.compile(r"[A-Za-z0-9_.+\-*/() ]*")
_BINARY = {ast.Add: Add, ast.Sub: Sub, ast.Mult: Mul, ast.Div: Div}
# the deepest tree a text may give: the walkers recurse once per level.  The
# 41 catalog keys' trees have at most 8 levels and rem42's n + 4 (11 at n = 7)
_MAX_DEPTH = 100


def _too_deep() -> ContractViolation:
    return ContractViolation(f"expression nested more than {_MAX_DEPTH} levels deep")


def _python_lexeme(m) -> str:
    """A name with a trailing '_', so that none is a Python keyword (``if(s)``
    is a profile call); a number as an ASCII float literal set apart by
    spaces, so that Python splits ``2s`` in two and reads no int (``05`` is
    ``05.``: no leading-zero rule, no int digit limit)."""
    if m[1] is None:
        return m[0] + "_"
    num = m[1] if m[1].isascii() else re.sub(r"\d", lambda d: str(int(d[0])), m[1])
    return f" {num}{'.' * num.isdigit()} "


def _tree(node, var_names, room=_MAX_DEPTH) -> Expr:
    """The tree of a Python expression node whose every node is one of the
    grammar's, at most ``room`` levels deep; ContractViolation names the
    first node that is not in the grammar."""
    if room == 0:
        raise _too_deep()
    kind = type(node)
    if kind is ast.BinOp and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_tree(node.left, var_names, room - 1),
                                        _tree(node.right, var_names, room - 1))
    if kind is ast.BinOp and type(node.op) is ast.Pow:
        sign, exp = 1.0, node.right
        while type(exp) is ast.UnaryOp and type(exp.op) is ast.USub:
            sign, exp = -sign, exp.operand
        if type(exp) is ast.Constant and type(exp.value) is float:
            return Pow(_tree(node.left, var_names, room - 1), sign * exp.value)
        raise ContractViolation("exponent must be a numeric literal")
    if kind is ast.UnaryOp and type(node.op) is ast.USub:
        return Neg(_tree(node.operand, var_names, room - 1))
    if kind is ast.Constant and type(node.value) is float:  # every float is a number
        return Const(node.value)
    if kind is ast.Name and node.id[:-1] in var_names:
        return Var(var_names.index(node.id[:-1]), node.id[:-1])
    # a call is a name and its one argument: not (s)(t), f(*s) or f(s=t)
    if (kind is ast.Call and type(node.func) is ast.Name and node.func.col_offset ==
            node.col_offset and len(node.args) == 1 and not node.keywords):
        fn, arg = node.func.id[:-1], _tree(node.args[0], var_names, room - 1)
        return Call(fn, arg) if fn in _jetops.LADDERS else ProfileCall(fn, arg)
    raise ContractViolation(f"unknown name {node.id[:-1]!r}" if kind is ast.Name else
                            f"{kind.__name__} is not in the expression grammar")


def parse(text: str, var_names=("s", "t", "u", "v")) -> Expr:
    """The tree of ``text`` in the grammar of the module docstring, whose
    variables are ``var_names``; ContractViolation if it is not in it."""
    src = " ".join(_LEXEME.sub(_python_lexeme, text.replace("^", "**")).split())
    if (end := _CHARS.match(src).end()) < len(src):
        raise ContractViolation(f"cannot read {src[end]!r} in {text!r}")
    try:
        body = ast.parse(src, mode="eval").body
    except SyntaxError:
        raise ContractViolation(f"cannot parse {text!r}") from None
    except RecursionError:  # Python's parser stops near 3,000 levels
        raise _too_deep() from None
    return _tree(body, tuple(var_names))


def var_names_for(nparams: int):
    if nparams <= 4:
        return ("s", "t", "u", "v")[:nparams]
    return ("s",) + tuple(f"t{i}" for i in range(1, nparams))
