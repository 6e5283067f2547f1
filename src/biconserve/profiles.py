"""Profile functions of the arc parameter s, with derivatives to order 4.

A profile bank maps names (phi, psi, phi1, phi2) to entries exposing
``derivs(x, k) -> [f(x), f'(x), ..., f^(k)(x)]``, for the jet route, and
``values(x) -> f(x)`` on an array of points, for the array route
(``expr.eval_values``).  ``derivs`` takes one argument (a list of floats
back) or an array of arguments, one per point of a jet block (a list of
arrays back).  Three entry kinds cover everything the chart
catalog needs:

 * ExprProfile       -- a closed-form expression in s,
 * QuadratureProfile -- f' given in closed form (``dexpr``), f recovered by
                        quadrature,
 * PsiSolution       -- the QuadratureProfile of the solved torsion profile
                        psi with psi' = 1/2 + c * (prod_i (s + o_i))^(2/3),
                        anchored at psi(0) = 0 (cube-root quadrature).

A QuadratureProfile has one interpolated representation: its values are
interpolated barycentrically on Chebyshev nodes, in passes of at most
``BARY_ROWS`` arguments, which keeps each pass's (arguments, nodes)
temporaries small and changes no value, the formula being pointwise;
derivative ladders always come from the closed form ``dexpr``, never from
the interpolant.
``values`` interpolates each distinct argument once: the stencils of one
difference quotient share a handful of s values.  Scalar ``value`` is the
same interpolation on a one-entry array.

The node values of a quadrature-backed entry are integrals over the gaps
between successive Chebyshev nodes, chained out from the anchor by
``np.cumsum``.  ``gl_integrals`` lays out all panels of all gaps in one
array pass, with one call of the integrand; each gap's integral stays
bitwise that of the gap integrated alone (``np.linspace`` edges, each
panel's dot rounded as ``np.dot`` rounds it, the panels summed in order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ContractViolation, DomainError
from .expr import Call, Const, Expr, Mul, Pow, Var, eval_values, jet_eval, parse
from .thresholds import DERIV_STEP, DERIV_TOL, NODE_HIT, POLE_TOL, PSI_DEN_TOL, RANGE_SLACK

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
DEFAULT_NODES = 129

S = Var(0, "s")  # the single profile variable


def _jet_at(expr: Expr, x, k: int):
    """Jet of a one-variable expression at x: a float or an array of arguments."""
    return jet_eval(expr, np.asarray(x, dtype=float)[..., None], k)


def _ladder(j) -> list:
    """[f, f', ..., f^(order)] of a one-variable jet, in one slice (the m-th
    partial is c[m] m!): floats at one point, (P,) arrays for a block."""
    fac = j.space.factorial[:len(j.c)]
    return list(j.c * fac[:, None]) if j.c.ndim > 1 else (j.c * fac).tolist()


def _deriv_ladder(dexpr: Expr, x, k: int):
    """[g(x), g'(x), ..., g^(k-1)(x)] for the derivative expression g."""
    return _ladder(_jet_at(dexpr, x, k - 1)) if k > 0 else []


def _on_unique(fn, x) -> np.ndarray:
    """fn evaluated once per distinct entry of x, spread back over x."""
    uniq, inverse = np.unique(np.asarray(x, dtype=float), return_inverse=True)
    return fn(uniq)[inverse]


@dataclass(frozen=True)
class ExprProfile:
    expr: Expr

    def derivs(self, x, k: int):
        if k > 4:
            raise ContractViolation("profile derivative order exceeded (max 4)")
        return _ladder(_jet_at(self.expr, x, k))

    def values(self, x) -> np.ndarray:
        return eval_values(self.expr, np.asarray(x, dtype=float)[:, None])


def _cheb_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    j = np.arange(n + 1)
    return (lo + hi) / 2.0 + (hi - lo) / 2.0 * np.cos(np.pi * j / n)


def _bary_weights(n: int) -> np.ndarray:
    w = np.ones(n + 1)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


# Entries of x per barycentric pass at most.  A pass holds a few (entries,
# nodes) temporaries, and past a few hundred entries they leave the cache:
# the solved ex41 psi at 625 arguments took 1.30 ms in one pass, 0.43 ms in
# passes of 256, 0.45 ms of 128 and 0.90 ms of 384 (2-core Xeon host).
BARY_ROWS = 256


def _bary_eval(nodes: np.ndarray, weights: np.ndarray, values: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """Barycentric interpolant at each entry of x; an entry within NODE_HIT
    (relative) of a node takes that node's value exactly.  The formula is
    pointwise (Berrut and Trefethen, SIAM Rev. 46(3), 2004), so x is taken in
    passes of BARY_ROWS entries and no value depends on its pass."""
    if len(x) > BARY_ROWS:
        return np.concatenate([_bary_eval(nodes, weights, values, x[k:k + BARY_ROWS])
                               for k in range(0, len(x), BARY_ROWS)])
    d = x[:, None] - nodes
    ad = np.abs(d)
    hit = np.argmin(ad, axis=1)
    rows = np.arange(len(x))
    exact = ad[rows, hit] < NODE_HIT * (1.0 + np.abs(x))
    d[rows[exact], hit[exact]] = 1.0  # keeps those rows finite; overwritten below
    q = weights / d
    out = np.sum(q * values, axis=1) / np.sum(q, axis=1)
    out[exact] = values[hit[exact]]
    return out


def _check_range(x: np.ndarray, lo: float, hi: float, what: str):
    """Raise for the argument of ``x`` farthest outside [lo, hi], so the
    message does not depend on which arguments share one evaluation."""
    bad = ~((lo - RANGE_SLACK <= x) & (x <= hi + RANGE_SLACK))
    if np.any(bad):
        x0 = float(x[np.argmax(np.where(bad, np.maximum(lo - x, x - hi), -np.inf))])
        raise DomainError(f"{what} {x0:.6g} outside [{lo:.6g}, {hi:.6g}]")


def gl_integrals(fn, lo, hi, panels) -> np.ndarray:
    """Composite 16-point Gauss-Legendre quadrature of a callable on arrays
    over each interval [lo[i], hi[i]], cut into panels[i] equal panels.

    All panels of all intervals are laid out in one array pass, and one call
    of ``fn`` takes every node, interval by interval and panel by panel.
    Each integral is bitwise that of the interval integrated alone: the
    edges are those of ``np.linspace`` (k * step + lo, the last one exactly
    hi), each panel's weighted sum is rounded as ``np.dot`` rounds it, and
    the panels of an interval are summed in order from 0.0 (``np.cumsum``
    is sequential, where ``np.sum`` would pair).  A zero-length interval
    gives 0.0.
    """
    lo, hi, panels = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), np.asarray(panels)
    owner = np.repeat(np.arange(len(panels)), panels)  # the interval of each panel
    k = np.arange(len(owner)) - np.repeat(np.cumsum(panels) - panels, panels)
    step = ((hi - lo) / panels)[owner]
    left = k * step + lo[owner]
    right = np.where(k + 1 == panels[owner], hi[owner], (k + 1) * step + lo[owner])
    mid, half = (left + right) / 2.0, (right - left) / 2.0
    vals = fn((mid[:, None] + half[:, None] * GL_NODES).ravel())
    dots = np.matmul(vals.reshape(-1, 1, len(GL_NODES)), GL_WEIGHTS[:, None])[:, 0, 0]
    table = np.zeros((len(panels), panels.max(initial=0) + 1))  # a leading 0.0 per row
    table[owner, k + 1] = half * dots
    return np.where(lo == hi, 0.0, np.cumsum(table, axis=1)[:, -1])


def _panel_counts(length: np.ndarray) -> np.ndarray:
    """Panels of width at most 0.05 covering each length, at least one."""
    return np.maximum(1, np.ceil(np.abs(length) / 0.05)).astype(int)


@dataclass(frozen=True, eq=False)
class QuadratureProfile:
    """Antiderivative of the closed form ``dexpr``, anchored at (s0, f0) and
    interpolated on the Chebyshev nodes of [lo, hi]."""

    what = "profile argument"  # how range errors name the argument

    dexpr: Expr
    s0: float
    f0: float
    lo: float
    hi: float
    nodes: np.ndarray = field(repr=False)
    node_values: np.ndarray = field(repr=False)
    bary_w: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, dexpr: Expr, s0: float, f0: float, lo: float, hi: float):
        nodes = _cheb_nodes(lo, hi, DEFAULT_NODES)
        order = np.argsort(nodes)
        sorted_nodes = nodes[order]
        # integrate outward from the anchor through successive gaps: up the
        # sorted nodes from the anchor's place, then down from just below it
        start = int(np.searchsorted(sorted_nodes, s0))
        chains = (sorted_nodes[start:], sorted_nodes[:start][::-1])
        a = np.concatenate([np.r_[s0, chain][:-1] for chain in chains])
        b = np.concatenate(chains)
        parts = gl_integrals(lambda x: eval_values(dexpr, x[:, None]), a, b, _panel_counts(b - a))
        up, down = (np.cumsum(np.r_[f0, p])[1:] for p in np.split(parts, [len(chains[0])]))
        values = np.empty_like(nodes)
        values[order] = np.concatenate((down[::-1], up))
        return cls(dexpr, s0, f0, lo, hi, nodes, values, _bary_weights(DEFAULT_NODES))

    def check_range(self, x: np.ndarray):
        _check_range(x, self.lo, self.hi, self.what)

    def _interpolate(self, x: np.ndarray) -> np.ndarray:
        self.check_range(x)
        return _bary_eval(self.nodes, self.bary_w, self.node_values, x)

    def value(self, x: float) -> float:
        return float(self._interpolate(np.array([float(x)]))[0])

    def values(self, x) -> np.ndarray:
        return _on_unique(self._interpolate, x)

    def __eq__(self, other):
        """Field by field, array fields by ``np.array_equal``."""
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def _derivs(self, x, k: int):
        if k > 4:
            raise ContractViolation("profile derivative order exceeded (max 4)")
        x = np.asarray(x, dtype=float)
        head = self.value(x) if x.ndim == 0 else self._interpolate(x)
        return [head] + _deriv_ladder(self.dexpr, x, k)

    def derivs(self, x, k: int):  # each entry class has its own (perfbench traces them)
        return self._derivs(x, k)


def _offset_product(offsets) -> Expr:
    factors = [S if o == 0.0 else S + Const(float(o)) for o in offsets]
    prod = factors[0]
    for f in factors[1:]:
        prod = Mul(prod, f)
    return prod


@dataclass(frozen=True, eq=False)
class PsiSolution(QuadratureProfile):
    """psi(s) = s/2 + c * integral_0^s (prod_i (xi + o_i))^(2/3) dxi.

    The integrand's 2/3 power is evaluated as cbrt(x)^2 so the cube-root
    substitution xi = w^3 keeps the quadrature smooth through the root at 0,
    but construction still requires the product to stay positive on the
    range, matching the sign hypotheses under which the profile is used.
    """

    what = "psi argument"

    c: float
    offsets: tuple

    @classmethod
    def build(cls, offsets, c: float, s_range):
        if c == 0.0:
            raise ContractViolation("the profile constant c must be non-zero")
        lo, hi = float(s_range[0]), float(s_range[1])
        if not (0.0 < lo < hi):
            raise DomainError("s range must satisfy 0 < lo < hi")
        offsets = tuple(float(o) for o in offsets)
        probe = np.linspace(lo * 1e-3, hi, 512)
        prod = np.ones_like(probe)
        for o in offsets:
            prod *= probe + o
        if np.min(prod) <= 0.0:
            raise DomainError(
                f"offset product has a zero or sign change on (0, {hi:.6g}]"
            )
        dexpr = Const(0.5) + Const(c) * Pow(_offset_product(offsets), 2.0 / 3.0)

        def integrand_w(w):
            # xi = w^3, d xi = 3 w^2 dw; the bare-s root becomes w^2 factors
            vals = np.ones_like(w)
            for o in offsets:
                if o == 0.0:
                    vals *= w * w  # (w^3)^(2/3)
                else:
                    vals *= np.cbrt(w ** 3 + o) ** 2
            return 3.0 * w * w * vals

        nodes = _cheb_nodes(lo, hi, DEFAULT_NODES)
        order = np.argsort(nodes)
        sorted_nodes = nodes[order]
        w = np.cbrt(sorted_nodes)
        w_lo = np.r_[0.0, w[:-1]]
        panels = _panel_counts(4 * (w - w_lo))
        panels[0] = max(panels[0], 8)
        acc = np.cumsum(np.r_[0.0, gl_integrals(integrand_w, w_lo, w, panels)])[1:]
        values = np.empty_like(nodes)
        values[order] = sorted_nodes / 2.0 + c * acc
        return cls(dexpr, 0.0, 0.0, float(sorted_nodes[0]), float(sorted_nodes[-1]), nodes,
                   values, _bary_weights(DEFAULT_NODES), c, offsets)

    def derivs(self, x, k: int):
        return self._derivs(x, k)


def solve_psi(a: float, b: float, c: float, s_range=(0.5, 2.0)) -> PsiSolution:
    """Solved biconservative profile for the explicit four-curvature chart."""
    if a == 0.0:
        raise ContractViolation("parameter a must be non-zero")
    return PsiSolution.build((0.0, 2.0 * a, 2.0 * b), c, s_range)


def psi_ode_residual_general(entry, offsets, s: float) -> float:
    """|3 psi'' / (2 psi' - 1) - sum_i 1/(s + o_i)| at one point."""
    for o in offsets:
        if abs(s + o) < POLE_TOL:
            raise DomainError(f"pole proximity: |s + {o:g}| < {POLE_TOL:g}")
    _, dpsi, ddpsi = entry.derivs(s, 2)
    den = 2.0 * dpsi - 1.0
    if abs(den) < PSI_DEN_TOL:
        raise DomainError("2 psi' - 1 vanishes at the requested point")
    rhs = sum(1.0 / (s + o) for o in offsets)
    return abs(3.0 * ddpsi / den - rhs)


def psi_ode_residual(entry, a: float, b: float, s: float) -> float:
    return psi_ode_residual_general(entry, (0.0, 2.0 * a, 2.0 * b), s)


def rk4_solve(f, s0: float, y0: float, grid) -> np.ndarray:
    """Classic fourth-order step integration of y' = f(s, y) through grid."""
    grid = np.asarray(grid, dtype=float)
    out = np.empty_like(grid)
    s, y = s0, y0
    for i, target in enumerate(grid):
        span = target - s
        nsub = max(1, int(math.ceil(abs(span) / 1e-3)))
        h = span / nsub
        for _ in range(nsub):
            k1 = f(s, y)
            k2 = f(s + h / 2.0, y + h * k1 / 2.0)
            k3 = f(s + h / 2.0, y + h * k2 / 2.0)
            k4 = f(s + h, y + h * k3)
            y += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            s += h
        out[i] = y
        s = target
    return out


def psi_ode_rhs(offsets):
    offs = tuple(float(o) for o in offsets)

    def f(s, y):
        return (2.0 * y - 1.0) / 3.0 * sum(1.0 / (s + o) for o in offs)

    return f


# -- constraint pairs ----------------------------------------------------

PAIR_KINDS = {
    "sum1": ("cos", "sin"),    # phi'^2 + psi'^2 = 1
    "diffP": ("cosh", "sinh"),  # phi'^2 - psi'^2 = 1
    "diffM": ("sinh", "cosh"),  # phi'^2 - psi'^2 = -1
}


def make_profile_pair(kind: str, theta, s_range, s0: float | None = None,
                      phi0: float = 1.2, psi0: float = 0.3):
    """Unit-constraint profile pair (phi, psi) from an angle function theta(s)."""
    if kind not in PAIR_KINDS:
        raise ContractViolation(f"unknown pair kind {kind!r}")
    if isinstance(theta, str):
        theta = parse(theta, ("s",))
    lo, hi = float(s_range[0]), float(s_range[1])
    if s0 is None:
        s0 = (lo + hi) / 2.0
    f_phi, f_psi = PAIR_KINDS[kind]
    phi = QuadratureProfile.build(Call(f_phi, theta), s0, phi0, lo, hi)
    psi = QuadratureProfile.build(Call(f_psi, theta), s0, psi0, lo, hi)
    return phi, psi


def constraint_residual(kind: str, phi, psi, s: float) -> float:
    dphi = phi.derivs(s, 1)[1]
    dpsi = psi.derivs(s, 1)[1]
    if kind == "sum1":
        return abs(dphi * dphi + dpsi * dpsi - 1.0)
    if kind == "diffP":
        return abs(dphi * dphi - dpsi * dpsi - 1.0)
    if kind == "diffM":
        return abs(dphi * dphi - dpsi * dpsi + 1.0)
    raise ContractViolation(f"unknown pair kind {kind!r}")


@dataclass(frozen=True)
class DerivativeProfile:
    """View of another profile entry shifted by one derivative order.

    ``values`` evaluates the base's closed-form derivative ``dexpr`` (a
    QuadratureProfile, PsiSolution included) on the whole array.  A base without
    one, an ExprProfile, is differentiated by one block jet at order 1.
    """

    base: object

    def derivs(self, x, k: int):
        return self.base.derivs(x, k + 1)[1:]

    def values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        dexpr = getattr(self.base, "dexpr", None)
        if dexpr is None:
            return self.base.derivs(x, 1)[1]
        self.base.check_range(x)  # the range guard of the base's derivs
        return eval_values(dexpr, x[:, None])


def check_derivative_consistency(entry, lo: float, hi: float, n: int = 25,
                                 tol: float = DERIV_TOL) -> float:
    """Max |FD of value - supplied first derivative| over the range."""
    h = DERIV_STEP * (hi - lo)
    worst = 0.0
    for x in np.linspace(lo + 2 * h, hi - 2 * h, n):
        fd = (entry.derivs(x + h, 0)[0] - entry.derivs(x - h, 0)[0]) / (2.0 * h)
        worst = max(worst, abs(fd - entry.derivs(x, 1)[1]))
    if worst > tol:
        raise ContractViolation(
            f"profile value/derivative inconsistency {worst:.3e} exceeds {tol:g}"
        )
    return worst
