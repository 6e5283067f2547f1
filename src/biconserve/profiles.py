"""Profile functions of the arc parameter s, with derivatives to order 4.

A profile bank maps names (phi, psi, phi1, phi2) to entries exposing
``derivs(x, k) -> [f(x), f'(x), ..., f^(k)(x)]``, for the jet route, and
``values(x) -> f(x)`` on an array of points, for the array route
(``expr.eval_values``).  ``derivs`` takes one argument (a list of floats
back) or an array of arguments, one per point of a jet block (a list of
arrays back).  Three entry kinds cover everything the chart
catalog needs:

 * ExprProfile       -- a closed-form expression in s,
 * QuadratureProfile -- f' given in closed form, f recovered by quadrature,
 * PsiSolution       -- the solved torsion profile psi with
                        psi' = 1/2 + c * (prod_i (s + o_i))^(2/3).

Values of quadrature-backed entries are interpolated barycentrically on
Chebyshev nodes; derivative ladders always come from the analytic closed
forms, never from the interpolant.  ``values`` of an interpolated entry
interpolates each distinct argument once: the stencils of one difference
quotient share a handful of s values.  Scalar ``value`` is the same
interpolation on a one-entry array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DomainError
from .expr import Call, Const, Expr, Mul, Pow, Var, eval_values, jet_eval, parse

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
DEFAULT_NODES = 129

S = Var(0, "s")  # the single profile variable


def _jet_at(expr: Expr, x, k: int):
    """Jet of a one-variable expression at x: a float or an array of arguments."""
    return jet_eval(expr, np.asarray(x, dtype=float)[..., None], k)


def _deriv_ladder(dexpr: Expr, x, k: int):
    """[g(x), g'(x), ..., g^(k-1)(x)] for the derivative expression g."""
    if k <= 0:
        return []
    j = _jet_at(dexpr, x, k - 1)
    return [j.partial((m,)) for m in range(k)]


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
        j = _jet_at(self.expr, x, k)
        return [j.partial((m,)) for m in range(k + 1)]

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


def _bary_eval(nodes: np.ndarray, weights: np.ndarray, values: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """Barycentric interpolant at each entry of x; an entry within 1e-14
    (relative) of a node takes that node's value exactly."""
    d = x[:, None] - nodes
    ad = np.abs(d)
    hit = np.argmin(ad, axis=1)
    rows = np.arange(len(x))
    exact = ad[rows, hit] < 1e-14 * (1.0 + np.abs(x))
    d[rows[exact], hit[exact]] = 1.0  # keeps those rows finite; overwritten below
    q = weights / d
    out = np.sum(q * values, axis=1) / np.sum(q, axis=1)
    out[exact] = values[hit[exact]]
    return out


def _check_range(x: np.ndarray, lo: float, hi: float, what: str):
    bad = ~((lo - 1e-12 <= x) & (x <= hi + 1e-12))
    if np.any(bad):
        x0 = float(x[np.argmax(bad)])
        raise DomainError(f"{what} {x0:.6g} outside [{lo:.6g}, {hi:.6g}]")


def gl_integrals(fn, intervals) -> list:
    """Composite 16-point Gauss-Legendre quadrature of a callable on arrays
    over each (lo, hi, panels) of ``intervals``; one call of ``fn`` takes
    the nodes of all of them."""
    grids = []
    for lo, hi, panels in intervals:
        edges = np.linspace(lo, hi, panels + 1)
        mid = (edges[:-1] + edges[1:]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        grids.append((mid[:, None] + half[:, None] * GL_NODES, half))
    vals = fn(np.concatenate([x.ravel() for x, _ in grids]))
    out, pos = [], 0
    for (lo, hi, _), (x, half) in zip(intervals, grids):
        total = 0.0
        if lo != hi:
            for h, v in zip(half, vals[pos:pos + x.size].reshape(x.shape)):
                total += h * float(np.dot(GL_WEIGHTS, v))
        out.append(total)
        pos += x.size
    return out


def _panels_for(length: float, floor: int = 1) -> int:
    return max(floor, int(math.ceil(abs(length) / 0.05)))


class _Interpolated:
    """value/values of an entry interpolated on Chebyshev nodes
    (``_interpolate``) whose derivative is the closed form ``dexpr``."""

    def value(self, x: float) -> float:
        return float(self._interpolate(np.array([float(x)]))[0])

    def values(self, x) -> np.ndarray:
        return _on_unique(self._interpolate, x)

    def _derivs(self, x, k: int):
        if k > 4:
            raise ContractViolation("profile derivative order exceeded (max 4)")
        x = np.asarray(x, dtype=float)
        head = self.value(x) if x.ndim == 0 else self._interpolate(x)
        return [head] + _deriv_ladder(self.dexpr, x, k)


@dataclass(frozen=True)
class QuadratureProfile(_Interpolated):
    """Antiderivative of a closed-form expression, anchored at (s0, f0)."""

    dexpr: Expr
    s0: float
    f0: float
    lo: float
    hi: float
    nodes: np.ndarray = field(repr=False, default=None)
    node_values: np.ndarray = field(repr=False, default=None)
    bary_w: np.ndarray = field(repr=False, default=None)

    @classmethod
    def build(cls, dexpr: Expr, s0: float, f0: float, lo: float, hi: float,
              n_nodes: int = DEFAULT_NODES):
        nodes = _cheb_nodes(lo, hi, n_nodes)
        order = np.argsort(nodes)
        sorted_nodes = nodes[order]
        # integrate outward from the anchor through successive gaps
        start = int(np.searchsorted(sorted_nodes, s0))
        chains = (range(start, len(sorted_nodes)), range(start - 1, -1, -1))
        gaps = []  # (node, previous node of its chain or the anchor)
        for chain in chains:
            prev = s0
            for i in chain:
                gaps.append((i, prev))
                prev = sorted_nodes[i]
        parts = gl_integrals(lambda x: eval_values(dexpr, x[:, None]),
                             [(a, sorted_nodes[i], _panels_for(sorted_nodes[i] - a))
                              for i, a in gaps])
        part = dict(zip((i for i, _ in gaps), parts))
        cumulative = np.empty_like(sorted_nodes)
        for chain in chains:
            acc = f0
            for i in chain:
                acc += part[i]
                cumulative[i] = acc
        values = np.empty_like(cumulative)
        values[order] = cumulative
        return cls(dexpr, s0, f0, lo, hi, nodes, values, _bary_weights(n_nodes))

    def check_range(self, x: np.ndarray):
        _check_range(x, self.lo, self.hi, "profile argument")

    def _interpolate(self, x: np.ndarray) -> np.ndarray:
        self.check_range(x)
        return _bary_eval(self.nodes, self.bary_w, self.node_values, x)

    def derivs(self, x, k: int):  # each entry class has its own (perfbench traces them)
        return self._derivs(x, k)


def _offset_product(offsets) -> Expr:
    factors = [S if o == 0.0 else S + Const(float(o)) for o in offsets]
    prod = factors[0]
    for f in factors[1:]:
        prod = Mul(prod, f)
    return prod


@dataclass(frozen=True)
class PsiSolution(_Interpolated):
    """psi(s) = s/2 + c * integral_0^s (prod_i (xi + o_i))^(2/3) dxi.

    The integrand's 2/3 power is evaluated as cbrt(x)^2 so the cube-root
    substitution xi = w^3 keeps the quadrature smooth through the root at 0,
    but construction still requires the product to stay positive on the
    range, matching the sign hypotheses under which the profile is used.
    """

    a: float | None
    b: float | None
    c: float
    offsets: tuple
    s_grid: np.ndarray = field(repr=False, default=None)
    psi_values: np.ndarray = field(repr=False, default=None)
    dpsi_values: np.ndarray = field(repr=False, default=None)
    ddpsi_values: np.ndarray = field(repr=False, default=None)
    interpolation_order: int = DEFAULT_NODES
    bary_w: np.ndarray = field(repr=False, default=None)
    dexpr: Expr = None

    @classmethod
    def build(cls, offsets, c: float, s_range, n_nodes: int = DEFAULT_NODES,
              a: float | None = None, b: float | None = None):
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

        nodes = _cheb_nodes(lo, hi, n_nodes)
        order = np.argsort(nodes)
        sorted_nodes = nodes[order]
        w = np.cbrt(sorted_nodes)
        w_lo = np.concatenate(([0.0], w[:-1]))
        parts = gl_integrals(integrand_w, [(a, b, _panels_for(4 * (b - a), 8 if i == 0 else 1))
                                           for i, (a, b) in enumerate(zip(w_lo, w))])
        cumulative = np.empty_like(sorted_nodes)
        acc = 0.0
        for i, (sn, part) in enumerate(zip(sorted_nodes, parts)):
            acc += part
            cumulative[i] = sn / 2.0 + c * acc
        psi_vals = np.empty_like(cumulative)
        psi_vals[order] = cumulative
        dpsi = eval_values(dexpr, nodes[:, None])
        ddpsi = _jet_at(dexpr, nodes, 1).partial((1,))
        return cls(a, b, c, offsets, nodes, psi_vals, dpsi, ddpsi,
                   n_nodes, _bary_weights(n_nodes), dexpr)

    def check_range(self, x: np.ndarray):
        _check_range(x, self.s_grid.min(), self.s_grid.max(), "psi argument")

    def _interpolate(self, x: np.ndarray) -> np.ndarray:
        self.check_range(x)
        return _bary_eval(self.s_grid, self.bary_w, self.psi_values, x)

    def derivs(self, x, k: int):
        return self._derivs(x, k)


def solve_psi(a: float, b: float, c: float, s_range=(0.5, 2.0),
              n_nodes: int = DEFAULT_NODES) -> PsiSolution:
    """Solved biconservative profile for the explicit four-curvature chart."""
    if a == 0.0:
        raise ContractViolation("parameter a must be non-zero")
    return PsiSolution.build((0.0, 2.0 * a, 2.0 * b), c, s_range, n_nodes, a=a, b=b)


def solve_psi_offsets(offsets, c: float, s_range=(0.5, 2.0),
                      n_nodes: int = DEFAULT_NODES) -> PsiSolution:
    """Generalized profile with one pole term per offset (arbitrary count)."""
    return PsiSolution.build(offsets, c, s_range, n_nodes)


_POLE_TOL = 1e-8


def psi_ode_residual_general(entry, offsets, s: float) -> float:
    """|3 psi'' / (2 psi' - 1) - sum_i 1/(s + o_i)| at one point."""
    for o in offsets:
        if abs(s + o) < _POLE_TOL:
            raise DomainError(f"pole proximity: |s + {o:g}| < {_POLE_TOL:g}")
    _, dpsi, ddpsi = entry.derivs(s, 2)
    den = 2.0 * dpsi - 1.0
    if abs(den) < 1e-10:
        raise DomainError("2 psi' - 1 vanishes at the requested point")
    rhs = sum(1.0 / (s + o) for o in offsets)
    return abs(3.0 * ddpsi / den - rhs)


def psi_ode_residual(entry, a: float, b: float, s: float) -> float:
    return psi_ode_residual_general(entry, (0.0, 2.0 * a, 2.0 * b), s)


def rk4_solve(f, s0: float, y0: float, s_grid) -> np.ndarray:
    """Classic fourth-order step integration of y' = f(s, y) through s_grid."""
    s_grid = np.asarray(s_grid, dtype=float)
    out = np.empty_like(s_grid)
    s, y = s0, y0
    for i, target in enumerate(s_grid):
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
                      phi0: float = 1.2, psi0: float = 0.3,
                      n_nodes: int = DEFAULT_NODES):
    """Unit-constraint profile pair (phi, psi) from an angle function theta(s)."""
    if kind not in PAIR_KINDS:
        raise ContractViolation(f"unknown pair kind {kind!r}")
    if isinstance(theta, str):
        theta = parse(theta, ("s",))
    lo, hi = float(s_range[0]), float(s_range[1])
    if s0 is None:
        s0 = (lo + hi) / 2.0
    f_phi, f_psi = PAIR_KINDS[kind]
    phi = QuadratureProfile.build(Call(f_phi, theta), s0, phi0, lo, hi, n_nodes)
    psi = QuadratureProfile.build(Call(f_psi, theta), s0, psi0, lo, hi, n_nodes)
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
    QuadratureProfile or PsiSolution) on the whole array.  A base without
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
                                 tol: float = 1e-6) -> float:
    """Max |FD of value - supplied first derivative| over the range."""
    h = 1e-5 * (hi - lo)
    worst = 0.0
    for x in np.linspace(lo + 2 * h, hi - 2 * h, n):
        fd = (entry.derivs(x + h, 0)[0] - entry.derivs(x - h, 0)[0]) / (2.0 * h)
        worst = max(worst, abs(fd - entry.derivs(x, 1)[1]))
    if worst > tol:
        raise ContractViolation(
            f"profile value/derivative inconsistency {worst:.3e} exceeds {tol:g}"
        )
    return worst
