"""From a parametrized chart to curvature data and verification residuals.

Jets give the chart's partials and nothing after them: the chart's
components, one expression Dag built with the chart, are expanded to
order-3 jets in one walk, and d_i x and d_i d_j x are read off their
stacked coefficients, one gather per order; the third partials stay as
their n(n+1)(n+2)/6 distinct coefficients.  Everything after is array
arithmetic, shared by every codimension in ``_frame``: the induced metric
and its first partials by the product rule, one inverse of G per point,
and the Christoffel symbols by one matmul with it.  ``packet``
(codimension 1) adds the unit normal, B = <d_i d_j x, N> with its partials
d_l B_ij = <d_i d_j d_l x, N> - Gamma^k_ij B_kl, the inner product formed
once per distinct third partial, and the shape operator S with its
partials by matmuls with the same inverse (the linear-solve rule), so H
and grad H are traces of S and of its partials.  ``submanifold_packet``
adds the normal parts h of d_i d_j x and dh of its partials (the one place
the third partials are expanded, ``_third_partials``), and the mean
curvature vector.  Each packet gives h, dh and the
mean curvature vector in its own normal coordinates, whose metric is its
``normal_weights`` (on a hypersurface the one coordinate along N, h = B),
so each identity residual has one body for every codimension.  The third
partials enter only dB and dh: the Gauss check (``_curvature``) forms the
curvature tensor from the second partials and the Christoffel symbols, as
the third-partial terms of its classical formula cancel.  Both packets
evaluate one point or a block of points at once: the arrays and the
residual operations carry a leading point axis, of length 1 for a
one-point call.
The independent oracle, packet_fd, uses no jets: nested central
differences of chart values from array walks of the Dag (expr.fd_partial),
one per slice of at most FD_BASES stencil base points, and one frame pass
over the points and their stencil neighbours, for one point or a block as
well.  Its FdPacket feeds the same tangency residuals.

All residual norms are Euclidean in the ambient or normal coordinates: an
error vector with vanishing indefinite self-product must not masquerade as zero.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ambient import AmbientVector, Signature, cofactor_cross
from .errors import (ContractViolation, DegenerateFrameError, DegenerateMetric,
                     DegenerateNormal, DomainError, UnexpectedIndex, plain_point)
from .expr import Dag, dag_of, eval_value, eval_values, fd_partial, jet_eval
from .thresholds import FD_STEP, TAU_CMC, TAU_DEG, TAU_NORMAL, TAU_ORIENT, TAU_UNDERFLOW


class _CmcRule:
    """The CMC decision of a packet with ``H`` and ``gradH_ambient``."""

    @property
    def is_cmc_point(self):
        """|grad H| <= TAU_CMC (1 + |H|) at each point, with the ambient
        Euclidean norm of grad H."""
        g = self.gradH_ambient.components
        out = np.linalg.norm(g, axis=-1) <= TAU_CMC * (1.0 + np.abs(self.H))
        return bool(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ImmersionChart:
    """Smooth map from a parameter box into flat indefinite space."""

    components: tuple
    domain: tuple
    profile_bank: dict = field(default_factory=dict)
    signature: Signature = Signature(5, 2)
    expected_index: int = 2
    name: str = ""
    orientation_ref: tuple | None = None  # expressions for a reference normal
    structure: tuple = ()  # a catalog family's expected structure, judged by the sweep
    # the components, and the reference normal, as one Dag each
    dag: Dag = field(init=False, repr=False, compare=False)
    orientation_dag: Dag | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dag", dag_of(self.components))
        object.__setattr__(self, "orientation_dag", None if self.orientation_ref is None
                           else dag_of(self.orientation_ref))

    @property
    def nparams(self) -> int:
        return len(self.domain)

    @property
    def codim(self) -> int:
        return self.signature.dim - self.nparams

    def center(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for lo, hi in self.domain])

    def value(self, p) -> np.ndarray:
        """x(p): (m,) at one point (n,), (P, m) for a block (P, n)."""
        return eval_value(self.dag, p, self.profile_bank)


@dataclass
class CurvaturePacket(_CmcRule):
    """Curvature data at one point, or at each point of a block.

    Built from one point (n,), the arrays have the shapes noted below and H
    is a float.  Built from a block (P, n), every array gains a leading
    point axis, H is (P,), ``point`` is the (P, n) block and N and
    gradH_ambient hold (P, m) components.
    """

    point: tuple
    G: np.ndarray            # (n, n)
    G_inv: np.ndarray
    N: AmbientVector         # (m,)
    B: np.ndarray            # (n, n)
    S: np.ndarray            # (n, n)
    H: float
    gradH: np.ndarray        # (n,)
    gradH_ambient: AmbientVector
    christoffel: np.ndarray  # (n, n, n): Gamma^k_ij at [k, i, j]
    dx: np.ndarray           # (n, m): d_i x
    ddx: np.ndarray          # (n, n, m): d_i d_j x
    dB: np.ndarray           # (n, n, n): d_l B_ij at [i, j, l]

    # B, dB and H N in the one normal coordinate, along N, of weight <N, N> = 1
    normal_weights = (1.0,)
    h = property(lambda self: self.B[..., None])
    dh = property(lambda self: self.dB[..., None])
    mean_curvature = property(lambda self: np.asarray(self.H)[..., None] * self.N.components)


@dataclass
class SubmanifoldPacket:
    """First and second fundamental forms of a chart of any codimension, at
    one point (n,), with the shapes noted below, or at each point of a block
    (P, n), every array with a leading point axis and ``point`` the block."""

    point: tuple
    G: np.ndarray               # (n, n)
    G_inv: np.ndarray
    christoffel: np.ndarray     # (n, n, n): Gamma^k_ij at [k, i, j]
    dx: np.ndarray              # (n, m): d_i x
    ddx: np.ndarray             # (n, n, m): d_i d_j x
    h: np.ndarray               # (n, n, m): normal part of d_i d_j x
    dh: np.ndarray              # (n, n, n, m): normal part of d_l h_ij at [i, j, l]
    mean_curvature: np.ndarray  # (m,) ambient vector, (1/n) G^{ij} h_ij
    normal_weights: np.ndarray  # (m,): the ambient metric


# -- cross product ---------------------------------------------------------


@lru_cache(maxsize=None)
def _cross_table(n: int, m: int):
    """The cofactor expansion of n rows in m columns as index arrays: for
    each level r, the K minors of rows 0..r in the order the expansion first
    reaches them, each with its r+1 terms (K, r+1) in the order they are
    added (the minor of rows 0..r-1 by index, the column of row r, the
    sign); then where each cofactor of the full minor sits, and its sign."""
    masks, levels = [1 << c for c in range(m)], []
    for r in range(1, n):
        terms = {}
        for src, mask in enumerate(masks):
            for c in range(m):
                if not mask >> c & 1:
                    pos = bin(mask & ((1 << c) - 1)).count("1")
                    terms.setdefault(mask | 1 << c, []).append((src, c, (-1) ** (r + pos)))
        masks = list(terms)
        t = np.array(list(terms.values()))
        levels.append((t[..., 0], t[..., 1], t[..., 2].astype(float)))
    full = (1 << m) - 1
    return levels, [masks.index(full ^ 1 << a) for a in range(m)], (-1.0) ** np.arange(m)


def _cross(tangents, weights):
    """Index-lowered cofactor cross product of the m-1 rows of ``tangents``
    (P, m-1, m), as (P, m): each minor is expanded along its rows by a
    bitmask of its columns, in one fixed order of products and sums, run
    level by level from ``_cross_table``: each level gathers its (K, r+1)
    signed terms at once and adds them with r array additions.  It stays
    apart from the LU-based ``ambient.cofactor_cross``: in 8-space it is the
    more accurate of the two (3.0e-16 against 3.3e-15 relative), and the
    oracle, which uses ``cofactor_cross``, keeps a normal of its own."""
    levels, last, sign = _cross_table(*tangents.shape[1:])
    minors = tangents[:, 0]
    for r, (src, col, sgn) in enumerate(levels, 1):
        terms = tangents[:, r][:, col] * minors[:, src] * sgn
        minors = terms[..., 0]
        for k in range(1, r + 1):
            minors = minors + terms[..., k]
    return weights * (minors[:, last] * sign)


# -- packet construction -------------------------------------------------


@lru_cache(maxsize=None)
def _triu(n: int):
    """``np.triu_indices(n)``, built once per n and read-only."""
    i, j = np.triu_indices(n)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _first(bad) -> int | None:
    hits = np.flatnonzero(bad)
    return int(hits[0]) if len(hits) else None


def _metric_checks(chart: ImmersionChart, pts: np.ndarray, G0: np.ndarray):
    """Raise for the first point of ``pts`` (P, n) whose induced metric,
    (P, n, n), overflows, is degenerate or has the wrong index."""
    gmax = np.max(np.abs(G0), axis=(1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(G0)
        tau = TAU_DEG * (1.0 + gmax)
        det_floor = tau ** chart.nparams
    k = _first(~(np.isfinite(gmax) & np.isfinite(det) & np.isfinite(det_floor)))
    if k is not None:
        raise DomainError(f"induced metric overflows at {plain_point(pts[k])} "
                          f"(max|G|={gmax[k]:.3e}, det={det[k]:.3e})")
    eig = np.linalg.eigvalsh(G0)
    degenerate = ((np.abs(det) <= det_floor) | (np.abs(det) <= TAU_UNDERFLOW)
                  | (np.min(np.abs(eig), axis=1) <= tau))
    index = np.sum(eig < 0, axis=1)
    k = _first(degenerate | (index != chart.expected_index))
    if k is None:
        return
    if degenerate[k]:
        raise DegenerateMetric(pts[k], float(det[k]))
    raise UnexpectedIndex(int(index[k]), chart.expected_index, pts[k])


def _orient_sign(w_val, ref):
    """Sign of the normal for each row of ``w_val`` (..., m): along the
    reference ``ref`` (..., m) when given, else with its last nonzero
    component positive."""
    if ref is not None:
        return np.where(np.sum(w_val * ref, axis=-1) >= 0.0, 1.0, -1.0)
    mag = np.abs(w_val)
    big = mag > TAU_ORIENT * np.max(mag, axis=-1, keepdims=True)
    last = w_val.shape[-1] - 1 - np.argmax(big[..., ::-1], axis=-1)
    comp = np.take_along_axis(w_val, last[..., None], axis=-1)[..., 0]
    return np.where(big.any(axis=-1) & (comp < 0), -1.0, 1.0)


def _mv(A, x):
    """A x at each point: (P, n, k) by (P, k)."""
    return np.matmul(A, x[..., None])[..., 0]


def _push(v, dx):
    """v^i d_i x at each point: (P, n) by (P, n, m)."""
    return np.matmul(v[..., None, :], dx)[..., 0, :]


def _inner(u, v, eps):
    """<u, v> over the last (ambient) axis, broadcast over the others: one
    three-operand ``np.einsum``, whose loop forms each u_a v_a eps_a and sums
    them in the order of the ambient axes (checked bitwise against that sum
    written out, in the tests)."""
    return np.einsum("...a,...a,a->...", u, v, eps)


_Frame = namedtuple("_Frame", "dx ddx c3 at3 fac3 G G_inv dG Gamma")


@lru_cache(maxsize=None)
def _third_table(space) -> tuple:
    """Where the order-3 coefficients of a jet in ``space`` sit, (K3,), and
    how to read the third partials off them: for each [i, j, l] the index
    of its coefficient among the K3 (n, n, n), and alpha! per coefficient
    (K3,).  K3 = n(n+1)(n+2)/6: 20 at n = 4, 84 at n = 7.  Read-only."""
    pos, _ = space.partial_tables[3]
    rows = np.flatnonzero(space.degree == 3)
    table = (rows, np.searchsorted(rows, pos), space.factorial[rows].astype(float))
    for arr in table:
        arr.flags.writeable = False
    return table


def _third_partials(c3, at3, fac3):
    """d_i d_j d_l x (P, n, n, n, m) at [i, j, l] from the distinct order-3
    coefficients ``c3`` (P, K3, m): each coefficient times its alpha!
    ``fac3`` (K3,), gathered where ``at3`` (n, n, n) places it."""
    return (c3 * fac3[:, None])[:, at3]


def _frame(chart: ImmersionChart, pts: np.ndarray) -> _Frame:
    """The array core of both packets at each point of ``pts`` (P, n).

    One ``jet_eval`` of the chart's Dag (each shared subexpression once)
    gives order-3 jets, whose coefficients are stacked once.  d_i x
    (P, n, m) and d_i d_j x (P, n, n, m) are read off them in one gather
    per order.  The order-3 coefficients stay distinct, ``c3`` (P, K3, m),
    with ``at3`` (n, n, n) the index of [i, j, l] among them and ``fac3``
    (K3,) their alpha!, which ``_third_partials`` expands.  The
    induced metric G_ij with its partials, (P, n, n) and (P, n, n, n) at
    [i, j, l], come by the product rule; G is inverted once per point,
    after the metric checks pass it, and the inverse gives the Christoffel
    symbols Gamma^k_ij at [k, i, j] by one matmul (the linear-solve rule).
    Raises where G fails the metric checks."""
    eps = chart.signature.weights
    jets = jet_eval(chart.dag, pts, 3, chart.profile_bank)
    coef = np.stack([j.c for j in jets], axis=-1)  # (ncoef, P, m)
    space = jets[0].space
    del jets  # the root jets, then their stack, freed once read: a block's peak memory
    dx, ddx = [(coef[pos] * fac[..., None, None]).transpose(k, *range(k), k + 1)
               for k, (pos, fac) in enumerate(space.partial_tables[1:3], 1)]
    rows, at3, fac3 = _third_table(space)
    c3 = coef[rows].swapaxes(0, 1)
    del coef
    G = _inner(dx[:, :, None], dx[:, None], eps)
    _metric_checks(chart, pts, G)
    G_inv = np.linalg.inv(G)
    # d_l G_ij = <d_i d_l x, d_j x> + <d_i x, d_j d_l x>
    A = np.einsum("zila,a,zja->zijl", ddx, eps, dx)
    dG = A + A.transpose(0, 2, 1, 3)
    # Gamma_{l,ij} = (d_i G_jl + d_j G_il - d_l G_ij) / 2 at [l, ij]
    i, j = _triu(chart.nparams)
    R = (dG[:, :, j, i] + dG[:, :, i, j] - dG.transpose(0, 3, 1, 2)[:, :, i, j]) * 0.5
    Gamma = np.empty(dG.shape)
    Gamma[:, :, i, j] = Gamma[:, :, j, i] = np.matmul(G_inv, R)
    return _Frame(dx, ddx, c3, at3, fac3, G, G_inv, dG, Gamma)


def _gamma_times(Gamma, T):
    """sum_m Gamma^m_ij T_m... at [i, j, ...], for T (P, n, ...)."""
    P, n = Gamma.shape[:2]
    out = np.matmul(Gamma.reshape(P, n, n * n).swapaxes(1, 2), T.reshape(P, n, -1))
    return out.reshape((P, n, n) + T.shape[2:])


def _shape_operator(G_inv, dG, B, dB):
    """(S, dS) at each point: S = G^-1 B and d_l S = G^-1 (d_l B - d_l G S)
    at [i, j, l], both by matmuls with the one inverse of G (the
    linear-solve rule), for G_inv, B (P, n, n) and dG, dB (P, n, n, n)."""
    P, n = B.shape[:2]
    S = np.matmul(G_inv, B)
    # d_l G S at [r, l, c], one matmul per point, then d_l R at [r, c, l]
    dGS = np.matmul(dG.swapaxes(2, 3).reshape(P, n * n, n), S).reshape(P, n, n, n)
    dR = dB - dGS.swapaxes(2, 3)
    return S, np.matmul(G_inv, dR.reshape(P, n, n * n)).reshape(dR.shape)


def packet(chart: ImmersionChart, p) -> CurvaturePacket:
    """Full curvature bundle at interior points of a hypersurface chart.

    ``p`` is one point (n,) or a block of points (P, n).  The normal is
    oriented at each point by that point alone: along the chart's reference
    normal field when it has one, else with its last nonzero component
    positive.  ``_frame`` gives the partials, G, its inverse and the
    Christoffel symbols; the unit normal N is the normalized ``_cross`` of
    the tangents, B = <d_i d_j x, N> and its partials d_l B_ij =
    <d_i d_j d_l x, N> - Gamma^k_ij B_kl (exact, since <d_k x, N> = 0, so
    no derivative of N is needed), whose first term is formed once per
    distinct third partial and then placed at each [i, j, l].  The shape
    operator S and its partials are matmuls with the inverse of G
    (``_shape_operator``), and H and grad H the traces of S and of its
    partials.  Each point gets
    the arithmetic it would get alone: a one-point call runs the block code
    on a block of one point, and returns floats and unbatched arrays.  A
    block raises as soon as any of its points fails a check; ``sweep``
    bisects a failing block to give every point its own error.
    """
    if chart.codim != 1:
        raise ContractViolation("packet requires a codimension-1 chart")
    p = np.asarray(p, dtype=float)
    pts = np.atleast_2d(p)
    n = chart.nparams
    eps = chart.signature.weights
    dx, ddx, c3, at3, fac3, G, G_inv, dG, Gamma = _frame(chart, pts)

    w = _cross(dx, eps)
    w_euclid2 = np.sum(w * w, axis=-1)
    k = _first(w_euclid2 <= TAU_UNDERFLOW)
    if k is not None:
        raise DegenerateFrameError(f"tangent frame rank deficient at {plain_point(pts[k])}")
    nn = _inner(w, w, eps)
    k = _first(nn <= TAU_NORMAL * w_euclid2)
    if k is not None:
        raise DegenerateNormal(pts[k], timelike=nn[k] < -TAU_NORMAL * w_euclid2[k])
    ref = None
    if chart.orientation_dag is not None:
        ref = eval_values(chart.orientation_dag, pts, chart.profile_bank)
    N = w * ((1.0 / np.sqrt(nn)) * _orient_sign(w, ref))[:, None]
    B = _inner(ddx, N[:, None, None], eps)
    # <d_i d_j d_l x, N> once per distinct partial, as alpha! times the
    # coefficient's product with N, then placed at each [i, j, l]
    dB = (_inner(c3, N[:, None], eps) * fac3)[:, at3] - _gamma_times(Gamma, B)
    del c3  # freed once read, as in _frame
    S, dS = _shape_operator(G_inv, dG, B, dB)
    del dG
    H = np.trace(S, axis1=1, axis2=2) * (1.0 / n)
    dH = np.trace(dS, axis1=1, axis2=2) * (1.0 / n)

    gradH = _mv(G_inv, dH)
    fields = (G, G_inv, N, B, S, H, gradH, _push(gradH, dx), Gamma, dx, ddx, dB)
    one = p.ndim == 1
    G, G_inv, N, B, S, H, gradH, g_amb, Gamma, dx, ddx, dB = [f[0] if one else f for f in fields]
    sig = chart.signature
    return CurvaturePacket(tuple(p) if one else p, G, G_inv, AmbientVector(N, sig), B, S,
                           float(H) if one else H, gradH, AmbientVector(g_amb, sig), Gamma,
                           dx, ddx, dB)


def _normal_part(T, dx, G_inv, eps):
    """T less its G-orthogonal tangential part, <T, d_l x> G^{lk} d_k x, at
    each point, for T (P, ..., m)."""
    P, m = dx.shape[0], dx.shape[-1]
    inner = np.matmul((T * eps).reshape(P, -1, m), dx.swapaxes(1, 2))
    return T - np.matmul(np.matmul(inner, G_inv.swapaxes(1, 2)), dx).reshape(T.shape)


def submanifold_packet(chart: ImmersionChart, p) -> SubmanifoldPacket:
    """First and second fundamental forms of a chart of any codimension.

    ``p`` is one point (n,) or a block of points (P, n), evaluated as
    ``packet`` evaluates them: ``_frame`` gives the partials, G, its inverse
    and the Christoffel symbols.  h_ij is the G-orthogonal normal part of
    d_i d_j x, d_l h_ij that of d_i d_j d_l x - Gamma^k_ij d_k d_l x (the
    third partials expanded by ``_third_partials``), and the mean
    curvature vector (1/n) G^{ij} h_ij takes no Christoffel symbol.  A
    one-point call runs the block code on one point and returns unbatched
    arrays; a block raises as soon as any of its points fails a check.
    """
    p = np.asarray(p, dtype=float)
    eps = chart.signature.weights
    dx, ddx, c3, at3, fac3, G, G_inv, _, Gamma = _frame(chart, np.atleast_2d(p))
    h = _normal_part(ddx, dx, G_inv, eps)
    d3 = _third_partials(c3, at3, fac3)
    dh = _normal_part(d3 - _gamma_times(Gamma, ddx), dx, G_inv, eps)
    fields = (G, G_inv, Gamma, dx, ddx, h, dh, np.einsum("zij,zija->za", G_inv, h) / chart.nparams)
    one = p.ndim == 1
    return SubmanifoldPacket(tuple(p) if one else p, *[f[0] if one else f for f in fields],
                             normal_weights=eps)


# -- residual operations --------------------------------------------------
#
# Each takes a packet of one point (returning floats) or of a block
# (returning one value per point); both run the same arithmetic over a
# leading point axis.


def _point_axis(pk, *arrays):
    """(one, arrays with a leading point axis) for a one-point or block packet."""
    one = np.ndim(pk.G) == 2
    return one, [np.asarray(a)[None] if one else a for a in arrays]


def _result(one: bool, r):
    return float(r[0]) if one else r


def _tangency(chart: ImmersionChart, p, pk) -> tuple:
    """(one, |S grad H + (n/2) H grad H|, |grad H|, cmc) per point, ambient
    Euclidean norms: the one tangency row of both checks.  ``pk`` (the
    packet of ``p`` if None) may be an ``FdPacket``: both oracles share this
    arithmetic, each with its own CMC decision."""
    if pk is None:
        pk = packet(chart, p)
    one, (S, H, gradH, dx, g_amb, cmc) = _point_axis(
        pk, pk.S, pk.H, pk.gradH, pk.dx, pk.gradH_ambient.components, pk.is_cmc_point)
    # eigenvalue factor -(n/2) H; the displayed -2 H for four parameters
    n = S.shape[-1]
    v = _mv(S, gradH) + (n / 2.0) * H[:, None] * gradH
    return one, np.linalg.norm(_push(v, dx), axis=-1), np.linalg.norm(g_amb, axis=-1), cmc


def biconservative_residual(chart: ImmersionChart, p, pk=None):
    """Scale-free tangency defect of the shape operator on grad H: the
    tangency vector's norm over max(1, |grad H|).

    Zero exactly when grad H vanishes (constant mean curvature, where the
    condition is vacuous).
    """
    one, t, g, cmc = _tangency(chart, p, pk)
    return _result(one, np.where(cmc, 0.0, t / np.maximum(1.0, g)))


def principal_direction_check(chart: ImmersionChart, p, pk=None):
    """The tangency defect relative to grad H: the tangency vector's norm
    over |grad H|, so how far grad H is from an eigenvector of S with
    eigenvalue -(n/2) H.

    Never below ``biconservative_residual``, which divides the same norm by
    max(1, |grad H|).  Returns None at a constant-mean-curvature point; a
    block packet gives NaN at its CMC points.
    """
    one, t, g, cmc = _tangency(chart, p, pk)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(cmc, np.nan, t / g)
    if one:
        return None if cmc[0] else float(r[0])
    return r


def unit_normal_residual(chart: ImmersionChart, p, pk: CurvaturePacket | None = None):
    """| <N, N> - 1 | under the indefinite product."""
    if pk is None:
        pk = packet(chart, p)
    one, (N,) = _point_axis(pk, pk.N.components)
    return _result(one, np.abs(np.sum(chart.signature.weights * N * N, axis=-1) - 1.0))


def _any_packet(chart: ImmersionChart, p, pk):
    """``pk``, or the packet of ``p`` for the chart's codimension."""
    if pk is not None:
        return pk
    return packet(chart, p) if chart.codim == 1 else submanifold_packet(chart, p)


def beltrami_residual(chart: ImmersionChart, p, pk=None):
    """Defect of the trace identity: Laplacian of x vs n times the mean
    curvature vector.

    The operator here is the analyst's Laplace-Beltrami, for which the
    position vector satisfies lap x = n H N on a hypersurface (the sign
    convention is fixed once here and tested once).  ``pk`` is a
    ``CurvaturePacket`` for a hypersurface and a ``SubmanifoldPacket``
    otherwise, of one point or of a block.  lap x takes the Christoffel
    symbols and the packet's mean curvature vector does not, so the two are
    independent routes.
    """
    pk = _any_packet(chart, p, pk)
    one, (G_inv, ddx, Gamma, dx, Hvec) = _point_axis(
        pk, pk.G_inv, pk.ddx, pk.christoffel, pk.dx, pk.mean_curvature)
    lap = np.einsum("zij,zija->za", G_inv, ddx) - np.einsum("zij,zkij,zka->za", G_inv, Gamma, dx)
    return _result(one, np.linalg.norm(lap - G_inv.shape[-1] * Hvec, axis=-1))


_GaussPlan = namedtuple("_GaussPlan", "ijkl ddx_ddx quad B")


@lru_cache(maxsize=None)
def _gauss_plan(n: int) -> _GaussPlan:
    """Index plan of the Gauss row at n parameters, built once per n and
    read-only.  ``ijkl`` (4, K) lists the kept components: i < j, k < l and
    (i, j) <= (k, l).  The rest are flat positions, per kept component:
    ``ddx_ddx`` (2, K) into the table <d_beta x, d_gamma x> (A2, A2) of the
    distinct second-order beta, gamma (``_triu(n)``) at (jk, il), (ik, jl);
    ``quad`` (2, K) into Gamma^m_beta Gamma_{m,gamma} at (ik, lj), (jk, li);
    and ``B`` (4, K) into h's (n, n) entries at jk, il, ik, jl."""
    pairs = list(itertools.combinations(range(n), 2))
    ijkl = np.array([p + q for a, p in enumerate(pairs) for q in pairs[a:]],
                    dtype=np.intp).reshape(-1, 4).T
    i, j, k, l = ijkl
    a2, b2 = _triu(n)
    A2 = len(a2)
    two = np.empty((n, n), dtype=np.intp)  # beta's position, in either order
    two[a2, b2] = two[b2, a2] = np.arange(A2)

    def table2(x, y, u, v):  # (beta, gamma) = ((x, y), (u, v)) in an (A2, A2) table
        return two[x, y] * A2 + two[u, v]

    plan = _GaussPlan(ijkl, np.array([table2(j, k, i, l), table2(i, k, j, l)]),
                      np.array([table2(i, k, l, j), table2(j, k, l, i)]),
                      np.array([j * n + k, i * n + l, i * n + k, j * n + l]))
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _curvature(G, Gamma, ddx, eps):
    """The kept components of the lowered curvature tensor, (P, K) in the
    order of ``_gauss_plan(n).ijkl``: R_ijkl = <d_j d_k x, d_i d_l x> -
    <d_i d_k x, d_j d_l x> + Gamma^m_ik Gamma_{m,lj} - Gamma^m_jk Gamma_{m,li},
    with Gamma_{m,ab} = G_mp Gamma^p_ab.  This is the classical formula
    (G_ik,jl + G_jl,ik - G_il,jk - G_jk,il) / 2 + the same Gamma terms, its
    second partials of G expanded by the product rule: every term with a
    third partial of x, and four of the eight products of second partials,
    meet their own negatives, and the other four are two transposed pairs.
    Each inner product of distinct second partials is one matmul per point,
    and each component's terms are gathered and added one by one, so a
    point's arithmetic does not depend on its block."""
    P, n = G.shape[:2]
    plan = _gauss_plan(n)
    a2, b2 = _triu(n)
    D = ddx[:, a2, b2]
    Q = np.matmul(D * eps, D.swapaxes(1, 2)).reshape(P, -1)[:, plan.ddx_ddx]
    Gam = Gamma[:, :, a2, b2]
    quad = np.matmul(Gam.swapaxes(1, 2), np.matmul(G, Gam)).reshape(P, -1)[:, plan.quad]
    return (Q[:, 0] - Q[:, 1]) + (quad[:, 0] - quad[:, 1])


def _max_norm(v, axes):
    """The largest Euclidean norm of v's last (normal) axis over ``axes``:
    the root of the largest sum of squares (|v| for one coordinate)."""
    return np.sqrt(np.max(np.einsum("...c,...c->...", v, v), axis=axes))


def gauss_codazzi_residual(chart: ImmersionChart, p, pk=None):
    """Max-norm defects of the two flat-space integrability identities.

    ``pk`` is as for ``beltrami_residual``: h and dh are in its normal
    coordinates, with weights w.  The Gauss row compares the curvature
    tensor from the packet's metric, Christoffel symbols and the chart's
    second partials (``_curvature``) with sum_c w_c (h_jk h_il - h_ik h_jl)_c
    (B_jk B_il - B_ik B_jl on a hypersurface) at the pair-symmetric
    components only: both sides are antisymmetric in (i, j) and in (k, l)
    and symmetric under the pair exchange, exactly or to rounding for the
    symmetric partials the packets hold, so the entries left out repeat
    kept ones.  The Codazzi row is the skew part in (i, j) of nabla_i h_jk
    = d_i h_jk - Gamma^m_ij h_mk - Gamma^m_ik h_jm.  Both are over the scale
    (1 + max|h|)^2.  A curve has no pair i < j, and every term of its
    Codazzi identity cancels exactly, so it gives (0.0, 0.0).
    """
    pk = _any_packet(chart, p, pk)
    one, (G, Gamma, ddx, h, dh) = _point_axis(pk, pk.G, pk.christoffel, pk.ddx, pk.h, pk.dh)
    P, n = G.shape[:2]
    R = _curvature(G, Gamma, ddx, chart.signature.weights)
    b = h.reshape(P, n * n, -1)[:, _gauss_plan(n).B]
    gauss_rhs = np.einsum("zkc,c->zk", b[:, 0] * b[:, 1] - b[:, 2] * b[:, 3], pk.normal_weights)
    scale = (1.0 + _max_norm(h, (1, 2))) ** 2
    Gh = _gamma_times(Gamma, h)
    cov = dh.transpose(0, 3, 1, 2, 4) - Gh - Gh.swapaxes(2, 3)
    r_codazzi = _max_norm(cov - cov.swapaxes(1, 2), (1, 2, 3))
    r_gauss = np.max(np.abs(R - gauss_rhs), axis=1, initial=0.0) / scale
    return _result(one, r_gauss), _result(one, r_codazzi / scale)


# -- finite-difference oracle route ---------------------------------------


@dataclass
class FdPacket(_CmcRule):
    """The oracle's curvature data at one point, or at each point of a block,
    with the shapes and fields of ``CurvaturePacket`` that the tangency
    checks read, and the same CMC rule applied to its own grad H."""

    point: tuple
    G: np.ndarray
    G_inv: np.ndarray
    N: AmbientVector
    B: np.ndarray
    S: np.ndarray
    H: float
    gradH: np.ndarray
    gradH_ambient: AmbientVector
    dx: np.ndarray  # (n, m) difference quotients d_i x


def _rowdot(a, b):
    """Dot products of the rows of (Q, m) arrays, each rounded as ``np.dot``
    rounds that row alone."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _fd_frame(chart: ImmersionChart, base, dx, ddx, ref, npts: int):
    """G, N, B, S and H in one pass at the npts centre points and then their
    neighbours, Q base points (Q, n), from dx (Q, n, m) and ddx (Q, n, n, m).
    The normals are oriented along ``ref`` (Q, m) (see ``_orient_sign``), the
    neighbours' without one along their centre's.  Raises for the centres,
    then for the neighbours: at a rank-deficient frame, then at the first
    point whose normal is not spacelike."""
    n = chart.nparams
    eps = chart.signature.weights
    G0 = np.einsum("zia,a,zja->zij", dx, eps, dx)
    w, deficient = cofactor_cross(dx, chart.signature)
    nn = _rowdot(eps * w, w)
    cut = TAU_NORMAL * _rowdot(w, w)
    not_spacelike = nn <= cut
    for part in (slice(None, npts), slice(npts, None)):
        if deficient[part].any():
            raise DegenerateFrameError("tangent frame is rank deficient")
        if (k := _first(not_spacelike[part])) is not None:
            raise DegenerateNormal(base[part][k], timelike=nn[part][k] < -cut[part][k])
    unit = w / np.sqrt(nn)[:, None]
    sgn = _orient_sign(w[:npts], None if ref is None else ref[:npts])
    ref = np.tile(unit[:npts] * sgn[:, None], (2 * n, 1)) if ref is None else ref[npts:]
    N0 = unit * np.concatenate((sgn, _orient_sign(w[npts:], ref)))[:, None]
    B0 = np.einsum("zija,a,za->zij", ddx, eps, N0)
    S0 = np.linalg.solve(G0, B0)
    return G0, N0, B0, S0, np.trace(S0, axis1=1, axis2=2) / n


# Base points per ``fd_partial`` call at most.  A call holds every stencil
# leaf of its base points and the Dag's values at each: a 384-point ex41
# control block (3,456 base points) peaked at 18.6 MiB under tracemalloc and
# took 46 ms in one call, and 7.5 MiB and 30 ms in slices of 256 (64: 44 ms,
# 512: 31 ms; 2-core Xeon host).  Each estimate is its base point's own, so
# no value depends on the slice.
FD_BASES = 256


def packet_fd(chart: ImmersionChart, p) -> FdPacket:
    """Curvature bundle from central differences only (independent oracle).

    The chart's first and second partials are nested central differences of
    its values, at p and at p +- FD_STEP along each axis.  grad H is the
    centered difference of the scalar H field built from them.  Every value
    comes from ``eval_values`` (array arithmetic, the profiles' array
    ``values``), so no jet arithmetic enters anywhere.

    ``p`` is one point (n,) or a block (P, n), as for ``packet``.  The
    stencils of all first and second partials at the P (2n + 1) base points
    take one ``fd_partial`` call, one array walk of the chart's Dag, per
    slice of at most FD_BASES base points (one call for one point), and the
    frames at the P points and their 2nP neighbours one stacked array pass
    (``_fd_frame``), so every point gets the arithmetic it would get
    alone.  A one-point call returns floats and unbatched arrays; a block
    raises as soon as any of its points fails.
    """
    p = np.asarray(p, dtype=float)
    pts = np.atleast_2d(p)
    npts, n = pts.shape
    i, j = _triu(n)
    eye = np.eye(n, dtype=int)
    steps = np.zeros((2 * n + 1, 1, n))
    steps[1::2, 0] = FD_STEP * eye
    steps[2::2, 0] = -FD_STEP * eye
    # the P points, then all of them moved by + h e_0, by - h e_0, + h e_1, ...
    base = (steps + pts).reshape(-1, n)
    # d_i x and d_i d_j x at the base points, FD_BASES at a time: one set of
    # stencil points for all first and second alphas and every component
    alphas = np.concatenate((eye, eye[i] + eye[j]))
    dx = np.empty((len(base), n, chart.signature.dim))
    ddx = np.empty((len(base), n, n, chart.signature.dim))
    for k in range(0, len(base), FD_BASES):
        vals = fd_partial(chart.dag, base[k:k + FD_BASES], alphas,
                          profile_bank=chart.profile_bank).swapaxes(0, 1)  # (B, alpha, m)
        dx[k:k + FD_BASES] = vals[:, :n]
        ddx[k:k + FD_BASES, i, j] = ddx[k:k + FD_BASES, j, i] = vals[:, n:]
    # the reference normal field when the chart has one; the H stencil
    # points otherwise follow the normal at their point
    ref = None
    if chart.orientation_dag is not None:
        ref = eval_values(chart.orientation_dag, base, chart.profile_bank)
    G, N, B, S, H = _fd_frame(chart, base, dx, ddx, ref, npts)
    Hn = H[npts:].reshape(2 * n, npts)  # at + h e_0, - h e_0, + h e_1, ...
    G_inv = np.linalg.inv(G[:npts])
    gradH = _mv(G_inv, ((Hn[0::2] - Hn[1::2]) / (2.0 * FD_STEP)).T)
    one = p.ndim == 1
    G, G_inv, N, B, S, H, gradH, g_amb, dx = [f[0] if one else f[:npts] for f in (
        G, G_inv, N, B, S, H, gradH, _push(gradH, dx[:npts]), dx)]
    sig = chart.signature
    return FdPacket(tuple(p) if one else p, G, G_inv, AmbientVector(N, sig), B, S,
                    float(H) if one else H, gradH, AmbientVector(g_amb, sig), dx)
