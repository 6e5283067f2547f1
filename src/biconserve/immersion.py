"""From a parametrized chart to curvature data and verification residuals.

Jets give the chart's partials and nothing after them: the chart's
components, one expression Dag built with the chart, are expanded to
order-3 jets in one walk, and d_i x, d_i d_j x and d_i d_j d_l x are read
off their stacked coefficients, one gather per order.  Everything after is
array arithmetic, shared by every codimension in ``_frame``: the induced
metric and its first partials by the product rule, and the Christoffel
symbols by one linear solve per point with G.  ``submanifold_packet`` adds
the normal-valued second fundamental form h and the mean curvature vector;
``packet`` (codimension 1) adds the unit normal, B = <d_i d_j x, N> with
d_l B_ij = <d_i d_j d_l x, N> - Gamma^k_ij B_kl, and the shape operator S
with its partials by a solve with G and one more with the same matrix (the
linear-solve rule), so H and grad H are traces of S and of its partials,
never re-differenced.  The second partials of G enter only the Gauss
check, which builds the curvature tensor from them (``_curvature``).
Both packets evaluate one point or a block of points at once: the arrays
and the residual operations carry a leading point axis, of length 1 for a
one-point call.  Each identity residual has one body for both packets;
only the terms that belong to the codimension differ.
The independent oracle, packet_fd, uses no jets: nested central
differences of chart values from one array walk of the Dag (expr.fd_partial)
and one frame pass over the points and their stencil neighbours, for one
point or a block as well.  Its FdPacket feeds the same tangency residuals.

All residual norms are Euclidean in the ambient coordinates: an error vector
with vanishing indefinite self-product must not masquerade as zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ambient import AmbientVector, Signature, cofactor_cross
from .errors import (ContractViolation, DegenerateFrameError, DegenerateMetric,
                     DegenerateNormal, DomainError, UnexpectedIndex, plain_point)
from .expr import Dag, dag_of, eval_value, eval_values, fd_partial, jet_eval

TAU_CMC = 1e-8
TAU_NORMAL = 1e-10
FD_STEP = 5e-4  # packet_fd's step along each axis


def tau_deg(gmax: float) -> float:
    return 1e-10 * (1.0 + gmax)


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
    dddx: np.ndarray         # (n, n, n, m): d_i d_j d_l x
    _weights: np.ndarray = field(repr=False, default=None)

    @property
    def gradH_lightlike(self):
        """Nonzero grad H with vanishing self-product (the excluded case)."""
        g = self.gradH_ambient.components
        q = np.sum(self._weights * g * g, axis=-1)
        out = ~np.asarray(self.is_cmc_point) & (np.abs(q) <= 1e-9 * np.sum(g * g, axis=-1))
        return bool(out) if out.ndim == 0 else out


@dataclass
class SubmanifoldPacket:
    """First and second fundamental forms of a chart of any codimension, at
    one point or at each point of a block.

    Built from one point (n,), the arrays have the shapes noted below;
    built from a block (P, n), every array gains a leading point axis and
    ``point`` is the (P, n) block.
    """

    point: tuple
    G: np.ndarray               # (n, n)
    G_inv: np.ndarray
    christoffel: np.ndarray     # (n, n, n): Gamma^k_ij at [k, i, j]
    dx: np.ndarray              # (n, m): d_i x
    ddx: np.ndarray             # (n, n, m): d_i d_j x
    dddx: np.ndarray            # (n, n, n, m): d_i d_j d_l x
    h: np.ndarray               # (n, n, m) normal-part second fundamental form
    mean_curvature: np.ndarray  # (m,) ambient vector, (1/n) G^{ij} h_ij
    _weights: np.ndarray = field(repr=False, default=None)


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
    apart from the LU-based ``ambient.metric_cross``: in 8-space it is the
    more accurate of the two (3.0e-16 against 3.3e-15 relative), and the
    oracle, which uses its core ``cofactor_cross``, keeps a normal of its
    own."""
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
        tau = tau_deg(gmax)
        det_floor = tau ** chart.nparams
    k = _first(~(np.isfinite(gmax) & np.isfinite(det) & np.isfinite(det_floor)))
    if k is not None:
        raise DomainError(f"induced metric overflows at {plain_point(pts[k])} "
                          f"(max|G|={gmax[k]:.3e}, det={det[k]:.3e})")
    eig = np.linalg.eigvalsh(G0)
    degenerate = ((np.abs(det) <= det_floor) | (np.abs(det) <= 1e-300)
                  | (np.min(np.abs(eig), axis=1) <= tau))
    index = np.sum(eig < 0, axis=1)
    k = _first(degenerate | (index != chart.expected_index))
    if k is None:
        return
    if degenerate[k]:
        raise DegenerateMetric(pts[k], float(det[k]))
    raise UnexpectedIndex(int(index[k]), chart.expected_index, pts[k])


def _orient_sign(w_val, ref, flip):
    """Sign of the normal for each row of ``w_val`` (..., m): along the
    reference ``ref`` (..., m) when given, else with its last nonzero
    component positive; reversed by ``flip``."""
    if ref is not None:
        sgn = np.where(np.sum(w_val * ref, axis=-1) >= 0.0, 1.0, -1.0)
    else:
        mag = np.abs(w_val)
        big = mag > 1e-9 * np.max(mag, axis=-1, keepdims=True)
        last = w_val.shape[-1] - 1 - np.argmax(big[..., ::-1], axis=-1)
        comp = np.take_along_axis(w_val, last[..., None], axis=-1)[..., 0]
        sgn = np.where(big.any(axis=-1) & (comp < 0), -1.0, 1.0)
    return -sgn if flip else sgn


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


def _frame(chart: ImmersionChart, pts: np.ndarray):
    """(dx, ddx, dddx, G, dG, Gamma) at each point of ``pts`` (P, n): the
    chart's partials d_i x (P, n, m), d_i d_j x (P, n, n, m) and d_i d_j d_l x
    (P, n, n, n, m), read off the order-3 jets of one ``jet_eval`` of the
    chart's Dag (each shared subexpression once), their coefficients stacked
    once and each order in one gather; the induced metric G_ij
    with its partials, (P, n, n) and (P, n, n, n) at [i, j, l], by the
    product rule; and the Christoffel symbols Gamma^k_ij at [k, i, j] by one
    linear solve per point with G.  Raises where G fails the metric checks."""
    eps = chart.signature.weights
    jets = jet_eval(chart.dag, pts, 3, chart.profile_bank)
    coef = np.stack([j.c for j in jets], axis=-1)  # (ncoef, P, m)
    dx, ddx, dddx = [(coef[pos] * fac[..., None, None]).transpose(k, *range(k), k + 1)
                     for k, (pos, fac) in enumerate(jets[0].space.partial_tables[1:4], 1)]
    G = _inner(dx[:, :, None], dx[:, None], eps)
    _metric_checks(chart, pts, G)
    # d_l G_ij = <d_i d_l x, d_j x> + <d_i x, d_j d_l x>
    A = np.einsum("zila,a,zja->zijl", ddx, eps, dx)
    dG = A + A.transpose(0, 2, 1, 3)
    # Gamma_{l,ij} = (d_i G_jl + d_j G_il - d_l G_ij) / 2 at [l, ij]
    i, j = _triu(chart.nparams)
    R = (dG[:, :, j, i] + dG[:, :, i, j] - dG.transpose(0, 3, 1, 2)[:, :, i, j]) * 0.5
    Gamma = np.empty(dG.shape)
    Gamma[:, :, i, j] = Gamma[:, :, j, i] = np.linalg.solve(G, R)
    return dx, ddx, dddx, G, dG, Gamma


def _gamma_times(Gamma, T):
    """sum_m Gamma^m_ij T_m... at [i, j, ...], for T (P, n, ...)."""
    P, n = Gamma.shape[:2]
    out = np.matmul(Gamma.reshape(P, n, n * n).swapaxes(1, 2), T.reshape(P, n, -1))
    return out.reshape((P, n, n) + T.shape[2:])


def packet(chart: ImmersionChart, p, flip_normal: bool = False) -> CurvaturePacket:
    """Full curvature bundle at interior points of a hypersurface chart.

    ``p`` is one point (n,) or a block of points (P, n).  The normal is
    oriented at each point by that point alone: along the chart's reference
    normal field when it has one, else with its last nonzero component
    positive; ``flip_normal`` reverses it.  ``_frame`` gives the partials, G
    and the Christoffel symbols; the unit normal N is the normalized
    ``_cross`` of the tangents, B = <d_i d_j x, N> and its partials
    d_l B_ij = <d_i d_j d_l x, N> - Gamma^k_ij B_kl (exact, since
    <d_k x, N> = 0, so no derivative of N is needed).  The shape operator S
    and its partials are two linear solves with G (the linear-solve rule),
    and H and grad H the traces of S and of its partials.  Each point gets
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
    dx, ddx, dddx, G, dG, Gamma = _frame(chart, pts)

    w = _cross(dx, eps)
    w_euclid2 = np.sum(w * w, axis=-1)
    k = _first(w_euclid2 <= 1e-300)
    if k is not None:
        raise DegenerateFrameError(f"tangent frame rank deficient at {plain_point(pts[k])}")
    nn = _inner(w, w, eps)
    k = _first(nn <= TAU_NORMAL * w_euclid2)
    if k is not None:
        raise DegenerateNormal(pts[k])
    ref = None
    if chart.orientation_dag is not None:
        ref = eval_values(chart.orientation_dag, pts, chart.profile_bank)
    N = w * ((1.0 / np.sqrt(nn)) * _orient_sign(w, ref, flip_normal))[:, None]
    B = _inner(ddx, N[:, None, None], eps)
    dB = _inner(dddx, N[:, None, None, None], eps) - _gamma_times(Gamma, B)
    # S = G^-1 B and d_l S = G^-1 (d_l B - d_l G S): two solves with the same matrix
    S = np.linalg.solve(G, B)
    dR = dB - np.einsum("zrsl,zsc->zrcl", dG, S)
    dS = np.linalg.solve(G, dR.reshape(len(pts), n, -1)).reshape(dR.shape)
    H = np.trace(S, axis1=1, axis2=2) * (1.0 / n)
    dH = np.trace(dS, axis1=1, axis2=2) * (1.0 / n)

    G_inv = np.linalg.inv(G)
    gradH = _mv(G_inv, dH)
    fields = (G, G_inv, N, B, S, H, gradH, _push(gradH, dx), Gamma, dx, ddx, dB, dddx)
    one = p.ndim == 1
    G, G_inv, N, B, S, H, gradH, g_amb, Gamma, dx, ddx, dB, dddx = [
        f[0] if one else f for f in fields]
    sig = chart.signature
    return CurvaturePacket(tuple(p) if one else p, G, G_inv, AmbientVector(N, sig), B, S,
                           float(H) if one else H, gradH, AmbientVector(g_amb, sig), Gamma,
                           dx, ddx, dB, dddx, _weights=eps)


def submanifold_packet(chart: ImmersionChart, p) -> SubmanifoldPacket:
    """First and second fundamental forms of a chart of any codimension.

    ``p`` is one point (n,) or a block of points (P, n), evaluated as
    ``packet`` evaluates them: ``_frame`` gives the partials, G and
    the Christoffel symbols, h_ij = d_i d_j x - Gamma^k_ij d_k x is the
    normal part of the second derivatives, and the mean curvature vector is
    (1/n) G^{ij} h_ij.  A one-point call runs the block code on one point
    and returns unbatched arrays, and a block raises as soon as any of its
    points fails a metric check.
    """
    p = np.asarray(p, dtype=float)
    dx, ddx, dddx, G, _, Gamma = _frame(chart, np.atleast_2d(p))
    G_inv = np.linalg.inv(G)
    h = ddx - np.einsum("zkij,zka->zija", Gamma, dx)
    fields = (G, G_inv, Gamma, dx, ddx, dddx, h,
              np.einsum("zij,zija->za", G_inv, h) / chart.nparams)
    one = p.ndim == 1
    return SubmanifoldPacket(tuple(p) if one else p, *[f[0] if one else f for f in fields],
                             _weights=chart.signature.weights)


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


def biconservative_residual(chart: ImmersionChart, p, pk=None):
    """Scale-free tangency defect of the shape operator on grad H.

    Zero exactly when grad H vanishes (constant mean curvature, where the
    condition is vacuous).  ``pk`` is a ``CurvaturePacket`` or an
    ``FdPacket``: both oracles share this arithmetic, each with its own CMC
    decision.
    """
    if pk is None:
        pk = packet(chart, p)
    one, (S, H, gradH, dx, g_amb, cmc) = _point_axis(
        pk, pk.S, pk.H, pk.gradH, pk.dx, pk.gradH_ambient.components, pk.is_cmc_point)
    # eigenvalue factor -(n/2) H; the displayed -2 H for four parameters
    n = S.shape[-1]
    v = _mv(S, gradH) + (n / 2.0) * H[:, None] * gradH
    r = np.linalg.norm(_push(v, dx), axis=-1) / np.maximum(1.0, np.linalg.norm(g_amb, axis=-1))
    return _result(one, np.where(cmc, 0.0, r))


def _principal_direction(S, H, gradH, dx) -> np.ndarray:
    """The principal-direction residual at each point of (P, ...) arrays.

    Meaningless where grad H vanishes; the caller masks its CMC points.
    """
    n = S.shape[-1]
    g = _push(gradH, dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        ng = np.linalg.norm(g, axis=-1)
        sg = _push(_mv(S, gradH), dx)
        res_eigen = np.linalg.norm(sg + (n / 2.0) * H[:, None] * g, axis=-1) / ng
        k1_measured = np.sum(sg * g, axis=-1) / (ng * ng)
    res_sum = np.abs((np.trace(S, axis1=-2, axis2=-1) - k1_measured) - (3.0 * n / 2.0) * H)
    return np.maximum(res_eigen, res_sum)


def principal_direction_check(chart: ImmersionChart, p, pk=None):
    """Residuals of the eigen-direction identities satisfied by grad H.

    Checks both displayed consequences of the tangency condition: grad H is
    an eigenvector with eigenvalue -(n/2) H, and the remaining eigenvalues
    sum to (3n/2) H.  Returns None at a constant-mean-curvature point; a
    block packet gives NaN at its CMC points.  ``pk`` may also be an
    FdPacket: both oracles share this arithmetic.
    """
    if pk is None:
        pk = packet(chart, p)
    one, (S, H, gradH, dx, cmc) = _point_axis(pk, pk.S, pk.H, pk.gradH, pk.dx, pk.is_cmc_point)
    r = np.where(cmc, np.nan, _principal_direction(S, H, gradH, dx))
    if one:
        return None if cmc[0] else float(r[0])
    return r


def unit_normal_residual(chart: ImmersionChart, p, pk: CurvaturePacket | None = None):
    """| <N, N> - 1 | under the indefinite product."""
    if pk is None:
        pk = packet(chart, p)
    one, (N,) = _point_axis(pk, pk.N.components)
    return _result(one, np.abs(np.sum(pk._weights * N * N, axis=-1) - 1.0))


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
    otherwise, of one point or of a block.  lap x is computed once; only
    the vector it is compared with depends on the codimension: n H N, or
    for codimension > 1 the metric-orthogonal projection of the second
    derivatives, an independent route to n times the mean curvature vector.
    """
    pk = _any_packet(chart, p, pk)
    one, (G_inv, ddx, Gamma, dx) = _point_axis(pk, pk.G_inv, pk.ddx, pk.christoffel, pk.dx)
    n = G_inv.shape[-1]
    lap = np.einsum("zij,zija->za", G_inv, ddx) - np.einsum(
        "zij,zkij,zka->za", G_inv, Gamma, dx
    )
    if chart.codim == 1:
        _, (H, N) = _point_axis(pk, pk.H, pk.N.components)
        target = n * H[:, None] * N
    else:
        inner = np.einsum("zijc,c,zlc->zijl", ddx, pk._weights, dx)
        tangential = np.einsum("zkl,zijl,zkb->zijb", G_inv, inner, dx)
        Hvec = np.einsum("zij,zijb->zb", G_inv, ddx - tangential) / n
        target = n * Hvec
    return _result(one, np.linalg.norm(lap - target, axis=-1))


def _curvature(G, Gamma, dx, ddx, dddx, eps):
    """The lowered curvature tensor R_ijkl = G_lm R^m_ijk at [i, j, k, l],
    (P, n, n, n, n), by the classical formula R_ijkl = (G_jl,ik + G_ik,jl -
    G_jk,il - G_il,jk) / 2 + Gamma_{m,lj} Gamma^m_ik - Gamma_{m,li} Gamma^m_jk,
    with Gamma_{m,ab} = G_mp Gamma^p_ab and d_q d_l G_ij by the product rule."""
    P, n, m = dx.shape
    # <d_i d_l d_q x, d_j x> at [i, l, q, j] and <d_i d_l x, d_j d_q x> at [i, l, j, q]
    T = np.matmul((dddx * eps).reshape(P, -1, m), dx.swapaxes(1, 2)).reshape((P,) + (n,) * 4)
    Q = np.matmul((ddx * eps).reshape(P, -1, m),
                  ddx.reshape(P, -1, m).swapaxes(1, 2)).reshape((P,) + (n,) * 4)
    E = T.transpose(0, 1, 4, 2, 3) + Q.transpose(0, 1, 3, 2, 4)
    ddG = E + E.swapaxes(1, 2)  # d_q d_l G_ij at [i, j, l, q]
    X = ddG.transpose(0, 1, 3, 2, 4)  # G_ik,jl at [i, j, k, l]
    Y = X - X.swapaxes(3, 4)
    # Gamma^m_ik Gamma_{m,lj} at [i, k, l, j]
    M = _gamma_times(Gamma, np.matmul(G, Gamma.reshape(P, n, -1)).reshape(Gamma.shape))
    quad = M.transpose(0, 1, 4, 2, 3)
    return (Y + Y.transpose(0, 2, 1, 4, 3)) * 0.5 + (quad - quad.swapaxes(1, 2))


def gauss_codazzi_residual(chart: ImmersionChart, p, pk=None):
    """Max-norm defects of the two flat-space integrability identities.

    ``pk`` is as for ``beltrami_residual``.  The curvature tensor comes from
    the packet's metric, Christoffel symbols and the chart's partials
    (``_curvature``), for either codimension; the Gauss right-hand side,
    the scale and the Codazzi tensor are those of the codimension: the
    shape operator's B for a hypersurface, the normal-valued h otherwise,
    whose Codazzi defect is projected onto the normal space.  Every term
    of a curve's identities cancels exactly, so a curve gives (0.0, 0.0).
    """
    pk = _any_packet(chart, p, pk)
    one, (G, Gamma, dx, ddx, dddx) = _point_axis(pk, pk.G, pk.christoffel, pk.dx, pk.ddx,
                                                 pk.dddx)
    w = pk._weights
    Rdown = _curvature(G, Gamma, dx, ddx, dddx, w)

    if chart.codim == 1:
        _, (B0, dB) = _point_axis(pk, pk.B, pk.dB)
        gauss_rhs = np.einsum("zjk,zil->zijkl", B0, B0) - np.einsum("zik,zjl->zijkl", B0, B0)
        scale = (1.0 + np.max(np.abs(B0), axis=(1, 2))) ** 2
        # nabla_i B_jk = d_i B_jk - Gamma^m_ij B_mk - Gamma^m_ik B_jm
        GB = _gamma_times(Gamma, B0)
        covB = dB.transpose(0, 3, 1, 2) - GB - GB.swapaxes(2, 3)
        r_codazzi = np.max(np.abs(covB - covB.swapaxes(1, 2)), axis=(1, 2, 3))
    else:
        _, (G_inv, h0) = _point_axis(pk, pk.G_inv, pk.h)
        P, n, m = dx.shape
        hh = np.matmul((h0 * w).reshape(P, -1, m),
                       h0.reshape(P, -1, m).swapaxes(1, 2)).reshape((P,) + (n,) * 4)
        gauss_rhs = np.einsum("zjkil->zijkl", hh) - np.einsum("zikjl->zijkl", hh)
        scale = (1.0 + np.max(np.linalg.norm(h0, axis=-1), axis=(1, 2))) ** 2
        # nabla_i h_jk = d_i h_jk - Gamma^m_ij h_mk - Gamma^m_ik h_jm, with d_i h_jk
        # less its tangential term -d_i Gamma^m_jk d_m x; the normal part of its
        # skew part in (i, j) must vanish
        Gh = _gamma_times(Gamma, h0)
        Dh = dddx - _gamma_times(Gamma, ddx).transpose(0, 3, 1, 2, 4) - Gh - Gh.swapaxes(2, 3)
        diff = Dh - Dh.swapaxes(1, 2)
        inner = np.matmul((diff * w).reshape(P, -1, m), dx.swapaxes(1, 2))
        tangential = np.matmul(np.matmul(inner, G_inv.swapaxes(1, 2)), dx)
        perp = diff - tangential.reshape(diff.shape)
        r_codazzi = np.max(np.linalg.norm(perp, axis=-1), axis=(1, 2, 3))
    r_gauss = np.max(np.abs(Rdown - gauss_rhs), axis=(1, 2, 3, 4)) / scale
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
    point whose normal is degenerate."""
    n = chart.nparams
    eps = chart.signature.weights
    G0 = np.einsum("zia,a,zja->zij", dx, eps, dx)
    w, deficient = cofactor_cross(dx, chart.signature)
    nn = _rowdot(eps * w, w)
    lightlike = nn <= TAU_NORMAL * _rowdot(w, w)
    for part in (slice(None, npts), slice(npts, None)):
        if deficient[part].any():
            raise DegenerateFrameError("tangent frame is rank deficient")
        if (k := _first(lightlike[part])) is not None:
            raise DegenerateNormal(base[part][k])
    unit = w / np.sqrt(nn)[:, None]
    sgn = _orient_sign(w[:npts], None if ref is None else ref[:npts], False)
    ref = np.tile(unit[:npts] * sgn[:, None], (2 * n, 1)) if ref is None else ref[npts:]
    N0 = unit * np.concatenate((sgn, _orient_sign(w[npts:], ref, False)))[:, None]
    B0 = np.einsum("zija,a,za->zij", ddx, eps, N0)
    S0 = np.linalg.solve(G0, B0)
    return G0, N0, B0, S0, np.trace(S0, axis1=1, axis2=2) / n


def packet_fd(chart: ImmersionChart, p) -> FdPacket:
    """Curvature bundle from central differences only (independent oracle).

    The chart's first and second partials are nested central differences of
    its values, at p and at p +- FD_STEP along each axis.  grad H is the
    centered difference of the scalar H field built from them.  Every value
    comes from ``eval_values`` (array arithmetic, the profiles' array
    ``values``), so no jet arithmetic enters anywhere.

    ``p`` is one point (n,) or a block (P, n), as for ``packet``.  The
    stencils of all first and second partials at all P (2n + 1) base points
    take one ``fd_partial`` call, one array walk of the chart's Dag, and the
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
    # d_i x and d_i d_j x at every base point: one set of stencil points for
    # all first and second alphas and every component
    vals = fd_partial(chart.dag, base, np.concatenate((eye, eye[i] + eye[j])),
                      profile_bank=chart.profile_bank).swapaxes(0, 1)  # (B, alpha, m)
    dx = np.ascontiguousarray(vals[:, :n])
    ddx = np.empty((len(base), n, n, chart.signature.dim))
    ddx[:, i, j] = ddx[:, j, i] = vals[:, n:]
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
