"""From a parametrized chart to curvature data and verification residuals.

The whole pipeline runs in jet arithmetic: chart components are expanded to
order-3 jets, so the induced metric, normal, shape operator and mean
curvature come out as jets themselves and the gradient of H is read off a
first-order jet instead of being re-differenced.  ``packet`` evaluates one
point or a block of points at once: the jets carry a trailing point axis,
and the packet's arrays and the residual operations a leading one.  The
independent oracle, packet_fd, uses no jets: nested central differences of
chart values computed by array evaluation (expr.eval_values).

All residual norms are Euclidean in the ambient coordinates: an error vector
with vanishing indefinite self-product must not masquerade as zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ambient import AmbientVector, Signature, metric_cross
from .errors import (ContractViolation, DegenerateFrameError, DegenerateMetric,
                     DegenerateNormal, DomainError, UnexpectedIndex, plain_point)
from .expr import eval_value, eval_values, fd_partial, jet_eval
from .jets import Jet
from .jets.jet import sqrt as jet_sqrt

TAU_CMC = 1e-8
TAU_NORMAL = 1e-10


def tau_deg(gmax: float) -> float:
    return 1e-10 * (1.0 + gmax)


def _cmc(g_amb, H):
    """The CMC decision, per point: |grad H| <= TAU_CMC (1 + |H|), with the
    ambient Euclidean norm of grad H."""
    out = np.linalg.norm(g_amb, axis=-1) <= TAU_CMC * (1.0 + np.abs(H))
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

    @property
    def nparams(self) -> int:
        return len(self.domain)

    @property
    def codim(self) -> int:
        return self.signature.dim - self.nparams

    def center(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for lo, hi in self.domain])

    def contains(self, p, margin: float = 0.0) -> bool:
        return all(
            lo + margin <= x <= hi - margin for x, (lo, hi) in zip(p, self.domain)
        )

    def value(self, p) -> np.ndarray:
        return np.array([eval_value(c, p, self.profile_bank) for c in self.components])


@dataclass
class CurvaturePacket:
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
    dGamma: np.ndarray       # (n, n, n, n): d_l Gamma^k_ij at [k, i, j, l]
    _weights: np.ndarray = field(repr=False, default=None)

    @property
    def is_cmc_point(self):
        return _cmc(self.gradH_ambient.components, self.H)

    @property
    def gradH_lightlike(self):
        """Nonzero grad H with vanishing self-product (the excluded case)."""
        g = self.gradH_ambient.components
        q = np.sum(self._weights * g * g, axis=-1)
        out = ~np.asarray(self.is_cmc_point) & (np.abs(q) <= 1e-9 * np.sum(g * g, axis=-1))
        return bool(out) if out.ndim == 0 else out


@dataclass
class SubmanifoldPacket:
    """Reduced first/second fundamental form bundle for codimension > 1."""

    point: tuple
    G: np.ndarray
    G_inv: np.ndarray
    christoffel: np.ndarray
    h: np.ndarray           # (n, n, m) normal-part second fundamental form
    mean_curvature: np.ndarray  # ambient vector, (1/n) G^{ij} h_ij
    _dx: list = field(repr=False, default=None)
    _ddx: list = field(repr=False, default=None)
    _h_jets: list = field(repr=False, default=None)
    _Gamma_jets: list = field(repr=False, default=None)
    _weights: np.ndarray = field(repr=False, default=None)


# -- jet linear algebra -------------------------------------------------


def _jet_solve(A, B):
    """Solve A X = B by Gauss-Jordan over the jet ring.

    Each point of a block pivots on the largest |value| in its own column,
    so it takes the row exchanges it would take alone.
    """
    n = len(A)
    rows = [list(a) + list(b) for a, b in zip(A, B)]
    for col in range(n):
        mag = np.abs([rows[r][col].c[0] for r in range(col, n)])
        piv = np.argmax(mag, axis=0)  # per point, offset from col
        if piv.any():
            rows[col:] = _exchange_first(rows[col:], piv)
        inv = rows[col][col].reciprocal()
        rows[col] = [a * inv for a in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r == col or not f.c.any():
                continue
            rows[r] = [a - f * ac for a, ac in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _exchange_first(rows, piv):
    """Rows of jets with row 0 and row piv exchanged (at each point k of a
    block, row 0 and row piv[k])."""
    nrow = len(rows)
    perm = np.broadcast_to(np.arange(nrow).reshape((nrow,) + (1,) * piv.ndim),
                           (nrow,) + piv.shape).copy()
    perm[0] = piv
    np.put_along_axis(perm, piv[None], 0, axis=0)
    out = [[] for _ in rows]
    for col in zip(*rows):
        taken = np.take_along_axis(np.stack([j.c for j in col]), perm[:, None], axis=0)
        for r, j in enumerate(col):
            out[r].append(Jet(j.space, j.order, taken[r]))
    return out


def _jet_cross(tangents, weights):
    """Index-lowered cofactor cross product of m-1 tangent jet vectors."""
    n = len(tangents)          # rows
    m = len(tangents[0])       # ambient dim
    # minors[mask] = det of rows 0..r on the sorted columns in bitmask `mask`
    minors = {1 << c: tangents[0][c] for c in range(m)}
    for r in range(1, n):
        nxt = {}
        row = tangents[r]
        for mask, det in minors.items():
            cols = [c for c in range(m) if mask & (1 << c)]
            for c in range(m):
                if mask & (1 << c):
                    continue
                new_mask = mask | (1 << c)
                pos = sum(1 for cc in cols if cc < c)
                term = row[c] * det if (r + pos) % 2 == 0 else -(row[c] * det)
                if new_mask in nxt:
                    nxt[new_mask] = nxt[new_mask] + term
                else:
                    nxt[new_mask] = term
        minors = nxt
    full = (1 << m) - 1
    out = []
    for a in range(m):
        cof = minors[full ^ (1 << a)]
        if a % 2 == 1:
            cof = -cof
        out.append(weights[a] * cof)
    return out


# -- packet construction -------------------------------------------------


def _first(bad) -> int | None:
    hits = np.flatnonzero(bad)
    return int(hits[0]) if len(hits) else None


def _metric_checks(chart: ImmersionChart, p: np.ndarray, G0: np.ndarray):
    """Raise for the first point of ``p``, (n,) or (P, n), whose induced
    metric, (n, n) or (P, n, n), overflows, is degenerate or has the wrong
    index."""
    pts = np.atleast_2d(p)
    G0 = G0.reshape(len(pts), chart.nparams, chart.nparams)
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


def _point_first(jets, part=lambda j: j.c[0]):
    """``part`` of every jet in a nested list, stacked; for block jets the
    point axis comes first.  Values (P, ...) by default."""
    shape, x, flat = [], jets, jets
    while isinstance(x, list):
        shape.append(len(x))
        x = x[0]
    for _ in shape[1:]:
        flat = [j for row in flat for j in row]
    arr = np.array([part(j) for j in flat])
    arr = arr.reshape(shape + list(arr.shape[1:]))
    if flat[0].c.ndim == 1:
        return arr
    return np.ascontiguousarray(np.moveaxis(arr, -1, 0))


def _gradient(j: Jet) -> np.ndarray:
    return j.c[1 : 1 + j.space.nvars]


def _mv(A, x):
    """A x at each point: (P, n, k) by (P, k)."""
    return np.matmul(A, x[..., None])[..., 0]


def _push(v, dx):
    """v^i d_i x at each point: (P, n) by (P, n, m)."""
    return np.matmul(v[..., None, :], dx)[..., 0, :]


def _frame_jets(chart: ImmersionChart, p: np.ndarray):
    """Jets of d_i x (order 2), d_i d_j x (order 1) and the induced metric
    G_ij (order 2) at p, with the values of G; raises where G fails the
    metric checks."""
    n = chart.nparams
    m = chart.signature.dim
    eps = chart.signature.weights
    xj = [jet_eval(c, p, 3, chart.profile_bank) for c in chart.components]
    dx = [[xj[a].deriv(i) for a in range(m)] for i in range(n)]

    G = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = eps[0] * (dx[i][0] * dx[j][0])
            for a in range(1, m):
                acc = acc + eps[a] * (dx[i][a] * dx[j][a])
            G[i][j] = acc
            G[j][i] = acc
    G0 = _point_first(G)
    _metric_checks(chart, p, G0)

    ddx = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            d = [dx[i][a].deriv(j) for a in range(m)]
            ddx[i][j] = d
            ddx[j][i] = d
    return dx, ddx, G, G0


def _christoffel_jets(G):
    """Order-1 jets of the Christoffel symbols Gamma^k_ij, from first
    derivatives of the order-2 metric jets, as [k][i][j]."""
    n = len(G)
    G1 = [[G[i][j].truncate(1) for j in range(n)] for i in range(n)]
    dG = [[[G[i][j].deriv(l) for l in range(n)] for j in range(n)] for i in range(n)]
    sym_pairs = [(i, j) for i in range(n) for j in range(i, n)]
    rhs_cols = [
        [(dG[j][l][i] + dG[i][l][j] - dG[i][j][l]) * 0.5 for l in range(n)]
        for i, j in sym_pairs
    ]
    sol = _jet_solve(G1, [[rhs_cols[col][l] for col in range(len(sym_pairs))] for l in range(n)])
    Gamma_jets = [[[None] * n for _ in range(n)] for _ in range(n)]
    for col, (i, j) in enumerate(sym_pairs):
        for k in range(n):
            Gamma_jets[k][i][j] = sol[k][col]
            Gamma_jets[k][j][i] = sol[k][col]
    return Gamma_jets


def packet(chart: ImmersionChart, p, flip_normal: bool = False) -> CurvaturePacket:
    """Full curvature bundle at interior points of a hypersurface chart.

    ``p`` is one point (n,) or a block of points (P, n).  The normal is
    oriented at each point by that point alone: along the chart's reference
    normal field when it has one, else with its last nonzero component
    positive; ``flip_normal`` reverses it.  A block is evaluated as a point
    axis of every jet, so the jet arithmetic runs once for the whole block,
    and each point gets the arithmetic it would get alone.  A one-point call
    runs the same code with no point axis and returns floats and unbatched
    arrays.  A block raises as soon as any of its points fails a check;
    ``sweep`` bisects a failing block to give every point its own error.
    """
    if chart.codim != 1:
        raise ContractViolation("packet requires a codimension-1 chart")
    p = np.asarray(p, dtype=float)
    pts = np.atleast_2d(p)  # for error messages
    n = chart.nparams
    m = chart.signature.dim
    eps = chart.signature.weights
    dx, ddx, G, G0 = _frame_jets(chart, p)

    dx1 = [[dx[i][a].truncate(1) for a in range(m)] for i in range(n)]
    w = _jet_cross(dx1, eps)
    w_val = _point_first(w)
    w_euclid2 = np.sum(w_val * w_val, axis=-1)
    k = _first(w_euclid2 <= 1e-300)
    if k is not None:
        raise DegenerateFrameError(f"tangent frame rank deficient at {plain_point(pts[k])}")
    nn = eps[0] * (w[0] * w[0])
    for a in range(1, m):
        nn = nn + eps[a] * (w[a] * w[a])
    k = _first(nn.c[0] <= TAU_NORMAL * w_euclid2)
    if k is not None:
        raise DegenerateNormal(pts[k])
    ref = None
    if chart.orientation_ref is not None:
        ref = np.stack([eval_value(e, p, chart.profile_bank) for e in chart.orientation_ref],
                       axis=-1)
    inv_norm = jet_sqrt(nn).reciprocal() * _orient_sign(w_val, ref, flip_normal)
    N_jets = [wj * inv_norm for wj in w]

    B = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = eps[0] * (ddx[i][j][0] * N_jets[0])
            for a in range(1, m):
                acc = acc + eps[a] * (ddx[i][j][a] * N_jets[a])
            B[i][j] = acc
            B[j][i] = acc
    G1 = [[G[i][j].truncate(1) for j in range(n)] for i in range(n)]
    S = _jet_solve(G1, B)

    H_jet = S[0][0]
    for i in range(1, n):
        H_jet = H_jet + S[i][i]
    H_jet = H_jet * (1.0 / n)
    Gamma_jets = _christoffel_jets(G)

    G_inv = np.linalg.inv(G0)
    gradH = _mv(G_inv, _point_first([H_jet], _gradient)[..., 0, :])
    dx0 = _point_first(dx)
    one = p.ndim == 1
    return CurvaturePacket(
        point=tuple(p) if one else p,
        G=G0,
        G_inv=G_inv,
        N=AmbientVector(_point_first(N_jets), chart.signature),
        B=_point_first(B),
        S=_point_first(S),
        H=float(H_jet.c[0]) if one else H_jet.c[0].copy(),
        gradH=gradH,
        gradH_ambient=AmbientVector(_push(gradH, dx0), chart.signature),
        christoffel=_point_first(Gamma_jets),
        dx=dx0,
        ddx=_point_first(ddx),
        dB=_point_first(B, _gradient),
        dGamma=_point_first(Gamma_jets, _gradient),
        _weights=eps,
    )


def submanifold_packet(chart: ImmersionChart, p) -> SubmanifoldPacket:
    """First/second fundamental form bundle for charts of any codimension."""
    p = np.asarray(p, dtype=float)
    n = chart.nparams
    m = chart.signature.dim
    eps = chart.signature.weights
    dx, ddx, G, G0 = _frame_jets(chart, p)
    Gamma_jets = _christoffel_jets(G)
    Gamma0 = np.array(
        [[[Gamma_jets[k][i][j].value for j in range(n)] for i in range(n)] for k in range(n)]
    )

    # normal part of the second derivatives: h_ij = dd_ij x - Gamma^k_ij d_k x
    h_jets = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            vec = []
            for a in range(m):
                acc = ddx[i][j][a].truncate(1)
                for k in range(n):
                    acc = acc - Gamma_jets[k][i][j] * dx[k][a].truncate(1)
                vec.append(acc)
            h_jets[i][j] = vec
            h_jets[j][i] = vec
    h0 = np.array(
        [[[h_jets[i][j][a].value for a in range(m)] for j in range(n)] for i in range(n)]
    )
    G_inv = np.linalg.inv(G0)
    Hvec = np.einsum("ij,ija->a", G_inv, h0) / n
    return SubmanifoldPacket(
        point=tuple(p),
        G=G0,
        G_inv=G_inv,
        christoffel=Gamma0,
        h=h0,
        mean_curvature=Hvec,
        _dx=dx,
        _ddx=ddx,
        _h_jets=h_jets,
        _Gamma_jets=Gamma_jets,
        _weights=eps,
    )


# -- residual operations --------------------------------------------------
#
# Each takes a packet of one point (returning floats) or of a block
# (returning one value per point); both run the same arithmetic over a
# leading point axis.


def _point_axis(pk, *arrays):
    """(one, arrays with a leading point axis) for a one-point or block packet."""
    one = np.ndim(pk.H) == 0
    return one, [np.asarray(a)[None] if one else a for a in arrays]


def _result(one: bool, r):
    return float(r[0]) if one else r


def biconservative_residual(chart: ImmersionChart, p, pk: CurvaturePacket | None = None):
    """Scale-free tangency defect of the shape operator on grad H.

    Zero exactly when grad H vanishes (constant mean curvature, where the
    condition is vacuous).
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


def beltrami_residual(chart: ImmersionChart, p, pk=None):
    """Defect of the trace identity: rough Laplacian of x vs n H N.

    The operator here is the analyst's Laplace-Beltrami, for which the
    position vector satisfies lap x = n H N on a hypersurface (the sign
    convention is fixed once here and tested once).
    """
    if chart.codim == 1:
        if pk is None:
            pk = packet(chart, p)
        one, (G_inv, ddx, Gamma, dx, H, N) = _point_axis(
            pk, pk.G_inv, pk.ddx, pk.christoffel, pk.dx, pk.H, pk.N.components)
        n = G_inv.shape[-1]
        lap = np.einsum("zij,zija->za", G_inv, ddx) - np.einsum(
            "zij,zkij,zka->za", G_inv, Gamma, dx
        )
        return _result(one, np.linalg.norm(lap - n * H[:, None] * N, axis=-1))

    spk = pk if isinstance(pk, SubmanifoldPacket) else submanifold_packet(chart, p)
    n = len(spk.G)
    m = len(spk._weights)
    ddx_val = np.array(
        [[[spk._ddx[i][j][a].value for a in range(m)] for j in range(n)] for i in range(n)]
    )
    dx_val = np.array([[spk._dx[i][a].value for a in range(m)] for i in range(n)])
    lap = np.einsum("ij,ija->a", spk.G_inv, ddx_val) - np.einsum(
        "ij,kij,ka->a", spk.G_inv, spk.christoffel, dx_val
    )
    # independent route to n * Hvec: metric-orthogonal projection of dd x
    w = spk._weights
    inner = np.einsum("ijc,c,lc->ijl", ddx_val, w, dx_val)
    tangential = np.einsum("kl,ijl,kb->ijb", spk.G_inv, inner, dx_val)
    Hvec = np.einsum("ij,ijb->b", spk.G_inv, ddx_val - tangential) / n
    return float(np.linalg.norm(lap - n * Hvec))


def _normal_project(xi, G_inv, dx_val, weights):
    inner = dx_val @ (weights * xi)
    return xi - (G_inv @ inner) @ dx_val


def gauss_codazzi_residual(chart: ImmersionChart, p, pk=None):
    """Max-norm defects of the two flat-space integrability identities."""
    if chart.codim == 1:
        if pk is None:
            pk = packet(chart, p)
        one, (G, B0, Gamma0, dGamma, dB) = _point_axis(
            pk, pk.G, pk.B, pk.christoffel, pk.dGamma, pk.dB)
        # R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_ip Gamma^p_jk - Gamma^l_jp Gamma^p_ik
        Rup = (
            np.einsum("zljki->zlijk", dGamma)
            - np.einsum("zlikj->zlijk", dGamma)
            + np.einsum("zlip,zpjk->zlijk", Gamma0, Gamma0)
            - np.einsum("zljp,zpik->zlijk", Gamma0, Gamma0)
        )
        Rdown = np.einsum("zlm,zmijk->zijkl", G, Rup)
        gauss_rhs = np.einsum("zjk,zil->zijkl", B0, B0) - np.einsum("zik,zjl->zijkl", B0, B0)
        scale = (1.0 + np.max(np.abs(B0), axis=(1, 2))) ** 2
        r_gauss = np.max(np.abs(Rdown - gauss_rhs), axis=(1, 2, 3, 4)) / scale

        # nabla_i B_jk = d_i B_jk - Gamma^m_ij B_mk - Gamma^m_ik B_jm
        covB = (
            np.einsum("zjki->zijk", dB)
            - np.einsum("zmij,zmk->zijk", Gamma0, B0)
            - np.einsum("zmik,zjm->zijk", Gamma0, B0)
        )
        r_codazzi = np.max(np.abs(covB - np.einsum("zijk->zjik", covB)), axis=(1, 2, 3)) / scale
        return _result(one, r_gauss), _result(one, r_codazzi)

    spk = pk if isinstance(pk, SubmanifoldPacket) else submanifold_packet(chart, p)
    n = len(spk.G)
    m = len(spk._weights)
    if n < 2:
        return 0.0, 0.0
    dGamma = np.array(
        [[[spk._Gamma_jets[k][i][j].gradient() for j in range(n)] for i in range(n)] for k in range(n)]
    )
    Gamma0 = spk.christoffel
    Rup = (
        np.einsum("ljki->lijk", dGamma)
        - np.einsum("likj->lijk", dGamma)
        + np.einsum("lip,pjk->lijk", Gamma0, Gamma0)
        - np.einsum("ljp,pik->lijk", Gamma0, Gamma0)
    )
    Rdown = np.einsum("lm,mijk->ijkl", spk.G, Rup)
    w = spk._weights
    h0 = spk.h
    hh = np.einsum("ija,a,kla->ijkl", h0, w, h0)  # <h_ij, h_kl>
    gauss_rhs = np.einsum("jkil->ijkl", hh) - np.einsum("ikjl->ijkl", hh)
    hmax = max(float(np.max(np.linalg.norm(h0, axis=2))), 0.0)
    scale = (1.0 + hmax) ** 2
    r_gauss = float(np.max(np.abs(Rdown - gauss_rhs))) / scale

    dx_val = np.array([[spk._dx[i][a].value for a in range(m)] for i in range(n)])
    dh = np.array(
        [[[spk._h_jets[i][j][a].gradient() for a in range(m)] for j in range(n)] for i in range(n)]
    )  # dh[j][k][a][i] = d_i h_jk^a
    Dh = (
        np.einsum("jkai->ijka", dh)
        - np.einsum("mij,mka->ijka", Gamma0, h0)
        - np.einsum("mik,jma->ijka", Gamma0, h0)
    )
    r_codazzi = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                diff = Dh[i, j, k] - Dh[j, i, k]
                perp = _normal_project(diff, spk.G_inv, dx_val, w)
                r_codazzi = max(r_codazzi, float(np.linalg.norm(perp)))
    return r_gauss, r_codazzi / scale


# -- finite-difference oracle route ---------------------------------------


@dataclass
class FdPacket:
    point: tuple
    G: np.ndarray
    G_inv: np.ndarray
    N: np.ndarray
    B: np.ndarray
    S: np.ndarray
    H: float
    gradH: np.ndarray
    gradH_ambient: np.ndarray
    dx: np.ndarray  # (n, m) difference quotients d_i x

    @property
    def is_cmc_point(self) -> bool:
        """The oracle's own CMC decision, by the rule of CurvaturePacket."""
        return _cmc(self.gradH_ambient, self.H)


def _fd_partials(chart: ImmersionChart, base: np.ndarray):
    """d_i x (B, n, m) and d_i d_j x (B, n, n, m) at every base point (B, n).

    One ``fd_partial`` call per component and derivative covers all base
    points at once.
    """
    n = chart.nparams
    m = chart.signature.dim
    bank = chart.profile_bank
    dx = np.empty((len(base), n, m))
    ddx = np.empty((len(base), n, n, m))
    for a, comp in enumerate(chart.components):
        for i in range(n):
            alpha = [0] * n
            alpha[i] = 1
            dx[:, i, a] = fd_partial(comp, base, alpha, profile_bank=bank)
        for i in range(n):
            for j in range(i, n):
                alpha = [0] * n
                alpha[i] += 1
                alpha[j] += 1
                val = fd_partial(comp, base, alpha, profile_bank=bank)
                ddx[:, i, j, a] = val
                ddx[:, j, i, a] = val
    return dx, ddx


def _fd_frame(chart: ImmersionChart, p, dx, ddx, ref):
    """G, N, B, S and H at one point from its difference quotients, the
    normal oriented along ``ref`` (see ``_orient_sign``)."""
    n = chart.nparams
    eps = chart.signature.weights
    G0 = np.einsum("ia,a,ja->ij", dx, eps, dx)
    w = metric_cross([dx[i] for i in range(n)], chart.signature).components
    nn = float(np.dot(eps * w, w))
    if nn <= TAU_NORMAL * float(np.dot(w, w)):
        raise DegenerateNormal(p)
    N0 = w / np.sqrt(nn) * _orient_sign(w, ref, False)
    B0 = np.einsum("ija,a,a->ij", ddx, eps, N0)
    S0 = np.linalg.solve(G0, B0)
    H0 = float(np.trace(S0)) / n
    return G0, N0, B0, S0, H0


def packet_fd(chart: ImmersionChart, p, h_grad: float = 5e-4) -> FdPacket:
    """Curvature bundle from central differences only (independent oracle).

    The chart's first and second partials are nested central differences of
    its values, at p and at p +- h_grad along each axis.  grad H is the
    centered difference of the scalar H field built from them.  Every value
    comes from ``eval_values`` (array arithmetic, the profiles' array
    ``values``), so no jet arithmetic enters anywhere; all nine base points
    share each stencil evaluation.
    """
    p = np.asarray(p, dtype=float)
    n = chart.nparams
    base = [p]
    for i in range(n):
        up = p.copy()
        up[i] += h_grad
        dn = p.copy()
        dn[i] -= h_grad
        base += [up, dn]
    base = np.array(base)
    dx, ddx = _fd_partials(chart, base)
    # the reference normal field when the chart has one; the H stencil
    # points otherwise follow the normal at p
    ref = None
    if chart.orientation_ref is not None:
        ref = np.stack([eval_values(e, base, chart.profile_bank)
                        for e in chart.orientation_ref], axis=1)
    G0, N0, B0, S0, H0 = _fd_frame(chart, p, dx[0], ddx[0], None if ref is None else ref[0])
    H = [_fd_frame(chart, base[k], dx[k], ddx[k], N0 if ref is None else ref[k])[4]
         for k in range(1, len(base))]
    dH = np.array([(H[2 * i] - H[2 * i + 1]) / (2.0 * h_grad) for i in range(n)])
    G_inv = np.linalg.inv(G0)
    gradH = G_inv @ dH
    return FdPacket(tuple(p), G0, G_inv, N0, B0, S0, H0, gradH, gradH @ dx[0], dx[0])


def biconservative_residual_fd(chart: ImmersionChart, p, pk: FdPacket | None = None) -> float:
    """biconservative_residual on the oracle route, pushed forward by ``pk.dx``."""
    if pk is None:
        pk = packet_fd(chart, p)
    if pk.is_cmc_point:
        return 0.0
    n = len(pk.G)
    v = pk.S @ pk.gradH + (n / 2.0) * pk.H * pk.gradH
    v_amb = v @ pk.dx
    return float(np.linalg.norm(v_amb) / max(1.0, np.linalg.norm(pk.gradH_ambient)))
