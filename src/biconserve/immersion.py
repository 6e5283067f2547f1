"""From a parametrized chart to curvature data and verification residuals.

The whole pipeline runs in jet arithmetic: chart components are expanded to
order-3 jets, so the induced metric, normal, shape operator and mean
curvature come out as jets themselves and the gradient of H is read off a
first-order jet instead of being re-differenced.  The independent oracle,
packet_fd, uses no jets: nested central differences of chart values
computed by array evaluation (expr.eval_values).

All residual norms are Euclidean in the ambient coordinates: an error vector
with vanishing indefinite self-product must not masquerade as zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ambient import AmbientVector, Signature, metric_cross
from .errors import (ContractViolation, DegenerateFrameError, DegenerateMetric,
                     DegenerateNormal, UnexpectedIndex)
from .expr import eval_value, eval_values, fd_partial, jet_eval
from .jets import Jet
from .jets.jet import sqrt as jet_sqrt

TAU_CMC = 1e-8
TAU_NORMAL = 1e-10


def tau_deg(gmax: float) -> float:
    return 1e-10 * (1.0 + gmax)


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
    point: tuple
    G: np.ndarray
    G_inv: np.ndarray
    N: AmbientVector
    B: np.ndarray
    S: np.ndarray
    H: float
    gradH: np.ndarray
    gradH_ambient: AmbientVector
    christoffel: np.ndarray
    # jets kept for the residual operations
    _dx: list = field(repr=False, default=None)
    _ddx: list = field(repr=False, default=None)
    _N_jets: list = field(repr=False, default=None)
    _B_jets: list = field(repr=False, default=None)
    _G_jets: list = field(repr=False, default=None)
    _Gamma_jets: list = field(repr=False, default=None)
    _H_jet: Jet = field(repr=False, default=None)
    _weights: np.ndarray = field(repr=False, default=None)

    @property
    def is_cmc_point(self) -> bool:
        scale = 1.0 + abs(self.H)
        return float(np.linalg.norm(self.gradH_ambient.components)) <= TAU_CMC * scale

    @property
    def gradH_lightlike(self) -> bool:
        """Nonzero grad H with vanishing self-product (the excluded case)."""
        if self.is_cmc_point:
            return False
        g = self.gradH_ambient.components
        q = float(np.dot(self._weights * g, g))
        return abs(q) <= 1e-9 * float(np.dot(g, g))


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
    """Solve A X = B by Gauss-Jordan over the jet ring, pivoting on values."""
    n = len(A)
    A = [row[:] for row in A]
    B = [row[:] for row in B]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col].value))
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            B[col], B[piv] = B[piv], B[col]
        inv = A[col][col].reciprocal()
        A[col] = [a * inv for a in A[col]]
        B[col] = [b * inv for b in B[col]]
        for r in range(n):
            if r == col:
                continue
            f = A[r][col]
            if abs(f.value) == 0.0 and not f.c.any():
                continue
            A[r] = [a - f * ac for a, ac in zip(A[r], A[col])]
            B[r] = [b - f * bc for b, bc in zip(B[r], B[col])]
    return B


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


def _metric_checks(chart: ImmersionChart, p, G0: np.ndarray):
    gmax = float(np.max(np.abs(G0)))
    det = float(np.linalg.det(G0))
    if abs(det) <= tau_deg(gmax) ** chart.nparams or abs(det) <= 1e-300:
        raise DegenerateMetric(p, det)
    eig = np.linalg.eigvalsh(G0)
    if np.min(np.abs(eig)) <= tau_deg(gmax):
        raise DegenerateMetric(p, det)
    index = int(np.sum(eig < 0))
    if index != chart.expected_index:
        raise UnexpectedIndex(index, chart.expected_index, p)
    return index


def _orient_sign(w_val, ref, prev_normal, flip):
    """Sign of the normal: along the chart's reference normal ``ref`` when it
    has one, else along ``prev_normal``, else a positive last component."""
    if ref is not None:
        sgn = 1.0 if float(np.dot(w_val, ref)) >= 0.0 else -1.0
    elif prev_normal is not None:
        sgn = 1.0 if float(np.dot(w_val, np.asarray(prev_normal))) >= 0.0 else -1.0
    else:
        scale = float(np.max(np.abs(w_val)))
        sgn = 1.0
        for comp in w_val[::-1]:
            if abs(comp) > 1e-9 * scale:
                sgn = 1.0 if comp > 0 else -1.0
                break
    return -sgn if flip else sgn


def packet(chart: ImmersionChart, p, prev_normal=None, flip_normal: bool = False) -> CurvaturePacket:
    """Full curvature bundle at an interior point of a hypersurface chart."""
    if chart.codim != 1:
        raise ContractViolation("packet requires a codimension-1 chart")
    p = np.asarray(p, dtype=float)
    n = chart.nparams
    m = chart.signature.dim
    eps = chart.signature.weights
    bank = chart.profile_bank

    xj = [jet_eval(c, p, 3, bank) for c in chart.components]
    dx = [[xj[a].deriv(i) for a in range(m)] for i in range(n)]

    G = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = eps[0] * (dx[i][0] * dx[j][0])
            for a in range(1, m):
                acc = acc + eps[a] * (dx[i][a] * dx[j][a])
            G[i][j] = acc
            G[j][i] = acc
    G0 = np.array([[G[i][j].value for j in range(n)] for i in range(n)])
    _metric_checks(chart, p, G0)

    ddx = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            d = [dx[i][a].deriv(j) for a in range(m)]
            ddx[i][j] = d
            ddx[j][i] = d

    dx1 = [[dx[i][a].truncate(1) for a in range(m)] for i in range(n)]
    w = _jet_cross(dx1, eps)
    w_val = np.array([wj.value for wj in w])
    w_euclid2 = float(np.dot(w_val, w_val))
    if w_euclid2 <= 1e-300:
        raise DegenerateFrameError(f"tangent frame rank deficient at {tuple(p)}")
    nn = eps[0] * (w[0] * w[0])
    for a in range(1, m):
        nn = nn + eps[a] * (w[a] * w[a])
    if nn.value <= TAU_NORMAL * w_euclid2:
        raise DegenerateNormal(p)
    ref = None
    if chart.orientation_ref is not None:
        ref = np.array([eval_value(e, p, bank) for e in chart.orientation_ref])
    sgn = _orient_sign(w_val, ref, prev_normal, flip_normal)
    inv_norm = jet_sqrt(nn).reciprocal() * sgn
    N_jets = [wj * inv_norm for wj in w]
    N_val = np.array([nj.value for nj in N_jets])

    B = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = eps[0] * (ddx[i][j][0] * N_jets[0])
            for a in range(1, m):
                acc = acc + eps[a] * (ddx[i][j][a] * N_jets[a])
            B[i][j] = acc
            B[j][i] = acc
    G1 = [[G[i][j].truncate(1) for j in range(n)] for i in range(n)]
    S = _jet_solve(G1, [[B[i][j] for j in range(n)] for i in range(n)])

    H_jet = S[0][0]
    for i in range(1, n):
        H_jet = H_jet + S[i][i]
    H_jet = H_jet * (1.0 / n)

    # Christoffel symbols Gamma^k_ij from first metric derivatives
    dG = [[[G[i][j].deriv(l) for l in range(n)] for j in range(n)] for i in range(n)]
    rhs_cols = []
    sym_pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for i, j in sym_pairs:
        rhs_cols.append([
            (dG[j][l][i] + dG[i][l][j] - dG[i][j][l]) * 0.5 for l in range(n)
        ])
    sol = _jet_solve(G1, [[rhs_cols[col][l] for col in range(len(sym_pairs))] for l in range(n)])
    Gamma_jets = [[[None] * n for _ in range(n)] for _ in range(n)]
    for col, (i, j) in enumerate(sym_pairs):
        for k in range(n):
            Gamma_jets[k][i][j] = sol[k][col]
            Gamma_jets[k][j][i] = sol[k][col]
    Gamma0 = np.array(
        [[[Gamma_jets[k][i][j].value for j in range(n)] for i in range(n)] for k in range(n)]
    )

    G_inv = np.linalg.inv(G0)
    dH = H_jet.gradient()
    gradH = G_inv @ dH
    dx_val = np.array([[dx[i][a].value for a in range(m)] for i in range(n)])
    gradH_amb = gradH @ dx_val

    S0 = np.array([[S[i][j].value for j in range(n)] for i in range(n)])
    B0 = np.array([[B[i][j].value for j in range(n)] for i in range(n)])
    return CurvaturePacket(
        point=tuple(p),
        G=G0,
        G_inv=G_inv,
        N=AmbientVector(N_val, chart.signature),
        B=B0,
        S=S0,
        H=H_jet.value,
        gradH=gradH,
        gradH_ambient=AmbientVector(gradH_amb, chart.signature),
        christoffel=Gamma0,
        _dx=dx,
        _ddx=ddx,
        _N_jets=N_jets,
        _B_jets=B,
        _G_jets=G,
        _Gamma_jets=Gamma_jets,
        _H_jet=H_jet,
        _weights=eps,
    )


def submanifold_packet(chart: ImmersionChart, p) -> SubmanifoldPacket:
    """First/second fundamental form bundle for charts of any codimension."""
    p = np.asarray(p, dtype=float)
    n = chart.nparams
    m = chart.signature.dim
    eps = chart.signature.weights
    bank = chart.profile_bank

    xj = [jet_eval(c, p, 3, bank) for c in chart.components]
    dx = [[xj[a].deriv(i) for a in range(m)] for i in range(n)]
    G = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = eps[0] * (dx[i][0] * dx[j][0])
            for a in range(1, m):
                acc = acc + eps[a] * (dx[i][a] * dx[j][a])
            G[i][j] = acc
            G[j][i] = acc
    G0 = np.array([[G[i][j].value for j in range(n)] for i in range(n)])
    _metric_checks(chart, p, G0)

    ddx = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            d = [dx[i][a].deriv(j) for a in range(m)]
            ddx[i][j] = d
            ddx[j][i] = d

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


def _pushforward(pk: CurvaturePacket, comps: np.ndarray) -> np.ndarray:
    n = len(pk.G)
    m = len(pk._weights)
    dx_val = np.array([[pk._dx[i][a].value for a in range(m)] for i in range(n)])
    return comps @ dx_val


def biconservative_residual(chart: ImmersionChart, p, pk: CurvaturePacket | None = None) -> float:
    """Scale-free tangency defect of the shape operator on grad H.

    Zero exactly when grad H vanishes (constant mean curvature, where the
    condition is vacuous).
    """
    if pk is None:
        pk = packet(chart, p)
    if pk.is_cmc_point:
        return 0.0
    g_amb = pk.gradH_ambient.components
    # eigenvalue factor -(n/2) H; the displayed -2 H for four parameters
    n = len(pk.G)
    v = pk.S @ pk.gradH + (n / 2.0) * pk.H * pk.gradH
    v_amb = _pushforward(pk, v)
    return float(np.linalg.norm(v_amb) / max(1.0, np.linalg.norm(g_amb)))


def principal_direction_check(chart: ImmersionChart, p, pk: CurvaturePacket | None = None):
    """Residuals of the eigen-direction identities satisfied by grad H.

    Checks both displayed consequences of the tangency condition: grad H is
    an eigenvector with eigenvalue -(n/2) H, and the remaining eigenvalues
    sum to (3n/2) H.  Returns None at constant-mean-curvature points.
    """
    if pk is None:
        pk = packet(chart, p)
    if pk.is_cmc_point:
        return None
    n = len(pk.G)
    g_amb = pk.gradH_ambient.components
    ng = float(np.linalg.norm(g_amb))
    sg = _pushforward(pk, pk.S @ pk.gradH)
    res_eigen = float(np.linalg.norm(sg + (n / 2.0) * pk.H * g_amb) / ng)
    k1_measured = float(np.dot(sg, g_amb) / (ng * ng))
    trS = float(np.trace(pk.S))
    res_sum = abs((trS - k1_measured) - (3.0 * n / 2.0) * pk.H)
    return max(res_eigen, res_sum)


def beltrami_residual(chart: ImmersionChart, p, pk=None) -> float:
    """Defect of the trace identity: rough Laplacian of x vs n H N.

    The operator here is the analyst's Laplace-Beltrami, for which the
    position vector satisfies lap x = n H N on a hypersurface (the sign
    convention is fixed once here and tested once).
    """
    if chart.codim == 1:
        if pk is None:
            pk = packet(chart, p)
        n = len(pk.G)
        m = len(pk._weights)
        ddx_val = np.array(
            [[[pk._ddx[i][j][a].value for a in range(m)] for j in range(n)] for i in range(n)]
        )
        dx_val = np.array([[pk._dx[i][a].value for a in range(m)] for i in range(n)])
        lap = np.einsum("ij,ija->a", pk.G_inv, ddx_val) - np.einsum(
            "ij,kij,ka->a", pk.G_inv, pk.christoffel, dx_val
        )
        return float(np.linalg.norm(lap - n * pk.H * pk.N.components))
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
        n = len(pk.G)
        m = len(pk._weights)
        dGamma = np.array(
            [[[pk._Gamma_jets[k][i][j].gradient() for j in range(n)] for i in range(n)] for k in range(n)]
        )  # dGamma[k][i][j][l] = d_l Gamma^k_ij
        Gamma0 = pk.christoffel
        # R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_ip Gamma^p_jk - Gamma^l_jp Gamma^p_ik
        Rup = (
            np.einsum("ljki->lijk", dGamma)
            - np.einsum("likj->lijk", dGamma)
            + np.einsum("lip,pjk->lijk", Gamma0, Gamma0)
            - np.einsum("ljp,pik->lijk", Gamma0, Gamma0)
        )
        Rdown = np.einsum("lm,mijk->ijkl", pk.G, Rup)
        B0 = pk.B
        gauss_rhs = np.einsum("jk,il->ijkl", B0, B0) - np.einsum("ik,jl->ijkl", B0, B0)
        scale = (1.0 + float(np.max(np.abs(B0)))) ** 2
        r_gauss = float(np.max(np.abs(Rdown - gauss_rhs))) / scale

        dB = np.array([[pk._B_jets[i][j].gradient() for j in range(n)] for i in range(n)])
        # nabla_i B_jk = d_i B_jk - Gamma^m_ij B_mk - Gamma^m_ik B_jm
        covB = (
            np.einsum("jki->ijk", dB)
            - np.einsum("mij,mk->ijk", Gamma0, B0)
            - np.einsum("mik,jm->ijk", Gamma0, B0)
        )
        r_codazzi = float(np.max(np.abs(covB - np.einsum("ijk->jik", covB)))) / scale
        return r_gauss, r_codazzi

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


def _fd_frame(chart: ImmersionChart, p, dx, ddx, ref, align_normal=None):
    """G, N, B, S and H at one point from its difference quotients."""
    n = chart.nparams
    eps = chart.signature.weights
    G0 = np.einsum("ia,a,ja->ij", dx, eps, dx)
    w = metric_cross([dx[i] for i in range(n)], chart.signature).components
    nn = float(np.dot(eps * w, w))
    if nn <= TAU_NORMAL * float(np.dot(w, w)):
        raise DegenerateNormal(p)
    N0 = w / np.sqrt(nn) * _orient_sign(w, ref, align_normal, False)
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
    refs = [None] * len(base)
    if chart.orientation_ref is not None:
        refs = np.stack([eval_values(e, base, chart.profile_bank)
                         for e in chart.orientation_ref], axis=1)
    G0, N0, B0, S0, H0 = _fd_frame(chart, p, dx[0], ddx[0], refs[0])
    H = [_fd_frame(chart, base[k], dx[k], ddx[k], refs[k], align_normal=N0)[4]
         for k in range(1, len(base))]
    dH = np.array([(H[2 * i] - H[2 * i + 1]) / (2.0 * h_grad) for i in range(n)])
    G_inv = np.linalg.inv(G0)
    gradH = G_inv @ dH
    return FdPacket(tuple(p), G0, G_inv, N0, B0, S0, H0, gradH, gradH @ dx[0], dx[0])


def biconservative_residual_fd(chart: ImmersionChart, p, pk: FdPacket | None = None) -> float:
    """biconservative_residual on the oracle route, pushed forward by ``pk.dx``."""
    if pk is None:
        pk = packet_fd(chart, p)
    scale = 1.0 + abs(pk.H)
    if float(np.linalg.norm(pk.gradH_ambient)) <= TAU_CMC * scale:
        return 0.0
    n = len(pk.G)
    v = pk.S @ pk.gradH + (n / 2.0) * pk.H * pk.gradH
    v_amb = v @ pk.dx
    return float(np.linalg.norm(v_amb) / max(1.0, np.linalg.norm(pk.gradH_ambient)))
