"""Eigen-structure of the shape operator relative to an indefinite metric.

A metric-self-adjoint operator on an index-2 space need not be
diagonalizable: besides the real-diagonalizable case there are one-step and
two-step nilpotent defects and complex conjugate pairs.  The classifier maps
a 4x4 operator to one of the four canonical labels (I, II, III, IV) from its
root clusters and geometric multiplicities, and refuses to guess inside the
ambiguity band between the clustering tolerance and ten times it.

Root multiplicities are decided by hypothesis testing rather than by raw
clustering: an m-fold root of the characteristic quartic is a simple root of
its (m-1)-th derivative, so candidate groups are polished there and accepted
only if all lower derivatives of the quartic vanish to the coefficient noise
floor.  Raw clustering alone cannot tell a defective double root (numerical
split ~ sqrt(eps)) from a genuine tight pair; the derivative test can.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

CLUSTER_TOL = 1e-6
_EPS = np.finfo(float).eps
_ETA = 3e3 * _EPS  # verified-multiplicity noise floor multiplier


@dataclass
class ShapeSpectrum:
    real_eigenvalues: list  # (value, algebraic, geometric)
    complex_pairs: list     # (re, im) with im > 0
    case_label: str         # "I", "II", "III", "IV", "unresolved"
    clustering_tol: float
    pattern: str = ""

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([v for v, _, _ in self.real_eigenvalues])


def characteristic_quartic(S: np.ndarray) -> np.ndarray:
    """Monic coefficients of det(lambda I - S) from trace power sums."""
    S = np.asarray(S, dtype=float)
    p1 = np.trace(S)
    S2 = S @ S
    p2 = np.trace(S2)
    S3 = S2 @ S
    p3 = np.trace(S3)
    p4 = np.trace(S3 @ S)
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (p3 - e1 * p2 + e2 * p1) / 3.0
    e4 = (e1 * p3 - e2 * p2 + e3 * p1 - p4) / 4.0
    return np.array([1.0, -e1, e2, -e3, e4])


def _quartic_roots(coeffs: np.ndarray) -> np.ndarray:
    """Companion-matrix eigenvalues polished by two Newton steps.

    A step is kept only where it lowers |p|: near a multiple root p' is
    rounding noise, and an unguarded step can throw the root far off.
    """
    c = np.asarray(coeffs, dtype=float)
    comp = np.zeros((4, 4))
    comp[1:, :3] = np.eye(3)
    comp[:, 3] = -c[1:][::-1]
    roots = np.linalg.eigvals(comp.T)
    dcoef = np.polyder(c)
    pv = np.polyval(c, roots)
    for _ in range(2):
        dv = np.polyval(dcoef, roots)
        safe = np.abs(dv) > 1e-300
        step = np.where(safe, roots - pv / np.where(safe, dv, 1.0), roots)
        pstep = np.polyval(c, step)
        better = np.abs(pstep) < np.abs(pv)
        roots = np.where(better, step, roots)
        pv = np.where(better, pstep, pv)
    return roots


def _poly_floor(coeffs: np.ndarray, z: complex) -> float:
    az = max(1.0, abs(z))
    deg = len(coeffs) - 1
    return float(sum(abs(c) * az ** (deg - i) for i, c in enumerate(coeffs)))


def _groups_within(roots, radius):
    """Single-linkage grouping of the four roots in the complex plane."""
    n = len(roots)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(roots[i])
    return list(groups.values())


def _settle(coeffs, group, thresh):
    """Resolve one candidate group into verified (center, multiplicity) items."""
    m = len(group)
    if m == 1:
        return [(group[0], 1)]
    center = sum(group) / m
    dp = np.polyder(coeffs, m - 1)
    ddp = np.polyder(dp)
    refined = center
    ok = True
    for _ in range(60):
        dv = np.polyval(ddp, refined)
        if abs(dv) < 1e-300:
            ok = False
            break
        step = np.polyval(dp, refined) / dv
        refined = refined - step
        if abs(step) < 1e-15 * (1.0 + abs(refined)):
            break
    spread = max(abs(g - center) for g in group)
    if ok and abs(refined - center) <= 2.0 * spread + 10.0 * thresh:
        derivs = [np.polyder(coeffs, j) if j else coeffs for j in range(m + 1)]
        small = [
            abs(np.polyval(d, refined)) <= _ETA * _poly_floor(d, refined)
            for d in derivs
        ]
        # all lower derivatives at the noise floor, the m-th sharply not:
        # exactly an m-fold root, neither more nor less
        if all(small[:m]) and abs(np.polyval(derivs[m], refined)) > 100.0 * _ETA * _poly_floor(derivs[m], refined):
            return [(refined, m)]
    # hypothesis rejected: split the group at its largest internal gap
    ordered = sorted(group, key=lambda z: (z.real, z.imag))
    gaps = [abs(b - a) for a, b in zip(ordered[:-1], ordered[1:])]
    cut = int(np.argmax(gaps)) + 1
    return _settle(coeffs, ordered[:cut], thresh) + _settle(coeffs, ordered[cut:], thresh)


def eigen_structure(S: np.ndarray, G: np.ndarray, tol: float = CLUSTER_TOL) -> ShapeSpectrum:
    """Root structure, multiplicities and case label of a G-self-adjoint S."""
    S = np.asarray(S, dtype=float)
    G = np.asarray(G, dtype=float)
    if S.shape != (4, 4) or G.shape != (4, 4):
        raise ContractViolation("eigen_structure expects 4x4 arrays")
    gs = G @ S
    scale_s = 1.0 + float(np.max(np.abs(gs)))
    if float(np.max(np.abs(gs - gs.T))) > 1e-8 * scale_s:
        raise ContractViolation("operator is not metric-self-adjoint")

    coeffs = characteristic_quartic(S)
    roots = _quartic_roots(coeffs)
    scale = 1.0 + float(np.max(np.abs(roots)))
    thresh = tol * scale
    unresolved = ShapeSpectrum([], [], "unresolved", tol)

    # wide enough to catch a defective triple splitting by (backward err)^(1/3);
    # genuine structure swept in by the radius is rejected by the derivative
    # test in _settle and falls back to individual roots
    snap_radius = max(100.0 * tol, 2e-3) * scale
    items = []
    for group in _groups_within(list(roots), snap_radius):
        items.extend(_settle(coeffs, group, thresh))

    real_items, complex_items = [], []
    for z, mult in items:
        z = complex(z)
        if abs(z.imag) <= thresh:
            real_items.append((float(z.real), int(mult)))
        elif abs(z.imag) < 10.0 * thresh:
            return unresolved  # ambiguous rotation band
        else:
            complex_items.append((z, int(mult)))

    # conjugate pairing of the complex items
    pairs = []
    ups = sorted((z for z, m_ in complex_items for _ in range(m_) if z.imag > 0),
                 key=lambda z: (z.real, z.imag))
    downs = sorted((z.conjugate() for z, m_ in complex_items for _ in range(m_) if z.imag < 0),
                   key=lambda z: (z.real, z.imag))
    if len(ups) != len(downs):
        return unresolved
    for a, b in zip(ups, downs):
        if abs(a - b) > 10.0 * thresh:
            return unresolved
        pairs.append((float(a.real + b.real) / 2.0, float(a.imag + b.imag) / 2.0))

    # distinct real clusters must be separated by the full guard band
    real_items.sort()
    for (va, _), (vb, _) in zip(real_items[:-1], real_items[1:]):
        if vb - va < 10.0 * thresh:
            return unresolved

    # True kernel directions sit at machine-eps singular values while a
    # neighboring eigenvalue at distance d leaks sigma >= d^2 or so; a
    # sqrt(eps) floor separates the two regimes far better than tol itself.
    reals = []
    rank_cut = max(np.sqrt(_EPS), 1e-2 * tol) * (1.0 + float(np.max(np.abs(S))))
    for lam, alg in real_items:
        sv = np.linalg.svd(S - lam * np.eye(4), compute_uv=False)
        geo = 4 - int(np.sum(sv > rank_cut))
        if geo < 1 or geo > alg:
            return ShapeSpectrum([(lam, alg, geo)], pairs, "unresolved", tol)
        reals.append((lam, alg, geo))

    spec = ShapeSpectrum(reals, pairs, "", tol)
    label, pattern = classify_case(spec)
    spec.case_label = label
    spec.pattern = pattern
    return spec


def classify_case(spec: ShapeSpectrum):
    """Map a spectrum to its canonical-form label and multiplicity pattern."""
    if spec.case_label == "unresolved":
        return "unresolved", ""
    items = sorted(spec.real_eigenvalues)
    parts = [str(alg) for _, alg, _ in items] + ["2c" for _ in spec.complex_pairs]
    pattern = "+".join(parts)
    npairs = len(spec.complex_pairs)
    total = sum(alg for _, alg, _ in items) + 2 * npairs
    if total != 4:
        return "unresolved", pattern
    defects = [(alg - geo) for _, alg, geo in items]
    if npairs == 1 and all(d == 0 for d in defects):
        return "III", pattern
    if npairs > 1 or any(d < 0 for d in defects):
        return "unresolved", pattern
    if all(d == 0 for d in defects):
        return "I", pattern
    bad = [(alg, geo) for (_, alg, geo), d in zip(items, defects) if d > 0]
    if len(bad) == 1 and bad[0][0] - bad[0][1] == 1:
        return "II", pattern
    if len(bad) == 1 and bad[0] == (3, 1):
        return "IV", pattern
    return "unresolved", pattern


# -- canonical planted forms (for self-tests and the synthetic CLI path) ---


def canonical_pair(case: str, params: dict | None = None):
    """A canonical (S, G) model pair realizing the requested case label."""
    p = {"H": 0.7, "k2": 1.3, "k3": -0.4, "k4": 2.1, "nu": 0.9, "eps1": 1.0}
    if params:
        p.update(params)
    H, k2, k3, k4, nu = p["H"], p["k2"], p["k3"], p["k4"], p["nu"]
    e1 = p["eps1"]
    if case == "I":
        S = np.diag([-2.0 * H, k2, k3, k4])
        G = np.diag([-1.0, -1.0, 1.0, 1.0])
        return S, G
    if case == "II":
        S = np.array([
            [-2.0 * H, 0, 0, 0],
            [0, k2, 1.0, 0],
            [0, 0, k2, 0],
            [0, 0, 0, k4],
        ])
        G = np.array([
            [e1, 0, 0, 0],
            [0, 0, -1.0, 0],
            [0, -1.0, 0, 0],
            [0, 0, 0, -e1],
        ])
        return S, G
    if case == "III":
        S = np.array([
            [-2.0 * H, 0, 0, 0],
            [0, k2, -nu, 0],
            [0, nu, k2, 0],
            [0, 0, 0, k4],
        ])
        G = np.diag([1.0, -1.0, 1.0, -1.0])
        return S, G
    if case == "IV":
        S = np.array([
            [-2.0 * H, 0, 0, 0],
            [0, 2.0 * H, 0, 0],
            [0, 0, 2.0 * H, -1.0],
            [0, 1.0, 0, 2.0 * H],
        ])
        G = np.array([
            [-1.0, 0, 0, 0],
            [0, 0, -1.0, 0],
            [0, -1.0, 0, 0],
            [0, 0, 0, 1.0],
        ])
        return S, G
    raise ContractViolation(f"unknown case {case!r}")


def conjugated_pair(case: str, rng: np.random.Generator, params: dict | None = None):
    """Random well-conditioned change of frame applied to a canonical pair."""
    S0, G0 = canonical_pair(case, params)
    q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    d = np.diag(rng.uniform(0.8, 1.25, size=4))
    P = q1 @ d @ q2
    S = np.linalg.solve(P, S0 @ P)
    G = P.T @ G0 @ P
    return S, G, S0, G0
