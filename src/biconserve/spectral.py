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

Blocks.  ``eigen_structure`` takes one operator, S and G of shape (4, 4),
and returns a ShapeSpectrum; or a block, (P, 4, 4), and returns a
SpectrumBlock: the block's spectra as columns over its points, whose
``block[k]`` is point k's ShapeSpectrum, equal field by field to the
one-point result, and whose ``case_label`` and ``pattern`` are tuples of
the per-point values.  One operator is the P = 1 block.  A block is
classified in one array pass: the self-adjointness check, the quartic
coefficients, their roots in closed form (the resolvent cubic's roots,
``_closed_form_roots``) and the roots' Newton polish, the imaginary-part
and pairing bands, the separation of real clusters, the rank test and the
case labels and patterns (``_case_labels``) are array operations over the
points.  A point whose polished roots are not finite or lie within its
snap radius of each other, every multiple root among them, takes the
companion matrix's eigenvalues (LAPACK) and their polish instead
(``_quartic_roots``); only such a point with two roots within the snap
radius goes through the multiplicity test, which settles every candidate
root group of the block a round at a time (``_settle_groups``).  One
operator that is not metric-self-adjoint, or whose characteristic quartic
overflows (a finite operator of entries near 1e80), fails its whole block
with ContractViolation; a caller that wants the other points classified
calls again point by point.

Rank test.  The geometric multiplicity of a real root item lambda is the
number of singular values of A = S - lambda I at or below ``rank_cut``.  It
is 1, A of rank exactly 3, wherever the closed-form adjugate certifies it
(``_nullity``): A adj(A) = det(A) I gives sigma_4 <= |det A| / max_j
|adj(A) e_j|, and |adj A|_2 = sigma_1 sigma_2 sigma_3 gives sigma_3 >=
|adj A|_F / |A|_F^2; an item is certified where, with a rounding
allowance, the first bound is at most rank_cut / 2 and the second at least
2 rank_cut.  Every other item (a diagonalizable multiple root, whose
adjugate is 0, an item near the cut, a non-finite bound) takes the SVD rule
(``_svd_nullity``), so the decision is the SVD's everywhere.  A block's
items are tested ``NULLITY_ITEMS`` at a time, which bounds the test's
temporaries and changes no item's nullity.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations, permutations
from math import perm

import numpy as np

from .errors import ContractViolation
from .thresholds import (BAND_FACTOR, CLUSTER_TOL, ETA, RANK_FACTOR, RANK_FLOOR,
                         ROUND, SELF_ADJOINT_TOL, SETTLE_SHIFT, SHARP_FACTOR, SNAP_FACTOR,
                         SNAP_FLOOR, TAU_UNDERFLOW)

_PAIRS = np.triu_indices(4, 1)  # the six (i, j), i < j, of four roots
_LABELS = np.array(["unresolved", "I", "II", "III", "IV"], dtype=object)
_TURNS = 2.0 * np.pi * np.arange(3)  # the trigonometric form's three branches
# c @ _DERIVS (P, 25) holds p^(j) of the quartics c (P, 5) in columns 5 j to 5 j + 4, padded
# with j leading zeros: column 5 j + i is c[i - j] times np.polyder's product (4 - i + j)!/(4 - i)!
_DERIVS = np.array([[perm(4 - b, j) * (i - j == b) for j in range(5) for i in range(5)]
                    for b in range(5)], dtype=float)


def _adjugate_tables() -> tuple:
    """Tables of the 4x4 adjugate over a row-major 4x4 matrix a (16,).  The
    products p = a[left] * a[right] (24,) give the twelve 2x2 minors of row
    pairs h = 0, 1 (rows (0, 1) and (2, 3)): minor q = p[q] - p[12 + q] on
    column pair q - 6 h of the six c < d.  p @ dual (32,) is, for each h,
    the Hodge dual of the other pair's minors as a 4x4 matrix: entry (j, k)
    is the minor on the other two columns (l, m), l < m, times the sign of
    the permutation (j, k, l, m), and 0 for j = k."""
    cols = [(c, d) for c in range(4) for d in range(c + 1, 4)]
    minors = [(4 * r + c, 4 * r + 4 + d, 4 * r + d, 4 * r + 4 + c)
              for r in (0, 2) for c, d in cols]  # a[t0] a[t1] - a[t2] a[t3]
    left = [t[0] for t in minors] + [t[2] for t in minors]
    right = [t[1] for t in minors] + [t[3] for t in minors]
    dual = np.zeros((24, 32))
    for h in range(2):
        for j, k in permutations(range(4), 2):
            l, m = (c for c in range(4) if c not in (j, k))
            sign = (-1.0) ** sum(a > b for a, b in combinations((j, k, l, m), 2))
            q = 6 * (1 - h) + cols.index((l, m))
            dual[q, 16 * h + 4 * j + k], dual[12 + q, 16 * h + 4 * j + k] = sign, -sign
    return np.array(left), np.array(right), dual


_LEFT, _RIGHT, _DUAL = _adjugate_tables()


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


@dataclass
class SpectrumBlock(Sequence):
    """The spectra of a block of points as columns: ``values`` (P, 4), each
    point's real root items ascending, padded with inf; ``algs`` and
    ``geos``, their multiplicities where the point reports the item (else
    algs 0); the first ``npairs`` (P,) of ``pair_re`` and ``pair_im`` (P, 4);
    ``labels`` and ``patterns`` (P,).  ``block[k]`` makes a ShapeSpectrum."""

    values: np.ndarray
    algs: np.ndarray
    geos: np.ndarray
    pair_re: np.ndarray
    pair_im: np.ndarray
    npairs: np.ndarray
    tol: float
    labels: np.ndarray
    patterns: np.ndarray

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, k) -> ShapeSpectrum:
        reals = [item for item in zip(self.values[k].tolist(), self.algs[k].tolist(),
                                      self.geos[k].tolist()) if item[1]]
        n = self.npairs[k]
        pairs = list(zip(self.pair_re[k, :n].tolist(), self.pair_im[k, :n].tolist()))
        return ShapeSpectrum(reals, pairs, str(self.labels[k]), self.tol, str(self.patterns[k]))

    @property
    def case_label(self) -> tuple:
        return tuple(self.labels.tolist())

    @property
    def pattern(self) -> tuple:
        return tuple(self.patterns.tolist())

    def curvatures(self) -> tuple:
        """Each point's reported real roots with multiplicity, ascending
        (P, 4), and whether they count four."""
        cum = np.cumsum(self.algs, axis=1)
        item = np.sum(cum[:, None, :] <= np.arange(4)[:, None], axis=2)
        return np.take_along_axis(self.values, np.minimum(item, 3), axis=1), cum[:, -1] == 4


def characteristic_quartic(S: np.ndarray) -> np.ndarray:
    """Monic coefficients of det(lambda I - S) from trace power sums: (5,)
    for one operator (4, 4), (P, 5) for a block (P, 4, 4)."""
    S = np.asarray(S, dtype=float)

    def trace(M):
        return M.trace(axis1=-2, axis2=-1)

    p1 = trace(S)
    S2 = S @ S
    p2 = trace(S2)
    S3 = S2 @ S
    p3 = trace(S3)
    p4 = trace(S3 @ S)
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (p3 - e1 * p2 + e2 * p1) / 3.0
    e4 = (e1 * p3 - e2 * p2 + e3 * p1 - p4) / 4.0
    return np.stack([np.ones(e1.shape), -e1, e2, -e3, e4], axis=-1)


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.polyval`` with one coefficient row per point: c (P, m), x (P, k),
    or rows c (P, r, m) at x (P, 1, 1); its first step, 0 * x + c_0, is c_0
    for the finite x it gets."""
    y = c[..., :1] * x + c[..., 1, None]
    for j in range(2, c.shape[-1]):
        y = y * x + c[..., j, None]
    return y


def _polish(c: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Two Newton steps on the roots (P, 4) of the quartics c (P, 5).

    A step is kept only where it lowers |p|: near a multiple root p' is
    rounding noise, and an unguarded step can throw the root far off.
    """
    dc = c[:, :-1] * np.arange(4, 0, -1)
    pv = _horner(c, roots)
    for _ in range(2):
        dv = _horner(dc, roots)
        safe = np.abs(dv) > TAU_UNDERFLOW
        step = np.where(safe, roots - pv / np.where(safe, dv, 1.0), roots)
        pstep = _horner(c, step)
        better = np.abs(pstep) < np.abs(pv)
        roots = np.where(better, step, roots)
        pv = np.where(better, pstep, pv)
    return roots


def _polished(coeffs: np.ndarray, roots: np.ndarray, real: np.ndarray) -> np.ndarray:
    """``_polish`` of the roots (P, 4, complex) of the quartics (P, 5): a
    point whose roots are real (``real``, P) in real arithmetic, one with a
    complex pair in complex arithmetic, whatever the other points hold."""
    out = roots.copy()
    for rows, start in ((real, roots.real), (~real, roots)):
        if rows.any():
            out[rows] = _polish(coeffs[rows], start[rows])
    return out


def _companion_roots(coeffs: np.ndarray) -> tuple:
    """Companion-matrix eigenvalues of the quartics (P, 5), polished: the
    roots (P, 4, complex) and whether each point's eigenvalues are real (P,)."""
    comp = np.zeros((len(coeffs), 4, 4))
    comp[:, 1:, :3] = np.eye(3)
    comp[:, :, 3] = -coeffs[:, 1:][:, ::-1]
    eig = np.linalg.eigvals(comp.swapaxes(1, 2))
    real = (eig.imag == 0).all(axis=1)
    return _polished(coeffs, eig.astype(complex), real), real


def _closed_form_roots(coeffs: np.ndarray) -> tuple:
    """The roots (P, 4, complex) of the quartics (P, 5) in closed form,
    unpolished, and whether each point's are real (P,).

    x = y - a/4 depresses x^4 + a x^3 + b x^2 + c x + d to
    y^4 + p y^2 + q y + r.  Its resolvent cubic z^3 + 2p z^2 + (p^2 - 4r) z
    - q^2 has the roots (y_i + y_j)^2, one per split of the four roots into
    two pairs, and z_0 z_1 z_2 = q^2.  With s_k = sqrt(z_k), s_0 s_1 s_2 is
    -q or q, and the roots are s_0 + (s_1 + s_2), s_0 - (s_1 + s_2),
    (s_1 - s_2) - s_0 and -s_0 - (s_1 - s_2), halved, or their negatives
    where it is q.  The cubic's discriminant is a positive multiple of
    4 D0^3 - D1^2 (D0 = p^2 + 12 r, D1 = 2 p^3 - 72 p r + 27 q^2), the
    quartic's.  Where it is positive the three z are real and distinct
    (trigonometric form, z_0 > z_1 > z_2): all four roots are real where
    z_1 > 0, with z_2 clamped at 0, and form two conjugate pairs where
    z_1 < 0.  Elsewhere one z is real (Cardano's form) and two are
    conjugate, z_c and conj(z_c): two roots are real and two conjugate.
    Each s is real or imaginary, or the pair sqrt(z_c), conj(sqrt(z_c)), so
    that a real root has imaginary part 0 and a pair is conjugate exactly.
    Overflow, or 0 / 0 at a multiple root, leaves roots that are not finite.
    """
    a, b, c, d = coeffs[:, 1:].T
    a2 = a * a
    p = b - 0.375 * a2
    q = c - 0.5 * a * b + 0.125 * a2 * a
    r = d - 0.25 * a * c + a2 * b / 16.0 - 3.0 * a2 * a2 / 256.0
    d0 = p * p + 12.0 * r
    d1 = (2.0 * p * p - 72.0 * r) * p + 27.0 * q * q
    disc = d1 * d1 - 4.0 * d0 * d0 * d0
    three = disc < 0.0
    # both forms are formed at every point, and each point keeps its own
    root0 = np.sqrt(d0)
    phi = np.arccos(np.clip(d1 / (2.0 * d0 * root0), -1.0, 1.0))
    z3 = (2.0 * root0[:, None] * np.cos((phi[:, None] - _TURNS) / 3.0) - 2.0 * p[:, None]) / 3.0
    real = three & (z3[:, 1] > 0.0)
    z3[:, 0] = np.maximum(z3[:, 0], 0.0)  # as z_0 z_1 z_2 = q^2 >= 0
    z3[:, 2] = np.where(real, np.maximum(z3[:, 2], 0.0), z3[:, 2])
    cube = np.cbrt((d1 + np.copysign(np.sqrt(disc), d1)) / 2.0)
    zr = (cube + d0 / cube - 2.0 * p) / 3.0
    zr = np.maximum(zr, 0.0)  # as z_r |z_c|^2 = q^2 >= 0
    re_c = -p - zr / 2.0  # as z_r + 2 Re z_c = -2p
    im2 = p * p - 4.0 * r + zr * (2.0 * p + zr) - re_c * re_c  # |z_c|^2 - (Re z_c)^2
    sc = np.sqrt(re_c + 1j * np.sqrt(np.maximum(im2, 0.0)))
    s0, s1, s2 = np.where(three[:, None], np.sqrt(z3.astype(complex)),
                          np.stack([np.sqrt(zr) + 0j, sc, sc.conj()], axis=1)).T
    u, v = s1 + s2, s1 - s2
    y = np.stack([s0 + u, s0 - u, v - s0, -s0 - v], axis=1)
    y = np.where(((s0 * s1 * s2).real * q > 0.0)[:, None], -y, y)
    return y / 2.0 - (a / 4.0)[:, None], real


def _near(roots: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Whether two of each point's roots (P, 4) lie within its radius (P,).
    ``np.hypot`` is the scalar ``abs`` of a complex number, so the test
    agrees with the grouping in ``_settle_groups``."""
    d = roots[:, _PAIRS[0]] - roots[:, _PAIRS[1]]
    return (np.hypot(d.real, d.imag) <= radius[:, None]).any(axis=1)


def _quartic_roots(coeffs: np.ndarray, snap: float) -> tuple:
    """The polished roots of the quartics (P, 5), (P, 4, complex), and
    whether each point's roots are real (P,).

    The closed form (``_closed_form_roots``) gives them, except at a point
    whose polished roots are not finite or lie within its snap radius, snap
    (1 + max|root|), of each other: there the companion matrix's
    eigenvalues (``_companion_roots``) do.  Next to a multiple root a root
    is only as accurate as the quartic's coefficients allow, and the two
    routes differ in those digits; the multiplicity test (``_settle_groups``) and
    the structure snapshot read the companion route's.  The route is the
    point's own, whatever its block holds.
    """
    with np.errstate(all="ignore"):  # a root lost to overflow or 0 / 0 is redone below
        roots, real = _closed_form_roots(coeffs)
        roots = _polished(coeffs, roots, real)
    redo = ~np.isfinite(roots).all(axis=1)
    redo |= _near(roots, snap * (1.0 + np.abs(roots).max(axis=1)))
    if redo.any():
        roots[redo], real[redo] = _companion_roots(coeffs[redo])
    return roots, real


def _settle_groups(coeffs, roots, real, radius, thresh) -> tuple:
    """Verified root items in slot form, (P, 4) each, of points (P,) whose
    roots (P, 4) hold a candidate cluster: every root slot holds the center
    of its item, and the item's first slot its multiplicity (the others 0).

    The roots are grouped by single linkage within each point's radius, and
    a round settles every group of the block at once.  A group of m >= 2
    roots is polished from its center, the members' mean, as a simple root z
    of p^(m-1) (``_polished`` twice, four guarded steps: after two, a double
    root 2.8e-4 from another was still 4e-8 off, and failed the rank test).  It
    is one m-fold root where z moved at most 2 spread + SETTLE_SHIFT thresh,
    p ... p^(m-1) vanish at z to the noise floor, ETA sum_i |c_i| max(1,
    |z|)^(deg - i) of their coefficients c, and p^(m) sharply does not:
    neither more nor less than m-fold.  A rejected group splits at its
    largest gap into the next round: a quartic takes three rounds at most.
    """
    centers, mults = roots.copy(), np.zeros(roots.shape, int)
    d = roots[:, :, None] - roots[:, None]
    linked = np.hypot(d.real, d.imag) <= radius[:, None, None]
    linked = linked @ linked @ linked  # a chain of four roots has three links
    k, first = (~np.tril(linked, -1).any(axis=2)).nonzero()  # each group's first root
    members = linked[k, first]
    while len(k):
        m, r, at = members.sum(axis=1), roots[k], np.arange(len(k))
        center = np.where(members, r, 0.0).sum(axis=1) / m
        spread = np.where(members, np.abs(r - center[:, None]), 0.0).max(axis=1)
        rows = (coeffs[k] @ _DERIVS).reshape(-1, 5, 5)  # each group's p ... p^(4)
        c = rows[at, m - 1]  # p^(m-1), of which an m-fold root is a simple root
        z = np.where(m > 1, _polished(c, _polished(c, center[:, None], real[k]), real[k])[:, 0],
                     center)
        value = np.zeros((len(k), 5, 1), complex)
        for rows_at, z_at in ((real[k], z.real), (~real[k], z)):
            value[rows_at] = _horner(rows[rows_at], z_at[rows_at, None, None])
        value = np.abs(value[..., 0])
        floor = _horner(np.abs(rows), np.maximum(1.0, np.abs(z))[:, None, None])[..., 0]
        ok = (m == 1) | ((np.abs(z - center) <= 2.0 * spread + SETTLE_SHIFT * thresh[k])
                         & ((value <= ETA * floor) | (np.arange(5) >= m[:, None])).all(axis=1)
                         & (value[at, m] > SHARP_FACTOR * ETA * floor[at, m]))
        g, slot = (members & ok[:, None]).nonzero()
        centers[k[g], slot] = z[g]
        mults[k[ok], members[ok].argmax(axis=1)] = m[ok]
        # a rejected group splits at its largest gap, its members ordered by (re, im)
        order = np.lexsort((r.imag, np.where(members, r.real, np.inf)), axis=1)
        gap = np.abs(np.diff(np.take_along_axis(r, order, axis=1), axis=1))
        cut = np.where(np.arange(3) < m[:, None] - 1, gap, -1.0).argmax(axis=1) + 1
        left, rest = members & (order.argsort(axis=1) < cut[:, None]), ~ok
        k, members = np.tile(k[rest], 2), np.concatenate([left[rest], (members & ~left)[rest]])
    return centers, mults


def _svd_nullity(A: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """The number of singular values of each A (M, 4, 4) at or below its cut (M,)."""
    return 4 - (np.linalg.svd(A, compute_uv=False) > cut[:, None]).sum(axis=1)


def _cofactor_rows(A: np.ndarray) -> np.ndarray:
    """The cofactor matrices of A (M, 4, 4), adj(A) transposed, with rows 0
    and 2 negated: row i is the other row of i's pair times the dual of the
    other pair's 2x2 minors."""
    m = len(A)
    p = A.reshape(m, 16)[:, _LEFT]
    p *= A.reshape(m, 16)[:, _RIGHT]
    duals = (p @ _DUAL).reshape(m, 2, 4, 4)
    del p  # freed before the cofactor product, for a block's peak memory
    return (A.reshape(m, 2, 2, 4)[:, :, ::-1] @ duals).reshape(m, 4, 4)


def _nullity(A: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """``_svd_nullity`` of each A (M, 4, 4): 1 where the adjugate certifies
    sigma_4 <= cut / 2 and sigma_3 >= 2 cut (cut (M,)), the SVD rule
    elsewhere.

    With x the largest column of adj(A), A x = det(A) e_j gives
    sigma_4 <= |det A| / |x|; and |adj A|_2 = sigma_1 sigma_2 sigma_3 with
    sigma_1 sigma_2 <= |A|_F^2 / 2 and |adj A|_F <= 2 |adj A|_2 gives
    sigma_3 >= |adj A|_F / |A|_F^2.  The columns of adj(A) are the rows of
    ``_cofactor_rows``, up to signs that no bound reads.  Both bounds are
    tested without a division, with a rounding allowance (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 3): an adjugate
    entry, six products of three entries, is off by at most
    e = gamma_5 6 |A|_F^3, the adjugate by 4 e in the Frobenius norm, A x by
    |A|_F 2 e, and det A (row 0 of A times column 0 of the adjugate) by
    |A|_F (gamma_4 |x| + 2 e).  The SVD's own error, about eps |A|, is far
    inside the factor-2 margins, so a certified item has the nullity the
    SVD would give it.
    """
    m = len(A)
    # an operator of entries near 1e70 overflows the adjugate's squares: its
    # item goes to the SVD below, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        cof = _cofactor_rows(A)
        det = (A[:, 0] * cof[:, 0]).sum(axis=1)
        col2 = (cof * cof).sum(axis=2)
        col = np.sqrt(col2.max(axis=1))
        a_f2 = (A * A).sum(axis=(1, 2))
        a_f = np.sqrt(a_f2)
        err = (24.0 * ROUND) * a_f2 * a_f  # 4 e
        adj_f = np.sqrt(col2.sum(axis=1))
        rank3 = ((adj_f < np.inf)  # an adjugate that overflowed bounds nothing
                 & (adj_f > err + 2.0 * cut * a_f2)
                 & (np.abs(det) + a_f * err <= col * (0.5 * cut - ROUND * a_f)))
    nullity = np.ones(m, int)
    if np.count_nonzero(rank3) < m:
        nullity[~rank3] = _svd_nullity(A[~rank3], cut[~rank3])
    return nullity


# Root items per ``_nullity`` call at most.  A call holds a few (items, 32)
# temporaries: the block of 625 solved ex41 points (2,500 items) peaked at
# 1.89 MiB under tracemalloc in one call, 0.78 MiB in slices of 512 and
# 0.59 MiB in slices of 64, and its ``eigen_structure`` took 5.2-6.1, 5.2-5.5
# and 5.8-7.1 ms (2-core Xeon host).  Each item's nullity is its own, so
# none depends on its slice.
NULLITY_ITEMS = 512


def eigen_structure(S: np.ndarray, G: np.ndarray, tol: float = CLUSTER_TOL):
    """Root structure, multiplicities and case label of a G-self-adjoint S:
    a ShapeSpectrum for one operator (4, 4), a SpectrumBlock for a block
    (P, 4, 4) (see the module docstring)."""
    S = np.asarray(S, dtype=float)
    G = np.asarray(G, dtype=float)
    if S.ndim not in (2, 3) or S.shape[-2:] != (4, 4) or G.shape != S.shape:
        raise ContractViolation("eigen_structure expects 4x4 arrays")
    # before the self-adjointness test, whose comparison a NaN passes
    if not (np.isfinite(S).all() and np.isfinite(G).all()):
        raise ContractViolation("operator or metric is not finite")
    one = S.ndim == 2
    if one:
        S, G = S[None], G[None]
    gs = G @ S
    scale_s = 1.0 + np.abs(gs).max(axis=(1, 2))
    if (np.abs(gs - gs.transpose(0, 2, 1)).max(axis=(1, 2)) > SELF_ADJOINT_TOL * scale_s).any():
        raise ContractViolation("operator is not metric-self-adjoint")

    with np.errstate(over="ignore", invalid="ignore"):  # refused below, with no warning
        coeffs = characteristic_quartic(S)
    if not np.isfinite(coeffs).all():
        raise ContractViolation("the operator's characteristic quartic overflows")
    snap = max(SNAP_FACTOR * tol, SNAP_FLOOR)
    roots, real = _quartic_roots(coeffs, snap)
    scale = 1.0 + np.abs(roots).max(axis=1)
    thresh = tol * scale
    snap_radius = snap * scale
    centers, mults = roots.copy(), np.ones(roots.shape, int)
    near = _near(roots, snap_radius)  # any other point has four simple items, its roots
    if near.any():
        centers[near], mults[near] = _settle_groups(coeffs[near], roots[near], real[near],
                                                    snap_radius[near], thresh[near])

    # refused: a root in the ambiguous rotation band, ...
    band = BAND_FACTOR * thresh[:, None]
    im = centers.imag
    is_real = np.abs(im) <= thresh[:, None]
    refused = (~is_real & (np.abs(im) < band)).any(axis=1)
    # ... complex roots without their conjugates, ...
    up, down = ~is_real & (im > 0), ~is_real & (im < 0)
    npairs = up.sum(axis=1)
    refused |= npairs != down.sum(axis=1)
    paired = np.arange(4) < npairs[:, None]
    ups = np.where(paired, np.sort(np.where(up, centers, np.inf), axis=1), 0.0)
    downs = np.where(paired, np.sort(np.where(down, centers.conj(), np.inf), axis=1), 0.0)
    d = ups - downs
    refused |= (np.hypot(d.real, d.imag) > band).any(axis=1)
    # ... or distinct real clusters closer than the full guard band
    values = np.where(is_real & (mults > 0), centers.real, np.inf)
    order, at = np.lexsort((mults, values), axis=1), np.arange(len(S))[:, None]
    values, algs = values[at, order], mults[at, order]
    live = np.isfinite(values)
    gaps = np.where(live, values, 0.0)
    refused |= (live[:, 1:] & (gaps[:, 1:] - gaps[:, :-1] < band)).any(axis=1)

    rank_cut = max(RANK_FLOOR, RANK_FACTOR * tol) * (1.0 + np.abs(S).max(axis=(1, 2)))
    geos = np.zeros(algs.shape, int)
    k, j = (live & ~refused[:, None]).nonzero()
    for at in range(0, len(k), NULLITY_ITEMS):
        kk, jj = k[at:at + NULLITY_ITEMS], j[at:at + NULLITY_ITEMS]
        geos[kk, jj] = _nullity(S[kk] - values[kk, jj, None, None] * np.eye(4), rank_cut[kk])

    labels, patterns, algs = _case_labels(refused, values, algs, geos, npairs)
    block = SpectrumBlock(values, algs, geos, (ups.real + downs.real) / 2.0,
                          (ups.imag + downs.imag) / 2.0, npairs * ~refused, tol,
                          labels, patterns)
    return block[0] if one else block


def _case_labels(refused, values, algs, geos, npairs) -> tuple:
    """Case labels and patterns (P,) of a block, and the algebraic
    multiplicities (P, 4) of the real root items (``values``, ascending,
    padded with inf) each point reports.  A refused point reports none, a
    point with an item of geometric multiplicity below 1 or above the
    algebraic one only the first such item: both are unresolved, with no
    pattern.  Any other point is unresolved unless its multiplicities total
    4 with at most one complex pair; then it is I, or III with the pair,
    when no item is defective, II when the defects (algebraic less
    geometric) total 1, IV when they total 2 on an item of algebraic 3.
    """
    live = np.isfinite(values) & ~refused[:, None]
    bad = live & ((geos < 1) | (geos > algs))
    out = refused | bad.any(axis=1)
    a = algs * (live & ~out[:, None])  # the items of a resolved point
    total = a.sum(axis=1)
    defect = total - geos.sum(axis=1)  # of a resolved point: geos is 0 off its items
    case = (~out & (total + 2 * npairs == 4) & (npairs <= 1)) * (
        (defect == 0) * (1 + 2 * npairs) + 2 * (defect == 1)
        + 4 * ((defect == 2) & (a == 3).any(axis=1)))
    # the pattern is the items' multiplicities, then "2c" per pair: one
    # string per distinct (multiplicities, pairs) code of the block (found by
    # bincount: np.unique would import numpy.ma, 0.8 MB, to test for a mask)
    code = (a @ np.array([125, 25, 5, 1])) * 3 + npairs * ~out
    keys = np.flatnonzero(np.bincount(code))
    patterns = np.array([_pattern(c) for c in keys.tolist()], dtype=object)[keys.searchsorted(code)]
    return _LABELS[case], patterns, a + algs * (bad & (bad.cumsum(axis=1) == 1))


def _pattern(code: int) -> str:
    algs = [code // 3 // 5 ** j % 5 for j in (3, 2, 1, 0)]
    return "+".join([str(m) for m in algs if m] + ["2c"] * (code % 3))
