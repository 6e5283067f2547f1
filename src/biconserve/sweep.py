"""Grid sweeps: evaluate verification checks over a parameter grid.

Rows are produced in lexicographic grid order (last axis fastest).  Every
grid is evaluated in blocks of at most BLOCK points: one packet call
(``packet`` for a hypersurface, ``submanifold_packet`` for a chart of
higher codimension, which answers only LOWDIM_CHECKS and whose rows carry
no H) and one pass of each residual per block, the points being an axis
of the arrays.  The spectral classification is one call per block too:
``eigen_structure`` on the block's shape operators for a 4-parameter
chart, one stacked ``np.linalg.eigvals`` otherwise.  With the
finite-difference oracle selected, the tangency checks and the CMC flag
read one ``packet_fd`` call per block instead of the jet packet; nothing
else changes.  A block whose packet or oracle packet raises a
BiconserveError is bisected down to single points, and a block whose
classification raises is classified again point by point, so every point
gets its own error and message and the others keep their results.

Worker pools split the grid into contiguous chunks and results are merged
back by chunk index.  Each point gets the same arithmetic in any block, so
output is deterministic for a fixed request regardless of worker count.
Normals are oriented per point (reference field when the chart carries
one), never by cross-point state, for the same reason.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BiconserveError, plain_point
from .immersion import (ImmersionChart, beltrami_residual, biconservative_residual,
                        gauss_codazzi_residual, packet, packet_fd, principal_direction_check,
                        submanifold_packet, unit_normal_residual)
from .spectral import ShapeSpectrum, eigen_structure

# Points per packet block.  It bounds the memory of a block's jets (order-3
# chart jets are 35 coefficients per point) and of the oracle's stencils
# (2n + 1 base points per point); larger blocks gain little.
BLOCK = 128

HYPERSURFACE_CHECKS = ("biconservative", "beltrami", "gauss", "codazzi",
                       "unit_normal", "principal_direction", "structure")
LOWDIM_CHECKS = ("beltrami", "gauss", "codazzi")

DEFAULT_TOLERANCES = {
    "biconservative": 1e-6,
    "biconservative_fd": 1e-4,
    "beltrami": 1e-7,
    "gauss": 1e-6,
    "codazzi": 1e-6,
    "unit_normal": 1e-9,
    "principal_direction": 1e-6,
}


def interior_grid(domain, nodes: int = 5) -> list:
    """[lo, hi, nodes] per axis of ``domain``, inset by 6 % of the span on
    each side: the default grid of ``verify`` and ``verify_structure``."""
    return [[lo + 0.06 * (hi - lo), hi - 0.06 * (hi - lo), nodes] for lo, hi in domain]


def grid_axes(domain, nodes):
    if isinstance(nodes, int):
        nodes = [nodes] * len(domain)
    return [np.linspace(lo, hi, int(n)) for (lo, hi), n in zip(domain, nodes)]


def grid_points(domain, nodes) -> np.ndarray:
    axes = grid_axes(domain, nodes)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def random_points(domain, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo = np.array([d[0] for d in domain])
    hi = np.array([d[1] for d in domain])
    span = hi - lo
    return lo + 0.02 * span + rng.uniform(size=(count, len(domain))) * 0.96 * span


@dataclass
class PointRow:
    point: tuple
    values: dict = field(default_factory=dict)  # check name -> residual
    H: float | None = None
    curvatures: tuple | None = None
    label: str = ""
    pattern: str = ""
    cmc: bool = False
    error: str = ""
    spectrum: object = None


def _error(exc: BiconserveError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _block_rows(chart: ImmersionChart, pts: np.ndarray, checks, oracle: str) -> list:
    """Rows of one block of points (P, n); a failing block is bisected."""
    hyper = chart.codim == 1
    fd = oracle == "fd" and ("biconservative" in checks or "principal_direction" in checks)
    pk, error = None, ""
    try:
        pk = packet(chart, pts) if hyper else submanifold_packet(chart, pts)
        # the tangency checks and the CMC flag read the oracle's packet on the fd route
        tpk = packet_fd(chart, pts) if fd else pk
    except BiconserveError as exc:
        if len(pts) > 1:
            half = len(pts) // 2
            return (_block_rows(chart, pts[:half], checks, oracle)
                    + _block_rows(chart, pts[half:], checks, oracle))
        if pk is None:
            return [PointRow(point=plain_point(pts[0]), error=_error(exc))]
        # only the oracle failed: the jet values and H stay, with no
        # tangency value and no label
        tpk, error = pk, _error(exc)
    block = {}
    if "unit_normal" in checks:
        block["unit_normal"] = unit_normal_residual(chart, pts, pk)
    if "beltrami" in checks:
        block["beltrami"] = beltrami_residual(chart, pts, pk)
    if "gauss" in checks or "codazzi" in checks:
        block["gauss"], block["codazzi"] = gauss_codazzi_residual(chart, pts, pk)
    if not error and "biconservative" in checks:
        block["biconservative"] = biconservative_residual(chart, pts, tpk)
    if not error and "principal_direction" in checks:
        block["principal_direction"] = principal_direction_check(chart, pts, tpk)
    cmc = tpk.is_cmc_point if hyper else None
    spectral = hyper and not error and ("structure" in checks or "curvatures" in checks)
    spectra = None
    if spectral:
        try:
            spectra = _classify(chart, pk.S, pk.G)
        except (BiconserveError, np.linalg.LinAlgError):
            pass  # classified point by point below, each row with its own error

    rows = []
    for k, p in enumerate(pts):
        row = PointRow(point=plain_point(p), error=error)
        if hyper:
            row.H, row.cmc = float(pk.H[k]), bool(cmc[k])
        row.values = {name: float(v[k]) for name, v in block.items()
                      if not (name == "principal_direction" and row.cmc)}
        if spectral:
            try:
                _spectral_values(spectra[k] if spectra is not None
                                 else _classify(chart, pk.S[k], pk.G[k]), row)
            except BiconserveError as exc:
                row.error = _error(exc)
        rows.append(row)
    return rows


def _classify(chart: ImmersionChart, S: np.ndarray, G: np.ndarray):
    """Spectral results of one point (n, n) or a block (P, n, n): the
    ShapeSpectrum of a 4-parameter chart, the eigenvalues of any other."""
    if chart.nparams == 4:
        return eigen_structure(S, G)
    return np.linalg.eigvals(S)


def _spectral_values(got, row: PointRow):
    """Fill a row from its point's ``_classify`` result."""
    if isinstance(got, ShapeSpectrum):
        row.label = got.case_label
        row.pattern = got.pattern
        row.spectrum = got
        vals = []
        for v, alg, _ in sorted(got.real_eigenvalues):
            vals.extend([v] * alg)
        row.curvatures = tuple(vals) if len(vals) == 4 else None
    elif np.max(np.abs(got.imag)) < 1e-9 * (1 + np.max(np.abs(got))):
        row.curvatures = tuple(sorted(got.real.tolist()))


def _rows(chart: ImmersionChart, points: np.ndarray, checks, oracle: str) -> list:
    if chart.codim != 1:
        checks = tuple(c for c in checks if c in LOWDIM_CHECKS)
    rows = []
    for start in range(0, len(points), BLOCK):
        rows.extend(_block_rows(chart, points[start:start + BLOCK], checks, oracle))
    return rows


def _chunk_worker(args):
    return _rows(*args)


def sweep(chart: ImmersionChart, points: np.ndarray, checks, oracle: str = "jets",
          jobs: int = 1):
    """One PointRow per point of ``points`` (P, n), in order.

    Points are evaluated in blocks of at most BLOCK points (see the module
    docstring); ``jobs`` > 1 splits the points over a process pool.
    """
    checks = tuple(checks)
    points = np.asarray(points, dtype=float)
    if jobs <= 1 or len(points) < 2 * jobs:
        return _rows(chart, points, checks, oracle)
    chunks = np.array_split(points, jobs * 4)
    rows = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(_chunk_worker,
                             [(chart, c, checks, oracle) for c in chunks if len(c)]):
            rows.extend(part)
    return rows


@dataclass
class CheckSummary:
    name: str
    max: float
    mean: float
    argmax_point: tuple | None
    count: int
    tolerance: float | None
    status: str  # pass | fail | vacuous | not_asserted | skipped | error


def summarize(rows, checks, tolerances, asserted) -> list:
    out = []
    errors = [r for r in rows if r.error]
    for name in checks:
        if name == "structure":
            continue
        vals = [(r.values[name], r.point) for r in rows if name in r.values]
        tol = tolerances.get(name)
        if not vals:
            status = "vacuous" if name in ("biconservative", "principal_direction") \
                and rows and all(r.cmc for r in rows if not r.error) else "skipped"
            out.append(CheckSummary(name, 0.0, 0.0, None, 0, tol, status))
            continue
        arr = np.array([v for v, _ in vals])
        imax = int(np.argmax(arr))
        vmax = float(arr[imax])
        if name not in asserted:
            status = "not_asserted"
        elif tol is not None and vmax < tol:
            status = "pass"
        else:
            status = "fail"
        if name in ("biconservative", "principal_direction") and rows \
                and all(r.cmc for r in rows if not r.error):
            status = "vacuous"
        out.append(CheckSummary(name, vmax, float(arr.mean()), vals[imax][1],
                                len(vals), tol, status))
    if errors:
        out.append(CheckSummary("errors", float(len(errors)), 0.0,
                                errors[0].point, len(errors), None, "error"))
    return out
