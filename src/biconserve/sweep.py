"""Grid sweeps: evaluate verification checks over a parameter grid.

A sweep returns a SweepTable: its results as columns over the points, in
lexicographic grid order (last axis fastest).  Readers reduce the columns; a
PointRow is made only for a point a caller asks for.

One split: ``blocks`` cuts P points into ceil(P / BLOCK) contiguous blocks
whose sizes differ by at most one, the default 625-point grid of a
4-parameter chart into one.  The serial loop runs them, a process pool maps
them one task each (one block runs in-process at any worker count), and
``catalog.structure_verdict`` reads a surface or curve in them.  A block is
one packet call (``packet``, or ``submanifold_packet`` for a chart of
higher codimension), one pass of each residual and, on a hypersurface, one
classification (``eigen_structure`` for 4 parameters, one stacked
``np.linalg.eigvals`` otherwise), the points being an axis of the arrays.
A chart of higher codimension answers only LOWDIM_CHECKS: the three
flat-space identities, and ``structure``, the family predicate that
``catalog.structure_verdict`` evaluates; its points carry no H, no
curvatures and no label.  With the FD oracle, the tangency checks and the
CMC flag read one ``packet_fd`` call per block instead of the jet packet.

One failure rule: a block's table is written in three stages (the packet,
its identity rows, H and the jet CMC flag; the oracle's packet, its CMC
flag and the tangency rows; the classification), and a BiconserveError or
LinAlgError at any stage bisects the block.  A single point keeps what the
earlier stages wrote, with its own error.  Each point gets the same
arithmetic in any block, and normals are oriented per point, never by
cross-point state, so output does not depend on blocks or worker count.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import BiconserveError, plain_point
from .immersion import (ImmersionChart, beltrami_residual, biconservative_residual,
                        gauss_codazzi_residual, packet, packet_fd, principal_direction_check,
                        submanifold_packet, unit_normal_residual)
from .spectral import SpectrumBlock, eigen_structure
from .thresholds import ROOTS_REAL_TOL

# Points per packet block at most: the default 5^4 = 625-point grid of a
# 4-parameter chart is one block.  Each block pays a fixed cost of about a
# one-point block's time, so fewer blocks gain.  The working sets that would
# grow past the block's jets are bounded apart: profile interpolation by
# ``profiles.BARY_ROWS``, the oracle's stencils by ``immersion.FD_BASES`` and
# the rank test by ``spectral.NULLITY_ITEMS``.  With them, ``verify_grid``
# (625-point ex41 requests) ran 17 % more points/s at reference speed (8 % in
# raw time) in one block than in 2 of 313 and 312, for 4.2 % more peak
# resident memory; the block size alone gave 15 % for 7.0 % (BENCH_32.json,
# on a 2-core Xeon host).  A 625-point block
# of the ex41 control peaks at 3.4 MiB of heap under tracemalloc, 13.9 MiB
# with the FD oracle.
BLOCK = 640

HYPERSURFACE_CHECKS = ("biconservative", "beltrami", "gauss", "codazzi",
                       "unit_normal", "principal_direction", "structure")
LOWDIM_CHECKS = ("beltrami", "gauss", "codazzi", "structure")


def interior_grid(domain, nodes: int = 5) -> list:
    """[lo, hi, nodes] per axis of ``domain``, inset by 6 % of the span on
    each side: the default grid of ``verify`` and ``sample``."""
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


# the residual columns of a table, in this order
COLUMNS = ("unit_normal", "beltrami", "gauss", "codazzi", "biconservative", "principal_direction")


@dataclass
class SweepTable(Sequence):
    """A sweep's results as columns over its points, in order.

    ``values`` (P, 6) holds each point's residual of each check in COLUMNS
    and ``has`` (P, 6) whether it has one (a residual may itself be NaN).
    ``H`` and ``cmc`` (P,) hold where ``hyper`` is set (a hypersurface point
    whose packet was built), ``curvatures`` (P, n) where ``has_curv`` is;
    ``error`` and ``label`` (P,) are "" where there is none.  ``spectra`` is
    the SpectrumBlock of the points ``classified`` marks, in order, or None.
    ``table[k]`` makes point k's PointRow, a slice a list of them.
    """

    points: np.ndarray
    values: np.ndarray
    has: np.ndarray
    H: np.ndarray
    hyper: np.ndarray
    cmc: np.ndarray
    error: np.ndarray
    curvatures: np.ndarray
    has_curv: np.ndarray
    label: np.ndarray
    classified: np.ndarray
    spectra: SpectrumBlock | None = None

    @classmethod
    def blank(cls, pts: np.ndarray, ncurv: int) -> SweepTable:
        """A table of the points (P, n) with no results yet."""
        P, C = len(pts), len(COLUMNS)
        return cls(pts, np.zeros((P, C)), np.zeros((P, C), dtype=bool), H=np.zeros(P),
                   hyper=np.zeros(P, dtype=bool), cmc=np.zeros(P, dtype=bool),
                   error=np.full(P, "", dtype=object), curvatures=np.zeros((P, ncurv)),
                   has_curv=np.zeros(P, dtype=bool), label=np.full(P, "", dtype=object),
                   classified=np.zeros(P, dtype=bool))

    def __len__(self):
        return len(self.points)

    def __getitem__(self, k):
        k = range(len(self))[k]
        if isinstance(k, range):
            return [self[i] for i in k]
        row = PointRow(plain_point(self.points[k]), self.value_dicts(slice(k, k + 1))[0],
                       error=str(self.error[k]))
        if self.hyper[k]:
            row.H, row.cmc = float(self.H[k]), bool(self.cmc[k])
        if self.has_curv[k]:
            row.curvatures = tuple(self.curvatures[k].tolist())
        if self.classified[k]:
            row.spectrum = self.spectra[int(np.count_nonzero(self.classified[:k]))]
            row.label, row.pattern = row.spectrum.case_label, row.spectrum.pattern
        return row

    def column(self, name: str) -> tuple:
        """One check's values at the points that have one, and their indices."""
        if name not in COLUMNS:
            return np.zeros(0), np.zeros(0, dtype=int)
        at = np.flatnonzero(self.has[:, COLUMNS.index(name)])
        return self.values[at, COLUMNS.index(name)], at

    def value_dicts(self, rows=slice(None)) -> list:
        """Each point's {check: value} of the checks it has."""
        return [{n: v for n, v, h in zip(COLUMNS, vals, has) if h}
                for vals, has in zip(self.values[rows].tolist(), self.has[rows].tolist())]


def _concat(parts):
    """One table (or spectrum block) from consecutive ones, column by column."""
    parts = [p for p in parts if p is not None]
    if parts and is_dataclass(parts[0]):
        return type(parts[0])(**{f.name: _concat([getattr(p, f.name) for p in parts])
                                 for f in fields(parts[0])})
    if parts and isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    return parts[0] if parts else None


def _error(exc: BiconserveError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _put(table: SweepTable, checks, rows: dict):
    """Write the residual rows {check: (P,)} that ``checks`` asks for."""
    for name in rows.keys() & set(checks):  # one gauss_codazzi_residual call answers both
        table.values[:, COLUMNS.index(name)], table.has[:, COLUMNS.index(name)] = rows[name], True


def _block_table(chart: ImmersionChart, pts: np.ndarray, checks, oracle: str) -> SweepTable:
    """The table of one block of points (P, n), written in three stages; a
    stage that raises bisects the block, and a single point keeps what the
    earlier stages wrote, with its error."""
    hyper = chart.codim == 1
    table = SweepTable.blank(pts, chart.nparams)
    try:
        # 1: the packet, its identity rows, H and the jet CMC flag
        pk = packet(chart, pts) if hyper else submanifold_packet(chart, pts)
        rows = {}
        if "unit_normal" in checks:
            rows["unit_normal"] = unit_normal_residual(chart, pts, pk)
        if "beltrami" in checks:
            rows["beltrami"] = beltrami_residual(chart, pts, pk)
        if "gauss" in checks or "codazzi" in checks:
            rows["gauss"], rows["codazzi"] = gauss_codazzi_residual(chart, pts, pk)
        _put(table, checks, rows)
        if hyper:
            table.H[:], table.hyper[:], table.cmc[:] = pk.H, True, pk.is_cmc_point
            # 2: the tangency checks and the CMC flag read the oracle's packet
            fd = oracle == "fd" and ("biconservative" in checks or "principal_direction" in checks)
            tpk = packet_fd(chart, pts) if fd else pk
            rows = {}
            if "biconservative" in checks:
                rows["biconservative"] = biconservative_residual(chart, pts, tpk)
            if "principal_direction" in checks:
                rows["principal_direction"] = principal_direction_check(chart, pts, tpk)
            table.cmc[:] = tpk.is_cmc_point
            _put(table, checks, rows)
            table.has[:, -1] &= ~table.cmc  # no principal direction at a CMC point
        if hyper and ("structure" in checks or "curvatures" in checks):  # 3: the classification
            spectra, table.curvatures[:], table.has_curv[:] = _classify(chart, pk.S, pk.G)
            if spectra is not None:
                table.spectra, table.classified[:], table.label[:] = spectra, True, spectra.labels
    except (BiconserveError, np.linalg.LinAlgError) as exc:
        if len(pts) == 1:
            table.error[0] = _error(exc)
            return table
        half = len(pts) // 2
        return _concat([_block_table(chart, pts[:half], checks, oracle),
                        _block_table(chart, pts[half:], checks, oracle)])
    return table


def _classify(chart: ImmersionChart, S: np.ndarray, G: np.ndarray) -> tuple:
    """(spectra, curvatures (P, n), has_curv (P,)) of a block (P, n, n): a 4-parameter
    chart's SpectrumBlock and real roots, else the eigenvalues of S where all real."""
    if chart.nparams == 4:
        spectra = eigen_structure(S, G)
        return (spectra, *spectra.curvatures())
    got = np.linalg.eigvals(S)
    real = np.abs(got.imag).max(axis=1) < ROOTS_REAL_TOL * (1 + np.abs(got).max(axis=1))
    return None, np.sort(got.real, axis=1, kind="stable"), real


def blocks(points: np.ndarray) -> list:
    """The points (P, n) as ceil(P / BLOCK) contiguous blocks whose sizes
    differ by at most one, the larger first; none for no points."""
    return np.array_split(points, -(-len(points) // BLOCK)) if len(points) else []


_request = None  # a pool worker's (chart, checks, oracle), set by _pool_start


def _pool_start(chart: ImmersionChart, checks, oracle: str):
    """Keep the request in a pool worker, so that each task carries only its block."""
    global _request
    _request = (chart, checks, oracle)


def _pool_task(pts: np.ndarray) -> SweepTable:
    chart, checks, oracle = _request
    return _block_table(chart, pts, checks, oracle)


def sweep(chart: ImmersionChart, points: np.ndarray, checks, oracle: str = "jets",
          jobs: int = 1) -> SweepTable:
    """The SweepTable of ``points`` (P, n), in order.

    The points are evaluated in ``blocks(points)`` (see the module
    docstring); with ``jobs`` > 1 and more than one block, a process pool
    evaluates them, one block a task.
    """
    points = np.asarray(points, dtype=float)
    checks = tuple(c for c in checks if chart.codim == 1 or c in LOWDIM_CHECKS)
    parts = blocks(points)
    if not parts:
        return SweepTable.blank(points, chart.nparams)
    if jobs <= 1 or len(parts) == 1:
        return _concat([_block_table(chart, pts, checks, oracle) for pts in parts])
    # imported only where a pool starts: its modules would add to every run's import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(min(jobs, len(parts)), initializer=_pool_start,
                             initargs=(chart, checks, oracle)) as pool:
        return _concat(list(pool.map(_pool_task, parts)))


@dataclass
class CheckSummary:
    name: str
    max: float
    mean: float
    argmax_point: tuple | None
    count: int
    tolerance: float | None
    status: str  # pass | fail | vacuous | not_asserted | skipped | error


def summarize(table: SweepTable, checks, tolerances, asserted) -> list:
    out = []
    errors = np.flatnonzero(table.error != "")
    # the tangency checks are vacuous when every point without an error is CMC
    vacuous = len(table) > 0 and bool(table.cmc[table.error == ""].all())
    for name in checks:
        if name == "structure":
            continue
        arr, at = table.column(name)
        tol = tolerances.get(name)
        tangency = name in ("biconservative", "principal_direction")
        if not len(arr):
            status = "vacuous" if tangency and vacuous else "skipped"
            out.append(CheckSummary(name, 0.0, 0.0, None, 0, tol, status))
            continue
        imax = int(np.argmax(arr))
        vmax = float(arr[imax])
        status = ("vacuous" if tangency and vacuous else "not_asserted" if name not in asserted
                  else "pass" if tol is not None and vmax < tol else "fail")
        out.append(CheckSummary(name, vmax, float(arr.mean()), plain_point(table.points[at[imax]]),
                                len(arr), tol, status))
    if len(errors):
        out.append(CheckSummary("errors", float(len(errors)), 0.0,
                                plain_point(table.points[errors[0]]), len(errors), None, "error"))
    return out
