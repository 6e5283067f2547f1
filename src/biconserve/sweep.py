"""Grid sweeps: evaluate verification checks over a parameter grid.

A sweep returns a SweepTable, made once: its results as columns over the
points, in lexicographic grid order (last axis fastest), each block writing
its own rows.  Readers reduce the columns; a PointRow is made only for a
point a caller asks for.

One split: ``blocks`` cuts P points into ceil(P / BLOCK) contiguous blocks
whose sizes differ by at most one, the default 625-point grid of a
4-parameter chart into one.  The serial loop runs them, and a process pool
maps them one task each, each part written back as it arrives (one block
runs in-process at any worker count).  A block is one packet call
(``packet``, or ``submanifold_packet`` for a chart of higher codimension),
one pass of each residual, on a hypersurface one classification
(``eigen_structure`` for 4 parameters, one stacked ``np.linalg.eigvals``
otherwise), and one structure stage, the points being an axis of the
arrays.  A chart of higher codimension answers only LOWDIM_CHECKS, the
three flat-space identities and ``structure``; its points carry no H, no
curvatures and no label.  With the FD oracle, the tangency checks and the
CMC flag read one ``packet_fd`` call per block.

One structure stage: each block judges its points against the chart's
expected structure (``ImmersionChart.structure``; an inline chart has none)
from its own spectra, curvatures or submanifold packet (``_structure``),
into the ``fits`` column and the notes of the noted points, which
``structure_verdict`` reduces.  The table keeps the spectra's case labels,
patterns and curvatures, not the spectra.

One failure rule: a block's rows are written in three stages (the packet,
its identity rows, H and the jet CMC flag; the oracle's packet, its CMC
flag and the tangency rows; the classification and structure), and any
BiconserveError or LinAlgError bisects the block.  A single point keeps
what the earlier stages wrote, with its own error.  Each point gets the
same arithmetic in any block, and normals are oriented per point, never by
cross-point state, so output does not depend on blocks or worker count.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import BiconserveError, plain_point
from .immersion import (ImmersionChart, beltrami_residual, biconservative_residual,
                        gauss_codazzi_residual, packet, packet_fd, principal_direction_check,
                        submanifold_packet, unit_normal_residual)
from .spectral import eigen_structure
from .thresholds import (ACCEL_MIN, ACCEL_TOL, CLUSTER_TOL, LINE_TOL, NULL_ACCEL_TOL,
                         PARABOLIC_TOL, PLANE_TOL, QUADRIC_TOL, ROOTS_REAL_TOL, SPEED_TOL,
                         UMBILIC_TOL, ZERO_ROOT_TOL)

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
# the checks of the one tangency row (``immersion._tangency``): read from the
# oracle's packet, asserted together, vacuous together
TANGENCY = ("biconservative", "principal_direction")


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


# the residual columns of a table, in this order
COLUMNS = ("unit_normal", "beltrami", "gauss", "codazzi", "biconservative", "principal_direction")


@dataclass
class SweepTable(Sequence):
    """A sweep's results as columns over its points, in order.

    ``values`` (P, 6) holds each point's residual of each check in COLUMNS
    and ``has`` (P, 6) whether it has one (a residual may itself be NaN).
    ``H`` and ``cmc`` (P,) hold where ``hyper`` is set (a hypersurface point
    whose packet was built), ``curvatures`` (P, n) where ``has_curv`` is;
    ``error``, ``label`` and ``pattern`` (P,) are "" where there is none.
    ``fits`` (P,) is False where a point misses the chart's expected
    structure, and ``notes`` the structure notes of the noted points, in order.
    ``table[k]`` makes point k's PointRow, a slice a list of them;
    ``table.rows(at)`` is the table of the points ``at``, written in place.
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
    pattern: np.ndarray
    fits: np.ndarray
    notes: list = field(default_factory=list)

    @classmethod
    def blank(cls, pts: np.ndarray, ncurv: int) -> SweepTable:
        """A table of the points (P, n) with no results yet."""
        P, C = len(pts), len(COLUMNS)
        return cls(pts, np.zeros((P, C)), np.zeros((P, C), dtype=bool), H=np.zeros(P),
                   hyper=np.zeros(P, dtype=bool), cmc=np.zeros(P, dtype=bool),
                   error=np.full(P, "", dtype=object), curvatures=np.zeros((P, ncurv)),
                   has_curv=np.zeros(P, dtype=bool), label=np.full(P, "", dtype=object),
                   pattern=np.full(P, "", dtype=object), fits=np.ones(P, dtype=bool))

    def rows(self, at: slice) -> SweepTable:
        """The points ``at`` as a table whose columns are views into this
        table's and whose notes are this table's list."""
        return SweepTable(*(getattr(self, f.name)[at] for f in fields(self)[:-1]), self.notes)

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
        row.label, row.pattern = str(self.label[k]), str(self.pattern[k])
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


def _error(exc: BiconserveError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _put(table: SweepTable, checks, rows: dict):
    """Write the residual rows {check: (P,)} that ``checks`` asks for."""
    for name in rows.keys() & set(checks):  # one gauss_codazzi_residual call answers both
        table.values[:, COLUMNS.index(name)], table.has[:, COLUMNS.index(name)] = rows[name], True


def _block_table(chart: ImmersionChart, table: SweepTable, checks, oracle: str):
    """Write the rows of one block, ``table``, in three stages; a stage that
    raises bisects the block into ``table.rows`` halves, and a single point
    keeps what the earlier stages wrote, with its error."""
    hyper, pts, spectra = chart.codim == 1, table.points, None
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
            tpk = packet_fd(chart, pts) if oracle == "fd" and set(TANGENCY) & set(checks) else pk
            rows = {name: check(chart, pts, tpk) for name, check in zip(
                TANGENCY, (biconservative_residual, principal_direction_check)) if name in checks}
            table.cmc[:] = tpk.is_cmc_point
            _put(table, checks, rows)
            table.has[:, COLUMNS.index("principal_direction")] &= ~table.cmc  # none at CMC
        if hyper and ("structure" in checks or "curvatures" in checks):  # 3: the classification
            spectra, table.curvatures[:], table.has_curv[:] = _classify(chart, pk.S, pk.G)
            if spectra is not None:
                table.label[:], table.pattern[:] = spectra.labels, spectra.patterns
        if "structure" in checks and chart.structure:  # and the structure
            table.fits[:], notes = _structure(chart, table, pk, spectra)
            table.notes += notes
    except (BiconserveError, np.linalg.LinAlgError) as exc:
        if len(pts) == 1:
            table.error[0] = _error(exc)
            return
        # a stage raises for a block exactly when it raises at some point of it, so each
        # half rewrites with the same bits what this block wrote before it raised, and
        # a failing point keeps what its own earlier stages wrote: no row needs a reset
        half = len(pts) // 2
        _block_table(chart, table.rows(slice(half)), checks, oracle)
        _block_table(chart, table.rows(slice(half, None)), checks, oracle)


def _classify(chart: ImmersionChart, S: np.ndarray, G: np.ndarray) -> tuple:
    """(spectra, curvatures (P, n), has_curv (P,)) of a block (P, n, n): a 4-parameter
    chart's SpectrumBlock and real roots, else the eigenvalues of S where all real and
    finite (one of a finite S may overflow): curvatures are finite where present."""
    if chart.nparams == 4:
        spectra = eigen_structure(S, G)
        return (spectra, *spectra.curvatures())
    got = np.linalg.eigvals(S)
    top = np.abs(got).max(axis=1)
    real = (np.abs(got.imag).max(axis=1) < ROOTS_REAL_TOL * (1 + top)) & np.isfinite(top)
    return None, np.sort(got.real, axis=1, kind="stable"), real


def _structure(chart: ImmersionChart, table: SweepTable, pk, spectra) -> tuple:
    """(fits (P,), notes) of a block: whether each point has the chart's
    expected structure, from the block's ``spectra`` (a SpectrumBlock, or
    None), curvatures or submanifold packet ``pk``, and a note at each point
    that misses it or (on ``zero>=2``) has an extra flat direction, in order."""
    tag, at = chart.structure[0], table.points
    if spectra is not None:  # a 4-parameter hypersurface
        unresolved = spectra.labels == "unresolved"
        match, z = _tag_match(tag, spectra)
        extra = (z > 2) & (tag == "zero>=2")  # a match, with a note
        return match & ~unresolved, [
            f"unresolved spectrum at {_at(at[i])}" if unresolved[i] else
            f"extra flat direction (zero multiplicity {z[i]})" if extra[i] else
            f"pattern {spectra.patterns[i]}, expected {tag} at {_at(at[i])}"
            for i in np.flatnonzero(unresolved | ~match | extra)]
    if chart.codim == 1:
        k = table.curvatures
        fits = (tag == "all-distinct") & table.has_curv & np.all(
            np.diff(k, axis=1) > CLUSTER_TOL * (1.0 + np.abs(k).max(axis=1))[:, None], axis=1)
        return fits, [f"curvatures not {tag} at {_at(at[i])}" for i in np.flatnonzero(~fits)]
    return _family_ok(chart, pk, at)


def _tag_match(tag: str, spectra) -> tuple:
    """Per point of a SpectrumBlock: whether its spectrum matches a family's
    expected operator pattern, and its zero multiplicity (that of its
    first real root within ZERO_ROOT_TOL (1 + max|k|) of zero, else 0)."""
    live = spectra.algs > 0
    absv = np.abs(np.where(live, spectra.values, 0.0))
    zero = live & (absv <= ZERO_ROOT_TOL * (1.0 + absv.max(axis=1))[:, None])
    z = np.where(zero.any(axis=1), spectra.algs[np.arange(len(zero)), zero.argmax(axis=1)], 0)
    ones, twos = (live & (spectra.algs == 1)).sum(axis=1), (live & (spectra.algs == 2)).sum(axis=1)
    if tag == "zero>=2":
        return z >= 2, z
    if tag == "simple-zero+double":
        return (z == 1) & (live & ~zero & (spectra.algs == 2)).any(axis=1), z
    if tag == "1+2+1-nonzero":
        return (z == 0) & (ones == 2) & (twos == 1) & (live.sum(axis=1) == 3), z
    if tag == "all-distinct":
        return (z == 0) & (ones == live.sum(axis=1)) & (spectra.npairs == 0), z
    return np.ones(len(z), dtype=bool), z


def _family_ok(chart: ImmersionChart, spk, points) -> tuple:
    """(fits (P,), notes): whether the surface or curve family's predicate,
    and a curve's unit-speed claim, hold at each point of ``points`` (P, n),
    whose submanifold packet is ``spk``; a note at each point where one
    fails names the first test that fails there."""
    tag, P = chart.structure[0], len(points)
    eps, h = chart.signature.weights, spk.h
    hmax = np.abs(h).reshape(P, -1).max(axis=1)
    acc = h[:, 0, 0]
    acc2 = np.sum(eps * acc * acc, axis=-1)
    tests = []  # (holds (P,), reason format, the value it reads (P,)), first named first
    if chart.nparams == 1:  # unit-speed claims
        speed, want = spk.G[:, 0, 0], -1.0 if chart.expected_index == 1 else 1.0
        tests.append((~(np.abs(speed - want) > SPEED_TOL), f"speed {{:+.6f}} != {want:+g}", speed))
    if tag in ("plane", "line"):
        tests.append((hmax < (PLANE_TOL if tag == "plane" else LINE_TOL), f"{tag}: |h| = {{:.3e}}", hmax))
    elif tag == "quadric":  # |want| is r * r
        want, y = chart.structure[1], chart.value(points)
        q = np.sum(eps * y * y, axis=-1)
        tests.append((np.abs(q - want) < QUADRIC_TOL * (1 + abs(want)),
                      f"quadric: <x, x> = {{:+.6f}}, expected {want:+g}", q))
        if chart.structure[2:] == ("umbilic",):
            dev = np.abs(h - np.einsum("zij,za->zija", spk.G, spk.mean_curvature))
            dev = dev.reshape(P, -1).max(axis=1)
            tests.append((dev < UMBILIC_TOL, "umbilic: |h - G H| = {:.3e}", dev))
    elif tag == "parabolic":
        h12 = np.abs(h[:, 0, 1]).max(axis=1)
        tests += [(acc2 < PARABOLIC_TOL, "parabolic: <a, a> = {:+.3e}", acc2),
                  (h12 < PARABOLIC_TOL, "parabolic: |h_12| = {:.3e}", h12)]
    elif tag == "accel":  # |want| is R * R
        want = chart.structure[1]
        tests.append((np.abs(acc2 - want) < ACCEL_TOL * (1 + abs(want)),
                      f"accel: <a, a> = {{:+.6f}}, expected {want:+g}", acc2))
    elif tag == "lightlike-accel":
        norm = np.linalg.norm(acc, axis=-1)
        tests += [(np.abs(acc2) < NULL_ACCEL_TOL, "lightlike-accel: <a, a> = {:+.3e}", acc2),
                  (norm > ACCEL_MIN, "lightlike-accel: |a| = {:.3e}", norm)]
    fits = np.ones(P, dtype=bool)
    for holds, _, _ in tests:
        fits &= holds
    return fits, [next(fmt.format(value[i]) for holds, fmt, value in tests if not holds[i])
                  + f" at {_at(points[i])}" for i in np.flatnonzero(~fits)]


def _at(point) -> tuple:
    """A point for a note: plain floats rounded to 3 places."""
    return tuple(round(x, 3) for x in plain_point(point))


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
    table = SweepTable.blank(pts, chart.nparams)
    _block_table(chart, table, checks, oracle)
    return table


def sweep(chart: ImmersionChart, points: np.ndarray, checks, oracle: str = "jets",
          jobs: int = 1) -> SweepTable:
    """The SweepTable of ``points`` (P, n), in order.

    The points are evaluated in ``blocks(points)`` (see the module
    docstring), each written into its rows of the table; with ``jobs`` > 1
    and more than one block, a process pool evaluates them, one block a task.
    """
    points = np.asarray(points, dtype=float)
    checks = tuple(c for c in checks if chart.codim == 1 or c in LOWDIM_CHECKS)
    table, parts = SweepTable.blank(points, chart.nparams), blocks(points)
    ends = np.cumsum([0] + [len(pts) for pts in parts]).tolist()
    views = [table.rows(slice(a, b)) for a, b in zip(ends, ends[1:])]
    if jobs <= 1 or len(parts) <= 1:
        for view in views:
            _block_table(chart, view, checks, oracle)
        return table
    # imported only where a pool starts: its modules would add to every run's import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(min(jobs, len(parts)), initializer=_pool_start,
                             initargs=(chart, checks, oracle)) as pool:
        for view, part in zip(views, pool.map(_pool_task, parts)):
            for f in fields(part)[1:-1]:  # the points are the request's; the notes follow
                getattr(view, f.name)[:] = getattr(part, f.name)
            table.notes += part.notes
    return table


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
        tangency = name in TANGENCY
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


def structure_verdict(table: SweepTable) -> tuple:
    """(ok, spectral, notes): the family-structure verdict on a sweep table,
    failed by a point error or a point the structure stage found not to fit;
    the notes are the errors', then the stage's, each in point order.
    ``spectral`` counts the points per case label and pattern, and gives the
    curvature range."""
    errors = np.flatnonzero(table.error != "")
    notes = [f"{table.error[k]} (at {_at(table.points[k])})" for k in errors] + table.notes
    labels = Counter(table.label.tolist())
    patterns = table.pattern[table.label != ""] if labels.pop("", 0) else table.pattern
    k = table.curvatures[table.has_curv]  # finite roots only: see ``_classify``
    spectral = {"labels": labels, "patterns": Counter(patterns.tolist()),
                "curvature_min": float(k.min()) if k.size else None,
                "curvature_max": float(k.max()) if k.size else None}
    return not len(errors) and bool(table.fits.all()), spectral, notes
