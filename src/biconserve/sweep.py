"""Grid sweeps: evaluate verification checks over a parameter grid.

Rows are produced in lexicographic grid order (last axis fastest).  Worker
pools split the grid into contiguous chunks and results are merged back by
chunk index, so output is deterministic for a fixed request regardless of
worker count.  Normals are oriented per point (reference field when the
chart carries one), never by cross-point state, for the same reason.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BiconserveError
from .immersion import (ImmersionChart, beltrami_residual, biconservative_residual,
                        biconservative_residual_fd, gauss_codazzi_residual, packet,
                        packet_fd, principal_direction_check, submanifold_packet)
from .spectral import eigen_structure

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


def _eval_point(chart: ImmersionChart, p, checks, oracle: str) -> PointRow:
    row = PointRow(point=tuple(float(x) for x in p))
    try:
        if chart.codim != 1:
            spk = submanifold_packet(chart, p)
            if "beltrami" in checks:
                row.values["beltrami"] = beltrami_residual(chart, p, spk)
            if "gauss" in checks or "codazzi" in checks:
                g, c = gauss_codazzi_residual(chart, p, spk)
                row.values["gauss"] = g
                row.values["codazzi"] = c
            return row

        pk = packet(chart, p)
        row.H = pk.H
        row.cmc = pk.is_cmc_point
        if "unit_normal" in checks:
            nn = float(np.dot(chart.signature.weights * pk.N.components,
                              pk.N.components))
            row.values["unit_normal"] = abs(nn - 1.0)
        if "beltrami" in checks:
            row.values["beltrami"] = beltrami_residual(chart, p, pk)
        if "gauss" in checks or "codazzi" in checks:
            g, c = gauss_codazzi_residual(chart, p, pk)
            row.values["gauss"] = g
            row.values["codazzi"] = c
        if oracle == "fd" and ("biconservative" in checks or "principal_direction" in checks):
            fpk = packet_fd(chart, p)
            if "biconservative" in checks:
                row.values["biconservative"] = biconservative_residual_fd(chart, p, fpk)
            if "principal_direction" in checks and not row.cmc:
                row.values["principal_direction"] = _pdc_values(
                    fpk.S, fpk.H, fpk.gradH, fpk.gradH_ambient, fpk.dx)
        else:
            if "biconservative" in checks:
                row.values["biconservative"] = biconservative_residual(chart, p, pk)
            if "principal_direction" in checks:
                pdc = principal_direction_check(chart, p, pk)
                if pdc is not None:
                    row.values["principal_direction"] = pdc
        if "structure" in checks or "curvatures" in checks:
            if chart.nparams == 4:
                spec = eigen_structure(pk.S, pk.G)
                row.label = spec.case_label
                row.pattern = spec.pattern
                row.spectrum = spec
                vals = []
                for v, alg, _ in sorted(spec.real_eigenvalues):
                    vals.extend([v] * alg)
                row.curvatures = tuple(vals) if len(vals) == 4 else None
            else:
                eig = np.linalg.eigvals(pk.S)
                if np.max(np.abs(eig.imag)) < 1e-9 * (1 + np.max(np.abs(eig))):
                    row.curvatures = tuple(sorted(eig.real.tolist()))
    except BiconserveError as exc:
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def _chunk_worker(args):
    chart, pts, checks, oracle = args
    return [_eval_point(chart, p, checks, oracle) for p in pts]


def sweep(chart: ImmersionChart, points: np.ndarray, checks, oracle: str = "jets",
          jobs: int = 1):
    checks = tuple(checks)
    if jobs <= 1 or len(points) < 2 * jobs:
        return [_eval_point(chart, p, checks, oracle) for p in points]
    chunks = np.array_split(points, jobs * 4)
    rows = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(_chunk_worker,
                             [(chart, c, checks, oracle) for c in chunks if len(c)]):
            rows.extend(part)
    return rows


def _pdc_values(S, H, gradH, gradH_amb, dx_val):
    n = len(S)
    ng = float(np.linalg.norm(gradH_amb))
    sg = (S @ gradH) @ dx_val
    res_eigen = float(np.linalg.norm(sg + (n / 2.0) * H * gradH_amb) / ng)
    k1m = float(np.dot(sg, gradH_amb) / (ng * ng))
    res_sum = abs((float(np.trace(S)) - k1m) - (3.0 * n / 2.0) * H)
    return max(res_eigen, res_sum)


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
