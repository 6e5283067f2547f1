"""Command-line front end: list, verify, classify, sample.

Exit codes: 0 when every asserted check passes its tolerance, 1 when any
asserted check fails, 2 on a lower-level error (bad domain, violated side
condition, degenerate metric, unparsable input).

Inline charts: pass five semicolon-separated expressions in s, t, u, v as
the target, e.g. ``biconserve verify "t; u; s; v; 0"``.  The expression
grammar is infix with ^ or ** for powers (exponents are numeric literals),
the functions sin, cos, sinh, cosh, exp, sqrt, and named profile calls such
as ``phi(s)`` resolved against the profile options below.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .catalog import FamilySpec, build, entry_for, list_entries, structure_verdict, var_names
from .errors import BiconserveError, ContractViolation
from .expr import parse as parse_expr, var_names_for
from .immersion import ImmersionChart, packet
from .profiles import ExprProfile
from .ambient import Signature
from .spectral import CLUSTER_TOL, eigen_structure
from .sweep import (COLUMNS, DEFAULT_TOLERANCES, HYPERSURFACE_CHECKS, LOWDIM_CHECKS,
                    CheckSummary, grid_points, interior_grid, random_points, summarize,
                    sweep)

SCHEMA = 1
# the checks with a --tol-<name> option of their own
TOLERANCE_FLAGS = ("biconservative", "beltrami", "gauss", "codazzi", "principal_direction",
                   "unit_normal")


@dataclass
class VerifyRequest:
    target: str
    parameters: dict = field(default_factory=dict)
    profiles: dict = field(default_factory=dict)
    domain: list | None = None          # numeric per-axis [lo, hi]
    grid: list | None = None            # numeric per-axis [lo, hi, n]
    domain_spec: str | None = None      # raw text, resolved against var names
    grid_spec: str | None = None
    random_points: int | None = None
    seed: int = 0
    checks: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    oracle: str = "jets"
    jobs: int = 1
    output: str | None = None
    fmt: str = "json"
    per_point: bool = False


def _target_var_names(req: VerifyRequest):
    """The parameter names the target's chart is built with."""
    if _is_inline(req.target):
        return var_names_for(max(len(_inline_exprs(req.target)) - 1, 1))
    entry = entry_for(_spec(req))
    return var_names(entry.kind, len(entry.domain))


def _spec(req: VerifyRequest) -> FamilySpec:
    """The catalog spec of a request whose target is a catalog key."""
    family, _, case = req.target.partition(".")
    return FamilySpec(family, case, dict(req.parameters), dict(req.profiles),
                      tuple(tuple(d) for d in req.domain) if req.domain else None)


def _is_inline(target: str) -> bool:
    return ";" in target


def _inline_exprs(target: str) -> list:
    return [e.strip() for e in target.split(";") if e.strip()]


def _resolve_domain_spec(req: VerifyRequest):
    """Turn a textual domain spec into numeric [lo, hi] per axis of req.domain if given."""
    if not req.domain_spec:
        return
    names = list(_target_var_names(req))
    if _is_inline(req.target):
        base = [list(d) for d in (req.domain or [[-0.8, 0.8]] * len(names))]
        base += [[-0.8, 0.8]] * (len(names) - len(base))
    else:
        base = [list(d) for d in (req.domain or entry_for(_spec(req)).domain)]
        if len(base) != len(names):
            raise ContractViolation(f"domain has {len(base)} axes, chart has {len(names)}")
    for idx, (lo, hi, _) in _parse_axis_spec(req.domain_spec, names).items():
        base[idx] = [lo, hi]
    req.domain = base
    req.domain_spec = None


def _resolve_grid_spec(req: VerifyRequest, chart: ImmersionChart, entry):
    """Turn a textual grid spec into numeric [lo, hi, n] per axis.  Axes the
    spec leaves out get the interior grid of a catalog chart's domain, or 5
    nodes spanning an explicit or inline domain."""
    if not req.grid_spec:
        return
    spec = _parse_axis_spec(req.grid_spec, list(_target_var_names(req)))
    if entry and not req.domain:
        base = interior_grid(chart.domain)
    else:
        base = [[lo, hi, 5] for lo, hi in (req.domain or chart.domain)]
    for idx, (lo, hi, n) in spec.items():
        base[idx] = [lo, hi, n if n else 5]
    req.grid = base
    req.grid_spec = None


def _build_target(req: VerifyRequest):
    """Returns (chart, entry_or_None), with the request's axis specs resolved."""
    _resolve_domain_spec(req)
    chart, entry = _build_chart(req)
    _resolve_grid_spec(req, chart, entry)
    return chart, entry


def _build_chart(req: VerifyRequest):
    if _is_inline(req.target):
        exprs = _inline_exprs(req.target)
        names = _target_var_names(req)
        bank = {}
        for pname in ("phi", "psi", "phi1", "phi2"):
            if pname in req.profiles:
                bank[pname] = ExprProfile(parse_expr(str(req.profiles[pname]), ("s",)))
        domain = req.domain or [(-0.8, 0.8)] * len(names)
        comps = tuple(parse_expr(e, names) for e in exprs)
        chart = ImmersionChart(
            components=comps, domain=tuple(tuple(d) for d in domain),
            profile_bank=bank, signature=Signature(len(comps), 2),
            expected_index=2 if len(names) == 4 else int(req.parameters.get("index", 2)),
            name="inline",
        )
        return chart, None
    spec = _spec(req)
    return build(spec), entry_for(spec)


def _resolve_points(req: VerifyRequest, chart: ImmersionChart):
    grid = req.grid or interior_grid(chart.domain)
    if len(grid) != chart.nparams:
        raise BiconserveError(
            f"grid has {len(grid)} axes, chart has {chart.nparams} parameters")
    for (lo, hi, n), (dlo, dhi) in zip(grid, chart.domain):
        if n < 2:
            raise BiconserveError("grid needs at least 2 nodes per axis")
        if lo < dlo - 1e-12 or hi > dhi + 1e-12:
            raise BiconserveError(
                f"grid range [{lo:g}, {hi:g}] outside chart domain [{dlo:g}, {dhi:g}]")
    if req.random_points is not None and req.random_points < 0:
        raise ContractViolation(f"random points must be a count >= 0, got {req.random_points}")
    if req.random_points:
        pts = random_points([(lo, hi) for lo, hi, _ in grid], req.random_points, req.seed)
    else:
        pts = grid_points([(lo, hi) for lo, hi, _ in grid], [n for _, _, n in grid])
    return grid, pts


def _assertion_set(req: VerifyRequest, entry, explicit_checks):
    asserted = {"beltrami", "gauss", "codazzi", "unit_normal"}
    if entry and entry.offsets:  # a solved torsion profile: the tangency certificate
        asserted |= {"biconservative", "principal_direction"}
    if entry:
        asserted.add("structure")
    asserted |= set(explicit_checks or [])
    return asserted


def run_verify(req: VerifyRequest):
    """Execute a verification request; returns (report_dict, exit_code)."""
    chart, entry = _build_target(req)
    grid, pts = _resolve_points(req, chart)
    answered = HYPERSURFACE_CHECKS if chart.codim == 1 else LOWDIM_CHECKS
    unknown = [c for c in req.checks if c not in answered]
    if unknown:
        raise ContractViolation(f"unknown check {unknown[0]!r}; this chart answers "
                                f"{', '.join(answered)}")
    checks = list(req.checks or answered)
    tol = dict(DEFAULT_TOLERANCES)
    if req.oracle == "fd":
        tol["biconservative"] = tol["biconservative_fd"]
        tol["principal_direction"] = tol["biconservative_fd"]
    tol.update(req.tolerances)
    asserted = _assertion_set(req, entry, req.checks)

    table = sweep(chart, pts, checks, oracle=req.oracle, jobs=req.jobs)
    summaries = summarize(table, checks, tol, asserted)

    spectral = {}
    if "structure" in checks:
        ok, spectral, _ = structure_verdict(entry, table, chart)
        status = ("pass" if "structure" in asserted else "not_asserted") if ok else "fail"
        summaries.append(CheckSummary("structure", 0.0 if ok else 1.0, 0.0,
                                      None, len(table), None, status))

    errored = any(s.status == "error" for s in summaries)
    failed = any(s.status == "fail" and s.name in asserted | {"structure"}
                 for s in summaries)
    code = 2 if errored else (1 if failed else 0)

    report = {
        "schema": SCHEMA,
        "tool": "biconserve",
        "version": __version__,
        "target": req.target,
        "passed": code == 0,
        "exit_code": code,
        "config": {
            "target": req.target,
            "parameters": req.parameters,
            "profiles": req.profiles,
            "domain": req.domain,
            "grid": grid,
            "random_points": req.random_points,
            "seed": req.seed,
            "checks": req.checks,
            "tolerances": req.tolerances,
            "oracle": req.oracle,
            "jobs": req.jobs,
        },
        "checks": [
            {
                "name": s.name,
                "max": s.max,
                "mean": s.mean,
                "argmax_point": list(s.argmax_point) if s.argmax_point else None,
                "count": s.count,
                "tolerance": s.tolerance,
                "status": s.status,
            }
            for s in summaries
        ],
        "spectral": spectral,
    }
    if req.per_point:
        report["rows"] = [
            {"point": p, "values": v, "H": h, "label": label, "error": e}
            for p, v, h, label, e in zip(table.points.tolist(), table.value_dicts(),
                                         np.where(table.hyper, table.H, None).tolist(),
                                         table.label.tolist(), table.error.tolist())
        ]
    return report, code


# -- output helpers ---------------------------------------------------------


def _write_report(report: dict, req: VerifyRequest, stream):
    if req.fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True)
        if req.output:
            with open(req.output, "w") as fh:
                fh.write(text + "\n")
        else:
            stream.write(text + "\n")
        return
    # csv: one row per check
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "max", "mean", "count", "tolerance", "status"])
    for c in report["checks"]:
        writer.writerow([c["name"], repr(c["max"]), repr(c["mean"]), c["count"],
                         "" if c["tolerance"] is None else repr(c["tolerance"]),
                         c["status"]])
    if req.output:
        with open(req.output, "w", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        stream.write(buf.getvalue())


def _print_summary(report: dict, stream):
    stream.write(f"target {report['target']}: "
                 f"{'PASS' if report['passed'] else 'FAIL'}\n")
    for c in report["checks"]:
        tol = "" if c["tolerance"] is None else f" tol={c['tolerance']:g}"
        stream.write(f"  {c['name']:<20s} max={c['max']:.3e} "
                     f"mean={c['mean']:.3e}{tol} [{c['status']}]\n")


# -- subcommands -------------------------------------------------------------


def cmd_list(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    rows = list_entries(args.family)
    if args.json:
        out.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        return 0
    for r in rows:
        conds = "; ".join(r["conditions"]) if r["conditions"] else "-"
        out.write(f"{r['key']:<14s} {r['kind']:<12s} {r['description']}\n")
        out.write(f"{'':14s} conditions: {conds}\n")
    out.write(f"{len(rows)} catalog entries\n")
    return 0


def _parse_axis_spec(text: str, names):
    """'s=0.6:1.4:5,t=-0.5:0.5:5,...' or positional 'lo:hi:n,...' as
    {axis index: (lo, hi, n or None)}; ContractViolation names a bad axis."""
    out = {}
    for i, part in enumerate(x.strip() for x in text.split(",") if x.strip()):
        name, _, spec = part.rpartition("=")
        name = name.strip() or (names[i] if i < len(names) else part)
        if name not in names:
            raise ContractViolation(f"unknown axis {name!r}; the axes are {', '.join(names)}")
        bits = spec.split(":")
        try:
            if len(bits) not in (2, 3):
                raise ValueError(spec)
            out[names.index(name)] = (float(bits[0]), float(bits[1]),
                                      int(bits[2]) if len(bits) == 3 else None)
        except ValueError:
            raise ContractViolation(
                f"axis {name!r}: expected lo:hi or lo:hi:n, got {spec!r}") from None
    return out


def _numbers(text: str, what: str, count: int | None = None) -> list:
    """The comma-separated numbers of an option, ``count`` of them when given."""
    want = f"{count} comma-separated numbers" if count else "comma-separated numbers"
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError:
        raise ContractViolation(f"{what} takes {want}, got {text!r}") from None
    if count and len(vals) != count:
        raise ContractViolation(f"{what} takes {want}, got {len(vals)}")
    return vals


def _tolerance(flag: str, value):
    """``value``, a tolerance given by ``flag``: a number >= 0 (0 keeps its meaning)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value >= 0:
        raise ContractViolation(f"{flag} takes a number >= 0, got {value!r}")
    return value


def _seed(flag: str, value) -> int:
    """The seed of ``--random-points``, given by ``flag``: an integer >= 0."""
    try:
        seed = int(value)
    except (TypeError, ValueError):
        seed = -1
    if seed < 0:
        raise ContractViolation(f"{flag} takes an integer >= 0, got {value!r}")
    return seed


def _request_from_args(args) -> VerifyRequest:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
    req = VerifyRequest(target=args.target or cfg.get("target", ""))
    for key in ("parameters", "profiles", "tolerances"):
        req.__setattr__(key, dict(cfg.get(key) or {}))
    for tname, val in req.tolerances.items():
        _tolerance(f"--tol-{tname.replace('_', '-')} (in --config)", val)
    req.domain = cfg.get("domain")
    req.grid = cfg.get("grid")
    req.random_points = cfg.get("random_points")
    req.seed = _seed("--seed (in --config)", cfg.get("seed", 0))
    req.checks = list(cfg.get("checks") or [])
    req.oracle = cfg.get("oracle", "jets")
    req.jobs = int(cfg.get("jobs", 0) or 0)

    for pname in ("a", "b", "R", "A"):
        val = getattr(args, pname, None)
        if val is not None:
            req.parameters[pname] = val
    if getattr(args, "n", None) is not None:
        req.parameters["n"] = args.n
    if getattr(args, "offsets", None):
        req.parameters["a"] = tuple(_numbers(args.offsets, "--offsets"))
    if getattr(args, "solve_psi", False):
        req.profiles["solve_psi"] = True
    for pname in ("psi", "phi", "phi1", "phi2", "theta"):
        val = getattr(args, pname, None)
        if val is not None:
            req.profiles[pname] = val
    if getattr(args, "psi", None) is not None and not getattr(args, "solve_psi", False):
        req.profiles.pop("solve_psi", None)  # an explicit profile wins
    if getattr(args, "c", None) is not None:
        req.profiles["c"] = args.c
    if getattr(args, "phi0", None) is not None:
        req.profiles["phi0"] = args.phi0
    if getattr(args, "psi0", None) is not None:
        req.profiles["psi0"] = args.psi0

    if getattr(args, "domain", None):
        req.domain_spec = args.domain
    if getattr(args, "grid", None):
        req.grid_spec = args.grid
    if getattr(args, "checks", None):
        req.checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for tname in TOLERANCE_FLAGS:
        val = getattr(args, f"tol_{tname}", None)
        if val is not None:
            req.tolerances[tname] = _tolerance(f"--tol-{tname.replace('_', '-')}", val)
    if getattr(args, "random_points", None) is not None:
        req.random_points = args.random_points
    if getattr(args, "seed", None) is not None:
        req.seed = _seed("--seed", args.seed)
    if getattr(args, "oracle", None):
        req.oracle = args.oracle
    jobs = getattr(args, "jobs", None)
    if jobs is None or jobs == 0:
        jobs = req.jobs or int(os.environ.get("BICONSERVE_JOBS", "1"))
    req.jobs = max(1, jobs)
    req.output = getattr(args, "output", None)
    req.fmt = getattr(args, "format", "json") or "json"
    req.per_point = bool(getattr(args, "per_point", False))
    return req


def cmd_verify(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    req = None
    try:
        req = _request_from_args(args)
        report, code = run_verify(req)
    except BiconserveError as exc:
        target = f" [{req.target}]" if req else ""
        out.write(f"error{target}: {exc}\n")
        return 2
    _print_summary(report, out)
    if req.output or args.emit_report:
        _write_report(report, req, out)
    return code


def cmd_classify(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        if args.tol is not None:
            _tolerance("--tol", args.tol)
        tol = args.tol if args.tol else CLUSTER_TOL
        if args.matrix:
            S = np.reshape(_numbers(args.matrix, "--matrix", 16), (4, 4))
            if args.metric:
                G = np.reshape(_numbers(args.metric, "--metric", 16), (4, 4))
            else:
                G = np.diag([-1.0, -1.0, 1.0, 1.0])
            spec = eigen_structure(S, G, tol)
        else:
            req = _request_from_args(args)
            chart, _ = _build_target(req)
            if args.at:
                point = _numbers(args.at, "--at", chart.nparams)
            else:
                point = list(chart.center())
            pk = packet(chart, point)
            spec = eigen_structure(pk.S, pk.G, tol)
            out.write(f"H = {pk.H!r}\n")
    except BiconserveError as exc:
        out.write(f"error: {exc}\n")
        return 2
    if spec.case_label == "unresolved":
        out.write("Case unresolved\n")
        return 1
    if spec.pattern and all(p in ("1", "2c") for p in spec.pattern.split("+")) \
            and not spec.complex_pairs:
        desc = f"{len(spec.real_eigenvalues)} distinct"
    else:
        desc = f"pattern {spec.pattern}"
    out.write(f"Case {spec.case_label}, {desc}\n")
    for v, alg, geo in sorted(spec.real_eigenvalues):
        out.write(f"  eigenvalue {float(v)!r} (algebraic {alg}, geometric {geo})\n")
    for re_, im_ in spec.complex_pairs:
        out.write(f"  complex pair {float(re_)!r} +/- {float(im_)!r} i\n")
    return 0


def cmd_sample(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        req = _request_from_args(args)
        chart, _ = _build_target(req)
        grid, pts = _resolve_points(req, chart)
        checks = ["biconservative", "beltrami", "gauss", "codazzi", "curvatures"] \
            if chart.codim == 1 else list(LOWDIM_CHECKS)
        table = sweep(chart, pts, checks, oracle=req.oracle, jobs=req.jobs)
    except BiconserveError as exc:
        out.write(f"error: {exc}\n")
        return 2
    names = list(_target_var_names(req))
    kcols = [f"k{i+1}" for i in range(chart.nparams)] if chart.codim == 1 else []
    all_cols = names + (["H"] if chart.codim == 1 else []) + kcols + \
        ["biconservative", "beltrami", "gauss", "codazzi"]
    cols = [c.strip() for c in args.columns.split(",")] if args.columns else all_cols
    unknown = [c for c in cols if c not in all_cols]
    if unknown:
        out.write(f"error: unknown columns {unknown}\n")
        return 2
    sink = open(req.output, "w", newline="") if req.output else out
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(cols)
    # one list per column, "" (None for H) where a point has no value
    data = dict(zip(names, table.points.T.tolist()))
    data["H"] = np.where(table.hyper, table.H, None).tolist()
    data.update(zip(kcols, np.where(table.has_curv[:, None], table.curvatures.astype(object),
                                    "").T.tolist()))
    data.update(zip(COLUMNS, np.where(table.has, table.values.astype(object), "").T.tolist()))
    for record in zip(*(data[c] for c in cols)):
        writer.writerow([repr(x) if isinstance(x, float) else x for x in record])
    if req.output:
        sink.close()
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="biconserve",
        description="numerical verification of curvature identities and the "
                    "shape-operator tangency condition for index-2 hypersurface charts",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog entries")
    p_list.add_argument("--family", help="filter by family prefix (thm1, intsurf, ...)")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(fn=cmd_list)

    def common(p):
        p.add_argument("target", nargs="?", default=None,
                       help="catalog key or inline ';'-separated expressions")
        p.add_argument("--config", help="JSON file mirroring the request; flags override")
        p.add_argument("--a", type=float)
        p.add_argument("--b", type=float)
        p.add_argument("--c", type=float)
        p.add_argument("--R", type=float)
        p.add_argument("--A", type=float)
        p.add_argument("--n", type=int)
        p.add_argument("--offsets", help="comma-separated offset constants (the parameter a)")
        p.add_argument("--solve-psi", action="store_true", dest="solve_psi")
        p.add_argument("--psi")
        p.add_argument("--phi")
        p.add_argument("--phi1")
        p.add_argument("--phi2")
        p.add_argument("--theta")
        p.add_argument("--phi0", type=float)
        p.add_argument("--psi0", type=float)
        p.add_argument("--domain", help="axis ranges, e.g. 's=0.5:2,t=-1:1'")
        p.add_argument("--grid", help="axis grids, e.g. 's=0.6:1.4:5,t=-0.5:0.5:5'")
        p.add_argument("--random-points", type=int, dest="random_points")
        p.add_argument("--seed", type=int)
        p.add_argument("--oracle", choices=("jets", "fd"))
        p.add_argument("--jobs", type=int, default=0,
                       help="worker processes (default: BICONSERVE_JOBS or 1)")
        p.add_argument("--output")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_ver = sub.add_parser("verify", help="run verification checks over a grid")
    common(p_ver)
    p_ver.add_argument("--checks",
                       help="comma list: biconservative,beltrami,gauss,codazzi,"
                            "unit_normal,principal_direction,structure")
    for tname in TOLERANCE_FLAGS:
        p_ver.add_argument(f"--tol-{tname.replace('_', '-')}", type=float,
                           dest=f"tol_{tname}")
    p_ver.add_argument("--per-point", action="store_true", dest="per_point")
    p_ver.add_argument("--emit-report", action="store_true", dest="emit_report",
                       help="print the JSON/CSV report to stdout as well")
    p_ver.set_defaults(fn=cmd_verify)

    p_cls = sub.add_parser("classify", help="classify the shape operator at a point")
    common(p_cls)
    p_cls.add_argument("--at", help="comma-separated parameter point")
    p_cls.add_argument("--matrix", help="16 comma-separated operator entries")
    p_cls.add_argument("--metric", help="16 comma-separated metric entries")
    p_cls.add_argument("--tol", type=float)
    p_cls.set_defaults(fn=cmd_classify)

    p_smp = sub.add_parser("sample", help="stream per-point data as CSV")
    common(p_smp)
    p_smp.add_argument("--columns", help="subset of output columns")
    p_smp.set_defaults(fn=cmd_sample)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BiconserveError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
