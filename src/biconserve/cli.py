"""Command-line front end: list, verify, classify, sample.

Exit codes: 0 when every asserted check passes its tolerance, 1 when any
asserted check fails, 2 on a lower-level error (bad domain, violated side
condition, degenerate metric, unparsable input).

Inline charts: pass five semicolon-separated expressions in s, t, u, v as
the target, e.g. ``biconserve verify "t; u; s; v; 0"``.  The expression
grammar (``expr``) is infix with ^ or ** for powers (exponents are numeric
literals), sin, cos, sinh, cosh, exp, sqrt and named profile calls such as
``phi(s)`` resolved against the profile options below; whitespace is free.

Each input has one reader.  The chart flags are declared once, in
PARAMETER_FLAGS and PROFILE_FLAGS; each subcommand parses only the flags it
reads (``classify`` reads a chart or ``--matrix``, not both).  A ``--config``
file gives the fields of the flags the subcommand parses (of CONFIG_KEYS, a
report's config block), each checked and converted as its flag's value is.
The chart build takes the parameters and profiles it reads and refuses the
rest (exit 2, one line naming it):
``catalog.entry_for`` and ``catalog._profile_bank`` for a catalog key, and
``_resolve`` for an inline chart, which reads the profiles it may call
and, below four parameters, the parameter ``index``.

Each request is resolved once, by ``_resolve``; ``verify``, ``sample`` and
``classify`` read the names, domain and grid from its result, and the
request is an input only, never rewritten.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .catalog import (CatalogEntry, FamilySpec, build, entry_for, list_entries, refuse_unread,
                      var_names)
from .errors import BiconserveError, ContractViolation
from .expr import parse as parse_expr, var_names_for
from .immersion import ImmersionChart, packet
from .profiles import ExprProfile
from .ambient import Signature
from .spectral import eigen_structure
from .sweep import (COLUMNS, HYPERSURFACE_CHECKS, LOWDIM_CHECKS, TANGENCY, CheckSummary,
                    grid_points, interior_grid, random_points, structure_verdict, summarize, sweep)
from .thresholds import CLUSTER_TOL, DEFAULT_TOLERANCES, FD_TANGENCY_TOL, GRID_SLACK, TAU_DEG

SCHEMA = 1
# the chart flags, each once: flag -> (request key, type, help); a parameter
# flag given as text is a list of comma-separated numbers
PARAMETER_FLAGS = {
    "a": ("a", float, None), "b": ("b", float, None), "R": ("R", float, None),
    "A": ("A", float, None), "n": ("n", int, "rem42's number of parameters"),
    "offsets": ("a", str, "comma-separated offset constants (the parameter a)"),
}
PROFILE_FLAGS = {
    "solve-psi": ("solve_psi", bool, "solve the torsion equation for psi"),
    "c": ("c", float, "the solved psi's constant"),
    "psi": ("psi", str, None), "phi": ("phi", str, None), "phi1": ("phi1", str, None),
    "phi2": ("phi2", str, None),
    "theta": ("theta", str, "angle function of the constructed pair"),
    "phi0": ("phi0", float, None), "psi0": ("psi0", float, None),
}
# the request fields a --config file may give (those a report's config block
# holds), each with the JSON shape of its value (see _typed)
CONFIG_KEYS = {"target": str, "parameters": dict, "profiles": dict, "domain": [(float, float)],
               "grid": [(float, float, int)], "random_points": int, "seed": int, "checks": [str],
               "tolerances": dict, "oracle": str, "jobs": int}
# the JSON types of a --config value of a flag's type, and their name
JSON_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string"),
              bool: (bool, "true or false"), dict: (dict, "an object")}
ORACLES = ("jets", "fd")
# the most points one request may evaluate: it holds one sweep table, with no
# second copy (each block writes its rows into it) and no spectrum per point,
# about 155 bytes per point at n = 4 (1.5 GB at 10^7); a sweep runs 1e4 to 3e4
# points/s per core (rem42 at n = 7 to the headline chart), so 10^7 points
# take 5 to 20 minutes; a larger count is refused before any point is made
MAX_POINTS = 10**7
# the most worker processes one request may start: each is an interpreter
# with numpy and this package, about 33 MB resident before its first point
# (2 GB for 64), and a pool wider than the host's cores gains nothing; a
# larger count is refused before any process starts
MAX_JOBS = 64
# the profiles an inline chart's expressions may call, each given by its flag
INLINE_PROFILES = ("phi", "psi", "phi1", "phi2")
# the checks with a --tol-<name> option of their own
TOLERANCE_FLAGS = tuple(DEFAULT_TOLERANCES)


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


def _check_axes(what: str, ranges, names, strict: bool):
    """ContractViolation naming the first axis of ``ranges`` ([lo, hi, ...]
    per axis of ``names``) with a bound that is not finite, or with lo > hi
    (lo >= hi when ``strict``)."""
    for name, (lo, hi, *_) in zip(names, ranges):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ContractViolation(f"{what} axis {name!r} takes finite bounds, "
                                    f"got {lo!r}:{hi!r}")
        if lo > hi or (strict and lo == hi):
            raise ContractViolation(f"{what} axis {name!r} needs lo {'<' if strict else '<='} "
                                    f"hi, got {lo!r}:{hi!r}")


@dataclass(frozen=True)
class Target:
    """A request's target resolved: its chart, its catalog entry (None for an
    inline chart) and parameter names, and the request's domain and grid
    with their axis specs read (each None where the request gives none)."""
    chart: ImmersionChart
    entry: CatalogEntry | None
    names: tuple
    domain: list | None     # numeric per-axis [lo, hi]
    grid: list | None       # numeric per-axis [lo, hi, n]


def _resolve(req: VerifyRequest) -> Target:
    """The request's target, resolved once and in this order: the catalog
    entry (its parameters checked) or the inline expressions, and the
    parameter names; the --domain spec read against them over the given
    domain, else the entry's or the inline default, and the domain's axes
    checked; the chart; the --grid spec, whose left-out axes get the
    interior grid of a catalog chart's domain, or 5 nodes spanning an
    explicit or inline domain.  An inline chart reads the profiles it may
    call and, below four parameters, the parameter ``index``."""
    inline, (family, _, case) = ";" in req.target, req.target.partition(".")
    exprs = [e.strip() for e in req.target.split(";") if e.strip()]
    if inline:
        entry, names = None, var_names_for(max(len(exprs) - 1, 1))
    else:
        entry = entry_for(FamilySpec(family, case, dict(req.parameters)))
        names = var_names(entry.kind, len(entry.domain))
    domain, default = req.domain, [[-0.8, 0.8]] * len(names) if inline else entry.domain
    # a catalog chart's domain without a --domain spec is checked by ``build``
    if domain and (inline or req.domain_spec) and len(domain) != len(names):
        raise ContractViolation(f"domain has {len(domain)} axes, chart has {len(names)}")
    if req.domain_spec:
        domain = [list(d) for d in (domain or default)]
        for idx, (lo, hi, _) in _parse_axis_spec(req.domain_spec, names).items():
            domain[idx] = [lo, hi]
    if domain:
        _check_axes("domain", domain, names, strict=True)
    if inline:
        params, profiles = dict(req.parameters), dict(req.profiles)
        index = 2 if len(names) == 4 else _typed("parameters.index", int, params.pop("index", 2))
        texts = {p: str(profiles.pop(p)) for p in INLINE_PROFILES if p in profiles}
        refuse_unread(params, profiles, "an inline chart")
        bank = {p: ExprProfile(parse_expr(e, ("s",))) for p, e in texts.items()}
        comps = tuple(parse_expr(e, names) for e in exprs)
        chart = ImmersionChart(comps, tuple(tuple(d) for d in domain or default), bank,
                               Signature(len(comps), 2), expected_index=index, name="inline")
    else:
        chart = build(FamilySpec(family, case, dict(req.parameters), dict(req.profiles),
                                 tuple(tuple(d) for d in domain) if domain else None))
    grid = req.grid
    if req.grid_spec:
        if entry and not domain:
            grid = interior_grid(chart.domain)
        else:
            grid = [[lo, hi, 5] for lo, hi in (domain or chart.domain)]
        for idx, (lo, hi, n) in _parse_axis_spec(req.grid_spec, names).items():
            grid[idx] = [lo, hi, n if n else 5]
    return Target(chart, entry, names, domain, grid)


def _resolve_points(req: VerifyRequest, target: Target):
    chart = target.chart
    grid = target.grid or interior_grid(chart.domain)
    if len(grid) != chart.nparams:
        raise BiconserveError(
            f"grid has {len(grid)} axes, chart has {chart.nparams} parameters")
    _check_axes("grid", grid, target.names, strict=False)
    for (lo, hi, n), (dlo, dhi) in zip(grid, chart.domain):
        if n < 2:
            raise BiconserveError("grid needs at least 2 nodes per axis")
        if lo < dlo - GRID_SLACK or hi > dhi + GRID_SLACK:
            raise BiconserveError(
                f"grid range [{lo:g}, {hi:g}] outside chart domain [{dlo:g}, {dhi:g}]")
    drawn = req.random_points is not None
    if drawn and req.random_points < 1:
        raise ContractViolation(f"random points must be a count >= 1, got {req.random_points}")
    count = req.random_points if drawn else math.prod(n for _, _, n in grid)
    if count > MAX_POINTS:
        what = "random points" if drawn else "the grid's nodes"
        raise ContractViolation(f"{what} number {count}, more than the {MAX_POINTS} points "
                                f"one request may evaluate")
    if drawn:
        pts = random_points([(lo, hi) for lo, hi, _ in grid], req.random_points, req.seed)
    else:
        pts = grid_points([(lo, hi) for lo, hi, _ in grid], [n for _, _, n in grid])
    return grid, pts


def _assertion_set(entry, explicit_checks):
    asserted = {"beltrami", "gauss", "codazzi", "unit_normal"}
    if entry and entry.offsets:  # a solved torsion profile: the tangency certificate
        asserted |= set(TANGENCY)
    if entry:
        asserted.add("structure")
    asserted |= set(explicit_checks or [])
    return asserted


def run_verify(req: VerifyRequest):
    """Execute a verification request; returns (report_dict, exit_code)."""
    target = _resolve(req)
    chart, entry = target.chart, target.entry
    grid, pts = _resolve_points(req, target)
    answered = HYPERSURFACE_CHECKS if chart.codim == 1 else LOWDIM_CHECKS
    unknown = [c for c in req.checks if c not in answered]
    if unknown:
        raise ContractViolation(f"unknown check {unknown[0]!r}; this chart answers "
                                f"{', '.join(answered)}")
    checks = list(req.checks or answered)
    tol = dict(DEFAULT_TOLERANCES)
    if req.oracle == "fd":
        tol["biconservative"] = FD_TANGENCY_TOL
    tol.update(req.tolerances)
    tol["principal_direction"] = tol["biconservative"]  # one tangency row, one tolerance
    asserted = _assertion_set(entry, req.checks)

    table = sweep(chart, pts, checks, oracle=req.oracle, jobs=req.jobs)
    summaries = summarize(table, checks, tol, asserted)

    spectral = {}
    if "structure" in checks:
        ok, spectral, _ = structure_verdict(table)
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
        "config": {**{key: getattr(req, key) for key in CONFIG_KEYS}, "domain": target.domain,
                   "grid": grid},
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


def _output(req: VerifyRequest):
    """The ``--output`` file, opened before the sweep: an unwritable path is a usage error."""
    if not req.output:
        return contextlib.nullcontext()
    try:
        return open(req.output, "w", newline="")
    except OSError as exc:
        raise ContractViolation(f"--output {req.output}: {exc.strerror}") from None


def _write_report(report: dict, req: VerifyRequest, stream):
    if req.fmt == "json":
        stream.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    # csv: one row per check
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["check", "max", "mean", "count", "tolerance", "status"])
    for c in report["checks"]:
        writer.writerow([c["name"], repr(c["max"]), repr(c["mean"]), c["count"],
                         "" if c["tolerance"] is None else repr(c["tolerance"]),
                         c["status"]])


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


def _metric(text: str) -> np.ndarray:
    """The 4x4 matrix of ``--metric``: finite, symmetric, nondegenerate (as
    an induced metric is, see ``thresholds.TAU_DEG``) and of index 2."""
    G = np.reshape(_numbers(text, "--metric", 16), (4, 4))
    if not (np.isfinite(G).all() and np.array_equal(G, G.T)):
        raise ContractViolation("--metric takes a finite symmetric matrix")
    eig = np.linalg.eigvalsh(G)
    if np.min(np.abs(eig)) <= TAU_DEG * (1.0 + np.max(np.abs(G))):
        raise ContractViolation("--metric is degenerate")
    if (index := int(np.sum(eig < 0))) != 2:
        raise ContractViolation(f"--metric has index {index}, expected 2")
    return G


def _tolerance(flag: str, value):
    """``value``, a tolerance given by ``flag``: a number >= 0 (0 keeps its meaning)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value >= 0:
        raise ContractViolation(f"{flag} takes a number >= 0, got {value!r}")
    if isinstance(value, int) and value > sys.float_info.max:  # past the float range
        raise ContractViolation(f"{flag} takes a number in the float range, got an integer "
                                f"of {len(str(value))} digits")
    return value


def _jobs(source: str, value) -> int:
    """``value``, a worker count given by ``source`` (text from the
    environment): an integer from 0, which gives none, to MAX_JOBS."""
    try:
        count = int(value) if isinstance(value, str) else value
    except ValueError:
        count = None
    if isinstance(count, bool) or not isinstance(count, int) or not 0 <= count <= MAX_JOBS:
        raise ContractViolation(f"{source} takes an integer from 0 to {MAX_JOBS}, got {value!r}")
    return count


def _seed(flag: str, value) -> int:
    """The seed of ``--random-points``, given by ``flag``: an integer >= 0."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ContractViolation(f"{flag} takes an integer >= 0, got {value!r}")
    return value


def _typed(key: str, shape, value):
    """``value`` of --config ``key``, converted as its flag's value is:
    ``shape`` is the flag's type (a number is never true or false), [shape]
    a list of such values, (shape, ...) a list of one each."""
    if isinstance(shape, type):
        types, what = JSON_TYPES[shape]
        if isinstance(value, types) and isinstance(value, bool) is (shape is bool):
            try:
                return shape(value)
            except OverflowError:  # a JSON integer past the float range
                raise ContractViolation(f"--config key {key!r} takes a number in the float "
                                        f"range, got an integer of {len(str(value))} "
                                        f"digits") from None
    else:
        listed = isinstance(value, list)
        shapes = shape * len(value) if isinstance(shape, list) and listed else shape
        what = "a list" if isinstance(shape, list) else f"a list of {len(shape)}"
        if listed and len(value) == len(shapes):
            return [_typed(key, s, v) for s, v in zip(shapes, value)]
    raise ContractViolation(f"--config key {key!r} takes {what}, got {value!r}")


def _read_config(args) -> dict:
    """The request fields of the --config file, each checked and converted as
    its flag's value is (a null is an absent field).  A subcommand reads the
    keys whose flags it parses and refuses the others."""
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ContractViolation(f"--config {args.config}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ContractViolation(f"--config {args.config} holds no JSON object")
    dest = {"parameters": "a", "profiles": "psi", "tolerances": f"tol_{TOLERANCE_FLAGS[0]}"}
    reads = [key for key in CONFIG_KEYS if hasattr(args, dest.get(key, key))]
    for key in cfg:
        if key not in reads:
            raise ContractViolation(f"--config key {key!r} is not read by {args.command}; "
                                    f"it reads {', '.join(reads)}")
    cfg = {key: val for key, val in cfg.items() if val is not None}
    if "seed" in cfg:
        _seed("--seed (in --config)", cfg["seed"])
    cfg = {key: _typed(key, CONFIG_KEYS[key], val) for key, val in cfg.items()}
    if cfg.get("oracle", ORACLES[0]) not in ORACLES:
        raise ContractViolation(f"--config key 'oracle' takes one of {', '.join(ORACLES)}, "
                                f"got {cfg['oracle']!r}")
    for name, val in cfg.get("tolerances", {}).items():
        if name not in TOLERANCE_FLAGS:
            raise ContractViolation(f"--config key 'tolerances.{name}' is not read; the "
                                    f"tolerances are {', '.join(TOLERANCE_FLAGS)}")
        _tolerance(f"--tol-{name.replace('_', '-')} (in --config)", val)
    # a parameter or profile as its key's flag gives it: a list of parameters
    # as the numbers of a parameter flag's text
    kinds = {**{key: kind for key, kind, _ in PARAMETER_FLAGS.values() if kind is not str},
             **{key: kind for key, kind, _ in PROFILE_FLAGS.values()}}
    for group in ("parameters", "profiles"):
        for key, val in cfg.get(group, {}).items():
            shape = [float] if group == "parameters" and isinstance(val, list) else kinds.get(key)
            if shape:  # a key no flag gives is left to the chart build
                cfg[group][key] = _typed(f"{group}.{key}", shape, val)
    return cfg


def _request_from_args(args) -> VerifyRequest:
    cfg = _read_config(args) if args.config else {}
    req = VerifyRequest(**{"jobs": 0, **cfg, "target": args.target or cfg.get("target", "")})

    if args.psi is not None and not args.solve_psi and "solve_psi" in req.profiles:
        for key in ("solve_psi", "c"):  # an explicit profile drops the file's solve
            req.profiles.pop(key, None)
    for flag, (key, kind, _) in PARAMETER_FLAGS.items():
        val = getattr(args, flag.replace("-", "_"))
        if val is not None:
            req.parameters[key] = tuple(_numbers(val, f"--{flag}")) if kind is str else val
    for flag, (key, _, _) in PROFILE_FLAGS.items():
        val = getattr(args, flag.replace("-", "_"))
        if val is not None:
            req.profiles[key] = val

    if args.domain:
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
    if hasattr(args, "jobs"):  # the first source that gives a count, else 1
        req.jobs = max(1, _jobs("--jobs", args.jobs) or _jobs("--config key 'jobs'", req.jobs)
                       or _jobs("BICONSERVE_JOBS", os.environ.get("BICONSERVE_JOBS", "0")))
    req.output = getattr(args, "output", None)
    req.fmt = getattr(args, "format", "json")
    req.per_point = bool(getattr(args, "per_point", False))
    if req.per_point and req.fmt == "csv":  # a CSV report has one row per check
        raise ContractViolation("--per-point is read only with --format json")
    return req


def cmd_verify(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    req = None
    try:
        req = _request_from_args(args)
        with _output(req) as sink:
            report, code = run_verify(req)
            _print_summary(report, out)
            if sink:
                _write_report(report, req, sink)
            if args.emit_report:
                _write_report(report, req, out)
    except BiconserveError as exc:
        target = f" [{req.target}]" if req else ""
        out.write(f"error{target}: {exc}\n")
        return 2
    return code


def cmd_classify(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        if args.tol is not None:
            _tolerance("--tol", args.tol)
        tol = CLUSTER_TOL if args.tol is None else args.tol
        if args.matrix is not None:
            given = [k for k, v in vars(args).items()
                     if v is not None and k not in ("command", "fn", "matrix", "metric", "tol")]
            if given:
                name = "a target" if given[0] == "target" else "--" + given[0].replace("_", "-")
                raise ContractViolation(f"{name} is not read with --matrix")
            S = np.reshape(_numbers(args.matrix, "--matrix", 16), (4, 4))
            G = np.diag([-1.0, -1.0, 1.0, 1.0]) if args.metric is None else _metric(args.metric)
            spec = eigen_structure(S, G, tol)
        else:
            if args.metric is not None:
                raise ContractViolation("--metric is read only with --matrix")
            target = _resolve(_request_from_args(args))
            chart = target.chart
            if args.at:
                point = _numbers(args.at, "--at", chart.nparams)
                for name, x in zip(target.names, point):
                    if not math.isfinite(x):
                        raise ContractViolation(f"--at axis {name!r} takes a finite number, "
                                                f"got {x!r}")
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
        target = _resolve(req)
        chart = target.chart
        _, pts = _resolve_points(req, target)
        names = list(target.names)
        kcols = [f"k{i+1}" for i in range(chart.nparams)] if chart.codim == 1 else []
        all_cols = names + (["H"] if chart.codim == 1 else []) + kcols + \
            ["biconservative", "beltrami", "gauss", "codazzi"]
        cols = [c.strip() for c in args.columns.split(",")] if args.columns else all_cols
        unknown = [c for c in cols if c not in all_cols]
        if unknown:
            raise ContractViolation(f"unknown columns {unknown}")
        checks = ["biconservative", "beltrami", "gauss", "codazzi", "curvatures"] \
            if chart.codim == 1 else list(LOWDIM_CHECKS)
        with _output(req) as sink:
            table = sweep(chart, pts, checks, oracle=req.oracle, jobs=req.jobs)
            writer = csv.writer(sink or out, lineterminator="\n")
            writer.writerow(cols)
            # one list per column, "" (None for H) where a point has no value
            data = dict(zip(names, table.points.T.tolist()))
            data["H"] = np.where(table.hyper, table.H, None).tolist()
            data.update(zip(kcols, np.where(table.has_curv[:, None],
                                            table.curvatures.astype(object), "").T.tolist()))
            data.update(zip(COLUMNS, np.where(table.has, table.values.astype(object),
                                              "").T.tolist()))
            for record in zip(*(data[c] for c in cols)):
                writer.writerow([repr(x) if isinstance(x, float) else x for x in record])
    except BiconserveError as exc:
        out.write(f"error: {exc}\n")
        return 2
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="biconserve",
        description="numerical verification of curvature identities and the "
                    "shape-operator tangency condition for index-2 hypersurface charts",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog entries", allow_abbrev=False)
    p_list.add_argument("--family", help="filter by family prefix (thm1, intsurf, ...)")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(fn=cmd_list)

    def chart(p):
        p.add_argument("target", nargs="?", default=None,
                       help="catalog key or inline ';'-separated expressions")
        p.add_argument("--config", help="JSON file mirroring the request; flags override")
        for flag, (_, kind, text) in {**PARAMETER_FLAGS, **PROFILE_FLAGS}.items():
            if kind is bool:
                p.add_argument(f"--{flag}", action="store_true", default=None, help=text)
            else:
                p.add_argument(f"--{flag}", type=kind, help=text)
        p.add_argument("--domain", help="axis ranges, e.g. 's=0.5:2,t=-1:1'")

    def points(p):
        p.add_argument("--grid", help="axis grids, e.g. 's=0.6:1.4:5,t=-0.5:0.5:5'")
        p.add_argument("--random-points", type=int, dest="random_points")
        p.add_argument("--seed", type=int)
        p.add_argument("--oracle", choices=ORACLES)
        p.add_argument("--jobs", type=int, default=0,
                       help="worker processes (default: BICONSERVE_JOBS or 1)")
        p.add_argument("--output")

    p_ver = sub.add_parser("verify", help="run verification checks over a grid",
                           allow_abbrev=False)
    chart(p_ver)
    points(p_ver)
    p_ver.add_argument("--format", choices=("json", "csv"), default="json")
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

    p_cls = sub.add_parser("classify", help="classify the shape operator at a point",
                           allow_abbrev=False)
    chart(p_cls)
    p_cls.add_argument("--at", help="comma-separated parameter point")
    p_cls.add_argument("--matrix", help="16 comma-separated operator entries")
    p_cls.add_argument("--metric", help="16 comma-separated metric entries")
    p_cls.add_argument("--tol", type=float)
    p_cls.set_defaults(fn=cmd_classify)

    p_smp = sub.add_parser("sample", help="stream per-point data as CSV", allow_abbrev=False)
    chart(p_smp)
    points(p_smp)
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
