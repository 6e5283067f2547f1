"""Write the CLI outputs of a source tree, and diff two such runs.

    python3 tools/diff_reports.py write SRC OUT_DIR
    python3 tools/diff_reports.py diff OLD_DIR NEW_DIR

``write`` imports ``biconserve`` from the source tree SRC (a ``src``
directory) and runs ``verify NAME --emit-report`` for every case: the 41
catalog keys with their default profiles, the ex41 negative control
(``--psi s^2``), and ``--oracle fd`` on every catalog hypersurface and on
the control.  It also runs ``verify --per-point`` on the solved ex41 and on
the control, with either oracle, ``verify`` on rem42 with ``--psi s^2``
and on its solved profile with ``--n 5`` and its own ``c`` (with either
oracle, so that the oracle runs at n = 5 too) and on ``--n 6`` (the Gauss
row's index plans above n = 5) and on ``--n 5 --jobs 2`` (the process
pool's chunks and their blocks), ``verify`` on thm1.i with
a constant ``--theta`` (its profile's derivative is ``cos`` of a constant)
and on ex41 with ``--psi 2*s+1`` (a profile with constant operands),
ex41 with ``--psi "s^2 "`` (trailing whitespace in an expression), five
usage errors: thm1.v with a ``--theta`` it does not read, the
thm3.ii member with ``--theta "-0.546*s - 1.125"`` (a radius that changes
sign in the s-range), thm1.i with an explicit pair and a ``--theta``,
ex41 with both ``--solve-psi`` and ``--psi`` and thm1.i with a parameter
``--a`` it does not declare, an inline chart (a curved graph, so that its
Gauss row compares nonzero curvature), four more usage errors: a NaN parameter, a literal past the
float range, a NaN grid bound and an abbreviated flag (``--r`` for
``--random-points``), a ``--config`` domain of two axes for a 4-parameter
inline chart, four more past a bound: a ``--config`` parameter given
as a JSON integer past the float range (the config files are those that
``write`` puts in OUT_DIR/configs), a grid of more points than a request may
evaluate, a worker count past ``cli.MAX_JOBS`` (on 16 points, too few for a
pool at any count) and rem42 with ``--n`` past ``catalog.REM42_MAX_N``,
two ``--per-point`` cases that reach the sweep's failure rule: an inline
chart whose metric degenerates on the slice s = 0 (its block is bisected
down to the failing points) and an inline graph whose oracle alone fails
at s = 0.9995 (those points keep their identity rows, with no tangency
value and no label), three cases whose structure stage runs over several
blocks: intsurf.viii and intcurve.E on 1,500 random points (3 blocks each)
and thm3.viii on a 1,125-point grid (2 blocks) whose s = 0.7 slice fails
``structure``, the same grid with ``--jobs 2`` (the pool writes each
block's rows and structure notes back into the request's table),
``sample`` on one pair family, on ``rem42 --n 5`` and on thm3.viii at
1,500 random points with ``--jobs 2`` (3 pool blocks of a 4-parameter
chart), so that every row a sweep gives is compared, not only the
summaries, and ``classify`` at the
solved ex41's centre, at one thm3.viii point and at one thm1.v point, so
that the one-point ``eigen_structure`` path is compared too, with a
planted ``--matrix`` beside a target and ``--psi`` (a usage error), and on
the planted defective operators of cases II and IV (``--matrix`` and
``--metric``: a double root with one eigenvector, a triple root with one),
so that the rank test is compared on defective root items too, and three
usage errors of ``classify``: a NaN ``--matrix``, a singular ``--metric``
and a finite ``--matrix`` whose characteristic quartic overflows (entries
near 1e80), and ``classify --tol 0`` on a planted operator with two roots
1e-5 apart (a zero cluster tolerance is read as given).  Each case's argv,
exit code and printed output go to one JSON file in OUT_DIR, with what it
writes to stderr when it writes there: a usage error of the argument parser
(exit 2), or an exception the command line would print as a traceback
(exit 1).

``diff`` compares two such directories case by case: whether the printed
output is byte-identical, whether the exit code moved, and every report
field whose value differs, with its relative change |a - b| / max(|a|, |b|)
for numbers; a field only one report has, empty containers and nulls
included, reads ``<absent>`` on the other side.  A ``sample`` case prints
CSV, read as a report of its rows (``rows[k].<column>``, a number where the
cell parses as one), so a moved number is a value change and a moved word
or row count a moved verdict.  A ``classify`` case prints text, read as a
report of its lines: each line's words with its floats masked
(``lines[k]``) and the floats themselves (``values[k][j]``), so a moved
eigenvalue or H is a value change and a moved label, pattern, multiplicity
or any other word a moved verdict.  In a ``verify`` report the ``spectral``
fields are verdicts (labels and patterns with their counts) except
``curvature_min`` and ``curvature_max``, which are values.  A moved argmax point (two
grid points whose values tie within rounding) is listed and counted apart.  It prints the largest
relative and the largest absolute change per case kind, and the same two
split at a magnitude of SMALL = 1e-12: the largest relative change among
values above it, the largest absolute change among values at or below it
(a large relative change of a residual near 1e-16 is rounding).  It exits
1 when an exit code, status, count or label moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re
import sys

NEGATIVE_CONTROL = ("--psi", "s^2")
PLANTED = "-1.4,0,0,0,0,1.3,-0.9,0,0,0.9,1.3,0,0,0,0,2.1"
# the canonical models of cases II and IV, (operator, metric), row-major
PLANTED_DEFECTIVE = {
    "II": ("-1.4,0,0,0,0,1.3,1,0,0,0,1.3,0,0,0,0,2.1", "1,0,0,0,0,0,-1,0,0,-1,0,0,0,0,0,-1"),
    "IV": ("-1.4,0,0,0,0,1.4,0,0,0,0,1.4,-1,0,1,0,1.4", "-1,0,0,0,0,0,-1,0,0,-1,0,0,0,0,0,1"),
}
# finite entries whose characteristic quartic passes the float range
OVERFLOWING = "1e80,0,0,0,0,2e80,0,0,0,0,3e80,0,0,0,0,4e80"
# a diagonal operator with two roots 1e-5 apart: unresolved at the default
# cluster tolerance (the gap falls in its guard band), four distinct at --tol 0
NEAR_DOUBLE = "1,0,0,0,0,1.00001,0,0,0,0,3,0,0,0,0,4"
SMALL = 1e-12
GRID16 = "s=0.2:0.8:2,t=-0.5:0.5:2,u=-0.5:0.5:2,v=-0.5:0.5:2"  # thm1.i, 2 nodes per axis
# the --config files of the cases, by name: an argv names one as CONFIGS/<name>
CONFIGS = {"huge-int.json": {"parameters": {"a": 10**400}},
           "two-axis-domain.json": {"domain": [[-0.8, 0.8], [-0.8, 0.8]]}}
INLINE = "t; u; s; v; 0.5*s^2"  # a 4-parameter inline chart


def cases(catalog):
    """(name, argv) per case, argv being the command line after ``biconserve``."""
    out = [(key, [key]) for key in catalog.all_keys()]
    out.append(("ex41 psi=s^2", ["ex41", *NEGATIVE_CONTROL]))
    hyper = [key for key in catalog.all_keys() if catalog.CATALOG[key].kind == "hypersurface"]
    out += [(f"{key} fd", [key, "--oracle", "fd"]) for key in hyper]
    out.append(("ex41 psi=s^2 fd", ["ex41", *NEGATIVE_CONTROL, "--oracle", "fd"]))
    for oracle in ("jets", "fd"):
        out.append((f"ex41 per-point {oracle}",
                    ["ex41", "--solve-psi", "--per-point", "--oracle", oracle]))
        out.append((f"ex41 psi=s^2 per-point {oracle}",
                    ["ex41", *NEGATIVE_CONTROL, "--per-point", "--oracle", oracle]))
    out.append(("rem42 psi=s^2", ["rem42", *NEGATIVE_CONTROL]))
    rem42_n5 = ["rem42", "--n", "5", "--offsets", "1,2,3,4", "--c", "0.5"]
    out.append(("rem42 n=5 c=0.5", rem42_n5))
    out.append(("rem42 n=5 c=0.5 fd", [*rem42_n5, "--oracle", "fd"]))
    out.append(("rem42 n=6", ["rem42", "--n", "6", "--offsets", "1,2,3,4,5"]))
    out.append(("rem42 n=5 jobs=2", ["rem42", "--n", "5", "--offsets", "1,2,3,4", "--jobs", "2"]))
    out.append(("thm1.i theta=0.3", ["thm1.i", "--theta", "0.3"]))
    out.append(("ex41 psi=2s+1", ["ex41", "--psi", "2*s+1"]))
    out.append(("thm1.v theta=0.9s", ["thm1.v", "--theta", "0.9*s"]))
    out.append(("thm3.ii theta=-0.546s-1.125", ["thm3.ii", "--theta", "-0.546*s - 1.125"]))
    out.append(("thm1.i pair theta=0.9s", ["thm1.i", "--phi", "1.2+0.6*s", "--psi", "0.8*s",
                                           "--theta", "0.9*s"]))
    out.append(("ex41 solve-psi psi=s^2", ["ex41", "--solve-psi", *NEGATIVE_CONTROL]))
    out.append(("thm1.i a=5", ["thm1.i", "--a", "5"]))
    out.append(("ex41 psi=s^2 trailing-space", ["ex41", "--psi", "s^2 "]))
    out.append(("inline graph s^2+t^2", ["t; u; s; v; 0.5*s^2 + 0.5*t^2"]))
    out.append(("ex41 a=nan", ["ex41", "--a", "nan"]))
    out.append(("ex41 psi=1e999s", ["ex41", "--psi", "1e999*s"]))
    out.append(("thm1.i grid t=nan", ["thm1.i", "--grid", "t=nan:0.5:3"]))
    out.append(("intsurf.ii abbreviated r=2", ["intsurf.ii", "--r", "2"]))
    out.append(("ex41 config a=1e400", ["ex41", "--config", "CONFIGS/huge-int.json"]))
    out.append(("inline config 2-axis domain",
                [INLINE, "--config", "CONFIGS/two-axis-domain.json"]))
    out.append(("ex41 grid s=1e20 nodes", ["ex41", "--grid", "s=0.6:1.4:100000000000000000000"]))
    out.append(("thm1.i jobs=65", ["thm1.i", "--grid", GRID16, "--jobs", "65"]))
    out.append(("rem42 n=11", ["rem42", "--n", "11", "--random-points", "2"]))
    out.append(("inline s^3 per-point", ["s^3; t; u; v; 0", "--domain", "s=-0.5:0.5",
                                         "--per-point"]))
    out.append(("inline graph fd oracle-only error per-point",
                ["s; t; u; v; 0.5*s^2", "--domain", "s=0.5:1.5", "--grid",
                 "s=0.9:0.9995:2,t=0.2:0.3:2,u=0.3:0.3:2,v=0.4:0.4:2", "--oracle", "fd",
                 "--per-point"]))
    out.append(("intsurf.viii 1500 random", ["intsurf.viii", "--random-points", "1500",
                                             "--seed", "3"]))
    out.append(("intcurve.E 1500 random", ["intcurve.E", "--random-points", "1500", "--seed", "3"]))
    out.append(("thm3.viii grid t=9", ["thm3.viii", "--grid", "t=-0.704:0.704:9"]))
    out.append(("thm3.viii grid t=9 jobs=2", ["thm3.viii", "--grid", "t=-0.704:0.704:9",
                                              "--jobs", "2"]))
    out = [(name, ["verify", *argv, "--emit-report"]) for name, argv in out]
    out.append(("sample thm1.ii", ["sample", "thm1.ii"]))
    out.append(("sample rem42 n=5", ["sample", "rem42", "--n", "5", "--offsets", "1,2,3,4"]))
    out.append(("sample thm3.viii 1500 random jobs=2", ["sample", "thm3.viii", "--random-points",
                                                        "1500", "--seed", "3", "--jobs", "2"]))
    out.append(("classify ex41 solved", ["classify", "ex41", "--solve-psi"]))
    out.append(("classify thm3.viii", ["classify", "thm3.viii", "--at", "0.7,0,0,0"]))
    out.append(("classify thm1.v", ["classify", "thm1.v", "--at", "1,0,0,0"]))
    out.append(("classify matrix with a chart", ["classify", "x", f"--matrix={PLANTED}",
                                                 *NEGATIVE_CONTROL]))
    for case, (matrix, metric) in PLANTED_DEFECTIVE.items():
        out.append((f"classify planted {case}",
                    ["classify", f"--matrix={matrix}", f"--metric={metric}"]))
    out.append(("classify nan matrix", ["classify", "--matrix=nan" + PLANTED[4:]]))
    out.append(("classify singular metric", ["classify", f"--matrix={PLANTED}",
                                             "--metric=0,0,0,0,0,-1,0,0,0,0,1,0,0,0,0,1"]))
    out.append(("classify overflowing matrix", ["classify", f"--matrix={OVERFLOWING}"]))
    out.append(("classify matrix tol=0", ["classify", f"--matrix={NEAR_DOUBLE}", "--tol", "0"]))
    return out


def write(src: str, out_dir: str):
    sys.path.insert(0, str(pathlib.Path(src).resolve()))
    from biconserve import catalog, cli

    out = pathlib.Path(out_dir)
    (out / "configs").mkdir(parents=True, exist_ok=True)
    for name, cfg in CONFIGS.items():
        (out / "configs" / name).write_text(json.dumps(cfg))
    for name, argv in cases(catalog):
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                code = cli.main([a.replace("CONFIGS/", f"{out / 'configs'}/") for a in argv])
            except SystemExit as exc:  # a usage error of the argument parser
                code = exc.code
            except Exception as exc:  # a traceback on the command line, exit 1
                code = 1
                err.write(f"{type(exc).__name__}: {exc}\n")
        record = {"argv": argv, "exit_code": code, "stdout": buf.getvalue()}
        if err.getvalue():
            record["stderr"] = err.getvalue()
        (out / (name.replace(" ", "_").replace("=", "-").replace("^", "") + ".json")) \
            .write_text(json.dumps(record, indent=1) + "\n")
        print(f"{name}: exit {code}")


def _report(stdout: str) -> dict:
    """The JSON report that follows the summary lines, or {} if none."""
    start = stdout.find("\n{")
    return json.loads(stdout[start + 1:]) if start >= 0 else {}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv(stdout: str) -> dict:
    """A ``sample`` CSV as a report: its rows, each a dict by column."""
    header, *lines = stdout.splitlines() or [""]
    return {"rows": [dict(zip(header.split(","), map(_cell, line.split(","))))
                     for line in lines]}


# a float as repr writes it, with a point or an exponent: an integer (a
# multiplicity, a count of roots) stays a word of its line
_FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d+(?:e[-+]?\d+)?|\d+e[-+]?\d+)(?![\w.])")


def _text(stdout: str) -> dict:
    """A ``classify`` output as a report: each line with its floats masked
    as ``#``, and the floats of each line."""
    lines = stdout.splitlines()
    return {"lines": [_FLOAT.sub("#", line) for line in lines],
            "values": [[float(x) for x in _FLOAT.findall(line)] for line in lines]}


def _flatten(value, prefix=""):
    """(path, leaf) per leaf; an empty dict or list is a leaf of its own."""
    if isinstance(value, dict) and value:
        for k in sorted(value):
            yield from _flatten(value[k], f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(value, list) and value:
        for k, v in enumerate(value):
            yield from _flatten(v, f"{prefix}[{k}]")
    else:
        yield prefix, value


class _Absent:
    """The value of a field one report does not have (not ``None``)."""

    def __repr__(self):
        return "<absent>"


ABSENT = _Absent()


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def field_moves(old: dict, new: dict):
    """(field, old, new, relative change or None) for every field that
    differs, one that only one report has included (as ``ABSENT`` on the
    other side)."""
    a, b = dict(_flatten(old)), dict(_flatten(new))
    for key in sorted(set(a) | set(b)):
        x, y = a.get(key, ABSENT), b.get(key, ABSENT)
        if x == y:
            continue
        rel = None
        if _number(x) and _number(y):
            rel = abs(x - y) / max(abs(x), abs(y))
        yield key, x, y, rel


def _verdict_field(key: str) -> bool:
    last = key.rsplit(".", 1)[-1]
    return last in ("status", "count", "passed", "exit_code") or (
        key.startswith("spectral") and last not in ("curvature_min", "curvature_max"))


def _argmax_field(key: str) -> bool:
    """The grid point of a check's maximum: it moves when two points tie
    within rounding, so its moves are counted, not bounded."""
    return ".argmax_point" in key


def diff(old_dir: str, new_dir: str) -> int:
    old_dir, new_dir = pathlib.Path(old_dir), pathlib.Path(new_dir)
    names = sorted({p.name for p in old_dir.glob("*.json")} | {p.name for p in new_dir.glob("*.json")})
    identical, moved_verdicts, moved_argmax = 0, 0, 0
    worst, worst_abs, worst_large, worst_small = {}, {}, {}, {}
    for name in names:
        if not (old_dir / name).exists() or not (new_dir / name).exists():
            print(f"{name}: only in one run")
            moved_verdicts += 1
            continue
        old = json.loads((old_dir / name).read_text())
        new = json.loads((new_dir / name).read_text())
        if old == new:
            identical += 1
            continue
        print(f"{name}: output differs")
        if old["exit_code"] != new["exit_code"]:
            print(f"  exit code {old['exit_code']} -> {new['exit_code']}")
            moved_verdicts += 1
        kind = "fd" if "fd" in new["argv"] else "jets"
        read = {"sample": _csv, "classify": _text}.get(new["argv"][0], _report)
        for key, x, y, rel in field_moves(read(old["stdout"]), read(new["stdout"])):
            if _argmax_field(key):
                print(f"  {key}: {x!r} -> {y!r}  (argmax moved)")
                moved_argmax += 1
                continue
            change = "" if rel is None else f"  rel {rel:.2e}"
            print(f"  {key}: {x!r} -> {y!r}{change}")
            if rel is None or _verdict_field(key):
                moved_verdicts += 1
            else:
                worst[kind] = max(worst.get(kind, 0.0), rel)
                worst_abs[kind] = max(worst_abs.get(kind, 0.0), abs(x - y))
                if max(abs(x), abs(y)) > SMALL:
                    worst_large[kind] = max(worst_large.get(kind, 0.0), rel)
                else:
                    worst_small[kind] = max(worst_small.get(kind, 0.0), abs(x - y))
    print(f"{identical} of {len(names)} cases byte-identical; "
          f"{moved_verdicts} exit codes, statuses, counts or labels moved; "
          f"{moved_argmax} argmax coordinates moved")
    for kind, rel in sorted(worst.items()):
        print(f"largest relative change of a value ({kind} route): {rel:.2e}")
        print(f"largest absolute change of a value ({kind} route): {worst_abs[kind]:.2e}")
        print(f"largest relative change of a value above {SMALL:g} ({kind} route): "
              f"{worst_large.get(kind, 0.0):.2e}")
        print(f"largest absolute change of a value at or below {SMALL:g} ({kind} route): "
              f"{worst_small.get(kind, 0.0):.2e}")
    return 1 if moved_verdicts else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3 or argv[0] not in ("write", "diff"):
        print(__doc__)
        return 2
    if argv[0] == "write":
        write(argv[1], argv[2])
        return 0
    return diff(argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main())
