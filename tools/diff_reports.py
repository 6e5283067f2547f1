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
``--a`` it does not declare,
``sample`` on one pair family and on ``rem42 --n 5``, so that every row a
sweep gives is compared, not only the summaries, and ``classify`` at the
solved ex41's centre, at one thm3.viii point and at one thm1.v point, so
that the one-point ``eigen_structure`` path is compared too, with a
planted ``--matrix`` beside a target and ``--psi`` (a usage error), and on
the planted defective operators of cases II and IV (``--matrix`` and
``--metric``: a double root with one eigenvector, a triple root with one),
so that the rank test is compared on defective root items too.  Each
case's argv, exit code and printed output go to one JSON file in OUT_DIR.

``diff`` compares two such directories case by case: whether the printed
output is byte-identical, whether the exit code moved, and every report
field whose value differs, with its relative change |a - b| / max(|a|, |b|)
for numbers; a field only one report has, empty containers and nulls
included, reads ``<absent>`` on the other side.  A ``sample`` case prints
CSV, read as a report of its rows (``rows[k].<column>``, a number where the
cell parses as one), so a moved number is a value change and a moved word
or row count a moved verdict.  A ``classify`` case prints text: its first
differing line is printed and counts as a moved verdict.  A moved argmax point (two
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
import sys

NEGATIVE_CONTROL = ("--psi", "s^2")
PLANTED = "-1.4,0,0,0,0,1.3,-0.9,0,0,0.9,1.3,0,0,0,0,2.1"
# the canonical models of cases II and IV, (operator, metric), row-major
PLANTED_DEFECTIVE = {
    "II": ("-1.4,0,0,0,0,1.3,1,0,0,0,1.3,0,0,0,0,2.1", "1,0,0,0,0,0,-1,0,0,-1,0,0,0,0,0,-1"),
    "IV": ("-1.4,0,0,0,0,1.4,0,0,0,0,1.4,-1,0,1,0,1.4", "-1,0,0,0,0,0,-1,0,0,-1,0,0,0,0,0,1"),
}
SMALL = 1e-12


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
    out = [(name, ["verify", *argv, "--emit-report"]) for name, argv in out]
    out.append(("sample thm1.ii", ["sample", "thm1.ii"]))
    out.append(("sample rem42 n=5", ["sample", "rem42", "--n", "5", "--offsets", "1,2,3,4"]))
    out.append(("classify ex41 solved", ["classify", "ex41", "--solve-psi"]))
    out.append(("classify thm3.viii", ["classify", "thm3.viii", "--at", "0.7,0,0,0"]))
    out.append(("classify thm1.v", ["classify", "thm1.v", "--at", "1,0,0,0"]))
    out.append(("classify matrix with a chart", ["classify", "x", f"--matrix={PLANTED}",
                                                 *NEGATIVE_CONTROL]))
    for case, (matrix, metric) in PLANTED_DEFECTIVE.items():
        out.append((f"classify planted {case}",
                    ["classify", f"--matrix={matrix}", f"--metric={metric}"]))
    return out


def write(src: str, out_dir: str):
    sys.path.insert(0, str(pathlib.Path(src).resolve()))
    from biconserve import catalog, cli

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, argv in cases(catalog):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        record = {"argv": argv, "exit_code": code, "stdout": buf.getvalue()}
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
    return last in ("status", "count", "passed", "exit_code") or key.startswith("spectral")


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
        if new["argv"][0] == "classify":
            lines = [(a, b) for a, b in zip(old["stdout"].splitlines(), new["stdout"].splitlines())
                     if a != b]
            print(f"  first differing line: {lines[0] if lines else 'line count'}")
            moved_verdicts += 1
            continue
        kind = "fd" if "fd" in new["argv"] else "jets"
        read = _csv if new["argv"][0] == "sample" else _report
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
