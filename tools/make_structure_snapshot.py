"""Regenerate tests/data/structure_snapshot.json.

For every catalog key, plus the ex41 negative control with the profile
psi = s^2, the snapshot records what ``cli.run_verify`` reports on the
chart's 3-node interior grid with the checks beltrami, gauss, codazzi and
structure: the case labels, the multiplicity patterns, ``family_ok`` (the
structure check did not fail) and the curvature range (a surface or curve
has no labels or patterns, and its range reads 0.0).  ``tests/test_structure_snapshot.py`` compares a fresh run
against it, so a change to the spectral classifier or to the packet
arithmetic that moves a label, a pattern or a verdict shows up at once.

    PYTHONPATH=src python3 tools/make_structure_snapshot.py

Rerun only when a change is meant to move one of these values, and say in
the change which values moved and why.
"""

import json
import pathlib

from biconserve.catalog import CATALOG, FamilySpec, entry_for
from biconserve.cli import VerifyRequest, run_verify
from biconserve.sweep import interior_grid

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data" / "structure_snapshot.json"
NODES = 3


def cases():
    """(name, FamilySpec) per snapshot entry: every catalog key with its
    default profiles, then the ex41 control with psi = s^2."""
    out = []
    for key in CATALOG:
        family, _, case = key.partition(".")
        out.append((key, FamilySpec(family, case)))
    out.append(("ex41 psi=s^2", FamilySpec("ex41", profiles={"psi": "s^2"})))
    return out


def snapshot() -> dict:
    rows = {}
    for name, spec in cases():
        report, _ = run_verify(VerifyRequest(
            target=spec.key, parameters=dict(spec.parameters), profiles=dict(spec.profiles),
            grid=interior_grid(entry_for(spec).domain, NODES),
            checks=["beltrami", "gauss", "codazzi", "structure"]))
        spectral = report["spectral"]
        status = {c["name"]: c["status"] for c in report["checks"]}["structure"]
        rows[name] = {
            "case_labels": sorted(spectral["labels"]),
            "patterns": sorted(spectral["patterns"]),
            "family_ok": status != "fail",
            **{end: 0.0 if spectral[end] is None else spectral[end]
               for end in ("curvature_min", "curvature_max")},
        }
    return {"nodes_per_axis": NODES, "entries": rows}


def main():
    OUT.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
