"""Structure verdicts of every catalog key, and of the ex41
negative control, against tests/data/structure_snapshot.json (made by
tools/make_structure_snapshot.py): labels, patterns and family_ok exactly,
the curvature range to 1e-12."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "make_structure_snapshot.py"
_spec = importlib.util.spec_from_file_location("make_structure_snapshot", TOOL)
snapshot_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshot_tool)


def test_structure_verdicts_match_the_snapshot():
    want = json.loads(snapshot_tool.OUT.read_text())
    got = snapshot_tool.snapshot()
    assert got["nodes_per_axis"] == want["nodes_per_axis"]
    assert sorted(got["entries"]) == sorted(want["entries"])
    for name, w in want["entries"].items():
        g = got["entries"][name]
        for field in ("case_labels", "patterns", "family_ok"):
            assert g[field] == w[field], (name, field)
        for end in ("curvature_min", "curvature_max"):
            assert abs(g[end] - w[end]) <= 1e-12, (name, end, g[end], w[end])
