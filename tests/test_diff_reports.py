import importlib.util
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "tools" / "diff_reports.py"


@pytest.fixture(scope="module")
def diff_reports():
    spec = importlib.util.spec_from_file_location("diff_reports", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _moves(module, old, new):
    return {key: (x, y) for key, x, y, _ in module.field_moves(old, new)}


@pytest.mark.parametrize("added", [None, {}, []], ids=["none", "empty-dict", "empty-list"])
def test_an_added_empty_or_null_field_is_listed(diff_reports, added):
    old = {"checks": {"beltrami": {"max": 1e-9}}, "spectral": {}}
    new = {"checks": {"beltrami": {"max": 1e-9}}, "spectral": {"labels": added}}
    moves = _moves(diff_reports, old, new)
    assert list(moves) == ["spectral", "spectral.labels"]
    assert moves["spectral"] == ({}, diff_reports.ABSENT)
    assert moves["spectral.labels"] == (diff_reports.ABSENT, added)


def test_a_removed_field_is_listed(diff_reports):
    old = {"checks": {"beltrami": {"max": 1e-9, "passed": True}}}
    new = {"checks": {"beltrami": {"max": 1e-9}}}
    assert _moves(diff_reports, old, new) == {
        "checks.beltrami.passed": (True, diff_reports.ABSENT)}


def test_equal_reports_list_nothing(diff_reports):
    report = {"spectral": {"labels": {}, "curvature_max": None}, "notes": []}
    assert _moves(diff_reports, report, dict(report)) == {}


def test_classify_cases_are_diffed(diff_reports):
    from biconserve import catalog

    argvs = [argv for _, argv in diff_reports.cases(catalog)]
    assert len(argvs) == 80
    assert ["classify", "ex41", "--solve-psi"] in argvs
    assert ["classify", "thm3.viii", "--at", "0.7,0,0,0"] in argvs
