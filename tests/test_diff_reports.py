import importlib.util
import json
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
    assert len(argvs) == 94
    assert ["classify", "ex41", "--solve-psi"] in argvs
    assert ["classify", "thm3.viii", "--at", "0.7,0,0,0"] in argvs
    assert ["classify", "thm1.v", "--at", "1,0,0,0"] in argvs


def test_the_planted_defective_operators_are_diffed(diff_reports):
    import contextlib
    import io

    from biconserve import catalog, cli

    argvs = [argv for _, argv in diff_reports.cases(catalog)]
    for case, (matrix, metric) in diff_reports.PLANTED_DEFECTIVE.items():
        argv = ["classify", f"--matrix={matrix}", f"--metric={metric}"]
        assert argv in argvs
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        assert out.getvalue().startswith(f"Case {case}, pattern ")


def test_constant_arguments_and_operands_are_diffed(diff_reports):
    from biconserve import catalog

    argvs = [argv for _, argv in diff_reports.cases(catalog)]
    assert ["verify", "thm1.i", "--theta", "0.3", "--emit-report"] in argvs
    assert ["verify", "ex41", "--psi", "2*s+1", "--emit-report"] in argvs


def test_profile_usage_errors_are_diffed(diff_reports):
    from biconserve import catalog

    argvs = [argv for _, argv in diff_reports.cases(catalog)]
    assert ["verify", "thm1.v", "--theta", "0.9*s", "--emit-report"] in argvs
    assert ["verify", "thm3.ii", "--theta", "-0.546*s - 1.125", "--emit-report"] in argvs
    assert ["verify", "thm1.i", "--phi", "1.2+0.6*s", "--psi", "0.8*s", "--theta", "0.9*s",
            "--emit-report"] in argvs
    assert ["verify", "ex41", "--solve-psi", "--psi", "s^2", "--emit-report"] in argvs
    assert ["verify", "thm1.i", "--a", "5", "--emit-report"] in argvs


def test_the_parser_and_classify_moves_are_diffed(diff_reports):
    # exit 2 -> 1 (trailing whitespace is read) and 0 -> 2 (a matrix reads no chart flag)
    import contextlib
    import io

    from biconserve import catalog, cli

    argvs = [argv for _, argv in diff_reports.cases(catalog)]
    trailing = ["verify", "ex41", "--psi", "s^2 ", "--emit-report"]
    matrix = ["classify", "x", f"--matrix={diff_reports.PLANTED}", "--psi", "s^2"]
    assert trailing in argvs and matrix in argvs
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "ex41", "--psi", "s^2 ", "--grid", "s=0.9:1.1:2,t=-0.1:0.1:2,"
                         "u=-0.1:0.1:2,v=-0.1:0.1:2"]) == 1
        assert cli.main(matrix) == 2


def _case(tmp, name, argv, stdout):
    tmp.mkdir(exist_ok=True)
    record = {"argv": argv, "exit_code": 0, "stdout": stdout}
    (tmp / name).write_text(json.dumps(record))


def test_a_sample_value_move_is_a_value_not_a_verdict(diff_reports, tmp_path, capsys):
    argv = ["sample", "thm1.ii"]
    old = "s,label,gauss\n0.5,I,4.105854381010194e-17\n0.6,I,2e-17\n"
    _case(tmp_path / "old", "a.json", argv, old)
    _case(tmp_path / "new", "a.json", argv, old.replace("4.105854381010194e-17", "4.1e-17"))
    assert diff_reports.diff(tmp_path / "old", tmp_path / "new") == 0
    assert "rows[0].gauss: 4.105854381010194e-17 -> 4.1e-17" in capsys.readouterr().out
    _case(tmp_path / "new", "a.json", argv, old.replace("0.6,I", "0.6,II"))
    assert diff_reports.diff(tmp_path / "old", tmp_path / "new") == 1
    _case(tmp_path / "new", "a.json", argv, old.rsplit("0.6", 1)[0])
    assert diff_reports.diff(tmp_path / "old", tmp_path / "new") == 1
