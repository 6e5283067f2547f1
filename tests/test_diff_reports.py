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
    assert len(argvs) == 118
    assert ["verify", diff_reports.INLINE, "--config", "CONFIGS/two-axis-domain.json",
            "--emit-report"] in argvs
    assert ["classify", "ex41", "--solve-psi"] in argvs
    assert ["classify", f"--matrix={diff_reports.OVERFLOWING}"] in argvs
    assert ["classify", "thm3.viii", "--at", "0.7,0,0,0"] in argvs
    assert ["classify", "thm1.v", "--at", "1,0,0,0"] in argvs
    assert ["classify", f"--matrix={diff_reports.NEAR_DOUBLE}", "--tol", "0"] in argvs


def test_the_pool_writes_back_a_4_parameter_chart_in_a_diffed_case(diff_reports):
    # verify and sample on thm3.viii over several pool blocks, beside their serial cases
    from biconserve import catalog

    argvs = [argv for _, argv in diff_reports.cases(catalog)]
    grid = ["thm3.viii", "--grid", "t=-0.704:0.704:9"]
    assert ["verify", *grid, "--emit-report"] in argvs
    assert ["verify", *grid, "--jobs", "2", "--emit-report"] in argvs
    assert ["sample", "thm3.viii", "--random-points", "1500", "--seed", "3", "--jobs", "2"] \
        in argvs


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


def test_the_job_count_and_rem42_bounds_are_diffed_one_past_them(diff_reports):
    from biconserve import catalog, cli

    argvs = [argv for _, argv in diff_reports.cases(catalog)]
    assert ["verify", "thm1.i", "--grid", diff_reports.GRID16, "--jobs", str(cli.MAX_JOBS + 1),
            "--emit-report"] in argvs
    assert ["verify", "rem42", "--n", str(catalog.REM42_MAX_N + 1), "--random-points", "2",
            "--emit-report"] in argvs


CLASSIFY = ("H = -0.05516715556233917\nCase I, 4 distinct\n"
            "  eigenvalue -0.2039814916729381 (algebraic 1, geometric 1)\n"
            "  eigenvalue 0.11033431112467854 (algebraic 1, geometric 1)\n")


def test_a_moved_eigenvalue_digit_is_a_value(diff_reports, tmp_path, capsys):
    argv = ["classify", "ex41", "--solve-psi"]
    _case(tmp_path / "old", "a.json", argv, CLASSIFY)
    _case(tmp_path / "new", "a.json", argv, CLASSIFY.replace("0.11033431112467854",
                                                             "0.11033431112467856"))
    assert diff_reports.diff(tmp_path / "old", tmp_path / "new") == 0
    out = capsys.readouterr().out
    assert "values[3][0]: 0.11033431112467854 -> 0.11033431112467856" in out
    assert "0 exit codes, statuses, counts or labels moved" in out
    assert "largest relative change of a value (jets route): 2.52e-16" in out


@pytest.mark.parametrize("old, new", [("Case I, 4 distinct", "Case II, 4 distinct"),
                                      ("(algebraic 1, geometric 1)\n  eigenvalue 0.11",
                                       "(algebraic 2, geometric 1)\n  eigenvalue 0.11"),
                                      ("4 distinct", "pattern 1+1+2")],
                         ids=["label", "multiplicity", "pattern"])
def test_a_moved_classify_word_is_still_a_verdict(diff_reports, tmp_path, old, new):
    argv = ["classify", "ex41", "--solve-psi"]
    _case(tmp_path / "old", "a.json", argv, CLASSIFY)
    _case(tmp_path / "new", "a.json", argv, CLASSIFY.replace(old, new))
    assert diff_reports.diff(tmp_path / "old", tmp_path / "new") == 1


def _verify(spectral):
    return "1 of 1 checks passed\n" + json.dumps({"spectral": spectral}, indent=1)


SPECTRAL = {"curvature_max": 0.28306879896623033, "curvature_min": -0.6261016333714534,
            "labels": {"I": 625}, "patterns": {"1+1+1+1": 625}}


@pytest.mark.parametrize("field, moved, code", [
    ("curvature_min", -0.6261016333714533, 0), ("curvature_max", 0.2830687989662304, 0),
    ("labels", {"I": 624, "II": 1}, 1), ("patterns", {"1+1+1+1": 624, "2+1+1": 1}, 1)])
def test_spectral_extremes_are_values_and_labels_verdicts(diff_reports, tmp_path, field, moved,
                                                          code):
    argv = ["verify", "ex41", "--emit-report"]
    _case(tmp_path / "old", "a.json", argv, _verify(SPECTRAL))
    _case(tmp_path / "new", "a.json", argv, _verify({**SPECTRAL, field: moved}))
    assert diff_reports.diff(tmp_path / "old", tmp_path / "new") == code


def test_the_usage_errors_of_a_repeat_are_diffed(diff_reports):
    from biconserve import catalog

    argvs = [argv for _, argv in diff_reports.cases(catalog)]
    assert ["verify", "ex41", "--solve-psi", "--checks", "gauss,gauss", "--emit-report"] in argvs
    assert ["verify", "ex41", "--solve-psi", "--grid", "0.6:1.4:2,s=0.7:1.3:3",
            "--emit-report"] in argvs
    assert ["classify", "thm1.i", "--domain", "s=0.2:0.8,s=0.3:0.7"] in argvs
