"""Command-line surface: listing, verification exit codes, report round
trips, CSV determinism, classification, and the worker pool."""

import io
import json
import subprocess
import sys

import pytest

from biconserve.catalog import FamilySpec, all_keys, build
from biconserve.cli import VerifyRequest, _request_from_args, main, make_parser, run_verify
from biconserve.sweep import HYPERSURFACE_CHECKS, LOWDIM_CHECKS, interior_grid


def run(argv):
    out = io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_list_census():
    code, text = run(["list", "--json"])
    assert code == 0
    rows = json.loads(text)
    keys = [r["key"] for r in rows]
    assert sum(k.startswith("thm1.") for k in keys) == 8
    assert sum(k.startswith("thm2.") for k in keys) == 8
    assert sum(k.startswith("thm3.") for k in keys) == 8
    assert sum(k.startswith("intsurf.") for k in keys) == 8
    assert sum(k.startswith("intcurve.") for k in keys) == 7
    assert "ex41" in keys and "rem42" in keys


def test_list_family_filter():
    code, text = run(["list", "--family", "thm3", "--json"])
    assert code == 0
    assert len(json.loads(text)) == 8


def test_list_stable_ordering():
    _, a = run(["list", "--json"])
    _, b = run(["list", "--json"])
    assert a == b


SMALL = "s=0.7:1.3:2,t=-0.4:0.4:2,u=-0.4:0.4:2,v=-0.4:0.4:2"


def test_verify_pass_exit_zero(tmp_path):
    out_file = tmp_path / "report.json"
    code, text = run(["verify", "ex41", "--a", "1", "--b", "2", "--solve-psi",
                      "--c", "1", "--grid", SMALL, "--output", str(out_file)])
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["schema"] == 1
    assert report["passed"] is True
    names = {c["name"]: c for c in report["checks"]}
    assert names["biconservative"]["max"] < 1e-6
    assert names["biconservative"]["status"] == "pass"
    assert names["structure"]["status"] == "pass"


def test_verify_negative_control_exit_one():
    code, text = run(["verify", "ex41", "--a", "1", "--b", "2", "--psi", "s^2",
                      "--grid", SMALL])
    assert code == 1
    assert "fail" in text


def test_trailing_whitespace_in_an_expression_is_read():
    control = ["verify", "ex41", "--a", "1", "--b", "2", "--psi", "s^2", "--grid", SMALL]
    assert run([*control[:-3], "s^2 \t", *control[-2:]]) == run(control)
    assert run(control)[0] == 1


def test_verify_error_exit_two():
    code, _ = run(["verify", "nosuch.case"])
    assert code == 2
    code, _ = run(["verify", "ex41", "--grid", "s=0:5:3,t=-1:1:3,u=-1:1:3,v=-1:1:3"])
    assert code == 2  # grid outside the chart domain
    code, _ = run(["verify", "thm3.vii", "--a", "0", "--grid", SMALL])
    assert code == 2  # violated side condition surfaces as an error


def test_verify_identity_only_profile_not_asserted():
    code, text = run(["verify", "thm3.i", "--phi1", "auto-diffP", "--theta", "0.3*s",
                      "--grid", "s=0.2:0.8:2,t=0.4:1.0:2,u=-0.5:0.5:2,v=-0.5:0.5:2"])
    assert code == 0
    assert "not_asserted" in text
    for name in ("beltrami", "gauss", "codazzi"):
        assert f"{name}" in text


def test_verify_cmc_vacuous():
    # constant-radius cylinder: tangency condition holds vacuously
    code, text = run(["verify", "thm1.i", "--theta", "1.5707963267948966",
                      "--phi0", "1.0", "--psi0", "0.0",
                      "--grid", "s=0.2:0.8:2,t=-0.5:0.5:2,u=-0.5:0.5:2,v=-0.5:0.5:2"])
    assert code == 0
    assert "vacuous" in text


def test_report_round_trip(tmp_path):
    req = VerifyRequest(target="ex41",
                        parameters={"a": 1.0, "b": 2.0},
                        profiles={"solve_psi": True, "c": 1.0},
                        grid=[[0.7, 1.3, 2], [-0.4, 0.4, 2], [-0.4, 0.4, 2], [-0.4, 0.4, 2]])
    report, code = run_verify(req)
    assert code == 0
    cfg = report["config"]
    req2 = VerifyRequest(target=cfg["target"], parameters=cfg["parameters"],
                         profiles=cfg["profiles"], domain=cfg["domain"],
                         grid=cfg["grid"], random_points=cfg["random_points"],
                         seed=cfg["seed"], checks=cfg["checks"],
                         tolerances=cfg["tolerances"], oracle=cfg["oracle"])
    report2, code2 = run_verify(req2)
    assert code2 == 0
    for c1, c2 in zip(report["checks"], report2["checks"]):
        assert c1["name"] == c2["name"]
        assert abs(c1["max"] - c2["max"]) <= 1e-12 * (1.0 + abs(c1["max"]))


@pytest.mark.parametrize("key", all_keys())
def test_a_report_config_is_a_config_file_that_reproduces_the_report(tmp_path, key):
    # the config block holds only keys a --config file may give, and what it holds suffices
    family, _, case = key.partition(".")
    grid = interior_grid(build(FamilySpec(family, case)).domain, 2)
    report, code = run_verify(VerifyRequest(target=key, grid=grid))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(report["config"]))
    code2, text = run(["verify", "--config", str(path), "--emit-report"])
    assert code2 == code
    assert json.loads(text[text.index("{"):]) == json.loads(json.dumps(report))


def test_config_file_with_flag_override(tmp_path):
    cfg = {"target": "ex41", "parameters": {"a": 1.0, "b": 2.0},
           "profiles": {"solve_psi": True, "c": 1.0},
           "grid": [[0.7, 1.3, 2], [-0.4, 0.4, 2], [-0.4, 0.4, 2], [-0.4, 0.4, 2]]}
    path = tmp_path / "req.json"
    path.write_text(json.dumps(cfg))
    code, _ = run(["verify", "--config", str(path)])
    assert code == 0
    # flags override the file: break it with a bad profile
    code, _ = run(["verify", "--config", str(path), "--psi", "s^2"])
    assert code == 1


def test_sample_deterministic_and_column_subset(tmp_path):
    argv = ["sample", "ex41", "--solve-psi", "--grid", SMALL,
            "--columns", "s,v,H,k1,biconservative"]
    code, text1 = run(argv)
    assert code == 0
    _, text2 = run(argv)
    assert text1 == text2  # byte-identical reruns
    lines = text1.strip().split("\n")
    assert lines[0] == "s,v,H,k1,biconservative"
    assert len(lines) == 1 + 16
    code, _ = run(["sample", "ex41", "--solve-psi", "--grid", SMALL,
                   "--columns", "s,nope"])
    assert code == 2


def test_sample_row_count_five_grid():
    code, text = run(["sample", "intsurf.ii", "--grid", "t=0.4:1.1:5,u=-0.5:0.5:5"])
    assert code == 0
    assert len(text.strip().split("\n")) == 1 + 25


def test_random_points_seeded():
    argv = ["verify", "ex41", "--solve-psi", "--random-points", "7", "--seed", "3",
            "--grid", SMALL, "--emit-report"]
    code, text1 = run(argv)
    _, text2 = run(argv)
    assert code == 0
    assert text1 == text2


def test_classify_catalog_point():
    code, text = run(["classify", "ex41", "--solve-psi",
                      "--at", "1,0.3,-0.2,0.4"])
    assert code == 0
    assert "Case I, 4 distinct" in text


def test_classify_zero_multiplicity_cylinder():
    code, text = run(["classify", "thm1.i", "--theta", "0.2*s + 0.4",
                      "--at", "0.5,0.1,0.1,0.5"])
    assert code == 0
    assert "Case I" in text
    assert "algebraic 2" in text or "algebraic 3" in text


def test_classify_planted_matrix():
    code, text = run(["classify", "--matrix=-1.4,0,0,0,0,1.3,-0.9,0,0,0.9,1.3,0,0,0,0,2.1",
                      "--metric=1,0,0,0,0,-1,0,0,0,0,1,0,0,0,0,-1"])
    assert code == 0
    assert "Case III" in text


def test_inline_chart_flat():
    code, text = run(["verify", "t; u; s; v; 0",
                      "--grid", "s=-0.5:0.5:2,t=-0.5:0.5:2,u=-0.5:0.5:2,v=-0.5:0.5:2"])
    assert code == 0
    assert "PASS" in text


def test_jobs_parallel_matches_serial():
    base = ["verify", "ex41", "--solve-psi", "--grid", SMALL, "--emit-report"]
    code1, text1 = run(base + ["--jobs", "1"])
    code2, text2 = run(base + ["--jobs", "2"])
    assert code1 == code2 == 0
    r1 = json.loads(text1[text1.index("{"):])
    r2 = json.loads(text2[text2.index("{"):])
    for c1, c2 in zip(r1["checks"], r2["checks"]):
        if c1["name"] == "errors":
            continue
        assert c1["max"] == c2["max"]


def test_csv_report_format(tmp_path):
    out_file = tmp_path / "report.csv"
    code, _ = run(["verify", "ex41", "--solve-psi", "--grid", SMALL,
                   "--format", "csv", "--output", str(out_file)])
    assert code == 0
    text = out_file.read_bytes().decode()
    assert "\r" not in text
    assert text.splitlines()[0] == "check,max,mean,count,tolerance,status"


def test_verify_fd_oracle_mode():
    code, text = run(["verify", "ex41", "--solve-psi", "--oracle", "fd",
                      "--grid", SMALL])
    assert code == 0
    assert "tol=0.0001" in text


def test_verify_lowdim_targets():
    code, text = run(["verify", "intcurve.C", "--grid", "v=-0.5:0.5:7"])
    assert code == 0
    assert "beltrami" in text
    code, text = run(["verify", "intsurf.v", "--grid", "t=-0.5:0.5:3,u=-0.5:0.5:3"])
    assert code == 0
    assert "PASS" in text


def test_jobs_env_default(monkeypatch):
    monkeypatch.setenv("BICONSERVE_JOBS", "2")
    code, text = run(["verify", "ex41", "--solve-psi", "--grid", SMALL])
    assert code == 0
    assert "PASS" in text


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "biconserve.cli", "list", "--family", "intcurve"],
        capture_output=True, text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=str(__import__("pathlib").Path(__file__).parent.parent),
    )
    assert proc.returncode == 0
    assert "intcurve.G" in proc.stdout


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_verify_overflow_point_is_an_error_entry():
    code, text = run(["verify", "exp(s); t; u; v; 0", "--domain", "s=-1:1000",
                      "--grid", "s=-1:1000:2,t=-0.5:0.5:2,u=-0.5:0.5:2,v=-0.5:0.5:2",
                      "--emit-report"])
    assert code == 2
    report = json.loads(text[text.index("{"):])
    errors = [c for c in report["checks"] if c["name"] == "errors"]
    assert errors and errors[0]["count"] == 8
    assert errors[0]["argmax_point"][0] == 1000.0
    beltrami = [c for c in report["checks"] if c["name"] == "beltrami"][0]
    assert beltrami["count"] == 8 and beltrami["status"] == "pass"


def test_fd_oracle_cmc_decision_is_its_own(monkeypatch):
    import numpy as np

    from biconserve.immersion import CurvaturePacket

    req = dict(target="ex41", parameters={"a": 1.0, "b": 2.0},
               profiles={"solve_psi": True, "c": 1.0},
               grid=[[0.8, 1.2, 2], [-0.3, 0.3, 2], [-0.3, 0.3, 2], [-0.3, 0.3, 2]])

    def verdict(oracle):
        report, code = run_verify(VerifyRequest(oracle=oracle, **req))
        return code, [(c["name"], c["status"], c["max"]) for c in report["checks"]]

    before = {o: verdict(o) for o in ("fd", "jets")}
    jet_rule = CurvaturePacket.is_cmc_point
    monkeypatch.setattr(CurvaturePacket, "is_cmc_point",
                        property(lambda pk: np.logical_not(jet_rule.fget(pk))))
    assert verdict("fd") == before["fd"]
    assert before["fd"][0] == 0
    # the patch does reach the jet route: every point there now looks CMC
    code, checks = verdict("jets")
    assert ("biconservative", "vacuous", 0.0) in checks and checks != before["jets"][1]


@pytest.mark.parametrize("offsets, code, status", [("1,2,3,4", 0, "pass"),
                                                   ("1,1,3,4", 1, "fail")])
def test_rem42_five_parameter_structure(offsets, code, status):
    # equal offsets give a double curvature; distinct ones a clean chart
    got, text = run(["verify", "rem42", "--n", "5", "--offsets", offsets, "--emit-report"])
    assert got == code
    report = json.loads(text[text.index("{"):])
    checks = {c["name"]: c["status"] for c in report["checks"]}
    assert checks.pop("structure") == status
    assert set(checks.values()) == {"pass"}
    # no 4x4 classification: no label or pattern counts, the curvature range stays
    spectral = report["spectral"]
    assert spectral["labels"] == {} and spectral["patterns"] == {}
    assert spectral["curvature_min"] < spectral["curvature_max"]


def test_rem42_offsets_default_from_n():
    # without --offsets, n parameters take the offsets 1, ..., n - 1
    code, text = run(["verify", "rem42", "--n", "5"])
    assert code == 0
    assert run(["verify", "rem42", "--n", "5", "--offsets", "1,2,3,4"]) == (code, text)
    # a wrong count is still a usage error
    code, text = run(["verify", "rem42", "--n", "5", "--offsets", "1,2,3"])
    assert code == 2 and text == "error [rem42]: need 4 offset constants, got 3\n"


def test_profile_flags_land_only_in_the_profiles():
    args = make_parser().parse_args(["verify", "ex41", "--c", "0.5", "--phi0", "1.1",
                                     "--psi0", "0.2", "--a", "1.5"])
    req = _request_from_args(args)
    assert req.parameters == {"a": 1.5}
    assert req.profiles == {"c": 0.5, "phi0": 1.1, "psi0": 0.2}


def test_rem42_partial_grid_fills_the_chart_interior():
    code, text = run(["verify", "rem42", "--grid", "s=0.7:1.3:2", "--emit-report"])
    assert code == 0
    grid = json.loads(text[text.index("{"):])["config"]["grid"]
    assert grid[0] == [0.7, 1.3, 2]
    assert grid[1:] == interior_grid(build(FamilySpec("rem42")).domain)[1:]


def test_rem42_axis_names_are_the_chart_names():
    grid = "s=0.7:1.3:2,t=-0.4:0.4:2,u=-0.4:0.4:2,v=-0.4:0.4:2"
    code, _ = run(["verify", "rem42", "--grid", grid])
    assert code == 0
    code, text = run(["sample", "rem42", "--grid", grid])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0].split(",")[:5] == ["s", "t", "u", "v", "H"]
    assert len(lines) == 1 + 16
    code, text = run(["sample", "rem42", "--n", "5", "--offsets", "1,2,3,4", "--grid",
                      "s=0.7:1.3:2,t1=-0.4:0.4:2,t2=-0.4:0.4:2,t3=-0.4:0.4:2,t4=-0.4:0.4:2",
                      "--columns", "s,t4,k5"])
    assert code == 0
    assert text.split("\n")[0] == "s,t4,k5"
    code, text = run(["sample", "intsurf.ii", "--grid", "t=0.4:1.1:2,u=-0.5:0.5:2"])
    assert code == 0
    assert text.split("\n")[0].split(",")[:2] == ["t", "u"]


@pytest.mark.parametrize("option, spec, axis", [
    ("--grid", "q=0.7:1.3:2", "q"),
    ("--grid", "s=abc:1:2", "s"),
    ("--grid", "s=1", "s"),
    ("--grid", "s=0.7:1.3:x", "s"),
    ("--grid", "s=0.7:1.3:2:9", "s"),
    ("--domain", "q=0.5:2", "q"),
    ("--grid", "0.7:1.3:2,0:1:2,0:1:2,0:1:2,0:1:2", "0:1:2"),
])
def test_malformed_axis_spec_is_a_usage_error(option, spec, axis):
    code, text = run(["verify", "ex41", option, spec])
    assert code == 2
    assert text.startswith("error [ex41]: ")
    assert repr(axis) in text


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_verify_metric_overflow_is_a_domain_error():
    code, text = run(["verify", "exp(s); t; u; v; 0", "--domain", "s=350:500",
                      "--grid", "s=354:499.5:2,t=-0.5:0.5:2,u=-0.5:0.5:2,v=-0.5:0.5:2",
                      "--emit-report", "--per-point"])
    assert code == 2
    report = json.loads(text[text.index("{"):])
    assert len(report["rows"]) == 16
    for row in report["rows"]:
        assert row["error"].startswith("DomainError: induced metric overflows at (")


@pytest.mark.parametrize("argv", [["thm1.v", "--solve-psi"], ["thm3.vii", "--solve-psi"],
                                  ["rem42", "--a", "2"], ["ex41", "--offsets", "1,2,3"]])
def test_spec_errors_exit_two_with_one_line(argv):
    # a solved profile needs a torsion equation; a parameter keeps its default's type
    code, text = run(["verify", *argv])
    assert code == 2
    assert text.startswith(f"error [{argv[0]}]: ") and text.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (["thm1.v", "--theta", "0.9*s"], "--theta"),    # a psi family without a pair
    (["ex41", "--theta", "0.9*s"], "--theta"),
    (["ex41", "--phi0", "3"], "--phi0"),
    (["intsurf.ii", "--psi", "s"], "--psi"),        # an entry without profiles
    (["thm1.i", "--psi", "s^2"], "--psi"),          # half of the pair
    (["thm1.i", "--c", "5"], "--c"),                # no torsion equation
    (["t; u; s; v; 0", "--theta", "s"], "--theta"),
    (["t; u; s; v; 0", "--solve-psi"], "--solve-psi"),
    # an explicit pair reads nothing else
    (["thm1.i", "--phi", "1.2+0.6*s", "--psi", "0.8*s", "--theta", "0.9*s"], "--theta"),
    (["thm1.i", "--phi", "1.2+0.6*s", "--psi", "0.8*s", "--phi0", "3"], "--phi0"),
    (["thm1.i", "--phi", "1.2+0.6*s", "--psi", "0.8*s", "--psi0", "7"], "--psi0"),
    # a solved psi reads no --psi, an explicit one no --c
    (["ex41", "--solve-psi", "--psi", "s^2"], "--psi"),
    (["ex41", "--psi", "s^2", "--c", "5"], "--c"),
])
def test_a_profile_flag_the_chart_does_not_read_is_a_usage_error(argv, flag):
    code, text = run(["verify", *argv])
    assert code == 2
    assert text.startswith(f"error [{argv[0]}]: {flag} ") and text.count("\n") == 1


@pytest.mark.parametrize("argv, name, reader", [
    (["thm1.i", "--a", "5"], "a", "thm1.i"),
    (["ex41", "--solve-psi", "--R", "3"], "R", "ex41"),
    (["intsurf.ii", "--b", "2", "--n", "7"], "b", "intsurf.ii"),
    (["rem42", "--b", "3"], "b", "rem42"),
    (["t; u; s; v; 0", "--a", "5"], "a", "an inline chart"),
])
def test_a_parameter_the_chart_does_not_read_is_a_usage_error(argv, name, reader):
    code, text = run(["verify", *argv])
    assert code == 2
    assert text == f"error [{argv[0]}]: parameter {name!r} is not read by {reader}\n"


@pytest.mark.parametrize("argv", [
    ["classify", "ex41", "--grid", "s=0.6:1.4:3"],
    ["classify", "ex41", "--random-points", "5"],
    ["classify", "ex41", "--seed", "3"],
    ["classify", "ex41", "--oracle", "fd"],
    ["classify", "ex41", "--jobs", "2"],
    ["classify", "ex41", "--output", "F"],
    ["classify", "ex41", "--format", "csv"],
    ["sample", "thm1.ii", "--format", "json"],
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    named = [line for line in capsys.readouterr().err.splitlines() if argv[2] in line]
    assert named == [f"biconserve: error: unrecognized arguments: {' '.join(argv[2:])}"]


def test_each_subcommand_parses_only_the_flags_it_reads():
    subcommands = next(a for a in make_parser()._actions if a.dest == "command").choices
    counts = {name: sum(len(a.option_strings) for a in p._actions if a.dest != "help")
              for name, p in subcommands.items()}
    assert counts == {"list": 2, "verify": 33, "classify": 21, "sample": 24}


@pytest.mark.parametrize("argv", [[], ["--n", "5", "--offsets", "1,2,3,4"]])
def test_rem42_domain_spec_keeps_the_default_t_axes(argv):
    names = ["t", "u", "v"] if not argv else ["t1", "t2", "t3", "t4"]
    grid = ",".join(["s=0.8:1.2:2"] + [f"{t}=-0.4:0.4:2" for t in names])
    code, text = run(["verify", "rem42", *argv, "--domain", "s=0.7:1.3", "--grid", grid,
                      "--emit-report"])
    assert code == 0
    domain = json.loads(text[text.index("{"):])["config"]["domain"]
    assert domain == [[0.7, 1.3]] + [[-0.5, 0.5]] * len(names)


def test_domain_spec_keeps_the_config_domain(tmp_path):
    # a --domain axis spec edits the config's numeric domain, not the chart's default
    cfg = {"target": "ex41", "profiles": {"solve_psi": True, "c": 1.0},
           "domain": [[0.6, 1.4], [-0.2, 0.2], [-0.2, 0.2], [-0.2, 0.2]]}
    path = tmp_path / "req.json"
    path.write_text(json.dumps(cfg))
    grid = "s=0.9:1.1:2,t=-0.1:0.1:2,u=-0.1:0.1:2,v=-0.1:0.1:2"
    code, text = run(["verify", "--config", str(path), "--domain", "s=0.8:1.2", "--grid", grid,
                      "--emit-report"])
    assert code == 0
    domain = json.loads(text[text.index("{"):])["config"]["domain"]
    assert domain == [[0.8, 1.2]] + [[-0.2, 0.2]] * 3


def test_non_numeric_parameter_exits_two_with_one_line(tmp_path):
    path = tmp_path / "req.json"
    path.write_text(json.dumps({"target": "thm1.i", "parameters": {"q": "x"}}))
    code, text = run(["verify", "--config", str(path)])
    assert code == 2
    assert text.startswith("error [thm1.i]: ") and text.count("\n") == 1
    assert "'q'" in text
    # a parameter the entry declares keeps its default's type: its flag's, in a --config file
    path.write_text(json.dumps({"target": "thm3.vii", "parameters": {"a": "x"}}))
    code, text = run(["verify", "--config", str(path)])
    assert (code, text) == (2, "error: --config key 'parameters.a' takes a number, got 'x'\n")
    path.write_text(json.dumps({"target": "thm3.vii", "parameters": {"a": [1, 2]}}))
    code, text = run(["verify", "--config", str(path)])
    assert (code, text) == (2, "error [thm3.vii]: parameter 'a' takes a number, got [1.0, 2.0]\n")


@pytest.mark.parametrize("argv, cfg, key", [
    (["verify"], {"target": "ex41", "profiles": {"solve_psi": True}, "tolerence": {"gauss": 0},
                  "per_point": True, "output": "F"}, "tolerence"),
    # a subcommand reads the keys of the flags it parses
    (["classify", "ex41", "--solve-psi"], {"grid": [[0.6, 1.4, 3]]}, "grid"),
    (["classify", "ex41", "--solve-psi"], {"jobs": 4}, "jobs"),
    (["classify", "ex41", "--solve-psi"], {"random_points": 3}, "random_points"),
    (["classify", "ex41", "--solve-psi"], {"seed": 1}, "seed"),
    (["classify", "ex41", "--solve-psi"], {"oracle": "fd"}, "oracle"),
    (["classify", "ex41", "--solve-psi"], {"tolerances": {"gauss": 1}}, "tolerances"),
    (["classify", "ex41", "--solve-psi"], {"checks": ["gauss"]}, "checks"),
    (["sample", "ex41", "--solve-psi"], {"tolerances": {"gauss": 1}}, "tolerances"),
    (["sample", "ex41", "--solve-psi"], {"checks": ["gauss"]}, "checks"),
    (["verify", "ex41", "--solve-psi"], {"tolerances": {"gaus": 0}}, "tolerances.gaus"),
])
def test_a_config_key_the_request_does_not_read_is_a_usage_error(tmp_path, argv, cfg, key):
    code, text = run([*argv, "--config", _config(tmp_path, **cfg)])
    assert code == 2
    assert text.startswith(f"error: --config key {key!r} is not read") and text.count("\n") == 1


def test_domain_spec_over_a_short_config_domain_is_a_usage_error(tmp_path):
    path = tmp_path / "req.json"
    path.write_text(json.dumps({"target": "ex41", "domain": [[0.6, 1.4], [-0.2, 0.2]]}))
    code, text = run(["verify", "--config", str(path), "--domain", "v=-0.1:0.1"])
    assert code == 2
    assert text == "error [ex41]: domain has 2 axes, chart has 4\n"


@pytest.mark.parametrize("target, check", [("ex41", "foo"), ("intsurf.ii", "biconservative"),
                                           ("ex41", "curvatures")])
def test_a_check_the_chart_does_not_answer_is_a_usage_error(target, check):
    code, text = run(["verify", target, "--checks", check])
    answered = HYPERSURFACE_CHECKS if target == "ex41" else LOWDIM_CHECKS
    assert code == 2
    assert text.startswith(f"error [{target}]: ") and text.count("\n") == 1
    assert repr(check) in text and ", ".join(answered) in text


PLANTED = "-1.4,0,0,0,0,1.3,-0.9,0,0,0.9,1.3,0,0,0,0,2.1"


@pytest.mark.parametrize("argv, cfg, message", [
    (["verify", "ex41", "--solve-psi"], {"oracle": "foo"}, "'oracle' takes one of jets, fd"),
    (["verify", "ex41"], {"parameters": {"a": True}}, "'parameters.a' takes a number"),
    (["verify", "rem42"], {"parameters": {"n": 4.5}}, "'parameters.n' takes an integer"),
    (["verify", "rem42"], {"parameters": {"a": [1, 2, "x"]}}, "'parameters.a' takes a number"),
    (["verify", "ex41", "--solve-psi"], {"checks": "gauss"}, "'checks' takes a list"),
    (["verify", "ex41", "--solve-psi"], {"jobs": "x"}, "'jobs' takes an integer"),
    (["verify", "ex41", "--solve-psi"], {"random_points": "x"}, "'random_points' takes an integer"),
    (["verify", "thm1.i"], {"profiles": {"phi0": "x"}}, "'profiles.phi0' takes a number"),
    (["verify", "thm1.i"], {"profiles": {"psi0": "x"}}, "'profiles.psi0' takes a number"),
    (["verify", "ex41"], {"profiles": {"c": "x"}}, "'profiles.c' takes a number"),
    (["verify", "ex41"], {"profiles": {"psi": 2}}, "'profiles.psi' takes a string"),
    (["verify", "ex41"], {"profiles": {"solve_psi": 1}}, "'profiles.solve_psi' takes true"),
    (["verify", "t; u; s; 0"], {"parameters": {"index": "x"}}, "'parameters.index' takes an"),
    (["verify"], {"target": 5}, "'target' takes a string"),
    (["verify", "ex41"], {"parameters": 5}, "'parameters' takes an object"),
    (["verify", "ex41"], {"domain": [[0.6], [-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5]]},
     "'domain' takes a list of 2"),
    (["verify", "ex41"], {"grid": [[0.6, 1.4, 2.5], [-0.5, 0.5, 2], [-0.5, 0.5, 2],
                                   [-0.5, 0.5, 2]]}, "'grid' takes an integer"),
])
def test_a_config_value_gets_the_check_its_flag_gets(tmp_path, argv, cfg, message):
    code, text = run([*argv, "--config", _config(tmp_path, **cfg)])
    assert code == 2
    assert text.startswith("error") and text.count("\n") == 1
    assert f"--config key {message}" in text


@pytest.mark.parametrize("argv, name", [
    (["x", "--matrix=" + PLANTED, "--psi", "s^2", "--a", "5", "--domain", "s=0:1"], "a target"),
    (["--matrix=" + PLANTED, "--psi", "s^2"], "--psi"),
    (["--matrix=" + PLANTED, "--solve-psi"], "--solve-psi"),
    (["--matrix=" + PLANTED, "--n", "5"], "--n"),
    (["--matrix=" + PLANTED, "--domain", "s=0:1"], "--domain"),
    (["--matrix=" + PLANTED, "--at", "1,0,0,0"], "--at"),
    (["--matrix=" + PLANTED, "--config", "F"], "--config"),
])
def test_classify_reads_a_chart_or_a_matrix_not_both(argv, name):
    assert run(["classify", *argv]) == (2, f"error: {name} is not read with --matrix\n")


def test_classify_reads_a_metric_only_with_a_matrix():
    code, text = run(["classify", "ex41", "--solve-psi", "--metric", "1,0,0,0,0,1,0,0,0,0,1,0,"
                      "0,0,0,1"])
    assert (code, text) == (2, "error: --metric is read only with --matrix\n")


@pytest.mark.parametrize("argv, option", [
    (["verify", "ex41", "--random-points", "-1"], "random points"),
    (["classify", "ex41", "--at", "0.5,0,0"], "--at takes 4"),
    (["classify", "ex41", "--at", "0.5,0,0,0,0"], "--at takes 4"),
    (["classify", "ex41", "--at", "a,0,0,0"], "--at takes 4"),
    (["classify", "--matrix=" + PLANTED, "--metric", "1,2"], "--metric takes 16"),
    (["classify", "--matrix", "x" + PLANTED[4:]], "--matrix takes 16"),
    (["verify", "rem42", "--offsets", "1,b"], "--offsets"),
])
def test_malformed_numbers_are_a_usage_error(argv, option):
    code, text = run(argv)
    assert code == 2
    assert text.startswith("error") and text.count("\n") == 1
    assert option in text


def _config(tmp_path, **cfg):
    path = tmp_path / "request.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("argv, option", [
    (["verify", "ex41", "--random-points", "3", "--seed", "-1"], "--seed takes"),
    (["sample", "ex41", "--random-points", "3", "--seed", "-2"], "--seed takes"),
    (["verify", "ex41", "--random-points", "3", "--config", {"seed": -1}],
     "--seed (in --config) takes"),
    (["verify", "ex41", "--config", {"seed": "one"}], "--seed (in --config) takes"),
    (["verify", "ex41", "--random-points", "3", "--config", {"seed": 1.5}],
     "--seed (in --config) takes"),
])
def test_a_negative_seed_is_a_usage_error(tmp_path, argv, option):
    argv = [_config(tmp_path, **a) if isinstance(a, dict) else a for a in argv]
    code, text = run(argv)
    assert code == 2
    assert text.startswith("error") and text.count("\n") == 1
    assert option in text


@pytest.mark.parametrize("argv, option", [
    (["classify", "ex41", "--tol", "-1"], "--tol takes"),
    (["classify", "ex41", "--tol", "nan"], "--tol takes"),
    (["classify", "--matrix=" + PLANTED, "--tol=-1e-9"], "--tol takes"),
    (["verify", "ex41", "--tol-gauss", "nan"], "--tol-gauss takes"),
    (["verify", "ex41", "--tol-principal-direction=-1e-3"], "--tol-principal-direction takes"),
    (["verify", "ex41", "--config", {"tolerances": {"gauss": -1}}],
     "--tol-gauss (in --config) takes"),
    (["verify", "ex41", "--config", {"tolerances": {"unit_normal": float("nan")}}],
     "--tol-unit-normal (in --config) takes"),
    (["verify", "ex41", "--config", {"tolerances": {"beltrami": "small"}}],
     "--tol-beltrami (in --config) takes"),
])
def test_a_negative_or_nan_tolerance_is_a_usage_error(tmp_path, argv, option):
    argv = [_config(tmp_path, **a) if isinstance(a, dict) else a for a in argv]
    code, text = run(argv)
    assert code == 2
    assert text.startswith("error") and text.count("\n") == 1
    assert option in text


def test_a_zero_tolerance_keeps_its_meaning():
    # classify's --tol 0 is the default cluster tolerance; a check's 0 is a bound
    assert run(["classify", "ex41", "--tol", "0"]) == run(["classify", "ex41"])
    code, text = run(["verify", "ex41", "--grid", "s=0.6:1.4:2,t=-0.5:0.5:2,u=-0.5:0.5:2,"
                      "v=-0.5:0.5:2", "--checks", "gauss", "--tol-gauss", "0"])
    assert code in (0, 1) and not text.startswith("error")


@pytest.mark.parametrize("minus", [1000, 3000])
def test_a_deeply_nested_profile_is_a_usage_error(minus):
    # past the parser's depth bound, and past Python's own parser at 3,000
    code, text = run(["verify", "ex41", f"--psi={'-' * minus}s^2"])
    assert code == 2
    assert text == "error [ex41]: expression nested more than 100 levels deep\n"
