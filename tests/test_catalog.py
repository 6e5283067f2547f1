"""Catalog construction, side conditions, structural verification, and the
frozen transcription audit against tests/data/golden_charts.json."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from biconserve.catalog import (CATALOG, FamilySpec, all_keys, build, build_remark42, entry_for,
                                list_entries, structure_verdict)
from biconserve.cli import VerifyRequest, run_verify
from biconserve.errors import ConstraintError, ContractViolation, DomainError
from biconserve.expr import parse
from biconserve.immersion import ImmersionChart, packet, principal_direction_check
from biconserve.spectral import CLUSTER_TOL, eigen_structure
from biconserve.sweep import grid_points, interior_grid, sweep

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden_charts.json").read_text()
)


def test_catalog_census():
    keys = all_keys()
    assert sum(k.startswith("thm1.") for k in keys) == 8
    assert sum(k.startswith("thm2.") for k in keys) == 8
    assert sum(k.startswith("thm3.") for k in keys) == 8
    assert sum(k.startswith("intsurf.") for k in keys) == 8
    assert sum(k.startswith("intcurve.") for k in keys) == 7
    assert "ex41" in keys and "rem42" in keys
    assert len(keys) == 8 + 8 + 8 + 1 + 1 + 8 + 7


@pytest.mark.parametrize("row", GOLDEN["rows"], ids=lambda r: r["key"])
def test_golden_transcription(row):
    family, _, case = row["key"].partition(".")
    spec = FamilySpec(family, case, dict(row.get("parameters", {})),
                      dict(row.get("profiles", {})))
    chart = build(spec)
    got = chart.value(row["point"])
    assert np.max(np.abs(got - np.asarray(row["values"]))) < 1e-12


STRUCTURE_CHECKS = ("beltrami", "gauss", "codazzi", "structure")


def _spec(key: str) -> FamilySpec:
    family, _, case = key.partition(".")
    return FamilySpec(family, case)


def _verdict(key, chart=None, nodes=2):
    """(ok, index_ok, spectral, notes): ``structure_verdict`` of the key's
    entry on a sweep of ``chart``, by default the key's build, over its
    interior grid with ``nodes`` per axis; ``index_ok`` reads no
    UnexpectedIndex error at any point."""
    if chart is None:
        chart = build(_spec(key))
    grid = interior_grid(chart.domain, nodes)
    table = sweep(chart, grid_points([(lo, hi) for lo, hi, _ in grid], nodes), STRUCTURE_CHECKS)
    ok, spectral, notes = structure_verdict(entry_for(_spec(key)), table, chart)
    return ok, not any(e.startswith("UnexpectedIndex:") for e in table.error), spectral, notes


@pytest.mark.parametrize("key", [k for k in all_keys() if k != "rem42"])
def test_structure_every_entry(key):
    grid = interior_grid(entry_for(_spec(key)).domain, 2)
    report, _ = run_verify(VerifyRequest(target=key, grid=grid, checks=list(STRUCTURE_CHECKS),
                                         per_point=True))
    checks = {c["name"]: c for c in report["checks"]}
    assert not any(row["error"].startswith("UnexpectedIndex:") for row in report["rows"]), key
    assert checks["structure"]["status"] != "fail", key
    assert checks["beltrami"]["max"] < 1e-7
    assert checks["gauss"]["max"] < 1e-6
    assert checks["codazzi"]["max"] < 1e-6


def test_cylinder_member_degenerates_further():
    # constant radius, linear height: an extra flat direction appears and
    # the report says so
    chart = build(FamilySpec("thm1", "i",
                             profiles={"theta": "1.5707963267948966",
                                       "phi0": 1.0, "psi0": 0.0}))
    ok, _, _, notes = _verdict("thm1.i", chart)
    assert ok
    assert any("zero multiplicity 3" in n for n in notes)


def test_thm2_pattern_double_plus_simple_zero():
    ok, _, spectral, _ = _verdict("thm2.i")
    assert ok
    assert all(p in ("1+2+1", "2+1+1", "1+1+2") for p in spectral["patterns"])


def test_ex41_pattern_and_curvature_values():
    chart = build(FamilySpec("ex41", profiles={"solve_psi": True, "c": 1.0}))
    ok, _, spectral, _ = _verdict("ex41", chart)
    assert ok and sorted(spectral["patterns"]) == ["1+1+1+1"]
    psi = chart.profile_bank["psi"]
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = np.array([rng.uniform(0.6, 1.4), *rng.uniform(-0.5, 0.5, 3)])
        pk = packet(chart, p)
        d = psi.derivs(p[0], 2)
        root = np.sqrt(2 * d[1] - 1)
        ks = np.sort([d[2] / (2 * d[1] - 1) ** 1.5, -1 / (p[0] * root),
                      -1 / ((p[0] + 4.0) * root), -1 / ((p[0] + 2.0) * root)])
        eig = np.sort(np.linalg.eigvals(pk.S).real)
        assert np.max(np.abs(eig - ks) / np.maximum(1e-3, np.abs(ks))) < 1e-8


def test_degenerate_case_displayed_metric_form():
    # the off-rotation degenerate family: diagonal metric with the stated
    # entries; the rotation-block coefficient carries the doubled offset
    a = 0.7
    chart = build(FamilySpec("thm3", "vii", parameters={"a": a}))
    rng = np.random.default_rng(13)
    for _ in range(8):
        p = np.array([rng.uniform(0.65, 1.35), *rng.uniform(-0.7, 0.7, 3)])
        pk = packet(chart, p)
        dpsi = chart.profile_bank["psi"].derivs(p[0], 1)[1]
        expected = np.diag([1.0 - 2.0 * dpsi, p[0] ** 2, p[0] ** 2,
                            -(p[0] + 2.0 * a) ** 2])
        assert np.max(np.abs(pk.G - expected)) < 1e-8
    chart = build(FamilySpec("thm3", "viii", parameters={"a": 0.8}))
    for _ in range(8):
        p = np.array([rng.uniform(0.35, 1.05), *rng.uniform(-0.7, 0.7, 3)])
        pk = packet(chart, p)
        dpsi = chart.profile_bank["psi"].derivs(p[0], 1)[1]
        expected = np.diag([1.0 + 2.0 * dpsi, -p[0] ** 2, p[0] ** 2,
                            (p[0] - 1.6) ** 2])
        assert np.max(np.abs(pk.G - expected)) < 1e-8


def test_constraint_violations_raise():
    with pytest.raises(ConstraintError):
        build(FamilySpec("thm1", "v", profiles={"psi": "0.1*s"}))  # 1-2psi' > 0
    with pytest.raises(ConstraintError):
        build(FamilySpec("ex41", profiles={"psi": "0.2*s"}))       # 2psi'-1 < 0
    with pytest.raises(ConstraintError):
        build(FamilySpec("thm1", "i", profiles={"phi": "s", "psi": "s"}))
    with pytest.raises(ConstraintError):
        build(FamilySpec("thm3", "vii", parameters={"a": 0.0}))
    with pytest.raises(ConstraintError):
        build(FamilySpec("rem42", profiles={"psi": "0.2*s"}))      # 2psi'-1 < 0


def test_ex41_domain_guard():
    with pytest.raises(DomainError):
        build(FamilySpec("ex41", domain=((-0.5, 1.0), (-1, 1), (-1, 1), (-1, 1)),
                         profiles={"psi": "s^2 + 2*s"}))


def test_unknown_key_rejected():
    with pytest.raises(ContractViolation):
        build(FamilySpec("thm9", "i"))


@pytest.mark.parametrize("spec", [FamilySpec("ex41", domain=((0.6, 1.4),) * 3),
                                  FamilySpec("rem42", parameters={"n": 5, "a": (1, 2, 3, 4)},
                                             domain=((0.6, 1.4),) + ((-0.5, 0.5),) * 3)])
def test_domain_needs_one_axis_per_parameter(spec):
    with pytest.raises(ContractViolation, match=r"domain has \d axes, chart has \d"):
        build(spec)


def test_list_entries_shape():
    rows = list_entries("thm2")
    assert len(rows) == 8
    assert all(set(r) >= {"key", "kind", "description", "conditions"} for r in rows)


def test_remark42_reduces_to_explicit_example():
    ch = build_remark42(4, (1.0, 0.0, 2.0))
    ex = build(FamilySpec("ex41", profiles={"solve_psi": True, "c": 1.0}))
    pk1 = packet(ch, (1.0, 0.4, 0.3, -0.2))       # (s, t1, t2, t3)
    pk2 = packet(ex, (1.0, 0.3, -0.2, 0.4))       # (s, t, u, v) = (s, t2, t3, t1)
    e1 = np.sort(np.linalg.eigvals(pk1.S).real)
    e2 = np.sort(np.linalg.eigvals(pk2.S).real)
    assert np.max(np.abs(e1 - e2)) < 1e-12
    assert pk1.H == pytest.approx(pk2.H, rel=1e-12)


def test_remark42_distinct_offsets_distinct_curvatures():
    ch = build_remark42(4, (1.0, 2.0, 3.0))
    pk = packet(ch, (1.0, 0.2, -0.3, 0.25))
    spec = eigen_structure(pk.S, pk.G)
    assert spec.case_label == "I"
    assert spec.pattern == "1+1+1+1"
    # contract: n parameters, n distinct principal curvatures
    gaps = np.diff(np.sort(spec.eigenvalues))
    assert np.min(gaps) > 10 * CLUSTER_TOL


def test_remark42_equal_offsets_collapse():
    ch = build_remark42(4, (1.0, 1.0, 1.0))
    pk = packet(ch, (1.0, 0.2, -0.3, 0.25))
    spec = eigen_structure(pk.S, pk.G)
    assert any(alg >= 3 for _, alg, _ in spec.real_eigenvalues)


def test_remark42_non_solving_profile_fails_direction_check():
    ch = build_remark42(4, (1.0, 2.0, 3.0), profiles={"psi": "s^2"})
    res = principal_direction_check(ch, (1.0, 0.2, -0.3, 0.25))
    assert res is not None and res > 1e-3


@pytest.mark.parametrize("n, a", [(4, (1.0, 2.0, 3.0)), (5, (1, 1, 3, 4))])
def test_remark42_is_the_catalog_build(n, a):
    chart = build(FamilySpec("rem42", parameters={"n": n, "a": a}))
    assert build_remark42(n, a) == chart
    assert chart.nparams == n and chart.signature.dim == n + 1


def test_remark42_guards():
    with pytest.raises(ContractViolation):
        build_remark42(3, (1.0, 2.0))
    with pytest.raises(ContractViolation):
        build_remark42(4, (1.0, 2.0))


def test_fd_oracle_on_every_chart_component():
    # forward-mode jets vs nested central differences on raw chart
    # components, all derivative orders up to three
    from biconserve.expr import fd_partial, jet_eval

    rng = np.random.default_rng(41)
    for key in all_keys():
        if key == "rem42":
            chart = build_remark42(4, (1.0, 2.0, 3.0))
        else:
            family, _, case = key.partition(".")
            profiles = {"solve_psi": True, "c": 1.0} if key == "ex41" else {}
            chart = build(FamilySpec(family, case, profiles=profiles))
        lo = np.array([d[0] for d in chart.domain])
        hi = np.array([d[1] for d in chart.domain])
        n = chart.nparams
        for _ in range(50):
            p = lo + (0.15 + 0.7 * rng.uniform(size=n)) * (hi - lo)
            alpha = tuple(rng.multinomial(int(rng.integers(1, 4)), [1.0 / n] * n))
            comp = chart.components[int(rng.integers(len(chart.components)))]
            ad = jet_eval(comp, p, sum(alpha), chart.profile_bank).partial(alpha)
            fd = fd_partial(comp, p, alpha, profile_bank=chart.profile_bank)
            assert abs(ad - fd) <= max(1e-5 * abs(ad), 1e-7), (key, alpha, ad, fd)


def test_cofactor_cross_parallel_to_reference_normal():
    # the unnormalized cross product of the tangents must be proportional
    # to the chart's displayed normal field
    from biconserve.ambient import cofactor_cross
    from biconserve.expr import eval_value, fd_partial

    chart = build(FamilySpec("ex41", profiles={"solve_psi": True, "c": 1.0}))
    p = (1.0, 0.3, -0.2, 0.4)
    tangents = []
    for i in range(4):
        alpha = [0] * 4
        alpha[i] = 1
        tangents.append(np.array([
            fd_partial(c, p, alpha, profile_bank=chart.profile_bank)
            for c in chart.components
        ]))
    w, deficient = cofactor_cross(np.array(tangents))
    assert not deficient
    ref = np.array([eval_value(e, p, chart.profile_bank)
                    for e in chart.orientation_ref])
    cosine = np.dot(w, ref) / (np.linalg.norm(w) * np.linalg.norm(ref))
    assert abs(abs(cosine) - 1.0) < 1e-9


def test_catalog_charts_accept_any_admissible_profile():
    # the constraint, not a particular solution, is what the family needs
    chart = build(FamilySpec("thm3", "i", profiles={"theta": "0.5*s + 0.1",
                                                    "phi0": 1.5, "psi0": 0.4}))
    ok, index_ok, _, _ = _verdict("thm3.i", chart)
    assert ok and index_ok


def test_a_pair_member_whose_radius_vanishes_is_refused():
    # phi2 changes sign between the 2nd and 3rd side-condition samples
    with pytest.raises(ConstraintError) as err:
        build(FamilySpec("thm3", "ii", profiles={"theta": "-0.546*s - 1.125"}))
    assert str(err.value) == ("violated side condition: phi2 != 0 with one sign "
                              "(value 3.81e-02 at s=0.167)")


def test_structure_point_errors_fail_the_report():
    chart = build(FamilySpec("thm1", "i"))
    ok, index_ok, _, notes = _verdict("thm1.i", dataclasses.replace(chart, expected_index=1))
    assert not ok and not index_ok
    assert len(notes) == 16 and all("UnexpectedIndex" in n for n in notes)
    # beyond the profile's range: a domain error, the index is fine
    wide = dataclasses.replace(chart, domain=((0.1, 3.0),) + chart.domain[1:])
    ok, index_ok, _, notes = _verdict("thm1.i", wide)
    assert not ok and index_ok
    assert len(notes) == 8 and all("DomainError" in n for n in notes)


@pytest.mark.parametrize("offsets, distinct", [((1.0, 2.0, 3.0, 4.0), True),
                                                ((1.0, 1.0, 3.0, 4.0), False)])
def test_remark42_five_parameters_structure(offsets, distinct):
    # no 4x4 classification above four parameters: the curvatures decide
    spec = FamilySpec("rem42", parameters={"n": 5, "a": offsets})
    grid = interior_grid(entry_for(spec).domain, 2)
    report, _ = run_verify(VerifyRequest(target="rem42", parameters=dict(spec.parameters),
                                         grid=grid, checks=list(STRUCTURE_CHECKS),
                                         per_point=True))
    checks = {c["name"]: c for c in report["checks"]}
    assert (checks["structure"]["status"] != "fail") is distinct
    assert not any(row["error"].startswith("UnexpectedIndex:") for row in report["rows"])
    assert checks["beltrami"]["max"] < 1e-7 and checks["gauss"]["max"] < 1e-6
    assert checks["codazzi"]["max"] < 1e-6


def test_lowdim_notes_print_plain_points():
    # a circle of radius 1/2 at speed 1/2 breaks the unit-speed claim
    circle = ImmersionChart(components=tuple(parse(e, ("v",)) for e in
                                             ("0", "0", "cos(v)/2", "sin(v)/2", "0")),
                            domain=((-0.8, 0.8),), expected_index=0, name="circle")
    ok, _, _, notes = _verdict("intcurve.B", circle)
    assert not ok
    assert notes[0] == "speed +0.250000 != +1 at (-0.704,)"


def test_lowdim_index_errors_are_point_notes():
    chart = dataclasses.replace(build(FamilySpec("intsurf", "iii")), expected_index=1)
    ok, index_ok, _, notes = _verdict("intsurf.iii", chart)
    assert not ok and not index_ok
    assert len(notes) == 4 and all(n.startswith("UnexpectedIndex: ") for n in notes)


def test_lowdim_predicate_notes_name_the_predicate():
    # a unit sphere is umbilic, but not on the quadric <x, x> = r^2 of intsurf.iii (r = 2)
    sphere = build(FamilySpec("intsurf", "iii", parameters={"r": 1.0}))
    ok, index_ok, _, notes = _verdict("intsurf.iii", sphere)
    assert not ok and index_ok
    grid = interior_grid(sphere.domain, 2)
    assert notes == [f"quadric: <x, x> = +1.000000, expected +4 at ({t:g}, {u:g})"
                     for t in grid[0][:2] for u in grid[1][:2]]


def test_pattern_mismatch_notes_name_the_pattern_and_the_point():
    # s = 0.7 is a node of the default grid, where two simple curvatures of
    # thm3.viii cross: those points come out 2+2 instead of 1+2+1-nonzero
    ok, _, _, notes = _verdict("thm3.viii", nodes=5)
    assert not ok
    assert notes and all(n.startswith("pattern 2+2, expected 1+2+1-nonzero at (0.7, ")
                         for n in notes)


@pytest.mark.parametrize("key, parameters, want", [
    ("rem42", {"n": 4.5}, "an integer"),
    ("ex41", {"a": True}, "a number"),
    ("rem42", {"a": (1.0, True, 3.0)}, "a sequence of numbers"),
])
def test_parameter_types_are_checked(key, parameters, want):
    with pytest.raises(ContractViolation, match=f"parameter '.*' takes {want}, got"):
        entry_for(FamilySpec(key, parameters=parameters))


def test_an_integer_parameter_is_unchanged():
    entry = entry_for(FamilySpec("rem42", parameters={"n": 5}))
    assert entry.params["n"] == 5 and type(entry.params["n"]) is int
    assert entry.params["a"] == (1.0, 2.0, 3.0, 4.0) and len(entry.components) == 6
