"""Catalog construction, side conditions, structural verification, and the
frozen transcription audit against tests/data/golden_charts.json."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from biconserve.catalog import (CATALOG, FamilySpec, all_keys, build, build_remark42,
                                list_entries, verify_structure)
from biconserve.cli import VerifyRequest, run_verify
from biconserve.errors import ConstraintError, ContractViolation, DomainError
from biconserve.immersion import packet, principal_direction_check
from biconserve.spectral import CLUSTER_TOL, eigen_structure
from biconserve.sweep import interior_grid

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


@pytest.mark.parametrize("key", [k for k in all_keys() if k != "rem42"])
def test_structure_every_entry(key):
    rep = verify_structure(key, nodes_per_axis=2)
    assert rep.index_ok, key
    assert rep.family_ok, (key, rep.notes)
    assert rep.beltrami_max < 1e-7
    assert rep.gauss_max < 1e-6
    assert rep.codazzi_max < 1e-6


def test_cylinder_member_degenerates_further():
    # constant radius, linear height: an extra flat direction appears and
    # the report says so
    chart = build(FamilySpec("thm1", "i",
                             profiles={"theta": "1.5707963267948966",
                                       "phi0": 1.0, "psi0": 0.0}))
    rep = verify_structure("thm1.i", nodes_per_axis=2, chart=chart)
    assert rep.family_ok
    assert any("zero multiplicity 3" in n for n in rep.notes)


def test_thm2_pattern_double_plus_simple_zero():
    rep = verify_structure("thm2.i", nodes_per_axis=2)
    assert rep.family_ok
    assert all(p in ("1+2+1", "2+1+1", "1+1+2") for p in rep.patterns)


def test_ex41_pattern_and_curvature_values():
    chart = build(FamilySpec("ex41", profiles={"solve_psi": True, "c": 1.0}))
    rep = verify_structure("ex41", nodes_per_axis=2, chart=chart)
    assert rep.family_ok and rep.patterns == ["1+1+1+1"]
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


def test_ex41_domain_guard():
    with pytest.raises(DomainError):
        build(FamilySpec("ex41", domain=((-0.5, 1.0), (-1, 1), (-1, 1), (-1, 1)),
                         profiles={"psi": "s^2 + 2*s"}))


def test_unknown_key_rejected():
    with pytest.raises(ContractViolation):
        build(FamilySpec("thm9", "i"))


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


def test_metric_cross_parallel_to_reference_normal():
    # the unnormalized cross product of the tangents must be proportional
    # to the chart's displayed normal field
    from biconserve.ambient import metric_cross
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
    w = metric_cross(tangents).components
    ref = np.array([eval_value(e, p, chart.profile_bank)
                    for e in chart.orientation_ref])
    cosine = np.dot(w, ref) / (np.linalg.norm(w) * np.linalg.norm(ref))
    assert abs(abs(cosine) - 1.0) < 1e-9


def test_catalog_charts_accept_any_admissible_profile():
    # the constraint, not a particular solution, is what the family needs
    chart = build(FamilySpec("thm3", "i", profiles={"theta": "0.5*s + 0.1",
                                                    "phi0": 1.5, "psi0": 0.4}))
    rep = verify_structure("thm3.i", nodes_per_axis=2, chart=chart)
    assert rep.family_ok and rep.index_ok


@pytest.mark.parametrize("key", [k for k in all_keys() if CATALOG[k].kind == "hypersurface"])
def test_structure_verdict_is_the_verify_verdict(key):
    # verify_structure and `biconserve verify` judge the same grid alike
    rep = verify_structure(key, nodes_per_axis=2)
    family, _, case = key.partition(".")
    grid = interior_grid(build(FamilySpec(family, case)).domain, 2)
    report, _ = run_verify(VerifyRequest(target=key, grid=grid))
    status = {c["name"]: c["status"] for c in report["checks"]}["structure"]
    assert (status != "fail") == rep.family_ok
    spectral = report["spectral"]
    assert sorted(spectral["patterns"]) == rep.patterns
    assert sorted(spectral["labels"]) == rep.case_labels
    assert (spectral["curvature_min"], spectral["curvature_max"]) == \
        (rep.curvature_min, rep.curvature_max)


def test_structure_point_errors_fail_the_report():
    chart = build(FamilySpec("thm1", "i"))
    rep = verify_structure("thm1.i", nodes_per_axis=2,
                           chart=dataclasses.replace(chart, expected_index=1))
    assert not rep.family_ok and not rep.index_ok
    assert len(rep.notes) == 16 and all("UnexpectedIndex" in n for n in rep.notes)
    # beyond the profile's range: a domain error, the index is fine
    wide = dataclasses.replace(chart, domain=((0.1, 3.0),) + chart.domain[1:])
    rep = verify_structure("thm1.i", nodes_per_axis=2, chart=wide)
    assert not rep.family_ok and rep.index_ok
    assert len(rep.notes) == 8 and all("DomainError" in n for n in rep.notes)


@pytest.mark.parametrize("offsets, distinct", [((1.0, 2.0, 3.0, 4.0), True),
                                                ((1.0, 1.0, 3.0, 4.0), False)])
def test_remark42_five_parameters_structure(offsets, distinct):
    # no 4x4 classification above four parameters: the curvatures decide
    spec = FamilySpec("rem42", parameters={"n": 5, "a": offsets})
    rep = verify_structure(spec, nodes_per_axis=2)
    assert rep.family_ok is distinct and rep.index_ok
    assert rep.beltrami_max < 1e-7 and rep.gauss_max < 1e-6 and rep.codazzi_max < 1e-6
