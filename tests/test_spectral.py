"""Shape-operator spectrum tests: quartic coefficients, planted canonical
forms under random frame changes, the refusal behavior near ambiguity, and
block classification equal to the one-point route."""

import numpy as np
import pytest

from biconserve import spectral, sweep as sweep_module
from biconserve.catalog import CATALOG, FamilySpec, all_keys, build
from biconserve.errors import ContractViolation
from biconserve.immersion import packet
from biconserve.spectral import (CLUSTER_TOL, ShapeSpectrum, SpectrumBlock,
                                 characteristic_quartic, eigen_structure)
from biconserve.sweep import grid_points, random_points, sweep
from planted import canonical_pair, conjugated_pair


def test_quartic_of_zero_operator():
    assert np.allclose(characteristic_quartic(np.zeros((4, 4))), [1, 0, 0, 0, 0])


def test_quartic_direct_expansion():
    c = characteristic_quartic(np.diag([1.0, 2.0, 2.0, 3.0]))
    assert np.allclose(c, [1.0, -8.0, 23.0, -28.0, 12.0], atol=1e-12)


def test_quartic_similarity_invariance():
    rng = np.random.default_rng(17)
    for _ in range(50):
        S = rng.normal(size=(4, 4))
        c0 = characteristic_quartic(S)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        P = q @ np.diag(rng.uniform(0.8, 1.25, 4))
        c1 = characteristic_quartic(np.linalg.solve(P, S @ P))
        assert np.max(np.abs(c0 - c1)) < 1e-10 * (1 + np.max(np.abs(c0)))


def test_trace_recovered_from_roots():
    rng = np.random.default_rng(23)
    for case in ("I", "II", "III"):
        for _ in range(30):
            S, G, _, _ = conjugated_pair(case, rng)
            spec = eigen_structure(S, G)
            tr = sum(v * alg for v, alg, _ in spec.real_eigenvalues)
            tr += sum(2 * re for re, _ in spec.complex_pairs)
            assert tr == pytest.approx(float(np.trace(S)), abs=1e-9)


def _planted_sorted(S0):
    return sorted(np.linalg.eigvals(S0), key=lambda z: (z.real, z.imag))


def _recovered_sorted(spec):
    vals = [complex(v, 0) for v, alg, _ in spec.real_eigenvalues for _ in range(alg)]
    vals += [complex(re, im) for re, im in spec.complex_pairs]
    vals += [complex(re, -im) for re, im in spec.complex_pairs]
    return sorted(vals, key=lambda z: (z.real, z.imag))


def _random_params(rng):
    return {"H": rng.uniform(0.3, 1.2), "k2": rng.uniform(-2, -0.5),
            "k3": rng.uniform(0.5, 2.0), "k4": rng.uniform(2.5, 4.0),
            "nu": rng.uniform(0.5, 2.0)}


@pytest.mark.parametrize("case", ["I", "II", "III"])
def test_planted_cases_recovered(case):
    rng = np.random.default_rng(101)
    good = 0
    for _ in range(200):
        S, G, S0, _ = conjugated_pair(case, rng, _random_params(rng))
        spec = eigen_structure(S, G)
        assert spec.case_label in (case, "unresolved")
        if spec.case_label == case:
            err = max(abs(p - q) for p, q in
                      zip(_planted_sorted(S0), _recovered_sorted(spec)))
            assert err < 1e-8
            good += 1
    assert good >= 199


def test_planted_case_iv_defect_pattern():
    # two-step defect: triple root with one eigenvector; classified at a
    # coarser tolerance suited to the cube-root sensitivity of triple roots
    rng = np.random.default_rng(59)
    good = 0
    for _ in range(200):
        S, G, S0, _ = conjugated_pair("IV", rng, _random_params(rng))
        spec = eigen_structure(S, G, tol=1e-4)
        assert spec.case_label in ("IV", "unresolved")
        if spec.case_label == "IV":
            good += 1
            triple = [x for x in spec.real_eigenvalues if x[1] == 3]
            assert len(triple) == 1 and triple[0][2] == 1
    assert good >= 190


def test_case_patterns():
    S, G = canonical_pair("I", {"H": 0.5, "k2": 1.0, "k3": 2.0, "k4": 3.0})
    spec = eigen_structure(S, G)
    assert (spec.case_label, spec.pattern) == ("I", "1+1+1+1")
    S, G = canonical_pair("II")
    spec = eigen_structure(S, G)
    assert spec.case_label == "II"
    assert "2" in spec.pattern
    S, G = canonical_pair("III")
    spec = eigen_structure(S, G)
    assert spec.case_label == "III"
    assert spec.pattern.endswith("2c")
    assert spec.complex_pairs[0][1] > 0


def test_repeated_eigenvalue_diagonalizable_stays_case_I():
    S = np.diag([2.0, 1.0, 1.0, -1.0])
    G = np.diag([-1.0, -1.0, 1.0, 1.0])
    spec = eigen_structure(S, G)
    assert spec.case_label == "I"
    assert spec.pattern == "1+2+1"
    lam = [x for x in spec.real_eigenvalues if x[1] == 2][0]
    assert lam[2] == 2  # geometric multiplicity matches


def test_ambiguity_band_refuses():
    # a genuine gap inside (tol, 10 tol) must come back unresolved
    gap = 3e-6
    S = np.diag([1.0, 1.0 + gap, 2.0, 3.0])
    G = np.diag([-1.0, -1.0, 1.0, 1.0])
    spec = eigen_structure(S, G, tol=1e-6)
    assert spec.case_label == "unresolved"


def test_non_self_adjoint_rejected():
    S = np.diag([1.0, 2.0, 3.0, 4.0])
    G = np.diag([-1.0, -1.0, 1.0, 1.0])
    S2 = S.copy()
    S2[0, 1] = 0.5  # breaks G-self-adjointness
    with pytest.raises(ContractViolation):
        eigen_structure(S2, G)


def test_classify_case_totals_must_be_four():
    # one real item of multiplicity 2 and no pair: the multiplicities total 2
    labels, patterns, _ = spectral._case_labels(
        np.array([False]), np.array([[1.0, np.inf, np.inf, np.inf]]), np.array([[2, 0, 0, 0]]),
        np.array([[2, 0, 0, 0]]), np.array([0]))
    assert (labels[0], patterns[0]) == ("unresolved", "2")


def test_double_root_is_not_thrown_off_by_a_newton_step():
    # the companion matrix finds the double root with p and p' both at
    # rounding level; a Newton step from there would land far away
    pk = packet(build(FamilySpec("thm3", "viii")), (0.876, 0.0, 0.0, 0.0))
    spec = eigen_structure(pk.S, pk.G)
    assert (spec.case_label, spec.pattern) == ("I", "2+1+1")
    got = sorted(v for v, alg, _ in spec.real_eigenvalues for _ in range(alg))
    assert np.allclose(got, np.sort(np.linalg.eigvals(pk.S).real), rtol=0, atol=1e-9)


def assert_block_is_each_point(S, G, tol=1e-6):
    block = eigen_structure(S, G, tol)
    assert isinstance(block, SpectrumBlock) and len(block) == len(S)
    assert block.case_label == tuple(s.case_label for s in block)
    assert block.pattern == tuple(s.pattern for s in block)
    for k in range(len(S)):
        one = eigen_structure(S[k], G[k], tol)
        assert isinstance(one, ShapeSpectrum)
        for field in ("real_eigenvalues", "complex_pairs", "case_label", "clustering_tol",
                      "pattern"):
            assert getattr(block[k], field) == getattr(one, field), (k, field)
    return block


@pytest.mark.parametrize("case, tol", [("I", 1e-6), ("II", 1e-6), ("III", 1e-6),
                                       ("IV", 1e-6), ("IV", 1e-4)])
def test_planted_block_is_each_point(case, tol):
    rng = np.random.default_rng(211)
    pairs = [conjugated_pair(case, rng, _random_params(rng))[:2] for _ in range(40)]
    block = assert_block_is_each_point(np.array([S for S, _ in pairs]),
                                       np.array([G for _, G in pairs]), tol)
    assert case in block.case_label


def test_ambiguity_band_block_is_each_point():
    G = np.diag([-1.0, -1.0, 1.0, 1.0])
    S = [np.diag([1.0, 1.0 + gap, 2.0, 3.0]) for gap in (5e-7, 3e-6, 8e-6, 2e-5, 1e-3)]
    for nu in (3e-6, 8e-6, 2e-5):  # a complex pair near the rotation band
        S.append(np.array([[1.0, 0, 0, 0], [0, 2.0, -nu, 0], [0, nu, 2.0, 0],
                           [0, 0, 0, 3.0]]))
    Gs = [G] * 5 + [np.diag([1.0, -1.0, 1.0, -1.0])] * 3
    block = assert_block_is_each_point(np.array(S), np.array(Gs))
    assert block.case_label[1] == "unresolved" and block.case_label[4] == "I"


def test_mixed_block_is_each_point():
    # simple, double, defective and complex-pair points interleaved
    rng = np.random.default_rng(5)
    kinds = [canonical_pair("I"), (np.diag([2.0, 1.0, 1.0, -1.0]),
                                   np.diag([-1.0, -1.0, 1.0, 1.0])),
             canonical_pair("II"), canonical_pair("III"), canonical_pair("IV")]
    picks = rng.integers(0, len(kinds), 60)
    block = assert_block_is_each_point(np.array([kinds[i][0] for i in picks]),
                                       np.array([kinds[i][1] for i in picks]))
    assert block.case_label == tuple(("I", "I", "II", "III", "IV")[i] for i in picks)


def test_a_non_self_adjoint_point_fails_only_its_row(monkeypatch):
    S, G = canonical_pair("I")
    bad = np.array([S, S, S])
    bad[1, 0, 1] = 0.5
    with pytest.raises(ContractViolation):
        eigen_structure(bad, np.array([G, G, G]))

    block_packet = sweep_module.packet

    def broken(chart, pts):
        pk = block_packet(chart, pts)
        pk.S[5, 0, 1] += 0.5
        return pk

    monkeypatch.setattr(sweep_module, "packet", broken)
    chart = build(FamilySpec("ex41"))
    rows = sweep(chart, grid_points(((0.6, 1.4),) + ((-0.5, 0.5),) * 3, 2), ("structure",))
    assert rows[5].error == "ContractViolation: operator is not metric-self-adjoint"
    assert rows[5].label == "" and rows[5].spectrum is None
    assert all(not r.error and r.label == "I" for k, r in enumerate(rows) if k != 5)


def test_headline_grid_settles_no_root_group(monkeypatch):
    # every point of the headline 5^4 grid has four well-separated roots,
    # so none goes through the per-point multiplicity test
    calls = []
    settle = spectral._settle

    def counted(*args):
        calls.append(args)
        return settle(*args)

    monkeypatch.setattr(spectral, "_settle", counted)
    chart = build(FamilySpec("ex41", parameters={"a": 1.0, "b": 2.0},
                             profiles={"solve_psi": True, "c": 1.0}))
    rows = sweep(chart, grid_points(((0.6, 1.4),) + ((-0.5, 0.5),) * 3, 5), ("structure",))
    assert len(rows) == 625 and {r.label for r in rows} == {"I"}
    assert calls == []
    # the counter is live: a double root does go through it
    eigen_structure(np.diag([2.0, 1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0, 1.0]))
    assert calls


def svd_rule(A, cut):
    """The plain rank test: the singular values of each A at or below its cut."""
    return 4 - (np.linalg.svd(A, compute_uv=False) > cut[:, None]).sum(axis=1)


def svd_rows(monkeypatch):
    """A list that collects the items ``_nullity`` sends to the SVD."""
    rows = []
    svd = spectral._svd_nullity

    def counted(A, cut):
        rows.extend(A)
        return svd(A, cut)

    monkeypatch.setattr(spectral, "_svd_nullity", counted)
    return rows


def assert_certified_is_svd_rule(monkeypatch, S, G, tol=CLUSTER_TOL):
    block = eigen_structure(S, G, tol)
    with monkeypatch.context() as m:
        m.setattr(spectral, "_nullity", svd_rule)
        plain = eigen_structure(S, G, tol)
    for field in ("values", "algs", "geos", "pair_re", "pair_im", "npairs", "labels",
                  "patterns"):
        assert np.array_equal(getattr(block, field), getattr(plain, field)), field


def test_cofactor_rows_are_the_adjugate_up_to_sign():
    rng = np.random.default_rng(41)
    A = rng.normal(size=(50, 4, 4)) * rng.uniform(0.1, 10.0, size=(50, 1, 1))
    adj = np.linalg.inv(A) * np.linalg.det(A)[:, None, None]
    cof = spectral._cofactor_rows(A) * np.array([-1.0, 1.0, -1.0, 1.0])[:, None]
    assert np.allclose(cof, adj.transpose(0, 2, 1), rtol=0,
                       atol=1e-13 * np.abs(adj).max())


@pytest.mark.parametrize("key", [k for k in all_keys()
                                 if CATALOG[k].kind == "hypersurface"])
def test_certified_rank_is_svd_rule_on_catalog_charts(monkeypatch, key):
    chart = build(FamilySpec(key))
    pk = packet(chart, random_points(chart.domain, 24, 301))
    assert_certified_is_svd_rule(monkeypatch, pk.S, pk.G)


@pytest.mark.parametrize("profiles", [{"solve_psi": True, "c": 1.0}, {"psi": "s^2"}],
                         ids=["solved", "control"])
def test_certified_rank_is_svd_rule_on_ex41(monkeypatch, profiles):
    chart = build(FamilySpec("ex41", parameters={"a": 1.0, "b": 2.0}, profiles=profiles))
    pk = packet(chart, grid_points(((0.6, 1.4),) + ((-0.5, 0.5),) * 3, 3))
    assert_certified_is_svd_rule(monkeypatch, pk.S, pk.G)


@pytest.mark.parametrize("case", ["I", "II", "III", "IV"])
@pytest.mark.parametrize("tol", [1e-6, 1e-4])
def test_certified_rank_is_svd_rule_on_planted_pairs(monkeypatch, case, tol):
    rng = np.random.default_rng(83)
    pairs = [canonical_pair(case)] + [conjugated_pair(case, rng, _random_params(rng))[:2]
                                      for _ in range(40)]
    assert_certified_is_svd_rule(monkeypatch, np.array([S for S, _ in pairs]),
                                 np.array([G for _, G in pairs]), tol)


def test_certified_rank_is_svd_rule_near_the_cut(monkeypatch):
    # sigma_3 and sigma_4 at 0.3, 0.9, 1.1 and 3 cuts, beside a certifiable
    # sigma_3 = 1: the items near the cut must reach the SVD and get its answer
    rng = np.random.default_rng(97)
    cut = 1e-8
    levels = [0.3 * cut, 0.9 * cut, 1.1 * cut, 3.0 * cut]
    sigmas = [(2.0, 1.0, s3, s4) for s3 in levels + [1.0] for s4 in levels if s4 <= s3]
    A = []
    for sigma in sigmas * 4:
        U, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        V, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        A.append(U @ np.diag(sigma) @ V.T)
    A, cuts = np.array(A), np.full(len(A), cut)
    rows = svd_rows(monkeypatch)
    assert np.array_equal(spectral._nullity(A, cuts), svd_rule(A, cuts))
    # only sigma_3 = 1 with sigma_4 = 0.3 cut is certified: every other item
    # is near the cut
    assert len(rows) == len(A) - 4


def test_headline_grid_sends_no_item_to_the_svd(monkeypatch):
    # every root item of the headline 5^4 grid is simple and far from the
    # cut, so the adjugate certifies all of them
    rows = svd_rows(monkeypatch)
    chart = build(FamilySpec("ex41", parameters={"a": 1.0, "b": 2.0},
                             profiles={"solve_psi": True, "c": 1.0}))
    table = sweep(chart, grid_points(((0.6, 1.4),) + ((-0.5, 0.5),) * 3, 5), ("structure",))
    assert len(table) == 625 and {r.label for r in table} == {"I"}
    assert rows == []
    # the counter is live: a diagonalizable double root, whose adjugate is
    # 0, does reach the SVD
    spec = eigen_structure(np.diag([2.0, 1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0, 1.0]))
    assert len(rows) == 1 and [geo for _, alg, geo in spec.real_eigenvalues if alg == 2] == [2]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_an_overflowed_adjugate_takes_the_svd(monkeypatch):
    # entries near 1e60 overflow the adjugate's squared norms; with sigma_4
    # (1e53) above the cut, only the SVD can say the nullity is 0
    A, cut = np.diag([1e53, 1e60, 2e60, 3e60])[None], np.array([6e51])
    rows = svd_rows(monkeypatch)
    assert spectral._nullity(A, cut).tolist() == svd_rule(A, cut).tolist() == [0]
    assert len(rows) == 1
