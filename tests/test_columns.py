"""Columnar sweep results against the per-point code they replace.

The array case classifier (``spectral._case_labels``) and the vectorised
family-pattern match (``sweep._tag_match``, read by the structure stage)
are checked against a copy of the per-point functions of the previous
design, kept here as the reference.  A sweep table's rows are checked
against rows built point by point from the same packets, as that design
built them.  The verify path is checked to make no per-point object, and
the side-condition scans of a chart build to raise the messages of a
sample-by-sample scan.
"""

import dataclasses
import pickle
from collections import Counter

import numpy as np
import pytest

from biconserve import catalog, cli, spectral, sweep as sweep_module
from biconserve.catalog import CATALOG, FamilySpec, all_keys, build, build_remark42
from biconserve.errors import BiconserveError, ConstraintError, plain_point
from biconserve.expr import parse
from biconserve.immersion import ImmersionChart
from biconserve.profiles import ExprProfile, constraint_residual
from biconserve.spectral import ShapeSpectrum, eigen_structure
from biconserve.sweep import HYPERSURFACE_CHECKS, PointRow, grid_points, random_points, sweep
from biconserve.thresholds import CLUSTER_TOL, DEFAULT_TOLERANCES, STRICT_MARGIN
from planted import canonical_pair, conjugated_pair

TAGS = ("zero>=2", "simple-zero+double", "1+2+1-nonzero", "all-distinct")


# -- the per-point reference ------------------------------------------------


def ref_spectrum(refused, values, algs, geos, pair_re, pair_im, npairs, tol):
    if refused:
        return ShapeSpectrum([], [], "unresolved", tol)
    pairs = list(zip(pair_re[:npairs], pair_im[:npairs]))
    reals = []
    for lam, alg, geo in zip(values, algs, geos):
        if lam == np.inf:
            break
        if geo < 1 or geo > alg:
            return ShapeSpectrum([(lam, alg, geo)], pairs, "unresolved", tol)
        reals.append((lam, alg, geo))
    spec = ShapeSpectrum(reals, pairs, "", tol)
    spec.case_label, spec.pattern = ref_classify_case(spec)
    return spec


def ref_classify_case(spec):
    items = sorted(spec.real_eigenvalues)
    pattern = "+".join([str(alg) for _, alg, _ in items] + ["2c" for _ in spec.complex_pairs])
    npairs = len(spec.complex_pairs)
    if sum(alg for _, alg, _ in items) + 2 * npairs != 4:
        return "unresolved", pattern
    defects = [(alg - geo) for _, alg, geo in items]
    if npairs == 1 and all(d == 0 for d in defects):
        return "III", pattern
    if npairs > 1 or any(d < 0 for d in defects):
        return "unresolved", pattern
    if all(d == 0 for d in defects):
        return "I", pattern
    bad = [(alg, geo) for (_, alg, geo), d in zip(items, defects) if d > 0]
    if len(bad) == 1 and bad[0][0] - bad[0][1] == 1:
        return "II", pattern
    if len(bad) == 1 and bad[0] == (3, 1):
        return "IV", pattern
    return "unresolved", pattern


def ref_zero_cluster(reals, tol_abs):
    for lam, alg, geo in reals:
        if abs(lam) <= tol_abs:
            return alg
    return 0


def ref_pattern_matches(tag, spec):
    if spec.case_label == "unresolved":
        return False, "unresolved spectrum"
    scale = 1.0 + max((abs(float(v)) for v, _, _ in spec.real_eigenvalues), default=0.0)
    ztol = 1e-7 * scale
    z = ref_zero_cluster(spec.real_eigenvalues, ztol)
    algs = sorted(alg for _, alg, _ in spec.real_eigenvalues)
    if tag == "zero>=2":
        return z >= 2, f"extra flat direction (zero multiplicity {z})" if z > 2 else ""
    if tag == "simple-zero+double":
        return z == 1 and 2 in [alg for lam, alg, _ in spec.real_eigenvalues
                                if abs(lam) > ztol], ""
    if tag == "1+2+1-nonzero":
        return z == 0 and algs == [1, 1, 2], ""
    if tag == "all-distinct":
        return z == 0 and all(a == 1 for a in algs) and not spec.complex_pairs, ""
    return True, ""


def ref_spectra(monkeypatch, S, G, tol=CLUSTER_TOL):
    """eigen_structure's block of (P, 4, 4), and each point's ShapeSpectrum
    as the reference builds it from the arrays of the same pass."""
    calls = []
    real = spectral._case_labels
    monkeypatch.setattr(spectral, "_case_labels", lambda *a: calls.append(a) or real(*a))
    block = eigen_structure(S, G, tol)
    monkeypatch.setattr(spectral, "_case_labels", real)
    (refused, values, algs, geos, npairs), = calls
    return block, [ref_spectrum(*row, tol) for row in zip(
        refused.tolist(), values.tolist(), algs.tolist(), geos.tolist(),
        block.pair_re.tolist(), block.pair_im.tolist(), npairs.tolist())]


@dataclasses.dataclass
class RefRow(PointRow):
    """A reference row, with the point's own ShapeSpectrum (or None)."""
    spectrum: object = None


def ref_rows(monkeypatch, chart, pts, checks, oracle="jets"):
    """One RefRow per point of one block (P <= BLOCK), as the previous
    design built them: a failing block is bisected, a block whose
    classification raises is classified point by point."""
    m = sweep_module
    hyper = chart.codim == 1
    if not hyper:
        checks = tuple(c for c in checks if c in m.LOWDIM_CHECKS)
    fd = oracle == "fd" and ("biconservative" in checks or "principal_direction" in checks)
    pk, error = None, ""
    try:
        pk = m.packet(chart, pts) if hyper else m.submanifold_packet(chart, pts)
        tpk = m.packet_fd(chart, pts) if fd else pk
    except BiconserveError as exc:
        if len(pts) > 1:
            half = len(pts) // 2
            return (ref_rows(monkeypatch, chart, pts[:half], checks, oracle)
                    + ref_rows(monkeypatch, chart, pts[half:], checks, oracle))
        if pk is None:
            return [RefRow(point=plain_point(pts[0]), error=m._error(exc))]
        tpk, error = pk, m._error(exc)
    block = {}
    if "unit_normal" in checks:
        block["unit_normal"] = m.unit_normal_residual(chart, pts, pk)
    if "beltrami" in checks:
        block["beltrami"] = m.beltrami_residual(chart, pts, pk)
    if "gauss" in checks or "codazzi" in checks:
        block["gauss"], block["codazzi"] = m.gauss_codazzi_residual(chart, pts, pk)
    if not error and "biconservative" in checks:
        block["biconservative"] = m.biconservative_residual(chart, pts, tpk)
    if not error and "principal_direction" in checks:
        block["principal_direction"] = m.principal_direction_check(chart, pts, tpk)
    cmc = tpk.is_cmc_point if hyper else None
    classify = hyper and not error and ("structure" in checks or "curvatures" in checks)

    def spectra_of(S, G):
        if chart.nparams == 4:
            return ref_spectra(monkeypatch, S, G)[1]
        return list(np.linalg.eigvals(S))

    spectra = None
    if classify:
        try:
            spectra = spectra_of(pk.S, pk.G)
        except (BiconserveError, np.linalg.LinAlgError):
            pass
    rows = []
    for k, p in enumerate(pts):
        row = RefRow(point=plain_point(p), error=error)
        if hyper:
            row.H, row.cmc = float(pk.H[k]), bool(cmc[k])
        row.values = {name: float(v[k]) for name, v in block.items()
                      if not (name == "principal_direction" and row.cmc)}
        if classify:
            try:
                got = spectra[k] if spectra is not None else \
                    spectra_of(pk.S[k:k + 1], pk.G[k:k + 1])[0]
            except BiconserveError as exc:
                row.error = m._error(exc)
            else:
                if isinstance(got, ShapeSpectrum):
                    row.label, row.pattern, row.spectrum = got.case_label, got.pattern, got
                    vals = [v for v, alg, _ in sorted(got.real_eigenvalues) for _ in range(alg)]
                    row.curvatures = tuple(vals) if len(vals) == 4 else None
                elif np.max(np.abs(got.imag)) < 1e-9 * (1 + np.max(np.abs(got))):
                    row.curvatures = tuple(sorted(got.real.tolist()))
        rows.append(row)
    return rows


def ref_structure_verdict(tag, rows):
    notes = [f"{r.error} (at {sweep_module._at(r.point)})" for r in rows if r.error]
    ok = not notes
    good = [r for r in rows if not r.error]
    for r in good if tag else ():
        if r.label == "unresolved":
            row_ok, note = False, f"unresolved spectrum at {sweep_module._at(r.point)}"
        elif r.spectrum is not None:
            row_ok, note = ref_pattern_matches(tag, r.spectrum)
            if not (row_ok or note):
                note = f"pattern {r.pattern}, expected {tag} at {sweep_module._at(r.point)}"
        else:
            k = np.sort(r.curvatures or ())
            row_ok = tag == "all-distinct" and k.size > 0 and bool(
                np.all(np.diff(k) > CLUSTER_TOL * (1.0 + np.max(np.abs(k)))))
            note = "" if row_ok else f"curvatures not {tag} at {sweep_module._at(r.point)}"
        if note:
            notes.append(note)
        ok = ok and row_ok
    curv = [r.curvatures for r in rows if r.curvatures]
    classified = [r for r in good if r.spectrum is not None]
    return ok, {
        "labels": Counter(r.label for r in classified),
        "patterns": Counter(r.pattern for r in classified),
        "curvature_min": min(min(c) for c in curv) if curv else None,
        "curvature_max": max(max(c) for c in curv) if curv else None,
    }, notes


def assert_rows_equal(rows, ref):
    assert len(rows) == len(ref)
    for r, q in zip(rows, ref):
        assert (r.point, r.error, r.H, r.cmc) == (q.point, q.error, q.H, q.cmc), q.point
        assert (r.label, r.pattern, r.curvatures) == (q.label, q.pattern, q.curvatures), q.point
        assert list(r.values) == list(q.values), q.point
        assert np.array_equal(list(r.values.values()), list(q.values.values()), equal_nan=True)


# -- the array classifier ---------------------------------------------------


def planted():
    """Canonical and conjugated pairs of I-IV; points refused by the guard
    band, with a geometric multiplicity 0, with one or two complex pairs;
    spectra that match and miss each tag."""
    rng = np.random.default_rng(13)
    out = []
    for case in ("I", "II", "III", "IV"):
        out.append(canonical_pair(case))
        out += [conjugated_pair(case, rng)[:2] for _ in range(6)]
    G = np.diag([-1.0, -1.0, 1.0, 1.0])
    for d in ([1.0, 1.0 + 1e-5, 2.0, 3.0], [1.0, 1.0 + 5e-7, 2.0, 3.0], [0.0, 0.0, 1.0, 2.0],
              [0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 2.0], [1.0, 2.0, 2.0, 3.0],
              [1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]):
        out.append((np.diag(d), G))
    G = np.diag([1.0, -1.0, 1.0, -1.0])
    for nu in (3e-6, 0.9):
        out.append((np.array([[0.0, 0, 0, 0], [0, 2.0, -nu, 0], [0, nu, 2.0, 0],
                              [0, 0, 0, 3.0]]), G))
    out.append((np.array([[1.0, -1, 0, 0], [1, 1.0, 0, 0], [0, 0, 2.0, -0.5],
                          [0, 0, 0.5, 2.0]]), G))
    return np.array([S for S, _ in out]), np.array([G for _, G in out])


@pytest.mark.parametrize("tol", [1e-6, 1e-4])
def test_array_classifier_is_the_per_point_reference(monkeypatch, tol):
    S, G = planted()
    block, ref = ref_spectra(monkeypatch, S, G, tol)
    assert set(block.case_label) == {"I", "II", "III", "IV", "unresolved"}
    assert {"1+1+2c", "2c+2c", ""} <= set(block.pattern)
    unresolved = [s for s in ref if s.case_label == "unresolved"]
    assert any(not s.real_eigenvalues for s in unresolved)  # refused
    # a geometric multiplicity 0 (at tol 1e-4 the same point reads as a double root)
    assert any(s.real_eigenvalues and s.real_eigenvalues[0][2] == 0
               for s in unresolved) == (tol == 1e-6)
    for k, want in enumerate(ref):
        for got in (block[k], eigen_structure(S[k], G[k], tol)):
            assert vars(got) == vars(want), k


@pytest.mark.parametrize("tag", TAGS + ("plane",))
def test_tag_match_is_the_per_point_reference(monkeypatch, tag):
    S, G = planted()
    block, ref = ref_spectra(monkeypatch, S, G)
    resolved = [k for k, s in enumerate(ref) if s.case_label != "unresolved"]
    match, z = sweep_module._tag_match(tag, block)
    assert set(match[resolved].tolist()) == ({True} if tag == "plane" else {True, False})
    for k in resolved:
        ok, note = ref_pattern_matches(tag, ref[k])
        one, z1 = sweep_module._tag_match(tag, eigen_structure(S[k:k + 1], G[k:k + 1]))
        assert bool(match[k]) == bool(one[0]) == ok, k
        extra = f"extra flat direction (zero multiplicity {z[k]})" if z1[0] > 2 else ""
        assert note == (extra if tag == "zero>=2" else ""), k


# -- the sweep table --------------------------------------------------------


def _hypersurfaces():
    out = []
    for key in all_keys():
        if CATALOG[key].kind != "hypersurface":
            continue
        family, _, case = key.partition(".")
        if key == "ex41":
            for name, profiles in (("solved", {"solve_psi": True, "c": 1.0}),
                                   ("control", {"psi": "s^2"})):
                out.append((f"ex41 {name}", build(FamilySpec("ex41", profiles=profiles))))
        else:
            out.append((key, build(FamilySpec(family, case))))
    out.append(("rem42 n=5", build_remark42(5, (1.0, 2.0, 3.0, 4.0))))
    return out


HYPERSURFACES = _hypersurfaces()


@pytest.mark.parametrize("name, chart", HYPERSURFACES, ids=[n for n, _ in HYPERSURFACES])
def test_table_rows_and_verdict_are_the_per_point_reference(monkeypatch, name, chart):
    pts = random_points(chart.domain, 10, 3)
    table = sweep(chart, pts, HYPERSURFACE_CHECKS)
    rows = ref_rows(monkeypatch, chart, pts, HYPERSURFACE_CHECKS)
    assert_rows_equal(table, rows)
    entry = CATALOG["rem42" if name.startswith("rem42") else name.split()[0]]
    for tag in {entry.structure[0], *TAGS}:
        table = sweep(dataclasses.replace(chart, structure=(tag,)), pts, HYPERSURFACE_CHECKS)
        assert sweep_module.structure_verdict(table) == ref_structure_verdict(tag, rows), tag


def _straddling_chart():
    # degenerate metric on s = 0, square root of a non-positive base for v <= -0.3
    return ImmersionChart(components=tuple(parse(e) for e in
                                           ("t", "u", "s^3", "v", "sqrt(v + 0.3)")),
                          domain=((-0.5, 0.5),) * 4, name="straddle")


def _cylinder():
    return ImmersionChart(components=tuple(parse(e) for e in ("t", "u", "cos(v)", "sin(v)", "s")),
                          domain=((-1, 1),) * 4, name="cylinder")


def _scaled_ex41(scale):
    chart = build(FamilySpec("ex41", profiles={"solve_psi": True, "c": 1.0}))
    return dataclasses.replace(chart, components=tuple(scale * c for c in chart.components))


@pytest.mark.parametrize("case", ["bisected", "cmc", "unresolved", "oracle"])
def test_special_rows_are_the_per_point_reference(monkeypatch, case):
    oracle, checks = "jets", HYPERSURFACE_CHECKS
    if case == "bisected":
        chart, pts = _straddling_chart(), grid_points(((-0.5, 0.5),) * 4, [5, 2, 2, 5])
    elif case == "cmc":
        chart, pts = _cylinder(), random_points(((-1, 1),) * 4, 9, 2)
    elif case == "unresolved":
        chart = _scaled_ex41(100.0)
        pts = grid_points(((0.6, 1.4), (-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)), 3)
    else:  # the oracle fails at two points, the jet route does not
        chart = build(FamilySpec("ex41", profiles={"solve_psi": True, "c": 1.0}))
        pts = random_points(((0.6, 1.4), (-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)), 12, 6)
        pts[[2, 9], 0] = chart.profile_bank["psi"].nodes.max() - 3e-4
        oracle = "fd"
    table = sweep(chart, pts, checks, oracle=oracle)
    assert_rows_equal(table, ref_rows(monkeypatch, chart, pts, checks, oracle))
    kinds = {"bisected": lambda: {e.split(":")[0] for e in table.error} == {
                 "", "DegenerateMetric", "DomainError"},
             "cmc": lambda: table.cmc.all() and "principal_direction" not in table[0].values,
             "unresolved": lambda: 0 < table.label.tolist().count("unresolved") < len(pts),
             "oracle": lambda: np.flatnonzero(table.error != "").tolist() == [2, 9]}
    assert kinds[case]()


def ref_summarize(rows, checks, tolerances, asserted):
    out = []
    errors = [r for r in rows if r.error]
    vacuous = bool(rows) and all(r.cmc for r in rows if not r.error)
    for name in checks:
        if name == "structure":
            continue
        vals = [(r.values[name], r.point) for r in rows if name in r.values]
        tol = tolerances.get(name)
        tangency = name in ("biconservative", "principal_direction")
        if not vals:
            out.append(sweep_module.CheckSummary(name, 0.0, 0.0, None, 0, tol, "vacuous"
                                                 if tangency and vacuous else "skipped"))
            continue
        arr = np.array([v for v, _ in vals])
        imax = int(np.argmax(arr))
        status = ("not_asserted" if name not in asserted else
                  "pass" if tol is not None and arr[imax] < tol else "fail")
        out.append(sweep_module.CheckSummary(name, float(arr[imax]), float(arr.mean()),
                                             vals[imax][1], len(vals), tol,
                                             "vacuous" if tangency and vacuous else status))
    if errors:
        out.append(sweep_module.CheckSummary("errors", float(len(errors)), 0.0,
                                             errors[0].point, len(errors), None, "error"))
    return out


@pytest.mark.parametrize("case", ["cmc with errors", "bisected", "control"])
def test_summaries_are_the_per_point_reference(case):
    if case == "cmc with errors":  # a cylinder whose chart raises for t < -0.5
        chart = ImmersionChart(components=tuple(parse(e) for e in (
            "t", "u", "cos(v)", "sin(v)", "s + 0*sqrt(t + 0.5)")), domain=((-1, 1),) * 4)
        pts = random_points(chart.domain, 30, 4)
    elif case == "bisected":
        chart, pts = _straddling_chart(), grid_points(((-0.5, 0.5),) * 4, [5, 2, 2, 5])
    else:
        chart = build(FamilySpec("ex41", profiles={"psi": "s^2"}))
        pts = random_points(chart.domain, 40, 8)
    table = sweep(chart, pts, HYPERSURFACE_CHECKS)
    assert (table.error != "").any() == (case != "control")
    for asserted in (set(HYPERSURFACE_CHECKS), {"beltrami"}):
        for tol in (DEFAULT_TOLERANCES, {"gauss": 0.0, "beltrami": 1.0}):
            got = sweep_module.summarize(table, HYPERSURFACE_CHECKS, tol, asserted)
            assert got == ref_summarize(list(table), HYPERSURFACE_CHECKS, tol, asserted)
    statuses = {s.name: s.status for s in got}
    assert (statuses["biconservative"] == "vacuous") == (case == "cmc with errors")


def test_eigenvalue_branch_marks_complex_roots():
    # a 5-parameter chart has no 4x4 classification: curvatures only where
    # every eigenvalue of S is real
    chart = build_remark42(5, (1.0, 2.0, 3.0, 4.0))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    S = np.array([np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), np.eye(5)])
    S[1, :2, :2] = rot
    spectra, curvatures, has_curv = sweep_module._classify(chart, S, S)
    assert spectra is None and has_curv.tolist() == [True, False]
    assert curvatures[0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_classification_fallback_rows_are_the_per_point_reference(monkeypatch):
    block_packet = sweep_module.packet
    pts = grid_points(((0.6, 1.4),) + ((-0.5, 0.5),) * 3, 2)

    def broken(chart, block):  # points 1 and 5, found by their coordinates in any (sub-)block
        pk = block_packet(chart, block)
        pk.S[(block[:, None] == pts[[1, 5]]).all(axis=2).any(axis=1), 0, 1] += 0.5
        return pk  # not metric-self-adjoint there

    monkeypatch.setattr(sweep_module, "packet", broken)
    chart = build(FamilySpec("ex41"))
    table = sweep(chart, pts, ("beltrami", "structure"))
    assert_rows_equal(table, ref_rows(monkeypatch, chart, pts, ("beltrami", "structure")))
    assert np.flatnonzero(table.error != "").tolist() == [1, 5]
    assert np.flatnonzero(table.label == "").tolist() == [1, 5]


@pytest.mark.parametrize("name", ["ex41 solved", "thm3.viii"])
def test_pool_and_pickle_keep_the_columns(monkeypatch, name):
    monkeypatch.setattr(sweep_module, "BLOCK", 16)  # 40 or 45 points: 3 blocks, so a pool starts
    chart = dict(HYPERSURFACES)[name]
    if name == "thm3.viii":  # its s = 0.7 slice misses the chart's structure, with notes
        pts = grid_points(((0.6, 0.8), (-0.7, 0.7), (-0.5, 0.5), (-0.5, 0.5)), [3, 5, 3, 1])
    else:
        pts = random_points(chart.domain, 40, 2)
    table = sweep(chart, pts, HYPERSURFACE_CHECKS)
    assert bool(table.notes) == (name == "thm3.viii")
    for other in (sweep(chart, pts, HYPERSURFACE_CHECKS, jobs=2),
                  pickle.loads(pickle.dumps(table))):
        for f in dataclasses.fields(table):
            a, b = getattr(table, f.name), getattr(other, f.name)
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f") \
                if isinstance(a, np.ndarray) else a == b, f.name
        assert_rows_equal(other, table)


@pytest.mark.parametrize("asked, other", [("gauss", "codazzi"), ("codazzi", "gauss")])
def test_a_table_holds_only_the_requested_checks(asked, other):
    # one gauss_codazzi_residual call answers both; the table keeps the one asked for
    pts = grid_points(((0.6, 1.4),) + ((-0.5, 0.5),) * 3, 2)
    table = sweep(build(FamilySpec("ex41")), pts, (asked,))
    assert len(table.column(asked)[0]) == len(pts)
    assert len(table.column(other)[0]) == 0
    report, _ = cli.run_verify(cli.VerifyRequest(target="ex41", checks=[asked], per_point=True))
    assert all(set(row["values"]) == {asked} for row in report["rows"])


def test_verify_makes_no_per_point_object(monkeypatch):
    made = Counter()
    init = PointRow.__init__

    def counted(self, *args, **kwargs):
        made["PointRow"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PointRow, "__init__", counted)
    report, code = cli.run_verify(cli.VerifyRequest(target="ex41"))
    assert code == 0 and report["spectral"]["labels"] == {"I": 625}
    assert made == Counter()
    # the counters are live: asking for a point makes its objects
    table = sweep(build(FamilySpec("ex41")), np.array([[1.0, 0.1, 0.2, 0.3]]), ("structure",))
    assert table[0].label == "I" and made == Counter({"PointRow": 1})


# -- side-condition scans of a chart build ------------------------------------


def _first_failure_message(spec):
    """The ConstraintError a sample-by-sample scan of the build raises."""
    entry = CATALOG[spec.key]
    s_lo, s_hi = (entry.domain or ((0.6, 1.4),))[0]  # rem42's default domain
    samples = np.linspace(s_lo, s_hi, catalog._SAMPLES)
    if entry.pair_kind:
        phi, psi = (ExprProfile(parse(spec.profiles[n], ("s",)))
                    for n in entry.profile_names)
        worst = max(constraint_residual(entry.pair_kind, phi, psi, s) for s in samples)
        return str(ConstraintError(catalog._PAIR_COND[entry.pair_kind], f"residual {worst:.2e}"))
    psi = ExprProfile(parse(spec.profiles["psi"], ("s",)))
    sign = entry.psi_inequality
    for s in samples:
        dpsi = psi.derivs(s, 1)[1]
        # the condition as the entry lists it, and its expression's value
        val = {1: 1.0 - 2.0 * dpsi, -1: 1.0 + 2.0 * dpsi, 2: 2.0 * dpsi - 1.0}[sign]
        if (val < STRICT_MARGIN if sign == 2 else val > -STRICT_MARGIN):
            return str(ConstraintError(catalog._INEQ_COND[sign], f"value {val:.2e} at s={s:.3f}"))
    return None


@pytest.mark.parametrize("spec", [
    FamilySpec("thm1", "v", profiles={"psi": "0.1*s"}),             # fails everywhere
    FamilySpec("thm1", "v", profiles={"psi": "s - 0.4*s^2"}),       # from s = 0.625 on
    FamilySpec("thm3", "viii", profiles={"psi": "0.5*s^2 - s"}),    # from s = 0.5 on
    FamilySpec("ex41", profiles={"psi": "1.5*s - 0.5*s^2"}),        # from s = 1 on
    FamilySpec("rem42", profiles={"psi": "s - 0.2*s^2"}),           # from s = 1.25 on
    FamilySpec("thm1", "i", profiles={"phi": "s", "psi": "s"}),
    FamilySpec("thm2", "i", profiles={"phi": "s^2", "psi": "0.5*s"}),
], ids=lambda spec: f"{spec.key} {spec.profiles}")
def test_side_condition_scans_raise_the_first_failing_sample(spec):
    expected = _first_failure_message(spec)
    assert expected is not None
    with pytest.raises(ConstraintError) as err:
        build(spec)
    assert str(err.value) == expected
