"""Acceptance suite: the eight exit criteria, each at its stated tolerance.

Every test prints one `[acceptance] criterion N: PASS/FAIL` line.  Run with
`pytest tests/test_acceptance.py -v -s` to see them live.
"""

import time

import numpy as np
import pytest

from biconserve.catalog import (CATALOG, FamilySpec, all_keys, build,
                                build_remark42)
from biconserve.cli import VerifyRequest, main, run_verify
from biconserve.immersion import (beltrami_residual, gauss_codazzi_residual,
                                  packet, packet_fd, submanifold_packet)
from biconserve.profiles import (psi_ode_residual, psi_ode_rhs, rk4_solve,
                                 solve_psi)
from biconserve.spectral import eigen_structure
from biconserve.sweep import random_points
from biconserve.thresholds import CLUSTER_TOL
from planted import conjugated_pair

GRID1 = [[0.6, 1.4, 5], [-0.5, 0.5, 5], [-0.5, 0.5, 5], [-0.5, 0.5, 5]]


def _report(n, ok, detail):
    print(f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def ex41_solved():
    return build(FamilySpec("ex41", parameters={"a": 1.0, "b": 2.0},
                            profiles={"solve_psi": True, "c": 1.0}))


def test_criterion_1_headline_end_to_end():
    req = VerifyRequest(
        target="ex41", parameters={"a": 1.0, "b": 2.0},
        profiles={"solve_psi": True, "c": 1.0}, grid=GRID1,
        checks=["biconservative", "principal_direction", "unit_normal", "structure"],
        jobs=1,
    )
    t0 = time.perf_counter()
    report, code = run_verify(req)
    elapsed = time.perf_counter() - t0
    checks = {c["name"]: c for c in report["checks"]}
    bc = checks["biconservative"]["max"]
    pd = checks["principal_direction"]["max"]
    labels = report["spectral"]["labels"]
    patterns = report["spectral"]["patterns"]
    n_pts = 5 ** 4
    ok = (code == 0 and bc < 1e-6 and pd < 1e-6
          and labels == {"I": n_pts} and patterns == {"1+1+1+1": n_pts}
          and checks["biconservative"]["count"] == n_pts
          and elapsed < 10.0)
    _report(1, ok, f"bc_max={bc:.2e} pd_max={pd:.2e} labels={labels} "
                   f"time={elapsed:.1f}s")


def test_criterion_2_closed_form_curvatures(ex41_solved):
    chart = ex41_solved
    psi = chart.profile_bank["psi"]
    axes = [np.linspace(lo, hi, int(n)) for lo, hi, n in GRID1]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    rng = np.random.default_rng(2024)
    idx = rng.choice(len(pts), size=50, replace=False)
    worst = 0.0
    for p in pts[idx]:
        pk = packet(chart, p)
        s = p[0]
        d = psi.derivs(s, 2)
        root = np.sqrt(2 * d[1] - 1)
        ks = np.sort([d[2] / (2 * d[1] - 1) ** 1.5,
                      -1.0 / (s * root),
                      -1.0 / ((s + 4.0) * root),    # s + 2b
                      -1.0 / ((s + 2.0) * root)])   # s + 2a
        eig = np.sort(np.linalg.eigvals(pk.S).real)
        worst = max(worst, float(np.max(np.abs(eig - ks) / np.abs(ks))))
    _report(2, worst < 1e-8, f"max relative curvature error {worst:.2e} at 50 points")


def test_criterion_3_identity_suite_full_catalog():
    t0 = time.perf_counter()
    worst = {"beltrami": 0.0, "gauss": 0.0, "codazzi": 0.0, "normal": 0.0}
    index_ok = True
    n_checked = 0
    for key in all_keys():
        if key == "rem42":
            chart = build_remark42(4, (1.0, 2.0, 3.0))
        else:
            family, _, case = key.partition(".")
            profiles = {"solve_psi": True, "c": 1.0} if key == "ex41" else {}
            chart = build(FamilySpec(family, case, profiles=profiles))
        pts = random_points(chart.domain, 20, seed=7)
        for p in pts:
            if chart.codim == 1:
                pk = packet(chart, p)
                w = chart.signature.weights
                nn = float(np.dot(w * pk.N.components, pk.N.components))
                worst["normal"] = max(worst["normal"], abs(nn - 1.0))
                index_ok &= int(np.sum(np.linalg.eigvalsh(pk.G) < 0)) == 2
                worst["beltrami"] = max(worst["beltrami"],
                                        beltrami_residual(chart, p, pk))
                g, c = gauss_codazzi_residual(chart, p, pk)
            else:
                spk = submanifold_packet(chart, p)
                worst["beltrami"] = max(worst["beltrami"],
                                        beltrami_residual(chart, p, spk))
                g, c = gauss_codazzi_residual(chart, p, spk)
            worst["gauss"] = max(worst["gauss"], g)
            worst["codazzi"] = max(worst["codazzi"], c)
            n_checked += 1
    elapsed = time.perf_counter() - t0
    ok = (worst["beltrami"] < 1e-7 and worst["gauss"] < 1e-6
          and worst["codazzi"] < 1e-6 and worst["normal"] < 1e-9
          and index_ok and elapsed < 60.0)
    _report(3, ok, f"{n_checked} points: bel={worst['beltrami']:.1e} "
                   f"gauss={worst['gauss']:.1e} cod={worst['codazzi']:.1e} "
                   f"normal={worst['normal']:.1e} time={elapsed:.1f}s")


def test_criterion_4_negative_control():
    code = main(["verify", "ex41", "--a", "1", "--b", "2", "--psi", "s^2",
                 "--grid", "s=0.6:1.4:5,t=-0.5:0.5:5,u=-0.5:0.5:5,v=-0.5:0.5:5"])
    req = VerifyRequest(target="ex41", parameters={"a": 1.0, "b": 2.0},
                        profiles={"psi": "s^2"}, grid=GRID1)
    report, code2 = run_verify(req)
    bc = {c["name"]: c for c in report["checks"]}["biconservative"]["max"]
    ok = code == 1 and code2 == 1 and bc > 1e-3
    _report(4, ok, f"exit={code} bc_max={bc:.2e}")


def test_criterion_5_planted_spectral_suite():
    rng = np.random.default_rng(1234)
    detail = []
    ok = True
    for case in ("I", "II", "III"):
        recovered = 0
        mislabeled = 0
        for _ in range(1000):
            params = {"H": rng.uniform(0.3, 1.2), "k2": rng.uniform(-2, -0.5),
                      "k3": rng.uniform(0.5, 2.0), "k4": rng.uniform(2.5, 4.0),
                      "nu": rng.uniform(0.5, 2.0)}
            S, G, S0, _ = conjugated_pair(case, rng, params)
            spec = eigen_structure(S, G)
            if spec.case_label == case:
                planted = sorted(np.linalg.eigvals(S0),
                                 key=lambda z: (z.real, z.imag))
                got = sorted(
                    [complex(v, 0) for v, alg, _ in spec.real_eigenvalues
                     for _ in range(alg)]
                    + [complex(re, im) for re, im in spec.complex_pairs]
                    + [complex(re, -im) for re, im in spec.complex_pairs],
                    key=lambda z: (z.real, z.imag))
                err = max(abs(p - q) for p, q in zip(planted, got))
                if err <= 1e-8:
                    recovered += 1
            elif spec.case_label != "unresolved":
                mislabeled += 1
        detail.append(f"{case}:{recovered}/1000")
        ok = ok and recovered >= 999 and mislabeled == 0
    _report(5, ok, " ".join(detail) + ", no wrong labels")


def test_criterion_6_ad_vs_fd_shape_operator():
    rng = np.random.default_rng(99)
    worst = 0.0
    n_charts = 0
    for key in all_keys():
        entry = CATALOG[key]
        if entry.kind != "hypersurface":
            continue
        if key == "rem42":
            chart = build_remark42(4, (1.0, 2.0, 3.0))
        else:
            family, _, case = key.partition(".")
            profiles = {"solve_psi": True, "c": 1.0} if key == "ex41" else {}
            chart = build(FamilySpec(family, case, profiles=profiles))
        pts = random_points(chart.domain, 50, seed=int(rng.integers(1 << 30)))
        # one block per chart: each row is bitwise the one-point packet's
        pk = packet(chart, pts)
        fpk = packet_fd(chart, pts)
        scale = np.maximum(np.abs(pk.S), 1.0)
        worst = max(worst, float(np.max(np.abs(pk.S - fpk.S) / scale)))
        n_charts += 1
    _report(6, worst < 1e-5,
            f"{n_charts} charts x 50 points, worst relative S defect {worst:.2e}")


def test_criterion_7_ode_cross_validation():
    psi = solve_psi(1.0, 2.0, 1.0, (0.5, 2.0))
    grid = np.linspace(0.5, 2.0, 201)
    ode_worst = max(psi_ode_residual(psi, 1.0, 2.0, s) for s in grid[1:-1])
    y0 = psi.derivs(0.5, 1)[1]
    traj = rk4_solve(psi_ode_rhs((0.0, 2.0, 4.0)), 0.5, y0, grid)
    closed = np.array([psi.derivs(s, 1)[1] for s in grid])
    rk4_worst = float(np.max(np.abs(traj - closed)))
    ok = ode_worst < 1e-9 and rk4_worst < 1e-7
    _report(7, ok, f"ode_residual={ode_worst:.1e} rk4_gap={rk4_worst:.1e}")


def test_criterion_8_extension_distinct_and_collapsed():
    # four distinct offsets: five distinct principal curvatures, pairwise
    # gaps above ten clustering tolerances at every sampled point
    chart = build_remark42(5, (1.0, 2.0, 3.0, 4.0))
    pts = random_points(chart.domain, 6, seed=5)
    min_gap = np.inf
    ok = True
    for p in pts:
        pk = packet(chart, p)
        eig = np.linalg.eigvals(pk.S)
        assert np.max(np.abs(eig.imag)) < 1e-10
        eig = np.sort(eig.real)
        gaps = np.diff(eig)
        min_gap = min(min_gap, float(np.min(gaps)))
        ok = ok and len(eig) == 5 and float(np.min(gaps)) > 10 * CLUSTER_TOL
    # equal offsets collapse the matching pair within the tolerance
    chart2 = build_remark42(5, (1.0, 1.0, 3.0, 4.0))
    collapsed = True
    for p in pts:
        pk = packet(chart2, p)
        eig = np.sort(np.linalg.eigvals(pk.S).real)
        collapsed = collapsed and bool(
            np.any(np.diff(eig) < CLUSTER_TOL * (1 + np.max(np.abs(eig)))))
    # module contract: n parameters give n distinct curvatures
    chart3 = build_remark42(4, (1.0, 2.0, 3.0))
    pk = packet(chart3, chart3.center() + 0.05)
    spec4 = eigen_structure(pk.S, pk.G)
    ok4 = spec4.pattern == "1+1+1+1"
    _report(8, ok and collapsed and ok4,
            f"5 distinct (min gap {min_gap:.2e}), equal offsets collapse, "
            f"n=4 pattern {spec4.pattern}")
