"""Block evaluation: a grid evaluated in blocks of points gives the rows,
values and errors of the one-point route, for every catalog hypersurface,
for failing points inside a block, for any block size and worker count."""

import numpy as np
import pytest

from biconserve.catalog import CATALOG, FamilySpec, all_keys, build
from biconserve.errors import BiconserveError
from biconserve.expr import jet_eval, parse
from biconserve.immersion import (ImmersionChart, beltrami_residual, biconservative_residual,
                                  gauss_codazzi_residual, packet, principal_direction_check,
                                  unit_normal_residual)
from biconserve.profiles import solve_psi
from biconserve.sweep import BLOCK, HYPERSURFACE_CHECKS, grid_points, random_points, sweep

SOLVED = {"solve_psi": True, "c": 1.0}
CONTROL = {"psi": "s^2"}


def _charts():
    out = []
    for key in all_keys():
        if CATALOG[key].kind != "hypersurface":
            continue
        family, _, case = key.partition(".")
        if key == "ex41":
            out.append(("ex41 solved", build(FamilySpec("ex41", profiles=dict(SOLVED)))))
            out.append(("ex41 control", build(FamilySpec("ex41", profiles=dict(CONTROL)))))
        else:
            out.append((key, build(FamilySpec(family, case))))
    return out


CHARTS = _charts()


def _rel_close(a, b, rel=1e-13):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def assert_same_rows(rows, ref):
    assert len(rows) == len(ref)
    for r, q in zip(rows, ref):
        assert r.point == q.point
        assert r.error == q.error, r.point
        assert r.H == q.H and r.cmc == q.cmc
        assert r.curvatures == q.curvatures
        assert (r.label, r.pattern) == (q.label, q.pattern)
        assert set(r.values) == set(q.values), r.point
        for name, v in r.values.items():
            assert _rel_close(v, q.values[name]), (name, r.point, v, q.values[name])


def one_point_rows(chart, pts, checks, oracle="jets"):
    return [sweep(chart, pts[k:k + 1], checks, oracle=oracle)[0] for k in range(len(pts))]


@pytest.mark.parametrize("name, chart", CHARTS, ids=[name for name, _ in CHARTS])
def test_block_rows_match_the_one_point_route(name, chart):
    pts = random_points(chart.domain, 12, 7)
    checks = HYPERSURFACE_CHECKS
    rows = sweep(chart, pts, checks)
    assert_same_rows(rows, one_point_rows(chart, pts, checks))
    assert all(not r.error for r in rows), name


@pytest.mark.parametrize("name, chart", CHARTS[::5], ids=[name for name, _ in CHARTS[::5]])
def test_block_packet_is_the_one_point_packet_at_each_point(name, chart):
    pts = random_points(chart.domain, 6, 3)
    pk = packet(chart, pts)
    for k, p in enumerate(pts):
        one = packet(chart, p)
        assert one.H == pk.H[k] and isinstance(one.H, float)
        for field in ("G", "S", "B", "gradH", "christoffel", "dx", "ddx", "dB", "dGamma"):
            assert np.array_equal(getattr(one, field), getattr(pk, field)[k]), field
        assert np.array_equal(one.N.components, pk.N.components[k])
        assert one.is_cmc_point == pk.is_cmc_point[k]
        assert biconservative_residual(chart, p, one) == biconservative_residual(chart, pts, pk)[k]
        assert beltrami_residual(chart, p, one) == beltrami_residual(chart, pts, pk)[k]
        assert unit_normal_residual(chart, p, one) == unit_normal_residual(chart, pts, pk)[k]
        assert gauss_codazzi_residual(chart, p, one) == tuple(
            float(r[k]) for r in gauss_codazzi_residual(chart, pts, pk))
        pd = principal_direction_check(chart, p, one)
        pd_block = principal_direction_check(chart, pts, pk)[k]
        assert (pd is None and np.isnan(pd_block)) or pd == pd_block


def _straddling_chart():
    # degenerate metric on s = 0 (d_s x = 3 s^2 e_2), square root of a
    # non-positive base for v <= -0.3
    return ImmersionChart(components=tuple(parse(e) for e in
                                           ("t", "u", "s^3", "v", "sqrt(v + 0.3)")),
                          domain=((-0.5, 0.5),) * 4, name="straddle")


def test_failing_points_inside_a_block_are_bisected():
    chart = _straddling_chart()
    pts = grid_points(chart.domain, [5, 2, 2, 5])
    checks = ("biconservative", "beltrami", "gauss", "codazzi", "unit_normal")
    rows = sweep(chart, pts, checks)
    kinds = {r.error.split(":")[0] for r in rows}
    assert kinds == {"", "DegenerateMetric", "DomainError"}
    assert sum(not r.error for r in rows) == 64  # 100 - 20 (s = 0) - 20 (v = -0.5) + 4
    assert_same_rows(rows, one_point_rows(chart, pts, checks))
    for r in rows:
        if r.error:
            with pytest.raises(BiconserveError) as err:
                packet(chart, np.array(r.point))
            assert r.error == f"{type(err.value).__name__}: {err.value}"
            assert not r.values and r.H is None


def test_profile_range_errors_inside_a_block():
    chart = build(FamilySpec("ex41", profiles=dict(SOLVED)))
    pts = random_points(((0.6, 1.4), (-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)), 20, 5)
    pts[[3, 11, 12]] += [4.0, 0.0, 0.0, 0.0]  # s beyond the solved profile's range
    rows = sweep(chart, pts, HYPERSURFACE_CHECKS)
    assert [k for k, r in enumerate(rows) if r.error] == [3, 11, 12]
    assert all("psi argument" in rows[k].error for k in (3, 11, 12))
    assert_same_rows(rows, one_point_rows(chart, pts, HYPERSURFACE_CHECKS))


def test_a_block_not_a_multiple_of_the_block_size():
    chart = dict(CHARTS)["ex41 control"]
    pts = random_points(chart.domain, BLOCK + 3, 11)
    checks = HYPERSURFACE_CHECKS
    rows = sweep(chart, pts, checks)
    assert_same_rows(rows, one_point_rows(chart, pts, checks))
    assert_same_rows(sweep(chart, pts[:BLOCK - 5], checks), rows[:BLOCK - 5])


def test_worker_pool_gives_the_serial_rows():
    chart = dict(CHARTS)["ex41 solved"]
    pts = random_points(chart.domain, 40, 2)
    rows1 = sweep(chart, pts, HYPERSURFACE_CHECKS, jobs=1)
    rows2 = sweep(chart, pts, HYPERSURFACE_CHECKS, jobs=2)
    assert_same_rows(rows2, rows1)


def test_fd_oracle_rows_match_the_one_point_route():
    chart = dict(CHARTS)["ex41 solved"]
    pts = random_points(chart.domain, 5, 4)
    rows = sweep(chart, pts, HYPERSURFACE_CHECKS, oracle="fd")
    assert_same_rows(rows, one_point_rows(chart, pts, HYPERSURFACE_CHECKS, oracle="fd"))


def test_jet_eval_on_a_block_is_bitwise_each_point():
    psi = solve_psi(1.0, 2.0, 1.0, (0.5, 2.0))
    bank = {"psi": psi, "phi": psi}
    e = parse("psi(s)^1.5*cos(t) + exp(u/(1 + v^2)) - sqrt(phi(s) + 3)/sinh(t + 2)")
    pts = random_points(((0.6, 1.9), (-1, 1), (-1, 1), (-1, 1)), 50, 9)
    block = jet_eval(e, pts, 3, bank)
    assert block.c.shape == (35, 50)
    for k, p in enumerate(pts):
        assert np.array_equal(jet_eval(e, p, 3, bank).c, block.c[:, k])
    ladder = psi.derivs(pts[:, 0], 3)
    assert all(np.array_equal(np.array([psi.derivs(x, 3) for x in pts[:, 0]]).T[m], ladder[m])
               for m in range(4))
