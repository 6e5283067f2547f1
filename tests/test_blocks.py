"""Block evaluation: a grid evaluated in blocks of points gives the rows,
values and errors of the one-point route, for every catalog chart of any
codimension, for failing points inside a block, for any block size and
worker count."""

import numpy as np
import pytest

from biconserve.catalog import CATALOG, FamilySpec, all_keys, build, build_remark42
from biconserve.errors import BiconserveError, DomainError
from biconserve.expr import jet_eval, parse
from biconserve.immersion import (FD_BASES, ImmersionChart, beltrami_residual,
                                  biconservative_residual, gauss_codazzi_residual, packet,
                                  packet_fd, principal_direction_check, submanifold_packet,
                                  unit_normal_residual)
from biconserve.profiles import solve_psi
from biconserve.sweep import (BLOCK, HYPERSURFACE_CHECKS, SweepTable, _classify, grid_points,
                              random_points, structure_verdict, sweep)

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
# above n = 4 the Gauss row's index plans and the jet space change with n
HIGH = [(f"rem42 n={n}", build_remark42(n, tuple(range(1, n)))) for n in (5, 6)]
LOWDIM = [(key, build(FamilySpec(*key.split(".")))) for key in all_keys()
          if CATALOG[key].kind != "hypersurface"]


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


@pytest.mark.parametrize("name, chart", CHARTS + LOWDIM, ids=[name for name, _ in CHARTS + LOWDIM])
def test_block_rows_match_the_one_point_route(name, chart):
    pts = random_points(chart.domain, 12, 7)
    checks = HYPERSURFACE_CHECKS
    rows = sweep(chart, pts, checks)
    assert_same_rows(rows, one_point_rows(chart, pts, checks))
    assert all(not r.error for r in rows), name


@pytest.mark.parametrize("name, chart", CHARTS[::5] + HIGH,
                         ids=[name for name, _ in CHARTS[::5] + HIGH])
def test_block_packet_is_the_one_point_packet_at_each_point(name, chart):
    pts = random_points(chart.domain, 6, 3)
    pk = packet(chart, pts)
    for k, p in enumerate(pts):
        one = packet(chart, p)
        assert one.H == pk.H[k] and isinstance(one.H, float)
        for field in ("G", "S", "B", "gradH", "christoffel", "dx", "ddx", "dB"):
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


@pytest.mark.parametrize("name, chart", CHARTS[::2], ids=[name for name, _ in CHARTS[::2]])
def test_block_packet_fd_is_the_one_point_packet_fd_at_each_point(name, chart):
    pts = random_points(chart.domain, 6, 3)
    fpk = packet_fd(chart, pts)
    bicons = biconservative_residual(chart, pts, fpk)
    pd_block = principal_direction_check(chart, pts, fpk)
    for k, p in enumerate(pts):
        one = packet_fd(chart, p)
        assert one.point == tuple(p)
        assert one.H == fpk.H[k] and isinstance(one.H, float)
        for field in ("G", "G_inv", "B", "S", "gradH", "dx"):
            assert getattr(one, field).shape == getattr(fpk, field).shape[1:], field
            assert np.array_equal(getattr(one, field), getattr(fpk, field)[k]), field
        for field in ("N", "gradH_ambient"):
            assert np.array_equal(getattr(one, field).components,
                                  getattr(fpk, field).components[k]), field
        assert one.is_cmc_point == fpk.is_cmc_point[k]
        assert biconservative_residual(chart, p, one) == bicons[k]
        pd = principal_direction_check(chart, p, one)
        assert (pd is None and np.isnan(pd_block[k])) or pd == pd_block[k]


@pytest.mark.parametrize("oracle", ["jets", "fd"])
@pytest.mark.parametrize("name, chart", CHARTS, ids=[name for name, _ in CHARTS])
def test_the_two_tangency_checks_are_one_row_in_two_normalizations(name, chart, oracle):
    # the tangency vector's norm over |grad H| and over max(1, |grad H|): the
    # first is never below the second, so an asserted pair fails exactly
    # where principal_direction fails
    pts = random_points(chart.domain, 16, 11)
    pk = packet(chart, pts) if oracle == "jets" else packet_fd(chart, pts)
    bc = biconservative_residual(chart, pts, pk)
    pd = principal_direction_check(chart, pts, pk)
    g = np.linalg.norm(pk.gradH_ambient.components, axis=1)
    live = ~pk.is_cmc_point
    assert np.isnan(pd[~live]).all() and not bc[~live].any()
    np.testing.assert_allclose(pd[live] * g[live], bc[live] * np.maximum(1.0, g[live]),
                               rtol=1e-15, atol=0)
    assert (pd[live] >= bc[live]).all()


@pytest.mark.parametrize("name, chart", LOWDIM, ids=[name for name, _ in LOWDIM])
def test_block_submanifold_packet_is_the_one_point_packet_at_each_point(name, chart):
    pts = random_points(chart.domain, 6, 3)
    spk = submanifold_packet(chart, pts)
    gauss, codazzi = gauss_codazzi_residual(chart, pts, spk)
    beltrami = beltrami_residual(chart, pts, spk)
    for k, p in enumerate(pts):
        one = submanifold_packet(chart, p)
        for field in ("G", "G_inv", "christoffel", "dx", "ddx", "h", "dh", "mean_curvature"):
            assert getattr(one, field).shape == getattr(spk, field).shape[1:], field
            assert np.array_equal(getattr(one, field), getattr(spk, field)[k]), field
        assert beltrami_residual(chart, p, one) == beltrami[k]
        assert gauss_codazzi_residual(chart, p, one) == (gauss[k], codazzi[k])


def test_degenerate_line_inside_a_surface_block_is_bisected():
    # d_u x = 3 u^2 e_3 vanishes on u = 0
    chart = ImmersionChart(components=tuple(parse(e, ("t", "u")) for e in
                                            ("0", "0", "t", "u^3", "0")),
                           domain=((-0.5, 0.5),) * 2, expected_index=0, name="cusp")
    pts = grid_points(chart.domain, [4, 5])
    rows = sweep(chart, pts, HYPERSURFACE_CHECKS)
    assert [r.error.split(":")[0] for r in rows] == ["", "", "DegenerateMetric", "", ""] * 4
    assert all(set(r.values) == {"beltrami", "gauss", "codazzi"} for r in rows if not r.error)
    assert all(r.H is None and not r.cmc for r in rows)
    assert_same_rows(rows, one_point_rows(chart, pts, HYPERSURFACE_CHECKS))
    for r in rows:
        if r.error:
            with pytest.raises(BiconserveError) as err:
                submanifold_packet(chart, np.array(r.point))
            assert r.error == f"{type(err.value).__name__}: {err.value}"


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


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5, 625])
def test_a_sweep_takes_the_fewest_near_equal_blocks(count, monkeypatch):
    from biconserve import sweep as sweep_module

    chart = dict(CHARTS)["ex41 control"]
    pts = random_points(chart.domain, count, 12)
    sizes = []

    def recording(chart, table, checks, oracle):
        sizes.append(len(table))

    monkeypatch.setattr(sweep_module, "_block_table", recording)
    table = sweep(chart, pts, HYPERSURFACE_CHECKS)
    assert np.array_equal(table.points, pts)
    assert len(sizes) == -(-count // BLOCK)
    assert max(sizes) <= BLOCK and max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


def test_three_uneven_blocks_with_failing_points_give_the_one_point_rows():
    # 2 BLOCK + 1 points: blocks of BLOCK + 1, BLOCK and BLOCK points, each
    # holding degenerate and out-of-domain points that are bisected
    chart = _straddling_chart()
    pts = random_points(chart.domain, 2 * BLOCK + 1, 13)
    pts[::7, 0] = 0.0
    checks = ("biconservative", "beltrami", "gauss", "codazzi", "unit_normal")
    rows = sweep(chart, pts, checks)
    assert {r.error.split(":")[0] for r in rows} == {"", "DegenerateMetric", "DomainError"}
    assert_same_rows(rows, one_point_rows(chart, pts, checks))


def test_worker_pool_gives_the_serial_rows(monkeypatch):
    from biconserve import sweep as sweep_module

    monkeypatch.setattr(sweep_module, "BLOCK", 16)  # 40 points: 3 blocks, so a pool starts
    chart = dict(CHARTS)["ex41 solved"]
    pts = random_points(chart.domain, 40, 2)
    rows1 = sweep(chart, pts, HYPERSURFACE_CHECKS, jobs=1)
    rows2 = sweep(chart, pts, HYPERSURFACE_CHECKS, jobs=2)
    assert_same_rows(rows2, rows1)


class InProcessPool:
    """A stand-in for ProcessPoolExecutor that records its tasks and runs them here."""
    started = []

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers, self.initargs, self.tasks = max_workers, initargs, []
        InProcessPool.started.append(self)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        self.tasks = list(zip(*iterables))
        return [fn(*task) for task in self.tasks]


@pytest.mark.parametrize("count, block, jobs, tasks", [
    (40, 16, 2, [14, 13, 13]), (40, 16, 8, [14, 13, 13]), (40, BLOCK, 2, None),
    (625, BLOCK, 4, None), (1, BLOCK, 2, None)])
def test_the_pool_maps_the_serial_blocks_one_task_each(monkeypatch, count, block, jobs, tasks):
    # the pool's tasks are the serial loop's blocks; a request of one block
    # runs in-process at any worker count
    import concurrent.futures

    from biconserve import sweep as sweep_module

    monkeypatch.setattr(sweep_module, "BLOCK", block)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    InProcessPool.started.clear()
    chart = dict(CHARTS)["ex41 control"]
    pts = random_points(chart.domain, count, 8)
    serial = sweep(chart, pts, ("beltrami", "structure"))
    assert not InProcessPool.started
    pooled = sweep(chart, pts, ("beltrami", "structure"), jobs=jobs)
    assert_same_rows(pooled, serial)
    if tasks is None:
        assert not InProcessPool.started
        return
    (pool,) = InProcessPool.started
    assert pool.max_workers == min(jobs, len(tasks))
    assert pool.initargs == (chart, ("beltrami", "structure"), "jets")
    assert [len(block) for block, in pool.tasks] == tasks
    assert all(np.array_equal(block, part)
               for (block,), part in zip(pool.tasks, sweep_module.blocks(pts)))


def test_an_unclassifiable_point_bisects_its_block(monkeypatch):
    # one point of a 625-point block whose operator is not metric-self-adjoint:
    # the block is bisected down to it, about two classifications a level,
    # and it keeps its identity rows, H and CMC flag with its error
    from biconserve import sweep as sweep_module

    chart = dict(CHARTS)["ex41 solved"]
    pts = grid_points(((0.6, 1.4),) + ((-0.5, 0.5),) * 3, 5)
    bad = pts[317]
    reference = sweep(chart, pts, HYPERSURFACE_CHECKS)
    block_packet, classify = sweep_module.packet, sweep_module.eigen_structure
    calls = []

    def broken(chart, block):
        pk = block_packet(chart, block)
        pk.S[np.all(block == bad, axis=1), 0, 1] += 0.5
        return pk

    def counted(S, G):
        calls.append(len(S))
        return classify(S, G)

    monkeypatch.setattr(sweep_module, "packet", broken)
    monkeypatch.setattr(sweep_module, "eigen_structure", counted)
    table = sweep(chart, pts, HYPERSURFACE_CHECKS)
    assert len(calls) <= 2 * int(np.ceil(np.log2(625))) + 1 and calls[0] == 625
    assert np.flatnonzero(table.error != "").tolist() == [317]
    assert table.error[317] == "ContractViolation: operator is not metric-self-adjoint"
    assert (table.label[317], table.pattern[317], table.has_curv[317]) == ("", "", False)
    for name in ("values", "has", "H", "hyper", "cmc"):
        assert np.array_equal(getattr(table, name), getattr(reference, name)), name
    ok = np.arange(625) != 317
    for name in ("curvatures", "has_curv", "label", "pattern"):
        assert np.array_equal(getattr(table, name)[ok], getattr(reference, name)[ok]), name


FD_CHARTS = [(name, chart) for name, chart in CHARTS
             if name in ("ex41 solved", "ex41 control", "rem42", "thm1.ii", "thm2.v",
                         "thm3.iii", "thm3.viii")]


@pytest.mark.parametrize("name, chart", FD_CHARTS, ids=[name for name, _ in FD_CHARTS])
def test_fd_oracle_rows_match_the_one_point_route(name, chart):
    pts = random_points(chart.domain, 5, 4)
    rows = sweep(chart, pts, HYPERSURFACE_CHECKS, oracle="fd")
    assert_same_rows(rows, one_point_rows(chart, pts, HYPERSURFACE_CHECKS, oracle="fd"))
    assert all(not r.error for r in rows), name


@pytest.mark.parametrize("name, chart", [("ex41 solved", dict(CHARTS)["ex41 solved"]), HIGH[0]],
                         ids=["ex41 solved", HIGH[0][0]])
def test_packet_fd_slices_of_base_points_are_bitwise_each_point(name, chart, monkeypatch):
    # a block whose P (2n + 1) stencil base points cross the FD_BASES edge
    # gives each point's one-point oracle packet, and one point alone takes one call
    from biconserve import immersion

    fd, sizes = immersion.fd_partial, []

    def recording(dag, base, *args, **kwargs):
        sizes.append(len(base))
        return fd(dag, base, *args, **kwargs)

    monkeypatch.setattr(immersion, "fd_partial", recording)
    bases = 2 * chart.nparams + 1
    pts = random_points(chart.domain, FD_BASES // bases + 2, 17)
    fpk = packet_fd(chart, pts)
    assert len(pts) * bases > FD_BASES and sizes[0] == FD_BASES
    assert sum(sizes) == len(pts) * bases and len(sizes) == -(-sum(sizes) // FD_BASES)
    for k, p in enumerate(pts):
        sizes.clear()
        one = packet_fd(chart, p)
        assert sizes == [bases]
        assert one.H == fpk.H[k]
        for field in ("G", "G_inv", "B", "S", "gradH", "dx"):
            assert np.array_equal(getattr(one, field), getattr(fpk, field)[k]), field
        for field in ("N", "gradH_ambient"):
            assert np.array_equal(getattr(one, field).components,
                                  getattr(fpk, field).components[k]), field


def test_the_oracle_on_a_block_peaks_below_10_mib():
    # tracemalloc peak of packet_fd on a 384-point ex41 control block: 18.6
    # MiB with every stencil base point in one fd_partial call, 7.5 MiB in
    # slices of FD_BASES.  For scale, a 625-point jet packet on the solved
    # ex41 peaks at 2.9 MiB.
    import tracemalloc

    chart = dict(CHARTS)["ex41 control"]
    pts = random_points(((0.6, 1.4),) + ((-0.5, 0.5),) * 3, 384, 5)
    packet_fd(chart, pts[:2])  # the stencil tables, built once
    tracemalloc.start()
    try:
        packet_fd(chart, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak / 2**20


def _traced_sweep(key, count, checks):
    """(peak, retained) heap bytes under tracemalloc of a sweep of
    ``count`` random points of a catalog key, the points made before."""
    import tracemalloc

    chart = build(FamilySpec(*key.partition(".")[::2]))
    pts = random_points(chart.domain, count, 3)
    sweep(chart, pts[:2], checks)  # the chart's one-time tables
    tracemalloc.start()
    try:
        table = sweep(chart, pts, checks)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == count
    return peak, retained


def test_a_sweep_peaks_at_its_table_and_a_block():
    # 20,000 intcurve.B points are 32 blocks written into one table: the
    # heap peaked at 1.94 times the table while each block made a table of
    # its own and the parts were joined, 1.15 times with one table
    from biconserve.sweep import LOWDIM_CHECKS

    peak, retained = _traced_sweep("intcurve.B", 20_000, LOWDIM_CHECKS)
    assert peak < 1.3 * retained, (peak / 2**20, retained / 2**20)


def test_a_sweep_table_keeps_no_spectrum_per_point():
    # 20,000 ex41 points: 6.3 MiB retained with each block's spectra kept,
    # 2.3 MiB with their labels, patterns and curvatures alone (about 122
    # bytes a point besides the points themselves)
    _, retained = _traced_sweep("ex41", 20_000, HYPERSURFACE_CHECKS)
    assert retained < 3 * 2**20, retained / 2**20


def test_the_structure_verdict_keeps_no_float_per_curvature():
    # 20,000 ex41 points: the verdict peaked at 3.05 MiB while it listed one
    # Python float per curvature, at 0.77 MiB with array reductions (most of
    # it the has_curv rows' copy of the curvatures)
    import tracemalloc

    chart = build(FamilySpec("ex41"))
    table = sweep(chart, random_points(chart.domain, 20_000, 3), ("structure",))
    tracemalloc.start()
    try:
        spectral = structure_verdict(table)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak / 2**20
    curv = table.curvatures[table.has_curv].ravel().tolist()
    assert (spectral["curvature_min"], spectral["curvature_max"]) == (min(curv), max(curv))


def test_a_point_with_curvatures_has_finite_ones():
    # an eigenvalue of a finite operator may overflow: that point gets no
    # curvatures, so the verdict's range reads finite roots only
    class Chart:
        nparams = 3

    S = np.array([[[1e308, 1e308, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, 1.0]],
                  np.diag([3.0, -2.0, 1.0])])
    _, k, has = _classify(Chart, S, None)
    assert not np.isfinite(k[0]).all() and has.tolist() == [False, True]
    table = SweepTable.blank(np.zeros((2, 3)), 3)
    table.curvatures[:], table.has_curv[:] = k, has
    spectral = structure_verdict(table)[1]
    assert (spectral["curvature_min"], spectral["curvature_max"]) == (-2.0, 3.0)


def test_oracle_only_failures_inside_a_block():
    # just inside the end of the solved profile's range the jet route
    # evaluates, but the oracle's stencils leave the range
    chart = dict(CHARTS)["ex41 solved"]
    pts = random_points(((0.6, 1.4), (-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)), 20, 6)
    bad = [2, 9, 10]
    pts[bad, 0] = chart.profile_bank["psi"].nodes.max() - 3e-4
    checks = HYPERSURFACE_CHECKS
    rows = sweep(chart, pts, checks, oracle="fd")
    jets = sweep(chart, pts, checks)
    assert [k for k, r in enumerate(rows) if r.error] == bad
    assert all(not r.error for r in jets)
    for k in bad:
        r, q = rows[k], jets[k]
        with pytest.raises(DomainError, match="psi argument") as err:
            packet_fd(chart, pts[k])
        assert r.error == f"DomainError: {err.value}"
        # the jet values, H and the jet CMC flag stay; no tangency value, no label
        assert r.values == {name: q.values[name]
                            for name in ("unit_normal", "beltrami", "gauss", "codazzi")}
        assert (r.H, r.cmc) == (q.H, q.cmc)
        assert (r.label, r.pattern, r.curvatures) == ("", "", None)
    ok = [k for k in range(len(pts)) if k not in bad]
    assert_same_rows([rows[k] for k in ok], sweep(chart, pts[ok], checks, oracle="fd"))
    assert_same_rows(rows, one_point_rows(chart, pts, checks, oracle="fd"))


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
