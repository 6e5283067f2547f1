import math

import numpy as np
import pytest

from biconserve.errors import ContractViolation, DomainError
from biconserve.profiles import (BARY_ROWS, DerivativeProfile, ExprProfile, PsiSolution,
                                 _bary_eval, check_derivative_consistency, constraint_residual,
                                 make_profile_pair, psi_ode_residual,
                                 psi_ode_residual_general, psi_ode_rhs, rk4_solve,
                                 solve_psi)
from biconserve.expr import eval_values, parse


@pytest.fixture(scope="module")
def psi_12():
    return solve_psi(1.0, 2.0, 1.0, (0.5, 2.0))


def test_closed_form_derivative_at_one(psi_12):
    # product 1*3*5 = 15 at s = 1
    d = psi_12.derivs(1.0, 1)
    assert d[1] == pytest.approx(0.5 + 15.0 ** (2.0 / 3.0), rel=1e-14)
    assert 2 * d[1] - 1 == pytest.approx(2.0 * 15.0 ** (2.0 / 3.0), rel=1e-14)


def test_solver_rejects_zero_constant():
    with pytest.raises(ContractViolation):
        solve_psi(1.0, 2.0, 0.0)


def test_solver_rejects_singular_range():
    with pytest.raises(DomainError):
        solve_psi(-0.5, 2.0, 1.0, (0.5, 2.0))  # root at s = 1 inside the range
    with pytest.raises(DomainError):
        solve_psi(1.0, 2.0, 1.0, (-0.5, 2.0))


def test_ode_residual_closed_form(psi_12):
    worst = max(psi_ode_residual(psi_12, 1.0, 2.0, s)
                for s in np.linspace(0.55, 1.95, 200))
    assert worst < 1e-9


def test_ode_residual_negative_control():
    entry = ExprProfile(parse("s^2", ("s",)))
    res = psi_ode_residual(entry, 1.0, 2.0, 1.0)
    expected = abs(6.0 / 3.0 - (1.0 / 3.0 + 1.0 / 5.0 + 1.0))
    assert res == pytest.approx(expected, rel=1e-12)
    assert res > 0.1


def test_ode_pole_guard():
    entry = ExprProfile(parse("s^2", ("s",)))
    with pytest.raises(DomainError):
        psi_ode_residual(entry, 1.0, 2.0, 0.0)


def test_rk4_oracle_agreement(psi_12):
    grid = np.linspace(0.5, 2.0, 151)
    y0 = psi_12.derivs(0.5, 1)[1]
    traj = rk4_solve(psi_ode_rhs((0.0, 2.0, 4.0)), 0.5, y0, grid)
    closed = np.array([psi_12.derivs(s, 1)[1] for s in grid])
    assert np.max(np.abs(traj - closed)) < 1e-7


def test_generalized_offsets_reduce_to_pair_form(psi_12):
    for s in (0.6, 1.0, 1.7):
        a = psi_ode_residual_general(psi_12, (0.0, 2.0, 4.0), s)
        b = psi_ode_residual(psi_12, 1.0, 2.0, s)
        assert a == b


def test_generalized_solution_passes_oracle():
    offsets = (1.0, 2.5, 4.0, 6.5)
    entry = PsiSolution.build(offsets, 0.7, (0.5, 2.0))
    worst = max(psi_ode_residual_general(entry, offsets, s)
                for s in np.linspace(0.55, 1.95, 100))
    assert worst < 1e-9
    grid = np.linspace(0.5, 2.0, 101)
    y0 = entry.derivs(0.5, 1)[1]
    traj = rk4_solve(psi_ode_rhs(offsets), 0.5, y0, grid)
    closed = np.array([entry.derivs(s, 1)[1] for s in grid])
    assert np.max(np.abs(traj - closed)) < 1e-7


def test_equal_offsets_only_oracle_agreement():
    # no closed form is assumed for coincident offsets: the integrated
    # trajectory is the reference
    offsets = (2.0, 2.0, 2.0)
    entry = PsiSolution.build(offsets, 1.0, (0.5, 2.0))
    grid = np.linspace(0.5, 2.0, 101)
    traj = rk4_solve(psi_ode_rhs(offsets), 0.5, entry.derivs(0.5, 1)[1], grid)
    closed = np.array([entry.derivs(s, 1)[1] for s in grid])
    assert np.max(np.abs(traj - closed)) < 1e-7


def test_psi_solution_fields(psi_12):
    assert psi_12.c == 1.0
    assert np.all(np.diff(np.sort(psi_12.nodes)) > 0)
    dpsi = eval_values(psi_12.dexpr, psi_12.nodes[:, None])
    assert np.all(2 * dpsi - 1 > 0)
    # stored node data matches the derivative ladder
    i = len(psi_12.nodes) // 3
    s = psi_12.nodes[i]
    d = psi_12.derivs(s, 2)
    assert d[0] == pytest.approx(psi_12.node_values[i], rel=1e-12)
    assert d[1] == pytest.approx(dpsi[i], rel=1e-12)


def test_derivative_consistency_quadrature(psi_12):
    assert check_derivative_consistency(psi_12, 0.55, 1.95) < 1e-6


@pytest.mark.parametrize("kind,combine", [
    ("sum1", lambda dp, ds: dp * dp + ds * ds - 1.0),
    ("diffP", lambda dp, ds: dp * dp - ds * ds - 1.0),
    ("diffM", lambda dp, ds: dp * dp - ds * ds + 1.0),
])
def test_profile_pair_constraints(kind, combine):
    phi, psi = make_profile_pair(kind, "s", (0.0, 1.0))
    worst = 0.0
    for s in np.linspace(0.0, 1.0, 100):
        dp = phi.derivs(s, 1)[1]
        ds = psi.derivs(s, 1)[1]
        worst = max(worst, abs(combine(dp, ds)))
        assert constraint_residual(kind, phi, psi, s) < 1e-10
    assert worst < 1e-10


def test_constant_angle_gives_linear_profiles():
    phi, psi = make_profile_pair("sum1", "0", (0.0, 1.0), s0=0.0, phi0=2.0, psi0=5.0)
    for s in (0.1, 0.6, 0.9):
        assert phi.derivs(s, 0)[0] == pytest.approx(2.0 + s, rel=1e-12)
        assert psi.derivs(s, 0)[0] == pytest.approx(5.0, abs=1e-12)
    phi, psi = make_profile_pair("diffP", "0.4", (0.0, 1.0), s0=0.0)
    dp = phi.derivs(0.5, 1)[1]
    ds = psi.derivs(0.5, 1)[1]
    assert dp == pytest.approx(math.cosh(0.4), rel=1e-14)
    assert ds == pytest.approx(math.sinh(0.4), rel=1e-14)


def test_quadrature_matches_closed_antiderivative():
    phi, _ = make_profile_pair("sum1", "s", (0.0, 1.0), s0=0.5, phi0=1.2)
    for s in np.linspace(0.0, 1.0, 37):
        expected = 1.2 + math.sin(s) - math.sin(0.5)
        assert phi.derivs(s, 0)[0] == pytest.approx(expected, abs=1e-12)


def test_derivative_order_cap():
    entry = ExprProfile(parse("s^3", ("s",)))
    with pytest.raises(ContractViolation):
        entry.derivs(1.0, 5)


def test_derivative_profile_shifts_ladder(psi_12):
    dpsi = DerivativeProfile(psi_12)
    base = psi_12.derivs(1.2, 3)
    shifted = dpsi.derivs(1.2, 2)
    assert shifted == base[1:]


def test_array_values_match_pointwise_derivs(psi_12):
    phi, _ = make_profile_pair("diffP", "0.3*s + 0.1", (0.4, 1.6))
    expr_entry = ExprProfile(parse("s^2 + sin(s)", ("s",)))
    entries = [psi_12, phi, expr_entry, DerivativeProfile(psi_12),
               DerivativeProfile(phi), DerivativeProfile(expr_entry)]
    x = np.concatenate([np.linspace(0.55, 1.55, 23),
                        [1.0, 1.0, psi_12.nodes[60], phi.nodes[70]]])  # repeats, exact nodes
    for entry in entries:
        got = entry.values(x)
        ref = np.array([entry.derivs(xi, 0)[0] for xi in x])
        assert got.shape == x.shape
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), type(entry).__name__
    # an exact node returns the stored node value
    assert psi_12.values(psi_12.nodes[60:61])[0] == psi_12.node_values[60]
    assert phi.values(phi.nodes[70:71])[0] == phi.node_values[70]


def test_array_values_domain_guard(psi_12):
    phi, _ = make_profile_pair("sum1", "s", (0.0, 1.0))
    with pytest.raises(DomainError, match="psi argument 2.5"):
        psi_12.values(np.array([1.0, 2.5]))
    with pytest.raises(DomainError, match="profile argument -0.5"):
        phi.values(np.array([0.5, -0.5]))
    # a derivative view keeps its base's range guard on both routes
    for base, what in ((psi_12, "psi argument"), (phi, "profile argument")):
        with pytest.raises(DomainError, match=f"{what} 2.5"):
            DerivativeProfile(base).values(np.array([0.8, 2.5]))
        with pytest.raises(DomainError, match=f"{what} 2.5"):
            DerivativeProfile(base).derivs(2.5, 0)


def test_range_error_quotes_the_argument_farthest_outside(psi_12):
    lo, hi = psi_12.nodes.min(), psi_12.nodes.max()
    outside = [hi + 2e-4, lo - 3e-4, hi + 5e-4, lo - 1e-4]

    def quoted(x):
        with pytest.raises(DomainError) as err:
            psi_12.values(np.array(x))
        return str(err.value).split()[2]

    alone = [quoted([x]) for x in outside]
    assert alone == [f"{x:.6g}" for x in outside]
    worst = alone[2]  # 5e-4 above the range
    for k in range(len(outside)):
        assert quoted(np.roll(outside, k).tolist() + [1.0]) == worst
    # the jet route and a derivative view quote the same argument
    with pytest.raises(DomainError, match=f"psi argument {worst} "):
        psi_12.derivs(np.array([1.0] + outside), 2)
    with pytest.raises(DomainError, match=f"psi argument {worst} "):
        DerivativeProfile(psi_12).values(np.array(outside[::-1]))


def test_derivative_of_an_expression_profile_is_one_block_jet():
    entry = DerivativeProfile(ExprProfile(parse("s^3*exp(-s) + sin(2*s)", ("s",))))
    x = np.array([0.3, 0.7, 0.7, 1.1, 1.9, -0.4])
    got = entry.values(x)
    assert got.tolist() == [entry.derivs(xi, 0)[0] for xi in x]
    assert entry.derivs(x, 1)[1].tolist() == [entry.derivs(xi, 1)[1] for xi in x]


def _partial_loop_derivs(entry, x, k):
    """``derivs`` as read one ``Jet.partial`` per order."""
    from biconserve.profiles import _jet_at

    if isinstance(entry, DerivativeProfile):
        return _partial_loop_derivs(entry.base, x, k + 1)[1:]
    if isinstance(entry, ExprProfile):
        j = _jet_at(entry.expr, x, k)
        return [j.partial((m,)) for m in range(k + 1)]
    head = entry.value(x) if np.ndim(x) == 0 else entry._interpolate(np.asarray(x))
    if k == 0:
        return [head]
    j = _jet_at(entry.dexpr, x, k - 1)
    return [head] + [j.partial((m,)) for m in range(k)]


def test_profile_ladders_are_bitwise_the_partial_loop_on_every_catalog_profile():
    from biconserve.catalog import FamilySpec, all_keys, build

    seen = 0
    for key in all_keys():
        family, _, case = key.partition(".")
        chart = build(FamilySpec(family, case))
        lo, hi = chart.domain[0]
        block = np.linspace(lo, hi, 7)
        for name, entry in chart.profile_bank.items():
            for k in range(4 if isinstance(entry, DerivativeProfile) else 5):
                for x in (block[3], block):
                    got, ref = entry.derivs(x, k), _partial_loop_derivs(entry, x, k)
                    assert len(got) == len(ref) == k + 1, (key, name, k)
                    for g, r in zip(got, ref):
                        assert type(g) is type(r) and np.shape(g) == np.shape(r), (key, name, k)
                        assert np.asarray(g).tobytes() == np.asarray(r).tobytes(), (key, name, k)
            seen += 1
    assert seen >= 40


# -- quadrature in one array pass ----------------------------------------


def _loop_integrals(fn, intervals):
    """The quadrature integrated one interval at a time: ``np.linspace``
    edges, one ``np.dot`` per panel, the panels summed in order."""
    from biconserve.profiles import GL_NODES, GL_WEIGHTS

    grids = []
    for lo, hi, panels in intervals:
        edges = np.linspace(lo, hi, panels + 1)
        mid = (edges[:-1] + edges[1:]) / 2.0
        half = (edges[1:] - edges[:-1]) / 2.0
        grids.append((mid[:, None] + half[:, None] * GL_NODES, half))
    vals = fn(np.concatenate([x.ravel() for x, _ in grids]))
    out, pos = [], 0
    for (lo, hi, _), (x, half) in zip(intervals, grids):
        total = 0.0
        if lo != hi:
            for h, v in zip(half, vals[pos:pos + x.size].reshape(x.shape)):
                total += h * float(np.dot(GL_WEIGHTS, v))
        out.append(total)
        pos += x.size
    return np.array(out)


def _loop_quadrature_values(dexpr, s0, f0, lo, hi, n_nodes=129):
    """``QuadratureProfile`` node values, gap by gap out from the anchor."""
    from biconserve.expr import eval_values
    from biconserve.profiles import _cheb_nodes

    nodes = _cheb_nodes(lo, hi, n_nodes)
    order = np.argsort(nodes)
    sorted_nodes = nodes[order]
    start = int(np.searchsorted(sorted_nodes, s0))
    chains = (range(start, len(sorted_nodes)), range(start - 1, -1, -1))
    gaps = []
    for chain in chains:
        prev = s0
        for i in chain:
            gaps.append((i, prev))
            prev = sorted_nodes[i]
    parts = _loop_integrals(lambda x: eval_values(dexpr, x[:, None]),
                            [(a, sorted_nodes[i], max(1, math.ceil(abs(sorted_nodes[i] - a) / 0.05)))
                             for i, a in gaps])
    part = dict(zip((i for i, _ in gaps), parts))
    cumulative = np.empty_like(sorted_nodes)
    for chain in chains:
        acc = f0
        for i in chain:
            acc += part[i]
            cumulative[i] = acc
    values = np.empty_like(cumulative)
    values[order] = cumulative
    return values


class _Recorder:
    """An integrand that keeps each array it is called on."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, x):
        self.calls.append(x.copy())
        return self.fn(x)


_INTERVAL_SETS = {
    "one-panel gaps": [(0.5, 0.52, 1), (0.52, 0.55, 1), (0.55, 0.51, 1), (1.0, 1.04, 1)],
    "60 panels": [(0.0, 1.2599210498948732, 60)],
    "zero length": [(0.7, 0.7, 1)],
    "mixed": [(0.0, 0.79, 63), (0.79, 0.8, 1), (0.8, 0.8, 1), (0.8, 0.7, 2),
              (1.3, 1.9, 12), (-0.2, 0.3, 8)],
}


@pytest.mark.parametrize("name", sorted(_INTERVAL_SETS))
def test_gl_integrals_is_bitwise_the_interval_loop(name):
    from biconserve.profiles import gl_integrals

    intervals = _INTERVAL_SETS[name]
    fn = lambda x: np.cbrt(x ** 3 + 1.0) ** 2 * np.cos(3.0 * x) + x * x  # noqa: E731
    ref, got = _Recorder(fn), _Recorder(fn)
    expected = _loop_integrals(ref, intervals)
    lo, hi, panels = (np.array(col) for col in zip(*intervals))
    result = gl_integrals(got, lo, hi, panels)
    assert result.tobytes() == expected.tobytes()
    assert len(got.calls) == 1 and got.calls[0].tobytes() == ref.calls[0].tobytes()
    if name == "zero length":
        assert result.tolist() == [0.0]


def test_gl_integrals_passes_the_integrand_error_through():
    from biconserve.profiles import gl_integrals

    err = DomainError("integrand outside its domain")

    def fn(x):
        raise err

    with pytest.raises(DomainError) as caught:
        gl_integrals(fn, [0.0, 1.0], [1.0, 2.0], [1, 3])
    assert caught.value is err


@pytest.mark.parametrize("s0", [0.2, 0.5, 1.0, 1.25, 2.0, 2.6])
def test_quadrature_profile_is_bitwise_the_gap_loop(s0):
    # anchor below the nodes (no down chain), at the end nodes, inside, and
    # above them (no up chain); 1.25 is the middle node
    from biconserve.profiles import QuadratureProfile

    dexpr = parse("cos(0.8*s) + 0.3*s", ("s",))
    got = QuadratureProfile.build(dexpr, s0, 0.7, 0.5, 2.0).node_values
    assert got.tobytes() == _loop_quadrature_values(dexpr, s0, 0.7, 0.5, 2.0).tobytes()


@pytest.mark.parametrize("offsets,closed", [
    ((0.0,), lambda s, c: s / 2 + 0.6 * c * s ** (5 / 3)),
    ((0.0, 0.0, 0.0), lambda s, c: s / 2 + c * s ** 3 / 3),
    ((1.0,), lambda s, c: s / 2 + 0.6 * c * ((s + 1) ** (5 / 3) - 1)),
])
def test_psi_solution_node_values_match_the_closed_form(offsets, closed):
    entry = PsiSolution.build(offsets, 0.7, (0.5, 2.0))
    assert np.max(np.abs(entry.node_values - closed(entry.nodes, 0.7))) < 1e-13


@pytest.mark.parametrize("count", [1, BARY_ROWS - 1, BARY_ROWS, BARY_ROWS + 1, 625])
def test_interpolation_in_passes_is_bitwise_each_entry(psi_12, count):
    # every pass edge and an exact node hit in the second pass (the last entry
    # when there is none): each entry as it is interpolated alone
    x = np.random.default_rng(count).uniform(psi_12.lo, psi_12.hi, count)
    hit = min(count - 1, BARY_ROWS + 1)
    x[hit] = psi_12.nodes[7]
    args = psi_12.nodes, psi_12.bary_w, psi_12.node_values
    got = _bary_eval(*args, x)
    assert got.shape == (count,) and got[hit] == psi_12.node_values[7]
    assert np.array_equal(got, [_bary_eval(*args, x[k:k + 1])[0] for k in range(count)])
