import math

import numpy as np
import pytest

from biconserve.errors import ContractViolation, DomainError
from biconserve.profiles import (DerivativeProfile, ExprProfile,
                                 check_derivative_consistency, constraint_residual,
                                 make_profile_pair, psi_ode_residual,
                                 psi_ode_residual_general, psi_ode_rhs, rk4_solve,
                                 solve_psi, solve_psi_offsets)
from biconserve.expr import parse


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
    entry = solve_psi_offsets(offsets, 0.7, (0.5, 2.0))
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
    entry = solve_psi_offsets(offsets, 1.0, (0.5, 2.0))
    grid = np.linspace(0.5, 2.0, 101)
    traj = rk4_solve(psi_ode_rhs(offsets), 0.5, entry.derivs(0.5, 1)[1], grid)
    closed = np.array([entry.derivs(s, 1)[1] for s in grid])
    assert np.max(np.abs(traj - closed)) < 1e-7


def test_psi_solution_fields(psi_12):
    assert psi_12.a == 1.0 and psi_12.b == 2.0 and psi_12.c == 1.0
    assert np.all(np.diff(np.sort(psi_12.s_grid)) > 0)
    assert np.all(2 * psi_12.dpsi_values - 1 > 0)
    # stored node data matches the derivative ladder
    i = len(psi_12.s_grid) // 3
    s = psi_12.s_grid[i]
    d = psi_12.derivs(s, 2)
    assert d[0] == pytest.approx(psi_12.psi_values[i], rel=1e-12)
    assert d[1] == pytest.approx(psi_12.dpsi_values[i], rel=1e-12)
    assert d[2] == pytest.approx(psi_12.ddpsi_values[i], rel=1e-12)


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
                        [1.0, 1.0, psi_12.s_grid[60], phi.nodes[70]]])  # repeats, exact nodes
    for entry in entries:
        got = entry.values(x)
        ref = np.array([entry.derivs(xi, 0)[0] for xi in x])
        assert got.shape == x.shape
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), type(entry).__name__
    # an exact node returns the stored node value
    assert psi_12.values(psi_12.s_grid[60:61])[0] == psi_12.psi_values[60]
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


def test_derivative_of_an_expression_profile_is_one_block_jet():
    entry = DerivativeProfile(ExprProfile(parse("s^3*exp(-s) + sin(2*s)", ("s",))))
    x = np.array([0.3, 0.7, 0.7, 1.1, 1.9, -0.4])
    got = entry.values(x)
    assert got.tolist() == [entry.derivs(xi, 0)[0] for xi in x]
    assert entry.derivs(x, 1)[1].tolist() == [entry.derivs(xi, 1)[1] for xi in x]
