import numpy as np
import pytest

from biconserve.errors import ContractViolation, DomainError
from biconserve.expr import (Call, Const, Mul, Pow, ProfileCall, Var, eval_value,
                             eval_values, fd_partial, node_repr, parse)


def test_parse_basic_precedence():
    e = parse("s + t*u - v/2")
    assert eval_value(e, (1.0, 2.0, 3.0, 4.0)) == pytest.approx(1 + 6 - 2)


def test_parse_power_forms():
    assert eval_value(parse("s^2"), (3, 0, 0, 0)) == 9.0
    assert eval_value(parse("s**2"), (3, 0, 0, 0)) == 9.0
    assert eval_value(parse("s^(-2)"), (2, 0, 0, 0)) == 0.25
    assert eval_value(parse("(1 + s)^0.5"), (3, 0, 0, 0)) == 2.0


def test_parse_unary_minus_and_functions():
    assert eval_value(parse("-s + cos(0)"), (2, 0, 0, 0)) == -1.0
    assert eval_value(parse("2*-s"), (1.5, 0, 0, 0)) == -3.0
    assert eval_value(parse("exp(0) + sqrt(4)"), (0, 0, 0, 0)) == 3.0


def test_parse_profile_call_shape():
    e = parse("phi(s)*cos(v)")
    assert isinstance(e, Mul)
    assert isinstance(e.a, ProfileCall) and e.a.name == "phi"
    assert isinstance(e.b, Call) and e.b.fn == "cos"


def test_parse_custom_variable_names():
    e = parse("t1^2 + t3", ("s", "t1", "t2", "t3", "t4"))
    assert eval_value(e, (0, 2, 0, 5, 0)) == 9.0


def test_parse_rejects_unknown_names_and_trailing():
    with pytest.raises(ContractViolation):
        parse("w + 1")
    with pytest.raises(ContractViolation):
        parse("s + ")
    with pytest.raises(ContractViolation):
        parse("s 3")


def test_exponent_must_be_literal():
    with pytest.raises(ContractViolation):
        parse("s^t")


def test_node_repr_round_trips_through_parser():
    from biconserve.profiles import ExprProfile

    bank = {"phi": ExprProfile(parse("s + 1", ("s",)))}
    texts = ["(s + t)", "phi(s)*cos(v)", "s^2.5", "(1/(s - 2))", "sqrt(u + 2)"]
    for text in texts:
        e = parse(text)
        e2 = parse(node_repr(e))
        pt = (0.3, 0.4, 0.5, 0.6)
        assert eval_value(e, pt, bank) == pytest.approx(eval_value(e2, pt, bank), rel=1e-15)


def test_operator_overloading_builds_trees():
    s, t = Var(0, "s"), Var(1, "t")
    e = (s + 2) * t - s / t
    assert eval_value(e, (1.0, 2.0)) == pytest.approx(6 - 0.5)
    assert isinstance(s ** 2.0, Pow)
    assert isinstance((-s), type(parse("-s")))


def test_constants_fold_to_nodes():
    e = parse("3.5e-2 + .5")
    assert isinstance(e.a, Const)
    assert eval_value(e, (0, 0, 0, 0)) == pytest.approx(0.535)


# -- array evaluation ----------------------------------------------------


def _catalog_charts():
    from biconserve.catalog import FamilySpec, all_keys, build, build_remark42

    for key in all_keys():
        if key == "rem42":
            yield key, build_remark42(4, (1.0, 2.0, 3.0))
        else:
            family, _, case = key.partition(".")
            profiles = {"solve_psi": True, "c": 1.0} if key == "ex41" else {}
            yield key, build(FamilySpec(family, case, profiles=profiles))


def test_eval_values_matches_eval_value_on_every_catalog_component():
    from biconserve.sweep import random_points

    for key, chart in _catalog_charts():
        pts = random_points(chart.domain, 12, seed=7)
        exprs = chart.components + (chart.orientation_ref or ())
        for e in exprs:
            got = eval_values(e, pts, chart.profile_bank)
            ref = np.array([eval_value(e, p, chart.profile_bank) for p in pts])
            assert got.shape == (len(pts),)
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), (key, node_repr(e))


@pytest.mark.parametrize("text, point", [
    ("1/(s - 2)", (2.0, 0.0, 0.0, 0.0)),
    ("t/(s - 2)^3", (2.0 + 1e-5, 1.0, 0.0, 0.0)),
    ("s^(-2)", (0.0, 0.0, 0.0, 0.0)),
    ("(s - 1)^1.5", (0.5, 0.0, 0.0, 0.0)),
    ("sqrt(u)", (0.0, 0.0, -1.0, 0.0)),
    ("cos(sqrt(s - 1)) + 2", (1.0, 0.0, 0.0, 0.0)),
    ("exp(1/(s - t))", (0.3, 0.3, 0.0, 0.0)),
])
def test_eval_values_domain_guards_match_eval_value(text, point):
    e = parse(text)
    with pytest.raises(DomainError) as jet_err:
        eval_value(e, point)
    with pytest.raises(DomainError) as arr_err:
        eval_values(e, np.array([point]))
    assert str(arr_err.value) == str(jet_err.value)
    # one bad row among good ones is enough
    good = np.array([(3.0, 0.5, 1.0, 0.2), point, (4.0, 0.1, 2.0, 0.3)])
    with pytest.raises(DomainError):
        eval_values(e, good)


def test_eval_values_integer_powers_take_any_base():
    e = parse("s^3 + (t - 1)^(-2)")
    pts = np.array([(-1.5, 0.0, 0.0, 0.0), (2.0, 3.0, 0.0, 0.0)])
    ref = [eval_value(e, p) for p in pts]
    assert eval_values(e, pts).tolist() == pytest.approx(ref, rel=1e-15)


def test_eval_values_contract():
    with pytest.raises(ContractViolation):
        eval_values(parse("s"), (1.0, 2.0))
    with pytest.raises(ContractViolation):
        eval_values(parse("phi(s)"), np.ones((2, 4)), {})


def test_fd_partial_on_base_arrays_is_bitwise_the_single_point_route():
    from biconserve.sweep import random_points

    rng = np.random.default_rng(5)
    for key, chart in _catalog_charts():
        n = chart.nparams
        base = random_points(chart.domain, 9, seed=3)
        comp = chart.components[int(rng.integers(len(chart.components)))]
        for order in range(5):
            alpha = tuple(rng.multinomial(order, [1.0 / n] * n))
            batch = fd_partial(comp, base, alpha, profile_bank=chart.profile_bank)
            single = [fd_partial(comp, p, alpha, profile_bank=chart.profile_bank) for p in base]
            assert isinstance(single[0], float)
            assert np.array_equal(batch, np.array(single)), (key, alpha)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("text, message", [
    ("exp(s)", "non-finite value inf in exp(s)"),
    ("2*sinh(s)", "non-finite value inf in sinh(s)"),
    ("exp(s/2)*exp(s/2)", "non-finite value inf in (exp((s/2))*exp((s/2)))"),
    ("s^300", "non-finite value inf in s^300"),
])
def test_overflow_raises_domain_error_on_both_routes(text, message):
    e = parse(text)
    point = (1000.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError) as jet_err:
        eval_value(e, point)
    with pytest.raises(DomainError) as arr_err:
        eval_values(e, np.array([(1.0, 0.0, 0.0, 0.0), point]))
    assert str(jet_err.value) == str(arr_err.value) == message
