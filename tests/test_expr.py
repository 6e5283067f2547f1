import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from biconserve import expr, jets
from biconserve.catalog import FamilySpec, all_keys, build
from biconserve.errors import ContractViolation, DomainError
from biconserve.expr import (Add, Call, Const, Dag, Div, Expr, Mul, Neg, Pow,
                             ProfileCall, Sub, Var,
                             dag_of, eval_value, eval_values, fd_partial, jet_eval, node_repr,
                             parse)
from biconserve.jets import Jet, JetSpace
from biconserve.jets.jet import LADDERS, _power_ladder, _reciprocal_ladder
from biconserve.profiles import DerivativeProfile, ExprProfile, PsiSolution, QuadratureProfile
from biconserve.thresholds import FD_STEPS


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


def _depth(tree) -> int:
    kids = [getattr(tree, f.name) for f in dataclasses.fields(tree)]
    return 1 + max((_depth(k) for k in kids if isinstance(k, Expr)), default=0)


@pytest.mark.parametrize("minus", [98, 99, 1000, 3000])
def test_parse_refuses_a_tree_past_the_depth_bound(minus):
    # k minus signs on s^2 make k + 2 levels; at 3,000 Python's own parser
    # gives up, at 1,000 the walkers would
    text = "-" * minus + "s^2"
    if minus + 2 <= expr._MAX_DEPTH:
        assert _depth(parse(text)) == expr._MAX_DEPTH
    else:
        with pytest.raises(ContractViolation, match="nested more than 100 levels deep"):
            parse(text)


def test_the_catalog_trees_are_far_inside_the_depth_bound():
    charts = [build(FamilySpec(key)) for key in all_keys()]
    charts.append(build(FamilySpec("rem42", parameters={"n": 7})))
    deepest = max(_depth(tree) for chart in charts
                  for tree in chart.components + (chart.orientation_ref or ()))
    assert deepest == 11  # rem42 at n = 7
    assert 5 * deepest < expr._MAX_DEPTH


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


# -- the text grammar ----------------------------------------------------

# each binary operator's level (+ - 1, * / 2) and node; unary minus is 3,
# a power 4 and an atom 5
BINARY = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}
SPACES = ["", "", "", " ", "  ", "\t", "\n", " \t\n ", "\r\x0b\x0c", "\xa0"]
NUMBERS = ["0", "00", "05", "2", "17", "3.", "0.5", "1.25", ".5", "007.5", "2e3", "1E-2",
           "4.5e+05", ".5e1", "1.e2", "1" + "0" * 300]


def _grammar_case(rng, depth):
    """The tokens of a random text of the grammar, the tree the grammar gives
    it and its level: each operand is parenthesized where its level is below
    the one its place takes (the right operand of + - * / one above the
    operator's, for grouping from the left), and now and then at random."""
    def operand(case, level):
        tokens, tree, own = case
        return (["(", *tokens, ")"] if own < level or rng.random() < 0.1 else tokens), tree

    kind = rng.randrange(7 if depth else 2)
    if kind == 0:
        name = rng.choice("stuv")
        return [name], Var("stuv".index(name), name), 5
    if kind == 1:
        text = rng.choice(NUMBERS)
        return [text], Const(float(text)), 5
    if kind <= 3:  # a binary operator
        op = rng.choice("+-*/")
        level, node = BINARY[op]
        (a, x), (b, y) = (operand(_grammar_case(rng, depth - 1), lv) for lv in (level, level + 1))
        return [*a, op, *b], node(x, y), level
    if kind == 4:
        a, x = operand(_grammar_case(rng, depth - 1), 3)
        return ["-", *a], Neg(x), 3
    if kind == 5:  # an exponent: minus signs and parentheses around a number
        exponent = [rng.choice(NUMBERS[:-1])]
        value = float(exponent[0])
        for _ in range(rng.randrange(3)):
            if rng.random() < 0.5:
                exponent, value = ["-", *exponent], -value
            else:
                exponent = ["(", *exponent, ")"]
        base, tree = operand(_grammar_case(rng, depth - 1), 5)
        return [*base, rng.choice(["^", "**"]), *exponent], Pow(tree, value), 4
    fn = rng.choice(sorted(LADDERS) + ["phi", "psi", "dpsi"])
    a, x = _grammar_case(rng, depth - 1)[:2]
    return [fn, "(", *a, ")"], (Call if fn in LADDERS else ProfileCall)(fn, x), 5


def _grammar_texts(count):
    """``count`` (text, tree) pairs, with whitespace anywhere, leading and
    trailing included, and first every pair of binary operators."""
    rng = random.Random(24)
    names = [Var(i, n) for i, n in enumerate("stu")]
    for op1, op2 in itertools.product(BINARY, repeat=2):
        (l1, n1), (l2, n2) = BINARY[op1], BINARY[op2]
        tree = n2(n1(*names[:2]), names[2]) if l1 >= l2 else n1(names[0], n2(*names[1:]))
        yield f"s {op1} t {op2} u", tree
    for _ in range(count - 16):
        tokens, tree, _ = _grammar_case(rng, rng.randrange(1, 5))
        yield "".join(rng.choice(SPACES) + t for t in tokens) + rng.choice(SPACES), tree


def test_parse_reads_every_text_of_the_grammar_as_its_tree():
    for text, tree in _grammar_texts(3000):
        assert repr(parse(text)) == repr(tree), text


S = Var(0, "s")


@pytest.mark.parametrize("text, names, tree", [
    ("05*s", "s", Mul(Const(5.0), S)),
    ("s^02", "s", Pow(S, 2.0)),
    ("1" + "0" * 300, "s", Const(1e300)),
    ("0" * 5000 + "1", "s", Const(1.0)),  # past the digits Python reads as an int
    ("t05 + 1e05", ("t05",), Add(Var(0, "t05"), Const(1e5))),
    ("s^2 ", "s", Pow(S, 2.0)),
    ("\t s\n", "s", S),
    ("s^-(-(2))", "s", Pow(S, 2.0)),
    ("s^-(0)", "s", Pow(S, -0.0)),
    ("if(s) + True(s)", "s", Add(ProfileCall("if", S), ProfileCall("True", S))),
    ("\u0663*s", "s", Mul(Const(3.0), S)),  # a decimal digit beyond ASCII
])
def test_parse_edge_cases(text, names, tree):
    assert repr(parse(text, tuple(names))) == repr(tree)


@pytest.mark.parametrize("text", [
    "0x10", "1_0", "1j", "True", "None", "'s'", "...", "()",
    "+s", "s^+2", "s^t", "s^2^3", "s**2**3", "s^^2", "s* *2",
    "f(s, t)", "sin()", "phi(s,)", "phi(*s)", "phi(**s)", "phi(x=s)", "(phi)(s)", "2(s)",
    "s[0]", "s.real", "s < t", "s if t else u", "lambda: s", "s // t", "s % t", "s @ t",
    "not s", "s and t", "1if s else 2", "s # comment", "s \\", "s;t",
    "2s", "(s", "s)", "1.5.2", "\u03c3(s)", "\uff53", "w", "", " \t\n",
    "(" * 250 + "s" + ")" * 250,  # past Python's nesting limit
    # a number past the float range, which would read as inf
    "1e999*s", "s^1e999", "1" + "0" * 400, "1" + "0" * 5000,
])
def test_parse_refuses_every_text_outside_the_grammar(text):
    with pytest.raises(ContractViolation):
        parse(text)


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


def _nested_difference(expr, pts, alpha, h, bank):
    """The central difference nested one axis at a time, each level stacking
    its up and down points (the stencil's definition)."""
    for axis, cnt in enumerate(alpha):
        if cnt:
            up, dn = pts.copy(), pts.copy()
            up[:, axis] += h
            dn[:, axis] -= h
            rest = tuple(alpha[:axis]) + (cnt - 1,) + tuple(alpha[axis + 1:])
            v = _nested_difference(expr, np.concatenate((up, dn)), rest, h, bank)
            return (v[:len(pts)] - v[len(pts):]) / (2.0 * h)
    return eval_values(expr, pts, bank)


def _reference_partial(expr, pts, alpha, h, bank):
    order = sum(alpha)
    h = FD_STEPS[order] if h is None else h
    out = _nested_difference(expr, pts, alpha, h, bank)
    if order > 2:
        out = (4.0 * _nested_difference(expr, pts, alpha, h / 2.0, bank) - out) / 3.0
    return out


@pytest.mark.parametrize("h", [None, 3e-3])
def test_fd_partial_alpha_stack_is_bitwise_the_single_alpha_calls(h):
    from biconserve.sweep import random_points

    rng = np.random.default_rng(11)
    for key, chart in _catalog_charts():
        n = chart.nparams
        # orders 0-4 mixed in one stack, shuffled, with a repeated alpha
        alphas = [tuple(rng.multinomial(order, [1.0 / n] * n)) for order in (0, 1, 2, 3, 4, 2, 1)]
        alphas = [alphas[k] for k in rng.permutation(len(alphas))] + [alphas[0]]
        base = random_points(chart.domain, 5, seed=4)
        bank = chart.profile_bank
        for comp in chart.components[:2]:
            block = fd_partial(comp, base, alphas, h=h, profile_bank=bank)
            one = fd_partial(comp, base[2], np.array(alphas), h=h, profile_bank=bank)
            assert block.shape == (len(alphas), len(base)) and one.shape == (len(alphas),)
            for k, alpha in enumerate(alphas):
                single = fd_partial(comp, base, alpha, h=h, profile_bank=bank)
                assert np.array_equal(block[k], single), (key, alpha)
                assert np.array_equal(single, _reference_partial(comp, base, alpha, h, bank))
                assert one[k] == fd_partial(comp, base[2], alpha, h=h, profile_bank=bank)


@pytest.mark.parametrize("alpha", [
    [(1, 0, 0, 0), (1, 0, 0)],        # ragged
    [(1, 0, 0), (0, 1, 0)],           # wrong length
    (1, 0, 0),                        # one alpha of the wrong length
    [(1, 0, 0, 0), (2, 2, 1, 0)],     # |alpha| > 4 inside a stack
    [(1, 0, 0, 0), (-1, 1, 0, 0)],    # a negative order
    np.zeros((0, 4), dtype=int),      # empty
    np.zeros((2, 1, 4), dtype=int),   # not (n,) or (K, n)
])
def test_fd_partial_alpha_stack_contract(alpha):
    e = parse("s*t + u")
    for point in ((0.1, 0.2, 0.3, 0.4), np.ones((3, 4))):
        with pytest.raises(ContractViolation):
            fd_partial(e, point, alpha)


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


# -- one DAG per chart ---------------------------------------------------


def _nodes(node):
    """Every node reachable from ``node``, by identity."""
    out = {id(node): node}
    for child in vars(node).values():
        if isinstance(child, Expr):
            out.update(_nodes(child))
    return out


def test_dag_of_merges_equal_subtrees_and_marks_shared_nodes():
    trees = (parse("s*t + sin(s*t)"), parse("(s*t)^2 - u"), parse("u"), parse("s*t + sin(s*t)"))
    dag = dag_of(trees)
    assert dag.roots == trees
    # the two equal roots are one node, as are the four copies of s*t
    assert dag.roots[0] is dag.roots[3]
    st = dag.roots[0].a
    assert st is dag.roots[0].b.a is dag.roots[1].a.a
    # s*t is reached from +, from sin and from ^2; the root twice; leaves never count
    assert {node_repr(n): k for n, k in dag.shared} == {"(s*t)": 3, node_repr(trees[0]): 2}
    assert dag_of((parse("s + t"),)).shared == ()
    # constants are told apart by their bits
    neg_zero = dag_of((Mul(Const(0.0), Var(0)), Mul(Const(-0.0), Var(0))))
    assert neg_zero.roots[0] is not neg_zero.roots[1]
    assert eval_values(neg_zero, np.ones((1, 1))).tolist() == [[0.0, -0.0]]
    assert np.signbit(eval_values(neg_zero, np.ones((1, 1)))).tolist() == [[False, True]]


def _chart_dags(chart):
    yield chart.dag
    if chart.orientation_dag is not None:
        yield chart.orientation_dag


def test_chart_dag_evaluation_is_bitwise_tree_by_tree():
    from biconserve.sweep import random_points

    rng = np.random.default_rng(17)
    for key, chart in _catalog_charts():
        n, bank = chart.nparams, chart.profile_bank
        block = random_points(chart.domain, 5, seed=8)
        alphas = [tuple(rng.multinomial(order, [1.0 / n] * n)) for order in (0, 1, 2, 3, 4)]
        for dag in _chart_dags(chart):
            for pts in (block[0], block):
                for order in range(4):
                    jets = jet_eval(dag, pts, order, bank)
                    assert len(jets) == len(dag.roots)
                    for jet, tree in zip(jets, dag.roots):
                        assert np.array_equal(jet.c, jet_eval(tree, pts, order, bank).c), key
                values = eval_value(dag, pts, bank)
                assert np.array_equal(values, np.stack(
                    [eval_value(t, pts, bank) for t in dag.roots], axis=-1)), key
                fd = fd_partial(dag, pts, alphas, profile_bank=bank)
                assert np.array_equal(fd, np.stack(
                    [fd_partial(t, pts, alphas, profile_bank=bank) for t in dag.roots],
                    axis=-1)), key
            got = eval_values(dag, block, bank)
            assert got.shape == (len(block), len(dag.roots))
            assert np.array_equal(got, np.stack(
                [eval_values(t, block, bank) for t in dag.roots], axis=-1)), key


def test_each_shared_value_is_dropped_at_its_last_use(monkeypatch):
    memos, shared = [], 0
    memo = Dag.memo
    monkeypatch.setattr(Dag, "memo", lambda self: memos.append(memo(self)) or memos[-1])
    for key, chart in _catalog_charts():
        p = chart.center()
        for dag in _chart_dags(chart):
            shared += len(dag.shared)
            memos.clear()
            jet_eval(dag, p, 3, chart.profile_bank)
            eval_values(dag, p[None], chart.profile_bank)
            fd_partial(dag, p, np.eye(len(p), dtype=int), profile_bank=chart.profile_bank)
            assert len(memos) >= 3 and all(m == {} for m in memos), key
    assert shared > 40


def _ex41():
    from biconserve.catalog import FamilySpec, build

    return build(FamilySpec("ex41", profiles={"solve_psi": True, "c": 1.0}))


def test_ex41_shared_profile_call_is_evaluated_once_per_call(monkeypatch):
    chart = _ex41()
    assert [node_repr(n) for n, _ in chart.dag.shared if isinstance(n, ProfileCall)] == []
    assert sum(node_repr(t).count("psi(s)") for t in chart.components) == 2
    psi, dpsi = chart.profile_bank["psi"], chart.profile_bank["dpsi"]
    calls = []
    for prof, meth in ((psi, "derivs"), (dpsi, "values")):
        original = getattr(type(prof), meth)
        monkeypatch.setattr(type(prof), meth, lambda self, *a, _o=original, _m=meth:
                            calls.append(_m) or _o(self, *a))
    p = chart.center()
    for pts in (p, np.stack([p, p + 0.01])):
        for order in (0, 3):
            calls.clear()
            jet_eval(chart.dag, pts, order, chart.profile_bank)
            assert calls == ["derivs"]
        calls.clear()
        eval_values(chart.orientation_dag, np.atleast_2d(pts), chart.profile_bank)
        assert calls == ["values"]
    # tree by tree, the profile is called once per component that holds it
    calls.clear()
    for tree in chart.components:
        jet_eval(tree, p, 3, chart.profile_bank)
    assert calls == ["derivs", "derivs"]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("texts, point", [
    (("u + 1/(s - 2)", "t*(1/(s - 2))"), (2.0, 0.1, 0.2, 0.3)),
    # the first root overflows (named at the root), the second divides by zero
    (("(s*s) + t", "(s*s)*u/(s - 1e200)"), (1e200, 0.1, 0.2, 0.3)),
    (("t + sqrt(s - 1)", "u", "sqrt(s - 1)*v"), (0.5, 0.1, 0.2, 0.3)),
    (("s*t", "v/(s - 2) + s*t", "(s*t)*(v/(s - 2))"), (2.0, 0.1, 0.2, 0.3)),
])
def test_domain_error_in_a_shared_subtree_names_the_tree_by_tree_node(texts, point):
    trees = [parse(t) for t in texts]
    dag = dag_of(trees)
    assert dag.shared
    pts = np.array([(3.0, 0.5, 1.0, 0.2), point])

    def first_error(fn):
        for tree in trees:
            try:
                fn(tree)
            except DomainError as e:
                return str(e)
        raise AssertionError("no tree raised")

    for fn in (lambda e: jet_eval(e, point, 2), lambda e: eval_values(e, pts),
               lambda e: fd_partial(e, pts, [(1, 0, 0, 0), (0, 2, 0, 0)])):
        with pytest.raises(DomainError) as err:
            fn(dag)
        assert str(err.value) == first_error(fn)


def test_pickled_chart_keeps_its_dag_and_its_packets():
    import pickle

    from biconserve.immersion import packet, packet_fd
    from biconserve.sweep import random_points

    chart = _ex41()
    back = pickle.loads(pickle.dumps(chart))
    assert back.components == chart.components and back.dag.roots == chart.dag.roots
    for dag in (back.dag, back.orientation_dag):
        reachable = {}
        for root in dag.roots:
            reachable.update(_nodes(root))
        assert dag.shared and all(id(node) in reachable for node, _ in dag.shared)
    pts = random_points(chart.domain, 6, seed=21)
    for p in (pts[0], pts):
        for fn in (packet, packet_fd):
            a, b = fn(chart, p), fn(back, p)
            for name in ("G", "N", "S", "H", "gradH", "dx"):
                x, y = getattr(a, name), getattr(b, name)
                x, y = getattr(x, "components", x), getattr(y, "components", y)
                assert np.array_equal(x, y), (fn.__name__, name)


def test_chart_with_interpolated_profiles_equals_its_pickled_copy():
    import pickle

    from biconserve.catalog import FamilySpec, build, build_remark42

    for chart, other in ((_ex41(), build(FamilySpec("ex41", profiles={"solve_psi": True,
                                                                       "c": 2.0}))),
                         (build_remark42(5, (1, 2, 3, 4)), build_remark42(5, (1, 2, 3, 5)))):
        assert chart == pickle.loads(pickle.dumps(chart))
        assert (chart == other) is False


def test_chart_equality_ignores_its_dag():
    from biconserve.immersion import ImmersionChart

    comps = (parse("s*t + t*s"), parse("u"), parse("v"), parse("s"), parse("t"))
    a = ImmersionChart(components=comps, domain=((-1, 1),) * 4)
    b = ImmersionChart(components=tuple(parse(node_repr(c)) for c in comps), domain=a.domain)
    assert a == b and a.dag is not b.dag
    assert "dag" not in repr(a)
    assert isinstance(a.dag, Dag) and a.orientation_dag is None


def test_stencil_tables_are_read_only_and_interleaved_calls_match_fresh_calls():
    from biconserve import expr
    from biconserve.catalog import build_remark42
    from biconserve.sweep import random_points

    charts = [_ex41(), build_remark42(5, (1.0, 2.0, 3.0, 4.0), {"solve_psi": True, "c": 0.5})]
    rng = np.random.default_rng(3)
    cases = []
    for chart in charts:
        n = chart.nparams
        base = random_points(chart.domain, 3, seed=8)
        for orders in ((1, 2, 2, 1), (0, 3, 4, 2)):
            alphas = np.array([rng.multinomial(o, [1.0 / n] * n) for o in orders])
            for h in (None, 2e-3):
                cases.append((chart, base, alphas, h))

    def call(case):
        chart, base, alphas, h = case
        return fd_partial(chart.dag, base, alphas, h=h, profile_bank=chart.profile_bank)

    fresh = []
    for case in cases:
        expr._stencil_table.cache_clear()
        fresh.append(call(case))
    expr._stencil_table.cache_clear()
    for k in (0, 4, 1, 5, 2, 6, 3, 7, 0, 7, 4, 3):  # n = 4 and n = 5 stacks interleaved
        got = call(cases[k])
        assert got.tobytes() == fresh[k].tobytes() and got.shape == fresh[k].shape, k
    assert expr._stencil_table.cache_info().currsize == len(cases)
    nleaves, moves, folds = expr._stencil_table(
        cases[0][2].shape, cases[0][2].tobytes(), np.full(len(cases[0][2]), 1e-4).tobytes())
    arrays = [a for t in (*moves, *folds) for a in t if isinstance(a, np.ndarray)]
    assert nleaves > 0 and arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        moves[0][2][0] = 1.0


# -- the jet route: placed series and scalar operands ---------------------
#
# ``Jet.compose`` places a ladder on x_i's pure powers where its argument's
# support says a + b x_i (a constant included), and a constant operand is a
# float.  The references below never place: Horner's rule through
# ``Jet.__mul__`` with the argument's nilpotent part, and a ``Jet.constant``
# operand.  Placement gives Horner's bits; a constant operand may differ from
# its jet only in the sign of an exact zero (a scalar times a -0.0
# coefficient).

POINTS = {
    "one": np.array([0.7, 0.45, 1.3, 0.25]),
    "row": np.array([[0.7, 0.45, 1.3, 0.25]]),
    "block": np.array([[0.7, 0.45, 1.3, 0.25], [1.9, 0.35, 0.6, 2.4], [0.3, 1.1, 0.9, 0.8]]),
}
# the arguments a + b x_i a ladder is placed on, x_i in braces
AFFINE = ("{}", "2.5*{}", "{} - 0.1", "-1.5*{} + 3")


def _bits(jet):
    return jet.c.dtype, jet.c.shape, jet.c.tobytes()


def _coordinate(point, order, axis):
    return Jet.variable(JetSpace.get(point.shape[-1]), order, axis, point[..., axis])


def _general(point, order, fn):
    """fn of the coordinate jets by the general arithmetic alone."""
    return fn(*[_coordinate(point, order, i) for i in range(point.shape[-1])])


def _constant(point, order, value):
    return Jet.constant(JetSpace.get(point.shape[-1]), order, np.full(point.shape[:-1], value))


def _horner(u, dvals):
    """The ladder dvals composed with u by Horner's rule through ``Jet.__mul__``
    with u's nilpotent part (support ``u.support & ~1``): no placement."""
    r = u.order
    w = u.c.copy()
    w[0] = 0.0
    w = Jet(u.space, r, w, u.support & ~1)
    out = Jet.constant(u.space, r, dvals[r] / math.factorial(r))
    for m in range(r - 1, -1, -1):
        out = out * w + dvals[m] / math.factorial(m)
    return out


def _unplaced(fn, u, p=None):
    """``jets.apply(fn, u)``, or u**p for fn "pow" and 1/u for fn "1/", by
    ``_horner``."""
    ladder = {"pow": lambda x, r: _power_ladder(x, p, r), "1/": _reciprocal_ladder}.get(fn)
    return _horner(u, (ladder or LADDERS[fn])(u.c[0], u.order))


@pytest.mark.parametrize("shape", list(POINTS))
@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("fn", sorted(LADDERS))
def test_a_function_of_a_coordinate_is_its_horner_composition(fn, order, shape):
    point = POINTS[shape]
    for arg in (a.format(name) for name in "stuv" for a in AFFINE):
        u = jet_eval(parse(arg), point, order)
        if fn == "sqrt" and np.any(u.c[0] <= 0.0):
            continue  # -1.5*v + 3 leaves sqrt's domain on the block
        got, want = jet_eval(parse(f"{fn}({arg})"), point, order), _unplaced(fn, u)
        assert _bits(got) == _bits(want), arg
        assert got.support == want.support, arg


@pytest.mark.parametrize("shape", list(POINTS))
@pytest.mark.parametrize("order", range(5))
def test_a_fractional_power_and_a_division_by_a_coordinate_are_placed(order, shape):
    point = POINTS[shape]
    cases = [("u^1.5", lambda s, t, u, v: _unplaced("pow", u, 1.5)),
             ("t^(-0.5)", lambda s, t, u, v: _unplaced("pow", t, -0.5)),
             ("s/v", lambda s, t, u, v: s * _unplaced("1/", v)),
             ("(s + u)/t", lambda s, t, u, v: (s + u) * _unplaced("1/", t))]
    for text, fn in cases:
        assert _bits(jet_eval(parse(text), point, order)) == _bits(_general(point, order, fn))


@pytest.mark.parametrize("order", range(5))
def test_only_the_sign_of_an_exact_zero_can_differ(order):
    # sin(0) = 0 and its even derivatives are exact zeros: placement keeps
    # Horner's signs of them bit for bit, while a scalar times a -0.0
    # coefficient keeps its sign where the product of jets adds +0.0
    point = np.array([[0.0, -0.4, 1.3, 0.0], [0.0, 0.4, -1.3, 2.0]])
    got = jet_eval(parse("0.8*(t*t)"), point, order).c
    want = _general(point, order, lambda s, t, u, v: _constant(point, order, 0.8) * (t * t)).c
    assert np.array_equal(got, want)
    assert np.all(got[np.signbit(got) != np.signbit(want)] == 0.0)
    for fn in ("sin", "cos", "sinh", "cosh", "exp"):
        for i, name in enumerate("stuv"):
            want = _general(point, order, lambda *x: _unplaced(fn, x[i]))
            assert _bits(jet_eval(parse(f"{fn}({name})"), point, order)) == _bits(want)


def _profile_bank():
    quad = QuadratureProfile.build(parse("cosh(0.3*s + 0.1)", ("s",)), 0.5, 1.2, 0.0, 2.5)
    expr_entry = ExprProfile(parse("s^3 - 2*sin(s)", ("s",)))
    return {"quad": quad, "psi": PsiSolution.build((0.0, 2.0, 4.0), 1.0, (0.25, 2.5)),
            "expr": expr_entry, "dquad": DerivativeProfile(quad),
            "dexpr": DerivativeProfile(expr_entry)}


@pytest.mark.parametrize("shape", list(POINTS))
@pytest.mark.parametrize("order", range(5))
def test_a_profile_of_a_coordinate_is_its_horner_composition(order, shape):
    bank, point = _profile_bank(), POINTS[shape]
    for name, entry in bank.items():
        if order == 4 and isinstance(entry, DerivativeProfile):
            continue  # a derivative view supplies three derivatives
        for i, var in enumerate("stuv"):
            u = _coordinate(point, order, i)
            want = _horner(u, entry.derivs(u.value, order))
            assert _bits(jet_eval(parse(f"{name}({var})"), point, order, bank)) == _bits(want)


@pytest.mark.parametrize("shape", list(POINTS))
@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_a_constant_operand_is_a_scalar(op, order, shape):
    point = POINTS[shape]
    apply = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
             "/": lambda a, b: a / b}[op]
    cases = [(f"2.5 {op} t", lambda s, t, u, v: apply(_constant(point, order, 2.5), t)),
             (f"sin(t) {op} 0.75", lambda s, t, u, v: apply(jets.apply("sin", t), _constant(point, order, 0.75))),
             (f"3 {op} 0.5", lambda *x: apply(_constant(point, order, 3.0),
                                              _constant(point, order, 0.5))),
             (f"(1.5 {op} 2) {op} (s*u)",
              lambda s, t, u, v: apply(apply(_constant(point, order, 1.5),
                                             _constant(point, order, 2.0)), s * u))]
    for text, fn in cases:
        got = jet_eval(parse(text), point, order)
        assert isinstance(got, Jet)
        assert _bits(got) == _bits(_general(point, order, fn))


@pytest.mark.parametrize("shape", list(POINTS))
def test_a_constant_only_tree_gives_a_jet(shape):
    point = POINTS[shape]
    for text, value in [("2", 2.0), ("2 + 3", 5.0), ("2*3 - 4/5", 5.2), ("-(2 - 3)", 1.0),
                        ("cos(0.5)*2", 2.0 * np.cos(0.5))]:
        got = jet_eval(parse(text), point, 2)
        assert isinstance(got, Jet) and got.c.shape == (15,) + point.shape[:-1]
        assert np.all(got.c[1:] == 0.0)
        assert got.c[0] == pytest.approx(np.full(point.shape[:-1], value), rel=1e-15)
    assert isinstance(jet_eval(Const(1.5), point, 0), Jet)


@pytest.mark.parametrize("order", [1, 3])
def test_a_placed_series_shared_by_two_roots_is_the_tree_by_tree_one(order):
    texts = ("s*cos(v) + 2", "cos(v)/t - sinh(u)", "3 - cos(v)")
    dag = dag_of([parse(t) for t in texts])
    assert any(node == parse("cos(v)") for node, _ in dag.shared)
    point = POINTS["block"]
    fns = [lambda s, t, u, v: s * _unplaced("cos", v) + _constant(point, order, 2.0),
           lambda s, t, u, v: _unplaced("cos", v) * _unplaced("1/", t) - _unplaced("sinh", u),
           lambda s, t, u, v: _constant(point, order, 3.0) - _unplaced("cos", v)]
    for text, got, fn in zip(texts, jet_eval(dag, point, order), fns):
        assert _bits(got) == _bits(jet_eval(parse(text), point, order))
        assert _bits(got) == _bits(_general(point, order, fn))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("text, point, message", [
    ("exp(s)", (800.0, 0.0, 0.0, 0.0), "non-finite value inf in exp(s)"),
    ("sqrt(s)", (-1.0, 0.0, 0.0, 0.0),
     "fractional power of non-positive base -1.000e+00 in sqrt(s)"),
    ("sqrt(s)", (0.0, 0.0, 0.0, 0.0), "fractional power of non-positive base 0.000e+00 in sqrt(s)"),
    ("s^0.5", (-2.0, 0.0, 0.0, 0.0), "fractional power of non-positive base -2.000e+00 in s^0.5"),
    ("1/t", (0.0, 0.0, 0.0, 0.0), "division by near-zero value 0.000e+00 in (1/t)"),
    ("t*quad(u)", (0.0, 0.0, 3.0, 0.0), "profile argument 3 outside [0, 2.5]"),
    ("psi(s)", (-0.5, 0.0, 0.0, 0.0), "psi argument -0.5 outside [0.25, 2.5]"),
])
@pytest.mark.parametrize("order", [0, 3])
def test_placed_series_keep_their_domain_errors(text, point, message, order):
    with pytest.raises(DomainError) as err:
        jet_eval(parse(text), point, order, _profile_bank())
    assert str(err.value) == message
    with pytest.raises(DomainError) as err:
        jet_eval(parse(text), np.array([(0.5, 0.5, 0.5, 0.5), point]), order, _profile_bank())
    assert str(err.value) == message


def _products(monkeypatch):
    from biconserve.jets import jet as jet_module

    count, real = [0], jet_module._mul_arrays

    def counting(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(jet_module, "_mul_arrays", counting)
    return count


def test_one_point_packets_multiply_only_general_jets(monkeypatch):
    from biconserve.catalog import FamilySpec, build
    from biconserve.immersion import packet, submanifold_packet

    thm3 = build(FamilySpec("thm3", "i"))
    surface = build(FamilySpec("intsurf", "ii"))
    curves = [build(FamilySpec("intcurve", case)) for case in "BCDF"]
    count = _products(monkeypatch)
    packet(thm3, thm3.center())
    assert count[0] <= 6  # 10 while only a bare coordinate was placed, 36 with none
    count[0] = 0
    submanifold_packet(surface, surface.center())
    assert count[0] <= 2  # 16 with none placed
    for curve in curves:  # cos(2 v), sinh(2 v), ...: placed on the slope 2
        count[0] = 0
        submanifold_packet(curve, curve.center())
        assert count[0] == 0, curve.name


def test_no_composition_runs_horner_on_a_constant_argument(monkeypatch):
    # 10 before constants were placed: 2 on each of intcurve.B, C, D and F,
    # and the two cos(0.3) of thm1.i's profile ladder with a constant theta
    from biconserve.catalog import FamilySpec, all_keys, build
    from biconserve.immersion import packet, submanifold_packet

    charts = [build(FamilySpec(*key.split("."))) for key in all_keys()]
    charts.append(build(FamilySpec("thm1", "i", profiles={"theta": "0.3"})))
    products = _products(monkeypatch)
    count, real = [0], Jet.compose

    def counting(self, dvals):
        before = products[0]
        out = real(self, dvals)
        count[0] += self.order >= 1 and not self.c[1:].any() and products[0] > before
        return out

    monkeypatch.setattr(Jet, "compose", counting)
    for chart in charts:
        (packet if chart.codim == 1 else submanifold_packet)(chart, chart.center())
    assert count[0] == 0


@pytest.mark.parametrize("shape", list(POINTS))
@pytest.mark.parametrize("order", range(5))
def test_a_function_of_a_constant_is_its_value(order, shape):
    point = POINTS[shape]
    cases = [("cos(0.3)*t", lambda s, t, u, v: _unplaced("cos", _constant(point, order, 0.3)) * t),
             ("s^3/sinh(2 - 0.5)",
              lambda s, t, u, v: jets.powr(s, 3) * _unplaced(
                  "1/", _unplaced("sinh", _constant(point, order, 2.0) - 0.5))),
             ("(2*3)^0.5 + u", lambda s, t, u, v: _unplaced("pow", _constant(point, order, 6.0), 0.5) + u),
             ("expr(1.5)*v", lambda s, t, u, v: _horner(
                 _constant(point, order, 1.5), _profile_bank()["expr"].derivs(
                     np.full(point.shape[:-1], 1.5), order)) * v),
             ("(s - t)/4", lambda s, t, u, v: (s - t) * _unplaced("1/", _constant(point, order, 4.0)))]
    for text, fn in cases:
        got = jet_eval(parse(text), point, order, _profile_bank()).c
        want = _general(point, order, fn).c
        assert np.array_equal(got, want), text
        assert np.all(got[np.signbit(got) != np.signbit(want)] == 0.0)
