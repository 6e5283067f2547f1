"""Jet arithmetic: spec'd examples, the Leibniz convolution oracle, and the
finite-difference cross-check that gates trust in the forward-mode kernel."""

import itertools
import math

import numpy as np
import pytest

from biconserve.errors import ContractViolation, DomainError
from biconserve.expr import fd_partial, jet_eval, parse
from biconserve.jets import Jet, JetSpace, cos, cosh, exp, powr, sin, sinh, sqrt
from biconserve.jets.space import _multi_indices


def test_coefficient_counts():
    sp = JetSpace.get(4)
    assert sp.ncoef == [1, 5, 15, 35, 70]
    assert len(_multi_indices(4, 4)) == 70


def test_layout_prefix_property():
    # every order-r prefix of the layout is exactly the multi-indices of
    # degree <= r, so truncation is a slice
    sp = JetSpace.get(4)
    for r in range(5):
        degs = [sum(a) for a in sp.indices[: sp.ncoef[r]]]
        assert max(degs) == r or (r == 0 and degs == [0])
        assert all(sum(a) > r for a in sp.indices[sp.ncoef[r]:])


def test_product_rule_example():
    j = jet_eval(parse("s*t"), (2, 3, 0, 0), 2)
    assert j.value == 6.0
    assert j.partial((1, 0, 0, 0)) == 3.0
    assert j.partial((0, 1, 0, 0)) == 2.0
    assert j.partial((1, 1, 0, 0)) == 1.0
    assert j.partial((0, 0, 2, 0)) == 0.0


def test_sinh_taylor_example():
    j = jet_eval(parse("sinh(v)"), (0, 0, 0, 0), 3)
    assert j.value == 0.0
    assert j.partial((0, 0, 0, 1)) == pytest.approx(1.0, abs=1e-15)
    assert j.partial((0, 0, 0, 2)) == pytest.approx(0.0, abs=1e-15)
    assert j.partial((0, 0, 0, 3)) == pytest.approx(1.0, abs=1e-15)


def test_profile_times_cos_chain_rule():
    # phi = identity profile: d/ds [phi(s) cos(v)] checked by hand at
    # (1, 0, 0, pi/2): value 0, ds = 0, dv = -1, ds dv = -1
    from biconserve.profiles import ExprProfile

    bank = {"phi": ExprProfile(parse("s", ("s",)))}
    j = jet_eval(parse("phi(s)*cos(v)"), (1, 0, 0, math.pi / 2), 2, bank)
    assert j.value == pytest.approx(0.0, abs=1e-15)
    assert j.partial((1, 0, 0, 0)) == pytest.approx(0.0, abs=1e-15)
    assert j.partial((0, 0, 0, 1)) == pytest.approx(-1.0, abs=1e-14)
    assert j.partial((1, 0, 0, 1)) == pytest.approx(-1.0, abs=1e-14)


def _random_jet(space, order, rng):
    return Jet(space, order, rng.normal(size=space.ncoef[order]))


def _reference_convolution(space, order, a, b):
    """Dict-based truncated product, independent of the kernel tables."""
    out = {}
    n = space.ncoef[order]
    for i in range(n):
        for j in range(n):
            alpha = tuple(x + y for x, y in zip(space.indices[i], space.indices[j]))
            if sum(alpha) <= order:
                out[alpha] = out.get(alpha, 0.0) + a[i] * b[j]
    res = np.zeros(n)
    for alpha, val in out.items():
        res[space.position[alpha]] = val
    return res


def test_leibniz_convolution_500_random_pairs():
    rng = np.random.default_rng(3)
    for nvars in (1, 2, 4):
        space = JetSpace.get(nvars)
        for _ in range(500 if nvars == 4 else 100):
            order = int(rng.integers(1, 5))
            a = _random_jet(space, order, rng)
            b = _random_jet(space, order, rng)
            got = (a * b).c
            ref = _reference_convolution(space, order, a.c, b.c)
            assert np.max(np.abs(got - ref)) < 1e-12 * (1 + np.max(np.abs(ref)))


def _random_expr(rng, depth=0):
    from biconserve.expr import Call, Const, Var

    roll = rng.uniform()
    if depth >= 3 or roll < 0.25:
        if rng.uniform() < 0.5:
            return Const(float(rng.uniform(-2, 2)))
        return Var(int(rng.integers(0, 4)), "stuv"[int(rng.integers(0, 4))])
    if roll < 0.45:
        return _random_expr(rng, depth + 1) + _random_expr(rng, depth + 1)
    if roll < 0.65:
        return _random_expr(rng, depth + 1) * _random_expr(rng, depth + 1)
    if roll < 0.8:
        return _random_expr(rng, depth + 1) - _random_expr(rng, depth + 1)
    fn = ("sin", "cos", "sinh", "exp")[int(rng.integers(0, 4))]
    return Call(fn, _random_expr(rng, depth + 1))


def test_leibniz_on_random_expression_pairs():
    # jet of a product equals the coefficient convolution of the factor jets
    rng = np.random.default_rng(12)
    space = JetSpace.get(4)
    for _ in range(500):
        f = _random_expr(rng)
        g = _random_expr(rng)
        p = rng.uniform(-0.7, 0.7, size=4)
        order = int(rng.integers(1, 5))
        jf = jet_eval(f, p, order)
        jg = jet_eval(g, p, order)
        jfg = jet_eval(f * g, p, order)
        ref = _reference_convolution(space, order, jf.c, jg.c)
        scale = 1.0 + np.max(np.abs(ref))
        assert np.max(np.abs(jfg.c - ref)) < 1e-11 * scale


def test_polynomial_jets_exact():
    rng = np.random.default_rng(5)
    exprs = ["s^2*t - u*v + 3", "(s + t)*(u - 2*v)", "s^3 - t^2*u", "s*t*u*v"]
    for text in exprs:
        e = parse(text)
        p = rng.uniform(-1, 1, size=4)
        j = jet_eval(e, p, 4)
        for alpha in itertools.product(range(5), repeat=4):
            if sum(alpha) > 3:
                continue
            ref = fd_partial(e, p, alpha) if sum(alpha) else jet_eval(e, p, 0).value
            scale = max(1.0, abs(ref))
            assert abs(j.partial(alpha) - ref) < 1e-6 * scale


def test_degree4_polynomial_exactness():
    # quartic monomial: order-4 jet must carry the exact top coefficient
    j = jet_eval(parse("s^2*t^2"), (1.5, -0.5, 0, 0), 4)
    assert j.partial((2, 2, 0, 0)) == pytest.approx(4.0, rel=1e-12)
    assert j.partial((1, 1, 0, 0)) == pytest.approx(4 * 1.5 * -0.5, rel=1e-12)


def test_fd_vs_ad_simple_cases():
    e = parse("s^2")
    assert fd_partial(e, (0.7, 0, 0, 0), (2, 0, 0, 0), h=1e-3) == pytest.approx(2.0, abs=1e-6)
    e = parse("cos(v)")
    assert fd_partial(e, (0, 0, 0, 0), (0, 0, 0, 1)) == pytest.approx(0.0, abs=1e-7)


def test_fd_vs_ad_transcendental_sweep():
    rng = np.random.default_rng(9)
    e = parse("sinh(s + 0.5*t)*cos(v) + sqrt(2 + u) / (1 + s^2)")
    for _ in range(40):
        p = rng.uniform(-0.8, 0.8, size=4)
        alpha = tuple(rng.multinomial(int(rng.integers(1, 4)), [0.25] * 4))
        ad = jet_eval(e, p, sum(alpha)).partial(alpha)
        fd = fd_partial(e, p, alpha)
        assert abs(ad - fd) <= max(1e-5 * abs(ad), 1e-7)


def test_unary_functions_match_univariate_taylor():
    sp = JetSpace.get(1)
    x0 = 0.37
    u = Jet.variable(sp, 4, 0, x0)
    cases = [
        (sin, [math.sin, math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x), math.sin]),
        (cosh, [math.cosh, math.sinh, math.cosh, math.sinh, math.cosh]),
        (exp, [math.exp] * 5),
    ]
    for fn, ladder in cases:
        j = fn(u)
        for m in range(5):
            assert j.partial((m,)) == pytest.approx(ladder[m](x0), rel=1e-12)


def test_sqrt_and_power_guards():
    sp = JetSpace.get(1)
    u = Jet.variable(sp, 2, 0, -1.0)
    with pytest.raises(DomainError):
        sqrt(u)
    with pytest.raises(DomainError):
        powr(u, 2.0 / 3.0)
    # integer powers stay defined at negative base
    assert powr(u, 3).value == -1.0


def test_division_guard_names_node():
    e = parse("1/(s - 1)")
    with pytest.raises(DomainError):
        jet_eval(e, (1.0, 0, 0, 0), 2)


def test_partial_beyond_order_rejected():
    j = jet_eval(parse("s*t"), (0, 0, 0, 0), 2)
    with pytest.raises(ContractViolation):
        j.partial((2, 1, 0, 0))


@pytest.mark.parametrize("points", [(0.4, 0.2, -0.3, 0.7),
                                    [(0.4, 0.2, -0.3, 0.7), (-0.1, 0.5, 0.3, -0.6),
                                     (1.1, -0.4, 0.2, 0.05)]],
                         ids=["point", "block"])
def test_partials_tensor_is_the_partial_of_every_alpha(points):
    j3 = jet_eval(parse("sinh(s)*cos(t*u) + v^2*s"), points, 3)
    for k in (1, 2, 3):
        d = j3.partials(k)
        assert d.shape == (4,) * k + np.shape(points)[:-1]
        for axes in itertools.product(range(4), repeat=k):
            alpha = tuple(axes.count(v) for v in range(4))
            assert np.array_equal(d[axes], j3.partial(alpha)), axes
            for perm in itertools.permutations(range(k)):
                assert np.array_equal(d[axes], d[tuple(axes[q] for q in perm)])
    with pytest.raises(ContractViolation):
        j3.partials(4)


@pytest.mark.parametrize("k", list(range(-5, 17)))
def test_integer_powers_start_from_the_base(k, monkeypatch):
    from biconserve.expr import _powr_values
    from biconserve.jets import kernel

    space = JetSpace.get(2)
    rng = np.random.default_rng(k + 40)
    u = Jet(space, 3, rng.uniform(0.5, 1.5, (space.ncoef[3], 4)))
    # the binary ladder started from the constant one, as powers were formed before
    ref, base, e = Jet.constant(space, 3, np.ones(4)), u, abs(k)
    while e:
        ref = ref * base if e & 1 else ref
        base, e = (base * base if e > 1 else base), e >> 1
    ref = ref.reciprocal() if k < 0 else ref
    products = []
    mul_into = kernel.mul_into
    monkeypatch.setattr(kernel, "mul_into", lambda *a: products.append(1) or mul_into(*a))
    got = powr(u, k)
    assert np.array_equal(got.c, ref.c)
    # one product fewer than the ladder from one: no 1 * x
    e = abs(k)
    ladder = e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0
    inverse = 3 if k < 0 else 0  # the reciprocal's Horner steps at order 3
    assert len(products) == ladder + inverse
    vals = _powr_values(u.c[0], float(k))
    assert np.array_equal(vals, ref.c[0] if k >= 0 else 1.0 / powr(u, -k).c[0])
    assert powr(u, 0).order == 3 and np.array_equal(powr(u, 0).c, Jet.constant(
        space, 3, np.ones(4)).c)
