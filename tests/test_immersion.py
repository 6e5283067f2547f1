"""Geometric pipeline tests: worked low-curvature examples, packet
invariants, residual identities, and the finite-difference oracle route."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from biconserve.ambient import CausalCharacter, causal_character
from biconserve.catalog import FamilySpec, build
from biconserve.errors import (ContractViolation, DegenerateFrameError, DegenerateMetric,
                               DegenerateNormal, DomainError, UnexpectedIndex)
from biconserve.expr import fd_partial, parse
from biconserve.immersion import (ImmersionChart, beltrami_residual,
                                  biconservative_residual, gauss_codazzi_residual,
                                  packet, packet_fd, principal_direction_check,
                                  submanifold_packet)
from biconserve.sweep import HYPERSURFACE_CHECKS, sweep
from biconserve.thresholds import FD_STEP


def chart_from(exprs, domain=((-1, 1),) * 4, **kw):
    return ImmersionChart(components=tuple(parse(e) for e in exprs),
                          domain=domain, **kw)


@pytest.fixture(scope="module")
def flat():
    return chart_from(("t", "u", "s", "v", "0"), name="flat")


@pytest.fixture(scope="module")
def cylinder():
    return chart_from(("t", "u", "cos(v)", "sin(v)", "s"), name="cylinder")


@pytest.fixture(scope="module")
def ex41():
    return build(FamilySpec("ex41", profiles={"solve_psi": True, "c": 1.0}))


def test_flat_chart_packet(flat):
    pk = packet(flat, (0.1, 0.2, -0.3, 0.4))
    assert np.allclose(pk.G, np.diag([1.0, -1.0, -1.0, 1.0]))
    assert np.max(np.abs(pk.S)) == 0.0
    assert pk.H == 0.0
    assert beltrami_residual(flat, (0.1, 0.2, -0.3, 0.4), pk) < 1e-10
    assert gauss_codazzi_residual(flat, (0.1, 0.2, -0.3, 0.4), pk) == (0.0, 0.0)


def test_cylinder_curvatures(cylinder):
    p = (0.3, -0.2, 0.5, 0.7)
    pk = packet(cylinder, p)
    eig = np.sort(np.linalg.eigvals(pk.S).real)
    sign = -1.0 if pk.H < 0 else 1.0
    assert np.allclose(np.sort(sign * eig), [0.0, 0.0, 0.0, 1.0], atol=1e-12)
    assert abs(pk.H) == pytest.approx(0.25, rel=1e-12)
    assert beltrami_residual(cylinder, p, pk) < 1e-8


def test_cylinder_is_cmc_vacuous(cylinder):
    p = (0.1, 0.1, 0.1, 0.1)
    pk = packet(cylinder, p)
    assert pk.is_cmc_point
    assert biconservative_residual(cylinder, p, pk) == 0.0
    assert principal_direction_check(cylinder, p, pk) is None


def test_packet_invariants_over_catalog_charts(ex41):
    rng = np.random.default_rng(21)
    charts = [ex41,
              build(FamilySpec("thm3", "i")),
              build(FamilySpec("thm1", "v")),
              build(FamilySpec("thm2", "iv"))]
    for chart in charts:
        lo = np.array([d[0] for d in chart.domain])
        hi = np.array([d[1] for d in chart.domain])
        for _ in range(6):
            p = lo + (0.1 + 0.8 * rng.uniform(size=4)) * (hi - lo)
            pk = packet(chart, p)
            w = chart.signature.weights
            nn = float(np.dot(w * pk.N.components, pk.N.components))
            assert abs(nn - 1.0) < 1e-9
            m = chart.signature.dim
            dx = pk.dx
            assert dx.shape == (4, m)
            scale = 1.0 + np.max(np.abs(dx))
            for i in range(4):
                assert abs(np.dot(w * pk.N.components, dx[i])) < 1e-9 * scale
            gs_err = np.max(np.abs(pk.G @ pk.S - pk.B))
            assert gs_err < 1e-9 * (1.0 + np.max(np.abs(pk.B)))
            assert abs(np.trace(pk.S) - 4.0 * pk.H) < 1e-12
            eig = np.linalg.eigvalsh(pk.G)
            assert int(np.sum(eig < 0)) == 2


def test_beltrami_identity_holds_for_any_immersion():
    # identity, not a condition: a perturbed flat chart with no special
    # curvature structure at all
    chart = chart_from(("t + 0.1*s^2", "u + 0.1*v^2", "s + 0.1*t*u",
                        "v + 0.1*s*u", "0.2*s*t + 0.1*v^2"),
                       domain=((-0.5, 0.5),) * 4, name="generic")
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = rng.uniform(-0.4, 0.4, size=4)
        assert beltrami_residual(chart, p) < 1e-7


def test_orientation_flip_parity(ex41):
    p = (1.0, 0.3, -0.2, 0.4)
    pk = packet(ex41, p)
    fl = packet(replace(ex41, orientation_ref=tuple(-e for e in ex41.orientation_ref)), p)
    assert np.allclose(fl.N.components, -pk.N.components)
    assert np.allclose(fl.B, -pk.B)
    assert np.allclose(fl.S, -pk.S)
    assert fl.H == pytest.approx(-pk.H, rel=1e-12)
    assert biconservative_residual(ex41, p, fl) == pytest.approx(
        biconservative_residual(ex41, p, pk), abs=1e-15)
    pd1 = principal_direction_check(ex41, p, pk)
    pd2 = principal_direction_check(ex41, p, fl)
    assert pd2 == pytest.approx(pd1, abs=1e-12)


def test_ex41_headline_point(ex41):
    p = (1.0, 0.3, -0.2, 0.4)
    pk = packet(ex41, p)
    d = ex41.profile_bank["psi"].derivs(p[0], 2)
    root = np.sqrt(2 * d[1] - 1)
    ks = sorted([d[2] / (2 * d[1] - 1) ** 1.5, -1 / (p[0] * root),
                 -1 / ((p[0] + 4.0) * root), -1 / ((p[0] + 2.0) * root)])
    eig = np.sort(np.linalg.eigvals(pk.S).real)
    assert np.max(np.abs(eig - np.array(ks))) < 1e-8
    assert pk.H == pytest.approx(sum(ks) / 4.0, rel=1e-10)
    assert biconservative_residual(ex41, p, pk) < 1e-10
    assert principal_direction_check(ex41, p, pk) < 1e-10


def test_gradient_route_against_h_field_differences(ex41):
    # the packet reads grad H off a first-order jet; difference the scalar
    # H field directly as the independent route
    p = np.array([1.1, 0.2, -0.3, 0.35])
    pk = packet(ex41, p)
    h = 1e-5
    for i in range(4):
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        dh_fd = (packet(ex41, up).H - packet(ex41, dn).H) / (2 * h)
        dh_jet = (pk.G @ pk.gradH)[i]
        assert dh_fd == pytest.approx(dh_jet, rel=2e-6, abs=1e-8)


def test_fd_packet_agreement(ex41):
    p = (1.0, 0.3, -0.2, 0.4)
    pk = packet(ex41, p)
    fpk = packet_fd(ex41, p)
    assert np.max(np.abs(pk.S - fpk.S)) < 1e-5 * (1 + np.max(np.abs(pk.S)))
    assert np.max(np.abs(pk.B - fpk.B)) < 1e-6
    assert fpk.H == pytest.approx(pk.H, abs=1e-8)
    assert np.max(np.abs(pk.gradH - fpk.gradH)) < 1e-4


def test_fd_packet_checks_rem42_n7():
    # the first tangent is 200 to 1,300 times longer than the others
    from biconserve.catalog import build_remark42
    from biconserve.sweep import random_points

    chart = build_remark42(7, (1, 2, 3, 4, 5, 6))
    pts = np.vstack([chart.center(), random_points(chart.domain, 12, 0)])
    pk, fpk = packet(chart, pts), packet_fd(chart, pts)
    assert np.max(np.abs(pk.S - fpk.S) / np.maximum(np.abs(pk.S), 1.0)) < 1e-5
    assert np.max(biconservative_residual(chart, pts, fpk)) < 1e-6


def test_fd_packet_carries_its_own_tangents(ex41):
    p = (1.0, 0.3, -0.2, 0.4)
    pk = packet(ex41, p)
    fpk = packet_fd(ex41, p)
    dx_jet = pk.dx
    assert fpk.dx.shape == (4, 5)
    assert np.max(np.abs(fpk.dx - dx_jet)) < 1e-7
    assert np.allclose(fpk.gradH_ambient.components, fpk.gradH @ fpk.dx, rtol=0, atol=1e-15)
    r_fd = biconservative_residual(ex41, p, fpk)
    assert r_fd == biconservative_residual(ex41, p, packet_fd(ex41, p))
    assert r_fd < 1e-4


@pytest.mark.parametrize("p", [(1.0, 0.3, -0.2, 0.4),
                               [(1.0, 0.3, -0.2, 0.4), (0.9, 0.1, 0.2, -0.3)]])
def test_fd_packet_takes_one_fd_partial_call(ex41, p, monkeypatch):
    import biconserve.immersion as immersion

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fd_partial(*args, **kwargs)

    monkeypatch.setattr(immersion, "fd_partial", counting)
    packet_fd(ex41, p)
    assert len(calls) == 1
    (dag, base, alphas), = calls
    assert dag is ex41.dag and dag.roots == ex41.components
    assert np.shape(alphas) == (4 + 10, 4)
    assert np.shape(base) == (len(np.atleast_2d(p)) * (2 * 4 + 1), 4)


@pytest.mark.parametrize("exprs, p, error", [
    (("s", "t", "u", "t + u", "0"), (0.1, 0.2, 0.3, 0.4), DegenerateFrameError),
    (("s", "t", "u", "v", "s"), (0.1, 0.2, 0.3, 0.4), DegenerateNormal),
    (("sqrt(s - 0.5)", "t", "u", "v", "s^2"), (0.50001, 0.2, 0.3, 0.4), DomainError),
    (("phi(s)", "t", "u", "v", "s^2"), (0.1, 0.2, 0.3, 0.4), ContractViolation),
])
def test_fd_packet_error_types(exprs, p, error):
    with pytest.raises(error):
        packet_fd(chart_from(exprs), p)


def test_fd_packet_profile_range_error(ex41):
    with pytest.raises(DomainError, match="psi argument"):
        packet_fd(ex41, (ex41.domain[0][1] + 0.2, 0.1, 0.1, 0.1))


def test_gradH_causal_flag(ex41):
    # the explicit example has a timelike gradient; a constant-H chart has
    # no gradient at all, and neither is lightlike
    pk = packet(ex41, (1.0, 0.3, -0.2, 0.4))
    assert not pk.is_cmc_point
    assert causal_character(pk.gradH_ambient) == (CausalCharacter.TIMELIKE, False)
    w = ex41.signature.weights
    g = pk.gradH_ambient.components
    assert float(np.dot(w * g, g)) < 0  # timelike, as displayed
    cyl = chart_from(("t", "u", "cos(v)", "sin(v)", "s"), name="cyl")
    pk2 = packet(cyl, (0.1, 0.1, 0.1, 0.1))
    assert pk2.is_cmc_point


def test_degenerate_metric_detected():
    # rank-deficient chart: only three independent directions
    chart = chart_from(("s", "t", "u", "t + u", "0"), name="degenerate")
    with pytest.raises(DegenerateMetric):
        packet(chart, (0.1, 0.2, 0.3, 0.4))


def test_unexpected_index_detected():
    # one timelike and three spacelike directions: induced index 1, not 2
    chart = chart_from(("0", "s", "t", "u", "v"), name="lorentzian",
                       expected_index=2)
    with pytest.raises(UnexpectedIndex):
        packet(chart, (0.1, 0.2, 0.3, 0.4))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_metric_overflow_is_a_domain_error():
    # finite chart values whose metric products overflow: at s = 354 only
    # the degeneracy floor tau^4 does, further out G itself
    chart = chart_from(("exp(s)", "t", "u", "v", "0"), domain=((-1, 500),) + ((-1, 1),) * 3)
    pts = np.array([[354.0, 0, 0, 0], [400.0, 0, 0, 0], [499.5, 0, 0, 0], [1.0, 0, 0, 0]])
    rows = sweep(chart, pts, HYPERSURFACE_CHECKS)
    for r in rows[:3]:
        assert r.error.startswith(f"DomainError: induced metric overflows at {r.point} ")
    assert "(354.0, 0.0, 0.0, 0.0)" in rows[0].error
    assert not rows[3].error
    with pytest.raises(DomainError, match="overflows"):
        packet(chart, pts[0])


def test_error_messages_print_plain_floats():
    p = np.array([354.0, 0.0, 0.0, 0.0])
    for exc in (DegenerateMetric(p, 3.0e307), UnexpectedIndex(1, 2, p), DegenerateNormal(p)):
        assert "(354.0, 0.0, 0.0, 0.0)" in str(exc)
        assert exc.point == (354.0, 0.0, 0.0, 0.0)
    chart = chart_from(("s", "t", "u", "t + u", "0"))
    with pytest.raises(DegenerateMetric, match=r"at \(0\.1, 0\.2, 0\.3, 0\.4\)"):
        packet(chart, np.array([0.1, 0.2, 0.3, 0.4]))


def test_surface_packet_mean_curvature():
    chart = ImmersionChart(
        components=tuple(parse(e, ("t", "u")) for e in
                         ("0", "2*cosh(t)", "2*sinh(t)*cos(u)", "2*sinh(t)*sin(u)", "0")),
        domain=((0.3, 1.2), (0.1, 1.0)), expected_index=0, name="H2")
    p = (0.6, 0.5)
    spk = submanifold_packet(chart, p)
    w = chart.signature.weights
    hv = spk.mean_curvature
    # geodesic sphere of radius 2: |H| = 1/2, and the identities hold
    assert abs(float(np.dot(w * hv, hv))) == pytest.approx(0.25, rel=1e-10)
    assert beltrami_residual(chart, p, spk) < 1e-12
    g, c = gauss_codazzi_residual(chart, p, spk)
    assert g < 1e-12 and c < 1e-12
    # h is tangent-free
    dx = spk.dx
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert abs(np.dot(w * spk.h[i, j], dx[k])) < 1e-12


def test_curve_packet_trivial_integrability():
    chart = ImmersionChart(
        components=tuple(parse(e, ("v",)) for e in
                         ("0", "0", "cos(2*v)/2", "sin(2*v)/2", "0")),
        domain=((-0.8, 0.8),), expected_index=0, name="circle")
    p = (0.2,)
    assert gauss_codazzi_residual(chart, p) == (0.0, 0.0)
    assert beltrami_residual(chart, p) < 1e-12


# -- the cofactor cross product ----------------------------------------------


def _int_det(rows):
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


@pytest.mark.parametrize("n", range(1, 8))
def test_cross_is_exact_on_integer_tangents(n):
    from biconserve.ambient import Signature
    from biconserve.immersion import _cross

    m = n + 1
    weights = Signature(m, min(2, m - 1)).weights
    rows = np.random.default_rng(n).integers(-4, 5, size=(9, n, m))
    got = _cross(rows.astype(float), weights)
    for frame, w in zip(rows.tolist(), got):
        cof = [(-1) ** a * _int_det([r[:a] + r[a + 1:] for r in frame]) for a in range(m)]
        assert w.tolist() == [float(x * e) for x, e in zip(cof, weights)]


@pytest.mark.parametrize("n", range(1, 8))
def test_cross_agrees_with_cofactor_cross(n):
    from biconserve.ambient import Signature, cofactor_cross
    from biconserve.immersion import _cross

    m = n + 1
    sig = Signature(m, min(2, m - 1))
    rows = np.random.default_rng(10 + n).standard_normal((64, n, m))
    got = _cross(rows, sig.weights)
    ref, deficient = cofactor_cross(rows, sig)
    assert not deficient.any()
    scale = np.max(np.abs(ref), axis=-1, keepdims=True)
    assert np.max(np.abs(got - ref) / scale) <= 1e-13
    # index-lowered: metric-orthogonal to every tangent
    resid = np.einsum("pra,a,pa->pr", rows, sig.weights, got)
    assert np.max(np.abs(resid) / (scale * np.max(np.abs(rows), axis=(1, 2))[:, None])) <= 1e-13


@pytest.mark.parametrize("which", ["ex41", "rem42 n=5"])
def test_frame_gathers_the_jet_partials_bitwise(ex41, which):
    import biconserve.immersion as immersion
    from biconserve.catalog import build_remark42
    from biconserve.expr import jet_eval
    from biconserve.sweep import random_points

    chart = ex41 if which == "ex41" else build_remark42(5, (1.0, 2.0, 3.0, 4.0))
    block = random_points(chart.domain, 6, seed=2)
    n = chart.nparams
    for pts in (block[:1], block):
        jets = jet_eval(chart.dag, pts, 3, chart.profile_bank)
        frame = immersion._frame(chart, pts)
        got = frame.dx, frame.ddx, immersion._third_partials(frame.c3, frame.at3, frame.fac3)
        for k, arr in enumerate(got, 1):
            ref = np.zeros((len(pts),) + (n,) * k + (len(jets),))
            for axes in itertools.product(range(n), repeat=k):
                alpha = tuple(axes.count(i) for i in range(n))
                ref[(slice(None), *axes)] = np.stack([j.partial(alpha) for j in jets], axis=-1)
            assert arr.shape == ref.shape and arr.tobytes() == ref.tobytes(), (which, k)


def test_packet_never_expands_the_third_partials(ex41, monkeypatch):
    # dB contracts the distinct third partials with N; only submanifold_packet
    # expands them to (P, n, n, n, m)
    import biconserve.immersion as immersion
    from biconserve.sweep import random_points

    pts = random_points(ex41.domain, 5, seed=3)
    want = [packet(ex41, pts), packet(ex41, pts[0])]

    def refuse(*args):
        raise AssertionError("packet expanded the third partials")

    monkeypatch.setattr(immersion, "_third_partials", refuse)
    for ref, got in zip(want, [packet(ex41, pts), packet(ex41, pts[0])]):
        assert np.array_equal(got.dB, ref.dB) and np.array_equal(got.gradH, ref.gradH)
    with pytest.raises(AssertionError, match="expanded"):
        submanifold_packet(ex41, pts)


@pytest.mark.parametrize("which", ["ex41", "intsurf.ii"])
def test_the_jet_packets_invert_G_once_and_solve_nothing(ex41, which, monkeypatch):
    from biconserve.sweep import random_points

    chart = ex41 if which == "ex41" else build(FamilySpec("intsurf", "ii"))
    make = packet if chart.codim == 1 else submanifold_packet
    pts = random_points(chart.domain, 5, seed=4)
    calls = []
    inv = np.linalg.inv

    def counting(G):
        calls.append(G.shape)
        return inv(G)

    def refuse(*args):
        raise AssertionError("a jet packet made a linear solve")

    monkeypatch.setattr(np.linalg, "inv", counting)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    make(chart, pts)
    make(chart, pts[0])
    n = chart.nparams
    assert calls == [(5, n, n), (1, n, n)]


@pytest.mark.parametrize("p", [(1.0, 0.3, -0.2, 0.4),
                               [(1.0, 0.3, -0.2, 0.4), (0.9, 0.1, 0.2, -0.3)]])
def test_fd_packet_runs_the_frame_once(ex41, p, monkeypatch):
    import biconserve.immersion as immersion

    calls = []
    frame = immersion._fd_frame

    def counting(chart, base, *args):
        calls.append(len(base))
        return frame(chart, base, *args)

    monkeypatch.setattr(immersion, "_fd_frame", counting)
    packet_fd(ex41, p)
    assert calls == [len(np.atleast_2d(p)) * (2 * 4 + 1)]


# x4 = s^2 / 2 over (s, t, u, v) in R^5_2: the normal is lightlike exactly at s = 1
LIGHTLIKE_AT_S1 = ("s", "t", "u", "v", "0.5*s^2")


def test_fd_packet_names_the_point_whose_normal_is_lightlike():
    from biconserve.errors import plain_point

    chart = chart_from(LIGHTLIKE_AT_S1)
    with pytest.raises(DegenerateNormal) as err:
        packet_fd(chart, (1.0, 0.2, 0.3, 0.4))
    assert err.value.point == (1.0, 0.2, 0.3, 0.4)
    # only the stencil neighbour at s + FD_STEP sits on s = 1
    centre = np.array([1.0 - FD_STEP, 0.2, 0.3, 0.4])
    with pytest.raises(DegenerateNormal) as err:
        packet_fd(chart, centre)
    assert err.value.point == plain_point(centre + FD_STEP * np.eye(4)[0])


# the hyperbolic plane <x, x> = -1 of E^3_1: its normal, the position, is timelike
HYPERBOLIC_PLANE = ("cosh(t)", "sinh(t)*cos(s)", "sinh(t)*sin(s)")


@pytest.mark.parametrize("route", [packet, packet_fd])
def test_a_timelike_normal_is_named_timelike(route):
    from biconserve.ambient import Signature

    chart = ImmersionChart(components=tuple(parse(e, ("s", "t")) for e in HYPERBOLIC_PLANE),
                           domain=((-1.0, 1.0), (0.3, 1.0)), signature=Signature(3, 1),
                           expected_index=0)
    with pytest.raises(DegenerateNormal) as err:
        route(chart, (0.0, 0.65))
    assert str(err.value) == ("normal direction is timelike at (0.0, 0.65); only a spacelike "
                              "normal is supported")
    assert err.value.timelike
    with pytest.raises(DegenerateNormal) as err:
        packet_fd(chart_from(LIGHTLIKE_AT_S1), (1.0, 0.2, 0.3, 0.4))
    assert str(err.value).startswith("normal direction is lightlike/degenerate at ")
    assert not err.value.timelike


@pytest.mark.parametrize("centre_s, deficient_rows, error", [
    (1.0, [3], DegenerateNormal),           # a lightlike centre before a deficient neighbour
    (1.0 - FD_STEP, [3], DegenerateFrameError),  # a deficient neighbour before a lightlike one
    (1.0, [0], DegenerateFrameError),       # a deficient centre before a lightlike centre
])
def test_fd_frame_checks_the_centre_before_its_neighbours(monkeypatch, centre_s, deficient_rows,
                                                          error):
    import biconserve.immersion as immersion

    core = immersion.cofactor_cross

    def marked(rows, signature):
        w, deficient = core(rows, signature)
        deficient = deficient.copy()
        deficient[deficient_rows] = True
        return w, deficient

    monkeypatch.setattr(immersion, "cofactor_cross", marked)
    with pytest.raises(error):
        packet_fd(chart_from(LIGHTLIKE_AT_S1), (centre_s, 0.2, 0.3, 0.4))


@pytest.mark.parametrize("npts", [1, 7])
def test_inner_is_bitwise_the_sum_in_ambient_axis_order(npts):
    from biconserve.immersion import _inner

    rng = np.random.default_rng(npts)
    n, m = 4, 5
    eps = np.array([-1.0, -1.0, 1.0, 1.0, 1.0])
    dx, w = rng.normal(size=(npts, n, m)), rng.normal(size=(npts, m))
    ddx, dddx = rng.normal(size=(npts, n, n, m)), rng.normal(size=(npts, n, n, n, m))
    for u, v in [(dx[:, :, None], dx[:, None]), (w, w), (ddx, w[:, None, None]),
                 (dddx, w[:, None, None, None])]:
        want = eps[0] * (u[..., 0] * v[..., 0])
        for a in range(1, m):
            want = want + eps[a] * (u[..., a] * v[..., a])
        got = _inner(u, v, eps)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
