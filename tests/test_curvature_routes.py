"""The packets' second-order data against the route that formed it from the
partials of the Christoffel symbols, the Gauss row against the full
curvature tensor, and the identity checks against packets with one field
perturbed.

The reference route, kept here only: d_q d_l G by the product rule, the
partials of the Christoffel symbols by the linear-solve rule,
d_l Gamma = G^-1 (d_l Gamma_low - d_l G Gamma), the curvature tensor from
them, and d_l h = d_l d_i d_j x - d_l Gamma dx - Gamma d_l dx, whose
component along N is dB and whose G-orthogonal normal part is a submanifold
packet's dh.  The full-tensor Gauss row, also kept here only, forms all n^4
entries of R_ijkl by the classical formula, third partials included, that
``immersion._curvature`` evaluates at the pair-symmetric entries alone with
the third-partial terms cancelled: these tests bound what the dropped terms
ever added to rounding."""

from dataclasses import replace

import numpy as np
import pytest

from biconserve.catalog import FamilySpec, all_keys, build, build_remark42
from biconserve.immersion import (_curvature, _frame, _gamma_times, _gauss_plan,
                                  _shape_operator, _third_partials, beltrami_residual,
                                  gauss_codazzi_residual, packet, submanifold_packet)
from biconserve.sweep import random_points


def reference_route(pk, dddx, eps):
    """(R_ijkl at [i, j, k, l], d_l h_ij^a at [i, j, a, l]) of a block packet
    and the chart's third partials at its points."""
    dx, ddx, G, Gamma = pk.dx, pk.ddx, pk.G, pk.christoffel
    A = np.einsum("zila,a,zja->zijl", ddx, eps, dx)
    dG = A + A.transpose(0, 2, 1, 3)
    E = (np.einsum("zilqa,a,zja->zijlq", dddx, eps, dx)
         + np.einsum("zila,a,zjqa->zijlq", ddx, eps, ddx))
    ddG = E + E.transpose(0, 2, 1, 3, 4)
    # d_q Gamma_{l,ij} = (d_q d_i G_jl + d_q d_j G_il - d_q d_l G_ij) / 2 at [l, i, j, q]
    dlow = (np.einsum("zjliq->zlijq", ddG) + np.einsum("ziljq->zlijq", ddG)
            - np.einsum("zijlq->zlijq", ddG)) * 0.5
    rhs = dlow - np.einsum("zksq,zsij->zkijq", dG, Gamma)
    P, n = G.shape[:2]
    dGamma = np.linalg.solve(G, rhs.reshape(P, n, -1)).reshape(rhs.shape)
    # R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_ip Gamma^p_jk - Gamma^l_jp Gamma^p_ik
    Rup = (np.einsum("zljki->zlijk", dGamma) - np.einsum("zlikj->zlijk", dGamma)
           + np.einsum("zlip,zpjk->zlijk", Gamma, Gamma)
           - np.einsum("zljp,zpik->zlijk", Gamma, Gamma))
    R = np.einsum("zlm,zmijk->zijkl", G, Rup)
    dh = (np.moveaxis(dddx, -1, -2) - np.einsum("zkijl,zka->zijal", dGamma, dx)
          - np.einsum("zkij,zkla->zijal", Gamma, ddx))
    return R, dh


def full_tensor_gauss(pk, dddx, eps, codim):
    """(Gauss defect, (1 + max|R|) / scale) of a block packet over all n^4 entries:
    R_ijkl = (G_ik,jl + G_jl,ik - G_il,jk - G_jk,il) / 2 + Gamma^m_ik Gamma_{m,lj}
    - Gamma^m_jk Gamma_{m,li} against B_jk B_il - B_ik B_jl, or <h_jk, h_il> -
    <h_ik, h_jl> for codimension > 1, over the residual's scale, with the
    third partials ``dddx`` that ``immersion._curvature`` has no need of."""
    G, Gamma, dx, ddx = pk.G, pk.christoffel, pk.dx, pk.ddx
    P, n, m = dx.shape
    # <d_i d_l d_q x, d_j x> at [i, l, q, j] and <d_i d_l x, d_j d_q x> at [i, l, j, q]
    T = np.matmul((dddx * eps).reshape(P, -1, m), dx.swapaxes(1, 2)).reshape((P,) + (n,) * 4)
    Q = np.matmul((ddx * eps).reshape(P, -1, m),
                  ddx.reshape(P, -1, m).swapaxes(1, 2)).reshape((P,) + (n,) * 4)
    E = T.transpose(0, 1, 4, 2, 3) + Q.transpose(0, 1, 3, 2, 4)
    ddG = E + E.swapaxes(1, 2)  # d_q d_l G_ij at [i, j, l, q]
    X = ddG.transpose(0, 1, 3, 2, 4)  # G_ik,jl at [i, j, k, l]
    Y = X - X.swapaxes(3, 4)
    # Gamma^m_ik Gamma_{m,lj} at [i, k, l, j]
    M = _gamma_times(Gamma, np.matmul(G, Gamma.reshape(P, n, -1)).reshape(Gamma.shape))
    quad = M.transpose(0, 1, 4, 2, 3)
    R = (Y + Y.transpose(0, 2, 1, 4, 3)) * 0.5 + (quad - quad.swapaxes(1, 2))
    if codim == 1:
        B = pk.B
        rhs = np.einsum("zjk,zil->zijkl", B, B) - np.einsum("zik,zjl->zijkl", B, B)
        scale = (1.0 + np.max(np.abs(B), axis=(1, 2))) ** 2
    else:
        hh = np.einsum("zija,a,zkla->zijkl", pk.h, eps, pk.h)
        rhs = np.einsum("zjkil->zijkl", hh) - np.einsum("zikjl->zijkl", hh)
        scale = (1.0 + np.max(np.linalg.norm(pk.h, axis=-1), axis=(1, 2))) ** 2
    return (np.max(np.abs(R - rhs), axis=(1, 2, 3, 4)) / scale,
            (1.0 + np.max(np.abs(R), axis=(1, 2, 3, 4))) / scale)


def _charts():
    out = []
    for key in all_keys():
        family, _, case = key.partition(".")
        out.append((key, build(FamilySpec(family, case))))
    out.append(("ex41 psi=s^2", build(FamilySpec("ex41", profiles={"psi": "s^2"}))))
    out += [(f"rem42 n={n}", build_remark42(n, tuple(range(1, n)))) for n in (5, 6, 7)]
    return out


CHARTS = _charts()


@pytest.mark.parametrize("name, chart", CHARTS, ids=[name for name, _ in CHARTS])
def test_curvature_tensor_and_dB_match_the_christoffel_partials_route(name, chart):
    pts = random_points(chart.domain, 8, 5)
    eps = chart.signature.weights
    pk = packet(chart, pts) if chart.codim == 1 else submanifold_packet(chart, pts)
    frame = _frame(chart, pts)
    dddx = _third_partials(frame.c3, frame.at3, frame.fac3)
    R_ref, dh = reference_route(pk, dddx, eps)
    R = _curvature(pk.G, pk.christoffel, pk.ddx, eps)
    scale = 1.0 + np.max(np.abs(R_ref), axis=(1, 2, 3, 4))
    i, j, k, l = _gauss_plan(chart.nparams).ijkl
    assert R.shape == (8, len(i))
    assert np.all(np.max(np.abs(R - R_ref[:, i, j, k, l]), axis=1, initial=0.0) <= 1e-12 * scale)
    # the entries the Gauss row leaves out repeat the kept ones: R_jikl = R_ijlk =
    # -R_ijkl and R_klij = R_ijkl under the same bound
    for defect in (R_ref + R_ref.swapaxes(1, 2), R_ref + R_ref.swapaxes(3, 4),
                   R_ref - R_ref.transpose(0, 3, 4, 1, 2)):
        assert np.all(np.max(np.abs(defect), axis=(1, 2, 3, 4)) <= 1e-12 * scale)
    if chart.codim == 1:
        N = pk.N.components
        dB_ref = np.einsum("zijal,a,za->zijl", dh, eps, N)
        # relative to the size of dB's terms, <d_i d_j d_l x, N> and Gamma^k_ij B_kl:
        # both routes cancel them (dB is 4e-5 to 6e-5 of them on rem42 n = 7)
        terms = (np.einsum("zijla,za->zijl", np.abs(dddx), np.abs(N))
                 + np.einsum("zkij,zkl->zijl", np.abs(pk.christoffel), np.abs(pk.B)))
        bound = 1e-13 * np.max(terms, axis=(1, 2, 3))
        assert np.all(np.max(np.abs(pk.dB - dB_ref), axis=(1, 2, 3)) <= bound)
    else:
        # the packet's dh is the G-orthogonal normal part of d_l h_ij
        ref = np.moveaxis(dh, 3, 4)  # at [i, j, l, a]
        inner = np.einsum("zijla,a,zka->zijlk", ref, eps, pk.dx)
        perp = ref - np.einsum("zijlk,zkq,zqa->zijla", inner, pk.G_inv, pk.dx)
        size = 1.0 + np.max(np.abs(dddx), axis=(1, 2, 3, 4))
        err = np.max(np.abs(pk.dh - perp), axis=(1, 2, 3, 4)) / size
        assert np.all(err <= 1e-14)  # 1.0e-15 at most here, on intsurf.ii


@pytest.mark.parametrize("name, chart", CHARTS, ids=[name for name, _ in CHARTS])
def test_gauss_row_is_the_full_tensor_maximum(name, chart):
    pts = random_points(chart.domain, 8, 5)
    pk = packet(chart, pts) if chart.codim == 1 else submanifold_packet(chart, pts)
    gauss, codazzi = gauss_codazzi_residual(chart, pts, pk)
    frame = _frame(chart, pts)
    full, size = full_tensor_gauss(pk, _third_partials(frame.c3, frame.at3, frame.fac3),
                                   chart.signature.weights, chart.codim)
    # the left-out entries differ from the kept ones in rounding only: within
    # 4e-15 of the tensor's size on the residual's scale (6.2e-16 at most
    # here, on thm2.v)
    assert np.all(np.abs(gauss - full) <= 4e-15 * size)
    if chart.nparams == 1:
        assert gauss_codazzi_residual(chart, pts[0], submanifold_packet(chart, pts[0])) == (0.0, 0.0)
        assert not np.any(gauss) and not np.any(codazzi)


HYPERSURFACES = [(name, chart) for name, chart in CHARTS if chart.codim == 1]
SURFACES = [(name, chart) for name, chart in CHARTS if name in
            ("intsurf.ii", "intsurf.iii", "intsurf.v", "intsurf.vii", "intsurf.viii")]


@pytest.mark.parametrize("name, chart", HYPERSURFACES, ids=[name for name, _ in HYPERSURFACES])
def test_hypersurface_rows_are_the_shape_operator_identities(name, chart):
    # the one-body rows, with h = B in the normal coordinate along N, give
    # bitwise the shape operator's forms of the identities, written out here
    pts = random_points(chart.domain, 8, 5)
    pk = packet(chart, pts)
    B, Gamma = pk.B, pk.christoffel
    R = _curvature(pk.G, Gamma, pk.ddx, chart.signature.weights)
    i, j, k, l = _gauss_plan(chart.nparams).ijkl
    scale = (1.0 + np.max(np.abs(B), axis=(1, 2))) ** 2
    rhs = B[:, j, k] * B[:, i, l] - B[:, i, k] * B[:, j, l]
    gauss = np.max(np.abs(R - rhs), axis=1) / scale
    GB = _gamma_times(Gamma, B)
    covB = pk.dB.transpose(0, 3, 1, 2) - GB - GB.swapaxes(2, 3)
    codazzi = np.max(np.abs(covB - covB.swapaxes(1, 2)), axis=(1, 2, 3)) / scale
    got = gauss_codazzi_residual(chart, pts, pk)
    assert np.array_equal(got[0], gauss) and np.array_equal(got[1], codazzi)


@pytest.mark.parametrize("name, chart", HYPERSURFACES, ids=[name for name, _ in HYPERSURFACES])
def test_the_inverse_of_G_gives_what_linear_solves_give(name, chart):
    # the packet's Christoffel symbols, S and dS come from one inverse of G per
    # point; solves with G, S's among them, give the same within 1e-13 of the
    # largest entry at each point
    pts = random_points(chart.domain, 8, 5)
    pk = packet(chart, pts)
    G, dG = pk.G, _frame(chart, pts).dG
    P, n = G.shape[:2]
    # Gamma_{l,ij} = (d_i G_jl + d_j G_il - d_l G_ij) / 2 at [l, i, j]
    low = (np.einsum("zjli->zlij", dG) + np.einsum("zilj->zlij", dG)
           - np.einsum("zijl->zlij", dG)) * 0.5
    Gamma = np.linalg.solve(G, low.reshape(P, n, -1)).reshape(low.shape)
    S_ref = np.linalg.solve(G, pk.B)
    dR = pk.dB - np.einsum("zrsl,zsc->zrcl", dG, S_ref)
    dS_ref = np.linalg.solve(G, dR.reshape(P, n, -1)).reshape(dR.shape)
    S, dS = _shape_operator(pk.G_inv, dG, pk.B, pk.dB)
    assert np.array_equal(S, pk.S)
    for got, ref in ((pk.christoffel, Gamma), (S, S_ref), (dS, dS_ref)):
        axes = tuple(range(1, ref.ndim))
        err = np.max(np.abs(got - ref), axis=axes) / np.max(np.abs(ref), axis=axes)
        assert np.all(err <= 1e-13)


@pytest.mark.parametrize("name, chart", CHARTS, ids=[name for name, _ in CHARTS])
def test_beltrami_catches_a_perturbed_christoffel_or_mean_curvature(name, chart):
    pts = random_points(chart.domain, 4, 1)
    pk = packet(chart, pts) if chart.codim == 1 else submanifold_packet(chart, pts)
    assert np.max(beltrami_residual(chart, pts, pk)) < 1e-7
    # Gamma^0_ij += 1e-2 G_ij moves lap x by -1e-2 d_0 x at every point, whatever G is
    bump = np.zeros(pk.christoffel.shape)
    bump[:, 0] = 1e-2 * pk.G
    wrong = replace(pk, christoffel=pk.christoffel + bump)
    assert np.min(beltrami_residual(chart, pts, wrong)) > 1e-7
    if chart.codim == 1:
        wrong = replace(pk, H=pk.H + 1e-2)
    else:
        wrong = replace(pk, mean_curvature=pk.mean_curvature + 1e-2)
    assert np.min(beltrami_residual(chart, pts, wrong)) > 1e-7


@pytest.mark.parametrize("name, chart", HYPERSURFACES, ids=[name for name, _ in HYPERSURFACES])
def test_identity_checks_catch_a_perturbed_dB_or_christoffel(name, chart):
    pts = random_points(chart.domain, 4, 1)
    pk = packet(chart, pts)
    gauss, codazzi = gauss_codazzi_residual(chart, pts, pk)
    assert np.max(gauss) < 1e-6 and np.max(codazzi) < 1e-6
    n = chart.nparams
    # symmetric in (i, j) with no totally symmetric part: not the partials of any B
    skew = np.zeros((n, n, n))
    skew[0, 0, 1] = 1e-2
    skew[0, 1, 0] = skew[1, 0, 0] = -0.5e-2
    _, codazzi = gauss_codazzi_residual(chart, pts, replace(pk, dB=pk.dB + skew))
    assert np.min(codazzi) > 1e-6
    bump = np.zeros((n, n, n))
    bump[0, 0, 1] = bump[0, 1, 0] = 1e-2
    gauss, codazzi = gauss_codazzi_residual(chart, pts,
                                            replace(pk, christoffel=pk.christoffel + bump))
    assert np.min(gauss) > 1e-6 and np.min(codazzi) > 1e-6


@pytest.mark.parametrize("name, chart", SURFACES, ids=[name for name, _ in SURFACES])
def test_identity_checks_catch_a_perturbed_h(name, chart):
    pts = random_points(chart.domain, 4, 1)
    pk = submanifold_packet(chart, pts)
    gauss, codazzi = gauss_codazzi_residual(chart, pts, pk)
    assert np.max(gauss) < 1e-6 and np.max(codazzi) < 1e-6
    bump = np.zeros(pk.h.shape[1:])
    bump[0, 0] = 1e-2
    gauss, codazzi = gauss_codazzi_residual(chart, pts, replace(pk, h=pk.h + bump))
    assert np.min(gauss) > 1e-6 and np.min(codazzi) > 1e-6
