import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biconserve.ambient import (AmbientVector, CausalCharacter, Signature,
                                causal_character, cofactor_cross, inner)
from biconserve.errors import ContractViolation


def vec(*comps):
    return AmbientVector(np.array(comps, dtype=float))


def test_inner_first_axes_are_negative():
    assert inner(vec(1, 0, 0, 0, 0), vec(1, 0, 0, 0, 0)) == -1.0
    assert inner(vec(0, 0, 1, 0, 0), vec(0, 0, 1, 0, 0)) == 1.0


def test_inner_mixed_expansion():
    u = vec(1, 0, 1, 0, 0)
    v = vec(1, 0, -1, 0, 0)
    assert inner(u, v) == -2.0


def test_inner_dimension_mismatch():
    with pytest.raises(ContractViolation):
        inner(vec(1, 0, 0, 0, 0), AmbientVector(np.zeros(4), Signature(4, 2)))


coords = st.lists(st.floats(-10, 10), min_size=5, max_size=5)


@settings(max_examples=60, deadline=None)
@given(coords, coords, coords, st.floats(-3, 3), st.floats(-3, 3))
def test_inner_bilinear_symmetric(a, b, c, x, y):
    va, vb, vc = vec(*a), vec(*b), vec(*c)
    assert inner(va, vb) == pytest.approx(inner(vb, va), abs=1e-12)
    lhs = inner(AmbientVector(x * va.components + y * vb.components), vc)
    rhs = x * inner(va, vc) + y * inner(vb, vc)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("comps,expected", [
    ((1, 0, 0, 0, 1), CausalCharacter.LIGHTLIKE),
    ((0, 1, 0, 0, 0), CausalCharacter.TIMELIKE),
    ((1, 0, 2, 0, 0), CausalCharacter.SPACELIKE),
])
def test_causal_character(comps, expected):
    char, degenerate = causal_character(vec(*comps))
    assert char is expected
    assert not degenerate


def test_zero_vector_flagged_degenerate():
    char, degenerate = causal_character(vec(0, 0, 0, 0, 0))
    assert char is CausalCharacter.LIGHTLIKE
    assert degenerate


def test_causal_character_requires_positive_tolerance():
    with pytest.raises(ContractViolation):
        causal_character(vec(1, 0, 0, 0, 0), tau_null=0.0)


def test_cofactor_cross_of_coordinate_axes():
    w, deficient = cofactor_cross(np.eye(5)[:4])
    assert not deficient
    assert np.allclose(w / w[4], [0, 0, 0, 0, 1])


def test_cofactor_cross_flat_chart_tangents():
    # tangents of x = (t, u, s, v, 0)
    tangents = np.array([[0, 0, 1, 0, 0], [1, 0, 0, 0, 0],
                         [0, 1, 0, 0, 0], [0, 0, 0, 1, 0]], dtype=float)
    w, _ = cofactor_cross(tangents)
    assert abs(w[4]) > 0
    assert np.allclose(w[:4], 0.0)


def test_cofactor_cross_orthogonality_random_frames():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        rows = rng.normal(size=(4, 5))
        w = AmbientVector(cofactor_cross(rows)[0])
        scale = np.max(np.abs(rows)) * np.max(np.abs(w.components)) + 1.0
        for r in rows:
            assert abs(inner(w, vec(*r))) < 1e-10 * scale
    # a (P, 4, 5) stack gives each frame's vector, bitwise
    frames = rng.normal(size=(50, 4, 5))
    block, deficient = cofactor_cross(frames)
    assert block.shape == (50, 5) and deficient.shape == (50,) and not deficient.any()
    for f, w in zip(frames, block):
        assert np.array_equal(w, cofactor_cross(f)[0])


def _cofactor_cross(frame, signature):
    """The cross product one minor at a time, as written out in the docstring."""
    cols = np.arange(signature.dim)
    return signature.weights * np.array([(-1.0) ** a * np.linalg.det(frame[:, cols != a])
                                         for a in range(signature.dim)])


@pytest.mark.parametrize("q", [1, 8, 128, 1024])
@pytest.mark.parametrize("m", [5, 8])
def test_cofactor_cross_stacked_det_is_bitwise_each_minor(q, m):
    sig = Signature(m, 2)
    frames = np.random.default_rng(q + m).normal(size=(q, m - 1, m))
    block = cofactor_cross(frames, sig)[0]
    ref = np.array([_cofactor_cross(f, sig) for f in frames])
    # bitwise, and laid out as the stack of rows: products downstream round by the layout
    assert block.tobytes() == ref.tobytes() and block.strides == ref.strides
    assert cofactor_cross(frames[0], sig)[0].tobytes() == ref[0].tobytes()


def test_cofactor_cross_antisymmetry():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(4, 5))
    w = cofactor_cross(rows)[0]
    swapped = rows[[1, 0, 2, 3]]
    w2 = cofactor_cross(swapped)[0]
    assert np.array_equal(w, -w2)
    frames = np.stack([rows, swapped])
    assert np.array_equal(cofactor_cross(frames)[0], np.stack([w, w2]))


def test_cofactor_cross_rank_deficiency():
    rows = np.zeros((4, 5))
    rows[0, 0] = rows[1, 1] = rows[2, 2] = 1.0
    rows[3] = rows[0]
    assert cofactor_cross(rows)[1]
    # a rank-deficient frame inside a stack is flagged alone
    frames = np.random.default_rng(3).normal(size=(6, 4, 5))
    assert not cofactor_cross(frames)[1].any()
    frames[4] = rows
    assert cofactor_cross(frames)[1].tolist() == [False] * 4 + [True, False]
    with pytest.raises(ContractViolation):
        cofactor_cross(frames[:, :3])


def test_cofactor_cross_rank_test_is_relative_to_each_row():
    # an orthogonal frame with one row 1e5 times longer is full rank
    rows = np.eye(5)[1:] * np.array([1e5, 1.0, 1.0, 1.0])[:, None]
    w, deficient = cofactor_cross(rows)
    assert not deficient
    assert np.allclose(w, [-1e5, 0.0, 0.0, 0.0, 0.0], rtol=1e-14, atol=0.0)
    rows[3] = rows[2] * 3.0
    assert cofactor_cross(rows)[1]
