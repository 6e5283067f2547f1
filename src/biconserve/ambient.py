"""Signature-aware linear algebra over flat indefinite space.

The ambient space is R^m with metric weights eps_i = -1 for the first
``index`` coordinates and +1 for the rest.  The main pipeline is pinned to
m = 5, index = 2; the arbitrary-dimension entry reuses the same routines
with m = n + 1, index = 2.  ``cofactor_cross`` takes one tangent frame or a
stack of frames, one per point of a block, and returns the rank test with
the vector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .thresholds import TAU_NULL, TAU_RANK


@dataclass(frozen=True)
class Signature:
    dim: int
    index: int

    def __post_init__(self):
        if not (0 <= self.index <= self.dim):
            raise ContractViolation(f"index {self.index} outside [0, {self.dim}]")

    @property
    def weights(self) -> np.ndarray:
        w = np.ones(self.dim)
        w[: self.index] = -1.0
        return w


E5_2 = Signature(5, 2)


@dataclass(frozen=True)
class AmbientVector:
    """Components (dim,), or (P, dim) for one vector per point of a block."""

    components: np.ndarray
    signature: Signature = E5_2

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        if comp.ndim not in (1, 2) or comp.shape[-1] != self.signature.dim:
            raise ContractViolation(
                f"component count {comp.shape} does not match dim {self.signature.dim}"
            )
        object.__setattr__(self, "components", comp)

    def __iter__(self):
        return iter(self.components)


class CausalCharacter(enum.Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


def inner(u: AmbientVector, v: AmbientVector) -> float:
    """Indefinite inner product sum(eps_i * u_i * v_i)."""
    if u.signature != v.signature:
        raise ContractViolation("signature mismatch in inner product")
    return float(np.dot(u.signature.weights * u.components, v.components))


def causal_character(v: AmbientVector, tau_null: float = TAU_NULL):
    """Classify v by the sign of <v, v> against a relative tolerance.

    Returns (character, degenerate) where degenerate flags the zero vector.
    """
    if tau_null <= 0:
        raise ContractViolation("tau_null must be positive")
    q = inner(v, v)
    euclid2 = float(np.dot(v.components, v.components))
    if euclid2 == 0.0:
        return CausalCharacter.LIGHTLIKE, True
    if abs(q) <= tau_null * euclid2:
        return CausalCharacter.LIGHTLIKE, False
    if q > 0:
        return CausalCharacter.SPACELIKE, False
    return CausalCharacter.TIMELIKE, False


def cofactor_cross(rows: np.ndarray, signature: Signature = E5_2):
    """Per frame of ``rows`` (m-1, m) or (P, m-1, m): the vector, (m,) or
    (P, m), metric-orthogonal to its m-1 tangents, computed as for that frame
    alone, and, without raising, whether the frame is rank deficient (its
    largest cofactor at most TAU_RANK times Hadamard's bound).  Slot a is
    (-1)^a times the minor without column a (the cofactor expansion of the
    m x m array [basis; rows], so det([v; rows]) = sum_a v_a slot_a); then
    the index is lowered (slot a times eps_a)."""
    m = signature.dim
    if rows.ndim not in (2, 3) or rows.shape[-2:] != (m - 1, m):
        raise ContractViolation(f"need {m - 1} tangents of dim {m}, got shape {rows.shape}")
    # the m minors, column a left out of the a-th, in one stacked det; laid
    # out in C order, so that the cofactors are too
    keep = np.array([[c for c in range(m) if c != a] for a in range(m)])
    minors = np.ascontiguousarray(rows[..., keep].swapaxes(-2, -3))
    cof = (-1.0) ** np.arange(m) * np.linalg.det(minors)
    # Hadamard's bound: no cofactor exceeds the product of the row norms
    bound = np.prod(np.linalg.norm(rows, axis=-1), axis=-1)
    return signature.weights * cof, np.max(np.abs(cof), axis=-1) <= TAU_RANK * bound
