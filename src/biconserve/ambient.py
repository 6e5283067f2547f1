"""Signature-aware linear algebra over flat indefinite space.

The ambient space is R^m with metric weights eps_i = -1 for the first
``index`` coordinates and +1 for the rest.  The main pipeline is pinned to
m = 5, index = 2; the arbitrary-dimension entry reuses the same routines
with m = n + 1, index = 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DegenerateFrameError

TAU_NULL = 1e-9
TAU_RANK = 1e-12


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


def _first_row_cofactors(rows: np.ndarray) -> np.ndarray:
    """Cofactors of the (symbolic) first row of [e; rows] for an m x m array.

    ``rows`` is (m-1, m).  Entry a of the result is (-1)^a times the minor
    obtained by deleting column a, so that det([v; rows]) = sum_a v_a * C_a.
    """
    m = rows.shape[1]
    cof = np.empty(m)
    cols = np.arange(m)
    for a in range(m):
        sub = rows[:, cols != a]
        cof[a] = (-1.0) ** a * np.linalg.det(sub)
    return cof


def metric_cross(tangents, signature: Signature = E5_2) -> AmbientVector:
    """Vector metric-orthogonal to m-1 independent tangents in R^m.

    Computed by cofactor expansion of the m x m array whose first row is the
    coordinate basis and remaining rows are the tangents, then lowering the
    index (multiplying slot a by eps_a).  The result is not normalized: the
    caller is expected to inspect its causal character first.
    """
    rows = np.asarray(
        [t.components if isinstance(t, AmbientVector) else t for t in tangents],
        dtype=float,
    )
    m = signature.dim
    if rows.shape != (m - 1, m):
        raise ContractViolation(
            f"need {m - 1} tangents of dim {m}, got shape {rows.shape}"
        )
    cof = _first_row_cofactors(rows)
    scale = float(np.max(np.abs(rows))) or 1.0
    if np.max(np.abs(cof)) <= TAU_RANK * scale ** (m - 1):
        raise DegenerateFrameError("tangent frame is rank deficient")
    return AmbientVector(signature.weights * cof, signature)
