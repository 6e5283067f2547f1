"""Coefficient layout and precomputed tables for truncated multivariate jets.

A jet of order k in ``nvars`` variables stores the Taylor coefficients
c_alpha = (d^alpha f) / alpha! for every multi-index alpha with |alpha| <= k,
in a fixed graded-lexicographic layout (degree first, then lexicographic with
variable 0 ranked highest).  Because lower degrees come first, the order-r
prefix of an order-k jet (r <= k) is itself a valid order-r jet, which lets
all operations truncate by slicing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 4


def _multi_indices(nvars: int, max_order: int):
    out = []
    for deg in range(max_order + 1):
        block = [
            alpha
            for alpha in itertools.product(range(deg + 1), repeat=nvars)
            if sum(alpha) == deg
        ]
        block.sort(key=lambda a: tuple(-x for x in a))
        out.extend(block)
    return out


@dataclass(frozen=True)
class _MulTable:
    """Triples (i, j, k) with out[k] += a[i] * b[j], sorted by k (stably, so
    each k sums its terms in increasing i); ``starts`` is where each k begins."""

    i: np.ndarray
    j: np.ndarray
    starts: np.ndarray


class JetSpace:
    """Shared immutable tables for jets in a fixed number of variables."""

    _cache: dict[int, "JetSpace"] = {}

    def __init__(self, nvars: int, max_order: int = MAX_ORDER):
        self.nvars = nvars
        self.max_order = max_order
        self.indices = _multi_indices(nvars, max_order)
        self.position = {alpha: p for p, alpha in enumerate(self.indices)}
        self.degree = np.array([sum(a) for a in self.indices], dtype=np.int32)
        self.ncoef = [
            sum(1 for a in self.indices if sum(a) <= r) for r in range(max_order + 1)
        ]
        self.factorial = np.array(
            [math.prod(math.factorial(x) for x in a) for a in self.indices]
        )
        self.mul_tables = [self._build_mul_table(r) for r in range(max_order + 1)]
        # partial_tables[k] = (positions, factorials) of d_{i1} ... d_{ik} f
        # at [i1, ..., ik]: the coefficient of the multi-index counting the
        # i's, and alpha! to turn it into the partial
        self.partial_tables = [self._build_partial_table(k) for k in range(max_order + 1)]

    def _build_mul_table(self, r: int) -> _MulTable:
        ti, tj, tk = [], [], []
        n = self.ncoef[r]
        for i in range(n):
            di = self.degree[i]
            for j in range(n):
                if di + self.degree[j] > r:
                    continue
                alpha = tuple(
                    x + y for x, y in zip(self.indices[i], self.indices[j])
                )
                ti.append(i)
                tj.append(j)
                tk.append(self.position[alpha])
        order = np.argsort(np.asarray(tk), kind="stable")
        tk = np.asarray(tk)[order]
        # every k <= r occurs (as 0 + k), so the groups are exactly 0..ncoef-1
        starts = np.searchsorted(tk, np.arange(n))
        return _MulTable(np.asarray(ti, dtype=np.intp)[order],
                         np.asarray(tj, dtype=np.intp)[order], starts)

    def _build_partial_table(self, k: int):
        pos = [self.position[tuple(axes.count(v) for v in range(self.nvars))]
               for axes in itertools.product(range(self.nvars), repeat=k)]
        pos = np.asarray(pos, dtype=np.intp).reshape((self.nvars,) * k)
        return pos, self.factorial[pos]

    @classmethod
    def get(cls, nvars: int) -> "JetSpace":
        if nvars not in cls._cache:
            cls._cache[nvars] = cls(nvars)
        return cls._cache[nvars]

    def __reduce__(self):
        return (JetSpace.get, (self.nvars,))
