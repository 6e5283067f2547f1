"""Coefficient layout and precomputed tables for truncated multivariate jets.

A jet of order k in ``nvars`` variables stores the Taylor coefficients
c_alpha = (d^alpha f) / alpha! for every multi-index alpha with |alpha| <= k,
in a fixed graded-lexicographic layout (degree first, then lexicographic with
variable 0 ranked highest).  Because lower degrees come first, the order-r
prefix of an order-k jet (r <= k) is itself a valid order-r jet, which lets
all operations truncate by slicing.

A support is an int bitmask over these positions: bit p set where
coefficient p may be nonzero.  ``JetSpace.mul_table`` gives the triple table
of a product restricted to the terms whose factors both lie in their
supports (see ``jets.jet``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 4

# np.add.reduceat sums an output's terms as its first term plus the sum of
# the rest, and sums the rest in order only up to _IN_ORDER terms (pairwise
# beyond).  So a restricted table keeps the first term of an output left with
# three terms or more, and every term of a longer output: dropping
# exact-zero terms then changes the rounding of no nonzero sum.
_IN_ORDER = 7


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
    """The terms out[k] += a[i] * b[j] of a product, grouped by k in
    increasing order (each k's terms in increasing i); ``starts`` is where
    each reached k's terms begin.  ``out`` lists the reached k, or is None
    when every k is reached; ``support`` is their mask."""

    i: np.ndarray
    j: np.ndarray
    starts: np.ndarray
    out: np.ndarray | None
    support: int


def _mask(flags: np.ndarray) -> int:
    """The support of the positions where ``flags`` is set."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _flags(mask: int, n: int) -> np.ndarray:
    """Whether each of the first n positions is in the support ``mask``."""
    raw = np.frombuffer((mask & ((1 << n) - 1)).to_bytes(n // 8 + 1, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n].astype(bool)


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
        # full[r]: the support of every order-r position
        self.full = tuple((1 << n) - 1 for n in self.ncoef)
        self.mul_tables = [self._build_mul_table(r) for r in range(max_order + 1)]
        # tables[(r, sa, sb)]: the order-r table of factors with supports sa
        # and sb, built at first use by ``mul_table``
        self.tables = {(r, full, full): table
                       for r, (full, table) in enumerate(zip(self.full, self.mul_tables))}
        # partial_tables[k] = (positions, factorials) of d_{i1} ... d_{ik} f
        # at [i1, ..., ik]: the coefficient of the multi-index counting the
        # i's, and alpha! to turn it into the partial
        self.partial_tables = [self._build_partial_table(k) for k in range(max_order + 1)]
        # powers[i][m] = position of m e_i, the pure powers of variable i: a
        # function of that variable alone has its Taylor series there
        self.powers = tuple(
            tuple(self.position[tuple(m if v == i else 0 for v in range(nvars))]
                  for m in range(max_order + 1))
            for i in range(nvars))
        # power_support[i][r]: the support of the pure powers of variable i
        # up to order r
        self.power_support = tuple(
            tuple(sum(1 << p for p in pows[:r + 1]) for r in range(max_order + 1))
            for pows in self.powers)

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
                         np.asarray(tj, dtype=np.intp)[order], starts, None, self.full[r])

    def mul_table(self, r: int, sa: int, sb: int) -> _MulTable:
        """The order-r table of a product whose factors have supports sa and
        sb, built once per (r, sa, sb): the full table cut to its terms
        a[i] b[j] with i in sa and j in sb, in the full table's order.  An
        output left with three terms or more also keeps its first term, and
        one of more than _IN_ORDER + 1 terms all of them."""
        key = (r, sa, sb)
        if key in self.tables:
            return self.tables[key]
        full, n = self.mul_tables[r], self.ncoef[r]
        terms = np.diff(full.starts, append=len(full.i))  # per output
        k = np.repeat(np.arange(n), terms)  # per term
        keep = _flags(sa, n)[full.i] & _flags(sb, n)[full.j]
        kept = np.bincount(k[keep], minlength=n)  # per output
        reached = kept > 0
        first = np.zeros(len(k), dtype=bool)
        first[full.starts] = True
        keep |= (first & (kept[k] > 2)) | (reached[k] & (terms[k] > _IN_ORDER + 1))
        if keep.all():
            self.tables[key] = full
        else:
            out = np.flatnonzero(reached)
            self.tables[key] = _MulTable(full.i[keep], full.j[keep],
                                         np.searchsorted(k[keep], out),
                                         None if reached.all() else out, _mask(reached))
        return self.tables[key]

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
