"""Truncated Taylor arithmetic: the forward differentiation engine.

Every Jet is immutable once built.  Its coefficients are ``(ncoef,)`` at one
point, or ``(ncoef, P)`` for a block of P points: a trailing point axis that
every operation carries along, so one Python-level operation serves the whole
block (vector forward mode).  Each point of a block gets exactly the
arithmetic it would get alone.  A domain guard raises for the block when any
of its points fails, reporting the first failing point's value; callers that
need per-point errors retry smaller blocks.

Binary operations truncate to the lower of the two operand orders; a
number (or one number per point) is an operand of its own: it scales or
shifts the coefficients, with no product.  A unary analytic function has one
univariate derivative ladder f^(m)(x), m = 0..order (``LADDERS``, the
reciprocal's and the real power's), composed with its argument by
``Jet.compose``.  Where the argument's support says a + b x_i (a constant
included), f of it is its Taylor series placed on x_i's pure powers with no
product; any other argument goes through Horner's rule.

Every Jet carries a ``support``: an int bitmask over the positions of the
coefficient layout, bit p set where coefficient p may be nonzero (every
other coefficient is an exact zero).  A constant has {0} and a variable
{0, e_i}; a ladder placed on x_i has that variable's pure powers, placed on
a constant {0}; a sum or a difference has the union of its operands'
supports, a scaling by a number its operand's.  A Jet built without a
support is general: every position.  A product, and each Horner step of a
composition (whose nilpotent part drops position 0), runs the triple table
restricted to the terms whose factors both lie in their supports
(``JetSpace.mul_table``); its support is the outputs those terms reach.
The terms it skips are exact zeros, so every coefficient equals the full
table's, bit for bit where nonzero; an output no term reaches is +0.0.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ContractViolation, DomainError
from ..thresholds import TAU_DIV, TAU_POW
from . import kernel
from .space import MAX_ORDER, JetSpace

_FACT = [math.factorial(m) for m in range(MAX_ORDER + 1)]


def guard(bad: np.ndarray, vals, what: str):
    """Raise DomainError naming the first flagged entry of ``vals``."""
    if bad.any():
        first = np.ravel(vals)[np.argmax(np.ravel(bad))]
        raise DomainError(f"{what} {float(first):.3e}")


def check_finite(vals):
    ok = np.isfinite(vals)
    if not ok.all():
        guard(~ok, vals, "non-finite value")


def _mul_arrays(space: JetSpace, a: np.ndarray, sa: int, b: np.ndarray, sb: int, r: int):
    """The order-r product of coefficients a and b with supports sa and sb,
    and its support."""
    table = space.tables.get((r, sa, sb))
    if table is None:
        table = space.mul_table(r, sa, sb)
    out = (np.empty if table.out is None else np.zeros)((space.ncoef[r],) + a.shape[1:])
    kernel.mul_into(out, a, b, table)
    return out, table.support


class Jet:
    __slots__ = ("space", "order", "c", "support")

    def __init__(self, space: JetSpace, order: int, coeffs: np.ndarray, support=None):
        self.space = space
        self.order = order
        self.c = coeffs
        self.support = space.full[order] if support is None else support

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, space: JetSpace, order: int, value) -> "Jet":
        """Constant jet; ``value`` is a float or one value per point (P,)."""
        value = np.asarray(value, dtype=float)
        c = np.zeros((space.ncoef[order],) + value.shape)
        c[0] = value
        return cls(space, order, c, 1)

    @classmethod
    def variable(cls, space: JetSpace, order: int, axis: int, value) -> "Jet":
        c = cls.constant(space, order, value).c
        if order >= 1:
            c[1 + axis] = 1.0
        return cls(space, order, c, space.power_support[axis][min(order, 1)])

    # -- accessors ----------------------------------------------------

    @property
    def value(self):
        """The value: a float at one point, a (P,) array for a block."""
        return self.c[0] if self.c.ndim > 1 else float(self.c[0])

    def partial(self, alpha):
        """Partial derivative d^alpha f (not the Taylor coefficient)."""
        alpha = tuple(alpha)
        if sum(alpha) > self.order:
            raise ContractViolation(f"partial {alpha} exceeds jet order {self.order}")
        p = self.space.position[alpha]
        d = self.c[p] * self.space.factorial[p]
        return d if self.c.ndim > 1 else float(d)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ContractViolation("jets from different spaces")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            c = self.c.copy()
            c[0] += other
            return Jet(self.space, self.order, c, self.support | 1)
        r = min(self.order, o.order)
        n = self.space.ncoef[r]
        return Jet(self.space, r, self.c[:n] + o.c[:n],
                   (self.support | o.support) & self.space.full[r])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, self.order, -self.c, self.support)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            c = self.c.copy()
            c[0] -= other
            return Jet(self.space, self.order, c, self.support | 1)
        r = min(self.order, o.order)
        n = self.space.ncoef[r]
        return Jet(self.space, r, self.c[:n] - o.c[:n],
                   (self.support | o.support) & self.space.full[r])

    def __rsub__(self, other):
        c = 0.0 - self.c  # not -self.c: a constant jet's difference, zero signs included
        c[0] += other
        return Jet(self.space, self.order, c, self.support | 1)

    def __mul__(self, other):
        """Jet product, or scaling by a number or by one number per point."""
        o = self._coerce(other)
        if o is None:
            return Jet(self.space, self.order, self.c * other, self.support)
        r = min(self.order, o.order)
        return Jet(self.space, r, *_mul_arrays(self.space, self.c, self.support,
                                               o.c, o.support, r))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return Jet(self.space, self.order, self.c / other, self.support)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self) -> "Jet":
        """1 / self."""
        return self.compose(_reciprocal_ladder(self.c[0], self.order))

    # -- analytic functions -------------------------------------------

    def compose(self, dvals) -> "Jet":
        """Apply a univariate analytic f given f^(m)(value) for m = 0..order.

        Horner's rule composes the ladder with the nilpotent part w of self.
        Where the support puts w on one first power e_i alone (w = b x_i,
        self = a + b x_i; a constant has w = 0), each Horner step multiplies
        by b on x_i's pure powers only, so f of self is placed there with no
        product: f^(m)(value) / m!, plus the +0.0 of the step that adds it
        (every step but the first), times b, m times in turn.  Those are
        Horner's own bits.  A non-finite ladder entry raises DomainError.
        """
        check_finite(dvals)
        r = self.order
        space = self.space
        sw = self.support & ~1
        if sw < 2 << space.nvars and not sw & (sw - 1):  # w is b x_i, or 0
            i = sw.bit_length() - 2  # sw = 1 << (1 + i)
            out = np.zeros(self.c.shape)
            for m, pos in enumerate(space.powers[i][:r + 1] if sw else (0,)):
                term = dvals[m] / _FACT[m]
                if m < r:
                    term = 0.0 + term  # the Horner step adds it to a +0.0
                for _ in range(m):
                    term = term * self.c[1 + i]
                out[pos] = term
            return Jet(space, r, out, space.power_support[i][r] if sw else 1)
        w = self.c.copy()
        w[0] = 0.0
        out = np.zeros_like(w)
        out[0] = dvals[r] / _FACT[r]
        support = 1
        for m in range(r - 1, -1, -1):
            out, support = _mul_arrays(space, out, support, w, sw, r)
            out[0] += dvals[m] / _FACT[m]
            support |= 1
        return Jet(space, r, out, support)


# -- derivative ladders: [f(x), f'(x), ..., f^(order)(x)] at x, a float or
# one value per point (P,), each written once for every composition

def _cycle(cycle, order: int):
    return [cycle[m % len(cycle)] for m in range(order + 1)]


def _sin_ladder(x, order: int):
    s, c = np.sin(x), np.cos(x)
    return _cycle([s, c, -s, -c], order)


def _cos_ladder(x, order: int):
    s, c = np.sin(x), np.cos(x)
    return _cycle([c, -s, -c, s], order)


def _reciprocal_ladder(x, order: int):
    guard(np.abs(x) <= TAU_DIV, x, "division by near-zero value")
    dvals = [1.0 / x]
    for m in range(1, order + 1):
        dvals.append(-m * dvals[m - 1] / x)
    return dvals


def _power_ladder(x, p: float, order: int):
    """Ladder of x**p for a fractional p: a strictly positive base only."""
    guard(x <= TAU_POW, x, "fractional power of non-positive base")
    dvals = [np.power(x, p)]
    for m in range(1, order + 1):
        dvals.append(dvals[m - 1] * (p - (m - 1)) / x)
    return dvals


LADDERS = {
    "sin": _sin_ladder,
    "cos": _cos_ladder,
    "sinh": lambda x, order: _cycle([np.sinh(x), np.cosh(x)], order),
    "cosh": lambda x, order: _cycle([np.cosh(x), np.sinh(x)], order),
    "exp": lambda x, order: _cycle([np.exp(x)], order),
    "sqrt": lambda x, order: _power_ladder(x, 0.5, order),
}


def apply(fn: str, u: Jet) -> Jet:
    """The unary function ``fn`` (a key of ``LADDERS``) of u."""
    return u.compose(LADDERS[fn](u.c[0], u.order))


def powr(u: Jet, p: float) -> Jet:
    """u**p with real exponent.

    Integer exponents use repeated multiplication and are defined for any
    base value; fractional exponents require a strictly positive base.
    """
    if p == round(p) and abs(p) <= 16:
        return _ipow(u, int(round(p)))
    return u.compose(_power_ladder(u.c[0], p, u.order))


def _ipow(u: Jet, k: int) -> Jet:
    if k < 0:
        return _ipow(u, -k).reciprocal()
    if k == 0:
        return Jet.constant(u.space, u.order, np.ones_like(u.c[0]))
    result, base = None, u
    while k:
        if k & 1:
            result = base if result is None else result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result
