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
reciprocal's and the real power's).  Composed with a general jet, the ladder
goes through Horner's rule over the multiplication table with the nilpotent
part of the argument.  Composed with a coordinate (a ``Jet.variable``), it
is placed as it is: f^(m)(x) / m! on the pure powers m e_i.  That is the
value Horner's rule gives there, whose products by the coordinate only
multiply by 0.0 and 1.0 and add 0.0; only an exact zero's sign can differ.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ContractViolation, DomainError
from . import kernel
from .space import MAX_ORDER, JetSpace

TAU_DIV = 1e-13
TAU_POW = 1e-12

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


def _mul_arrays(space: JetSpace, a: np.ndarray, b: np.ndarray, r: int) -> np.ndarray:
    n = space.ncoef[r]
    out = np.empty((n,) + a.shape[1:])
    kernel.mul_into(out, a[:n], b[:n], space.mul_tables[r])
    return out


class Jet:
    __slots__ = ("space", "order", "c")

    def __init__(self, space: JetSpace, order: int, coeffs: np.ndarray):
        self.space = space
        self.order = order
        self.c = coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, space: JetSpace, order: int, value) -> "Jet":
        """Constant jet; ``value`` is a float or one value per point (P,)."""
        value = np.asarray(value, dtype=float)
        c = np.zeros((space.ncoef[order],) + value.shape)
        c[0] = value
        return cls(space, order, c)

    @classmethod
    def variable(cls, space: JetSpace, order: int, axis: int, value) -> "Jet":
        c = cls.constant(space, order, value).c
        if order >= 1:
            c[1 + axis] = 1.0
        return cls(space, order, c)

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
            return Jet(self.space, self.order, c)
        r = min(self.order, o.order)
        n = self.space.ncoef[r]
        return Jet(self.space, r, self.c[:n] + o.c[:n])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, self.order, -self.c)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            c = self.c.copy()
            c[0] -= other
            return Jet(self.space, self.order, c)
        r = min(self.order, o.order)
        n = self.space.ncoef[r]
        return Jet(self.space, r, self.c[:n] - o.c[:n])

    def __rsub__(self, other):
        c = 0.0 - self.c  # not -self.c: a constant jet's difference, zero signs included
        c[0] += other
        return Jet(self.space, self.order, c)

    def __mul__(self, other):
        """Jet product, or scaling by a number or by one number per point."""
        o = self._coerce(other)
        if o is None:
            return Jet(self.space, self.order, self.c * other)
        r = min(self.order, o.order)
        return Jet(self.space, r, _mul_arrays(self.space, self.c, o.c, r))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return Jet(self.space, self.order, self.c / other)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self, axis=None) -> "Jet":
        """1 / self; ``axis`` as for ``compose``."""
        return self.compose(_reciprocal_ladder(self.c[0], self.order), axis)

    # -- analytic functions -------------------------------------------

    def compose(self, dvals, axis=None) -> "Jet":
        """Apply a univariate analytic f given f^(m)(value) for m = 0..order.

        Given ``axis``, self must be the coordinate ``Jet.variable`` of that
        axis: f of a coordinate is its Taylor series, f^(m)(value) / m!
        placed on the pure powers m e_axis and zero elsewhere, with no
        product.  Otherwise Horner's rule composes the ladder with the
        nilpotent part of self.  A non-finite ladder entry raises DomainError.
        """
        check_finite(dvals)
        r = self.order
        space = self.space
        if axis is not None:
            out = np.zeros(self.c.shape)
            for m, pos in enumerate(space.powers[axis][:r + 1]):
                out[pos] = dvals[m] / _FACT[m]
            return Jet(space, r, out)
        w = self.c.copy()
        w[0] = 0.0
        out = np.zeros_like(w)
        out[0] = dvals[r] / _FACT[r]
        for m in range(r - 1, -1, -1):
            out = _mul_arrays(space, out, w, r)
            out[0] += dvals[m] / _FACT[m]
        return Jet(space, r, out)


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


def apply(fn: str, u: Jet, axis=None) -> Jet:
    """The unary function ``fn`` (a key of ``LADDERS``) of u; ``axis`` as
    for ``Jet.compose``."""
    return u.compose(LADDERS[fn](u.c[0], u.order), axis)


def sin(u: Jet) -> Jet:
    return apply("sin", u)


def cos(u: Jet) -> Jet:
    return apply("cos", u)


def sinh(u: Jet) -> Jet:
    return apply("sinh", u)


def cosh(u: Jet) -> Jet:
    return apply("cosh", u)


def exp(u: Jet) -> Jet:
    return apply("exp", u)


def sqrt(u: Jet) -> Jet:
    return apply("sqrt", u)


def powr(u: Jet, p: float, axis=None) -> Jet:
    """u**p with real exponent; ``axis`` as for ``Jet.compose``.

    Integer exponents use repeated multiplication and are defined for any
    base value; fractional exponents require a strictly positive base.
    """
    if p == round(p) and abs(p) <= 16:
        return _ipow(u, int(round(p)))
    return u.compose(_power_ladder(u.c[0], p, u.order), axis)


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
