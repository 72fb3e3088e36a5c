"""Exact Gaussian-rational arithmetic, and the package's fixed-point format.

Coefficients of Dirichlet polynomials are normalized to exact Gaussian
rationals at construction time: every finite binary float is a dyadic
rational and decimal strings parse exactly, so nothing is lost. Downstream
this buys exact convolution identities always, and exact kappa partial sums
and Gram entries whenever the shift exponent is an integer.

Fixed point. The d^2 Gram data, the min-norm kernel sums, the psi stream and
the zero polish compute in Python integers: at precision ``bits``, an int x
stands for x * 2^-(bits + GUARD_BITS) (a product of k of them, 2^-k(...)). A
value is rounded in to nearest, ties up (``fixed_ratio``, ``to_fixed``), and
rounded out once, to nearest, at ``bits`` (``fixed_mpf``, ``fixed_mpc``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, round_nearest

GUARD_BITS = 64


def as_fraction(x) -> Fraction:
    """Convert x to an exact Fraction. Floats and mpf values convert exactly;
    a zero denominator or a non-finite value raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot convert non-finite value {x!r}")
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, mpf):
        sign, man, exp, _ = x._mpf_
        if not man:
            if x == 0:
                return Fraction(0)
            raise ValueError(f"cannot convert non-finite value {x!r}")
        q = Fraction(int(man)) * Fraction(2) ** int(exp)
        return -q if sign else q
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


class GaussianRational:
    """Immutable re + im*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __setattr__(self, *_):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def from_value(cls, v) -> "GaussianRational":
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, complex):
            return cls(Fraction(v.real), Fraction(v.imag))
        if isinstance(v, mpc):
            return cls(as_fraction(v.real), as_fraction(v.imag))
        if isinstance(v, tuple) and len(v) == 2:
            return cls(as_fraction(v[0]), as_fraction(v[1]))
        return cls(as_fraction(v))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = GaussianRational.from_value(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.from_value(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.from_value(other) - self

    def __mul__(self, other):
        o = GaussianRational.from_value(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.from_value(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / d,
                                (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return GaussianRational.from_value(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    # -- predicates / conversions --------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        try:
            o = GaussianRational.from_value(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    @property
    def is_real(self) -> bool:
        return not self.im

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def fraction_to_mpf(q: Fraction) -> mpf:
    """Fraction -> mpf at the ambient precision (one correctly rounded division)."""
    if q.denominator == 1:
        return mpf(q.numerator)
    return mpf(q.numerator) / mpf(q.denominator)


def to_mp(z):
    """GaussianRational -> mpf (real case) or mpc, at the ambient precision."""
    if isinstance(z, GaussianRational):
        if z.is_real:
            return fraction_to_mpf(z.re)
        return mpc(fraction_to_mpf(z.re), fraction_to_mpf(z.im))
    if isinstance(z, Fraction):
        return fraction_to_mpf(z)
    return mp.mpmathify(z)


def fixed_ratio(num: int, den: int, P: int) -> int:
    """floor(num / den * 2^P + 1/2) for den > 0 and P of either sign."""
    if P < 0:
        return fixed_ratio(num, den << -P, 0)
    return ((num << (P + 1)) // den + 1) >> 1


def to_fixed(q, P: int) -> int:
    """floor(q * 2^P + 1/2) for anything ``as_fraction`` takes, exactly."""
    q = as_fraction(q)
    return fixed_ratio(q.numerator, q.denominator, P)


def fixed_mpf(x: int, exp: int, bits: int) -> mpf:
    """x * 2^exp rounded once, to nearest, at bits, whatever mp.prec is."""
    return mp.make_mpf(from_man_exp(x, exp, bits, round_nearest))


def fixed_mpc(x: int, y: int, exp: int, bits: int) -> mpc:
    """(x + i y) * 2^exp, each part rounded once, to nearest, at bits."""
    return mp.make_mpc((from_man_exp(x, exp, bits, round_nearest),
                        from_man_exp(y, exp, bits, round_nearest)))
