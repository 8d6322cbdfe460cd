"""Exact number types shared across the engine.

Every probability produced by the race engine is a dyadic rational, so the
stdlib ``fractions.Fraction`` (arbitrary precision, always in lowest terms)
is used directly as the rational type.  Constants attached to the symmetric
unit-step race live in span{1, 1/pi} over the rationals; :class:`PiLinear`
keeps them exact until a decimal approximation is requested.  Approximate
values always travel together with an absolute error bound so that printed
digits are never unbacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC

from mpmath import mp, mpf

# Guard digits carried beyond any requested precision whenever pi enters a
# computation, on top of the digits of the larger rational part (parts of
# exact sums grow with the target and cancel to a value below 1).  Table
# verification at 10+ digits must never be limited by the pi source.
PI_GUARD_DIGITS = 50


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction, rational string ("3/16") or other exact
    rational to Fraction.  Floats are rejected: they are not exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, _RationalABC):
        return Fraction(x.numerator, x.denominator)
    raise TypeError(f"not an exact rational: {x!r}")


def rational_str(x) -> str:
    """Serialize a rational as "num/den" (denominator always shown)."""
    x = as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class ApproxValue:
    """A high-precision decimal together with an absolute error bound.

    ``str()`` shows only digits guaranteed by the bound.
    """

    value: mpf
    error_bound: mpf

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValueError("error bound must be >= 0")

    def guaranteed_digits(self, cap: int = 30) -> int:
        """Number of significant digits fully backed by the error bound."""
        if self.error_bound == 0:
            return cap
        if self.value == 0:
            return 0
        with mp.workdps(25):
            ratio = abs(mpf(self.value)) / (2 * mpf(self.error_bound))
            if ratio <= 1:
                return 0
            return min(cap, int(mp.floor(mp.log10(ratio))))

    def formatted(self, max_digits: int = 17) -> str:
        if self.value == 0:
            # a zero has no significant digits; "0" is backed only when
            # the bound cannot move it at the last displayable place
            return "0" if 2 * self.error_bound < mpf(10) ** -max_digits else "?"
        digits = min(self.guaranteed_digits(), max_digits)
        if digits <= 0:
            # no digit is backed by the bound; never print false precision
            return "?"
        with mp.workdps(digits + 10):
            return mp.nstr(self.value, digits)

    def __str__(self) -> str:
        return self.formatted()


@dataclass(frozen=True)
class PiLinear:
    """Exact constant of the form ``const + inv_pi / pi`` with rational parts.

    Addition, subtraction and multiplication by a rational scalar are exact
    and componentwise.  Multiplying two PiLinear values would leave the
    span{1, 1/pi} lattice and is rejected.
    """

    const: Fraction
    inv_pi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "const", as_fraction(self.const))
        object.__setattr__(self, "inv_pi", as_fraction(self.inv_pi))

    @classmethod
    def zero(cls) -> "PiLinear":
        return cls(Fraction(0), Fraction(0))

    @classmethod
    def of(cls, x) -> "PiLinear":
        """Coerce a rational (or PiLinear) to PiLinear."""
        if isinstance(x, PiLinear):
            return x
        return cls(as_fraction(x), Fraction(0))

    def is_zero(self) -> bool:
        return self.const == 0 and self.inv_pi == 0

    def __add__(self, other):
        other = PiLinear.of(other)
        return PiLinear(self.const + other.const, self.inv_pi + other.inv_pi)

    __radd__ = __add__

    def __sub__(self, other):
        other = PiLinear.of(other)
        return PiLinear(self.const - other.const, self.inv_pi - other.inv_pi)

    def __mul__(self, scalar):
        if isinstance(scalar, PiLinear):
            raise TypeError("product of two pi-linear values is not pi-linear")
        c = as_fraction(scalar)
        return PiLinear(self.const * c, self.inv_pi * c)

    __rmul__ = __mul__

    def approx(self, digits: int = 20) -> ApproxValue:
        return pilinear_eval(self, digits)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.const != 0:
            parts.append(str(self.const))
        if self.inv_pi != 0:
            mag = abs(self.inv_pi)
            if mag.denominator == 1:
                body = f"{mag.numerator}/pi" if mag != 1 else "1/pi"
            else:
                body = f"({mag})/pi"
            if not parts:
                parts.append(body if self.inv_pi > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if self.inv_pi > 0 else f"- {body}")
        return " ".join(parts)


def pilinear_eval(x: PiLinear, digits: int) -> ApproxValue:
    """Decimal approximation of ``const + inv_pi/pi`` to ``digits``
    significant digits, with an honest absolute error bound.  The working
    precision grows with the size of the parts, so that their
    cancellation does not eat the requested digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if x.const == 0 and x.inv_pi == 0:
        return ApproxValue(mpf(0), mpf(0))
    # parts far above 1 may cancel to a small value: carry their digits too
    work = digits + PI_GUARD_DIGITS + max(
        len(str(abs(f.numerator) // f.denominator)) for f in (x.const, x.inv_pi))
    with mp.workdps(work):
        c0 = mpf(x.const.numerator) / x.const.denominator
        c1 = mpf(x.inv_pi.numerator) / x.inv_pi.denominator
        value = c0 + c1 / mp.pi
        # True error (rounding plus pi truncation) is a few ulps at working
        # precision; the reported bound is the requested resolution, so the
        # printed form carries exactly the digits that were asked for.
        tight = (abs(c0) + abs(c1) + 1) * mpf(10) ** (-(work - 3))
        bound = max(tight, abs(value) * mpf(10) ** (-digits) / 2)
    return ApproxValue(value, bound)
