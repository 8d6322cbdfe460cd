"""Exact number types shared across the engine, and decimals made from
integers.

Every probability produced by the race engine is a dyadic rational, so the
stdlib ``fractions.Fraction`` (arbitrary precision, always in lowest terms)
is the rational type.  ``dyadic(num, k)`` builds ``num / 2**k``, the form
of every exact first-passage number, as a :class:`Dyadic` in lowest terms
by shifting out trailing zero bits, with no gcd; the closed-form oracles
keep plain ``Fraction``.  Decimals are made on integers, without mpmath:
``rounded`` rounds a rational once to a Dyadic of a given precision,
``nstr`` prints a rational correctly rounded to n significant digits, and
a digit count is one exact comparison, made by ``floor_log10``.  Constants
of the symmetric unit-step race live in span{1, 1/pi} over the rationals;
:class:`PiLinear` keeps them exact until a decimal is requested, with pi
from Machin's formula.  Approximate values always travel together with an
absolute error bound so that printed digits are never unbacked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational as _RationalABC

# Guard digits carried beyond any requested precision whenever pi enters a
# computation, on top of the digits of the larger rational part (parts of
# exact sums grow with the target and cancel to a value below 1).  Table
# verification at 10+ digits must never be limited by the pi source.
PI_GUARD_DIGITS = 50
# The most significant digits a decimal is printed with unless asked for more.
DISPLAY_DIGITS = 17
_LOG2_10 = math.log(10, 2)


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction or other exact rational to Fraction.
    Floats are rejected: they are not exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, _RationalABC):
        return Fraction(x.numerator, x.denominator)
    raise TypeError(f"not an exact rational: {x!r}")


def rational_str(x) -> str:
    """Serialize a rational as "num/den" (denominator always shown)."""
    x = as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


class Dyadic(Fraction):
    """A Fraction whose denominator is a power of two; arithmetic gives plain
    Fractions.  ``_mpf_`` is mpmath's raw form of the same number, so that
    ``mpf(x)``, mixed arithmetic and ``mpmath.nstr(x)`` read it exactly:
    callers that check answers in mpmath pass a Dyadic straight in."""

    __slots__ = ()

    @property
    def _mpf_(self) -> tuple:
        man = abs(self.numerator)
        zeros = (man & -man).bit_length() - 1 if man else 0
        exp = zeros + 1 - self.denominator.bit_length() if man else 0
        return int(self < 0), man >> zeros, exp, (man >> zeros).bit_length()


def dyadic(num: int, k: int) -> Dyadic:
    """``num / 2**k``, k >= 0, in lowest terms with no gcd: the trailing
    zero bits of num, at most k of them, are shifted out of both parts."""
    zeros = min((num & -num).bit_length() - 1, k) if num else k
    out = object.__new__(Dyadic)
    out._numerator, out._denominator = num >> zeros, 1 << (k - zeros)
    return out


def dps_to_prec(dps: int) -> int:
    """The significant bits kept for ``dps`` decimal digits: mpmath's rule
    ``round((dps + 1) log2(10))``, at which answers have always been rounded."""
    return max(1, int(round((dps + 1) * _LOG2_10)))


def _top(num: int, den: int) -> int:
    """The t with ``2**(t - 1) <= num / den < 2**t``, for positive num."""
    t = num.bit_length() - den.bit_length()
    return t + 1 if (num >= den << t if t >= 0 else num << -t >= den) else t


def floor_log10(num: int, den: int) -> int:
    """``floor(log10(num / den))`` for positive num and den, exactly, at a
    cost set by the size of the parts alone.  With ``2**m <= num / den <
    2**(m + 1)``, ``m log10(2)``, floored with log10(2) to 100 bits on the
    side that lowers it, is the answer or one less: one comparison decides."""
    m = _top(num, den) - 1
    e = (m * (0x4D104D427DE7FBCC47C4ACD60 + (m < 0)) >> 100) + 1
    return e if (num >= den * 10**e if e >= 0 else num * 10**-e >= den) else e - 1


def rounded(x, prec: int, exp: int = 0) -> Dyadic:
    """The rational ``x * 2**exp`` rounded to nearest, ties to even, at
    ``prec`` significant bits."""
    if exp >= 0:
        return _round(x.numerator << exp, x.denominator, prec)
    return _round(x.numerator, x.denominator << -exp, prec)


def _round(num: int, den: int, prec: int, toward: int = 0) -> Dyadic:
    """``num / den``, den > 0, at ``prec`` significant bits: to nearest as
    ``rounded`` rounds, or up for ``toward`` 1 and down for -1."""
    if not num:
        return dyadic(0, 0)
    shift = prec - _top(abs(num), den)  # the result's mantissa has prec bits
    man, rest = divmod(num << shift, den) if shift >= 0 else divmod(num, den << -shift)
    if toward > 0 and rest or not toward and (2 * rest > den or 2 * rest == den and man & 1):
        man += 1
    return dyadic(man, shift) if shift >= 0 else dyadic(man << -shift, 0)


def nstr(x, n: int) -> str:
    """x, an int, rational or float, correctly rounded to ``n`` >= 1
    significant digits, an exact tie away from zero, in the notation of
    ``mpmath.nstr``: fixed when the leading digit's exponent is strictly
    between ``min(-(n // 3), -5)`` and n, trailing zeros stripped, zero as
    "0.0" and an infinity as "+inf" or "-inf"."""
    if isinstance(x, float) and math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    x = Fraction(x)
    if not x:
        return "0.0"
    num, den = abs(x.numerator), x.denominator
    exponent = floor_log10(num, den)
    shift = n - 1 - exponent  # |x| 10**shift has n digits before the point
    num, den = (num * 10**shift, den) if shift >= 0 else (num, den * 10**-shift)
    man, rest = divmod(num, den)
    man += 2 * rest >= den  # half up
    if man == 10**n:  # carried to a power of ten
        man, exponent = man // 10, exponent + 1
    digits, split = str(man), 1
    if min(-(n // 3), -5) < exponent < n:  # fixed notation
        digits = "0" * -exponent + digits if exponent < 0 else digits.ljust(exponent + 1, "0")
        split, exponent = max(exponent, 0) + 1, 0
    body = (digits[:split] + "." + digits[split:]).rstrip("0")
    body += "0" if body.endswith(".") else ""
    return ("-" if x < 0 else "") + body + (f"e{exponent:+d}" if exponent else "")


@dataclass(frozen=True)
class ApproxValue:
    """A high-precision decimal together with an absolute error bound.

    Both are exact rationals (a Dyadic from ``rounded``) or floats, read at
    their exact binary values; the bound may be infinite.  ``str()`` shows
    only digits guaranteed by the bound.
    """

    value: Fraction
    error_bound: Fraction

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValueError("error bound must be >= 0")

    def guaranteed_digits(self, cap: int = 30) -> int:
        """Number of significant digits fully backed by the error bound:
        the largest d <= cap with ``10**d 2 bound <= |value|``, or 0: the
        ``floor_log10`` of their ratio, so no power of ten grows with cap."""
        if self.error_bound == 0:
            return cap
        if self.value == 0 or self.error_bound == math.inf:
            return 0
        ratio = abs(Fraction(self.value)) / (2 * Fraction(self.error_bound))
        return min(cap, floor_log10(ratio.numerator, ratio.denominator)) if ratio >= 1 else 0

    def formatted(self, max_digits: int = DISPLAY_DIGITS) -> str:
        if self.value == 0:
            # a zero has no significant digits; "0" is backed only when
            # the bound cannot move it at the last displayable place:
            # 2 bound < 10**-max_digits
            if self.error_bound == math.inf:
                return "?"
            bound = 2 * Fraction(self.error_bound)
            backed = not bound or floor_log10(bound.numerator, bound.denominator) < -max_digits
            return "0" if backed else "?"
        digits = self.guaranteed_digits(max_digits)
        if digits <= 0:
            # no digit is backed by the bound; never print false precision
            return "?"
        return nstr(self.value, digits)

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
        """Decimal approximation of ``const + inv_pi/pi`` to ``digits``
        significant digits, with an honest absolute error bound.  The value
        is ``const + inv_pi / machin_pi(prec)`` rounded once to ``prec``
        bits, a working precision that grows with the size of the parts,
        so that their cancellation does not eat the requested digits.  The
        value and the bound are Dyadics, so mpmath reads them exactly."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if self.is_zero():
            return ApproxValue(Dyadic(0), Dyadic(0))
        # parts far above 1 may cancel to a small value: carry the digits of
        # their integer parts too, one for a part below 1 (or zero, read as 1/den)
        const, inv_pi = self.const, self.inv_pi
        work = digits + PI_GUARD_DIGITS + 1 + max(
            0, floor_log10(abs(const.numerator) or 1, const.denominator),
            floor_log10(abs(inv_pi.numerator) or 1, inv_pi.denominator))
        prec = dps_to_prec(work)
        value = rounded(self.const + self.inv_pi / machin_pi(prec), prec)
        # ``tight``, rounded up, is far above the true error, pi's rounding
        # plus the value's, a few ulps at working precision.  The bound is
        # the requested resolution, rounded down, where that is more, so
        # that it backs exactly the digits that were asked for.
        parts = abs(self.const) + abs(self.inv_pi) + 1
        tight = _round(parts.numerator, parts.denominator * 10 ** (work - 3), prec, 1)
        resolution = _round(abs(value.numerator), value.denominator * 2 * 10**digits, prec, -1)
        return ApproxValue(value, max(tight, resolution))

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


@lru_cache(maxsize=None)
def machin_pi(prec: int) -> Dyadic:
    """pi rounded to nearest at ``prec`` bits, from Machin's formula
    ``pi = 16 atan(1/5) - 4 atan(1/239)`` summed in fixed point on
    integers, with guard bits past the truncation of every term."""
    one = 1 << (prec + 24 + prec.bit_length())

    def atan_inv(x: int) -> int:
        total, term, k = 0, one // x, 1
        while term:
            total += term // k if k % 4 == 1 else -(term // k)
            term //= x * x
            k += 2
        return total

    return rounded(16 * atan_inv(5) - 4 * atan_inv(239), prec, 1 - one.bit_length())


# ``PiLinear.approx`` under its older name, called as ``pilinear_eval(x, digits)``
pilinear_eval = PiLinear.approx
