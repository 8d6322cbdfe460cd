"""Exact number types shared across the engine, and decimals made from
integers.

Every probability produced by the race engine is a dyadic rational, so the
stdlib ``fractions.Fraction`` (arbitrary precision, always in lowest terms)
is the rational type.  ``dyadic(num, k)`` builds ``num / 2**k``, the form
of every exact first-passage number, as a :class:`Dyadic` in lowest terms
by shifting out trailing zero bits, with no gcd; the closed-form oracles
keep plain ``Fraction``.  A decimal is made without mpmath: ``rounded``
rounds a rational as an mpf would, to a Dyadic, and ``nstr`` prints it as
``mpmath.nstr`` prints that mpf.  Constants of the symmetric unit-step
race live in span{1, 1/pi} over the rationals; :class:`PiLinear` keeps
them exact until a decimal is requested, with pi from Machin's formula.
Approximate values always travel together with an absolute error bound so
that printed digits are never unbacked.
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
_LOG2_10 = math.log(10, 2)


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


class Dyadic(Fraction):
    """A Fraction whose denominator is a power of two; arithmetic gives plain
    Fractions.  ``_mpf_`` is mpmath's raw form of the same number, so that
    ``mpf(x)``, mixed arithmetic and ``mpmath.nstr(x)`` read it exactly."""

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
    """The bits mpmath works at for ``dps`` decimal digits."""
    return max(1, int(round((dps + 1) * _LOG2_10)))


def _top(num: int, den: int) -> int:
    """The t with ``2**(t - 1) <= num / den < 2**t``, for positive num."""
    t = num.bit_length() - den.bit_length()
    return t + 1 if (num >= den << t if t >= 0 else num << -t >= den) else t


def rounded(x, prec: int, exp: int = 0) -> Dyadic:
    """The rational ``x * 2**exp`` rounded to nearest, ties to even, at
    ``prec`` significant bits: ``mpf(x * 2**exp)`` at that precision, and
    any mpf operation whose exact result is x."""
    if exp >= 0:
        return _round(x.numerator << exp, x.denominator, prec)
    return _round(x.numerator, x.denominator << -exp, prec)


def _round(num: int, den: int, prec: int) -> Dyadic:
    """``num / den``, den > 0, rounded as ``rounded`` rounds."""
    if not num:
        return dyadic(0, 0)
    mag = -num if num < 0 else num
    shift = prec - _top(mag, den)  # the result's mantissa has prec bits
    man, rest = divmod(mag << shift, den) if shift >= 0 else divmod(mag, den << -shift)
    if 2 * rest > den or (2 * rest == den and man & 1):
        man += 1
    man = -man if num < 0 else man
    return dyadic(man, shift) if shift >= 0 else dyadic(man << -shift, 0)


def exact(x) -> Fraction:
    """An int or Rational as it is; an mpf (anything with ``_mpf_``) or a
    finite float as the exact binary number it holds."""
    if isinstance(x, _RationalABC):
        return x
    if not hasattr(x, "_mpf_"):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError(f"not a finite number: {x!r}")
    man = -man if sign else man
    return dyadic(man << exp, 0) if exp >= 0 else dyadic(man, -exp)


def nstr(x, n: int) -> str:
    """x to ``n`` >= 1 significant digits, byte for byte as
    ``mpmath.nstr(x, n)`` prints the mpf of x.  Like mpmath it floors |x|
    to ``(n + 3) log2(10) + 10`` bits, rounds at the n-th digit by the next
    digit alone (half up: a tie rounds away from zero), prints in fixed
    notation when the leading digit's exponent is strictly between
    ``min(-(n // 3), -5)`` and n, strips trailing zeros, and shows zero as
    "0.0" and an infinity as "+inf" or "-inf"."""
    if isinstance(x, float) and math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    x = exact(x)
    if not x:
        return "0.0"
    num, den = abs(x.numerator), x.denominator
    fixprec = max(int((n + 3) * _LOG2_10) + 10 - _top(num, den), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    digits = str((num << fixprec) // den * 10**fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    if len(digits) > n and digits[n] >= "5":
        digits = str(int(digits[:n]) + 1)
        exponent += len(digits) > n  # carried to a power of ten
    digits, split = digits[:n], 1
    if min(-(n // 3), -5) < exponent < n:  # fixed notation
        digits = "0" * -exponent + digits if exponent < 0 else digits.ljust(exponent + 1, "0")
        split, exponent = max(exponent, 0) + 1, 0
    body = (digits[:split] + "." + digits[split:]).rstrip("0")
    body += "0" if body.endswith(".") else ""
    return ("-" if x < 0 else "") + body + (f"e{exponent:+d}" if exponent else "")


@dataclass(frozen=True)
class ApproxValue:
    """A high-precision decimal together with an absolute error bound.

    Both are exact rationals (a Dyadic from ``rounded``), or an mpf or
    float read at its exact binary value; the bound may be infinite.
    ``str()`` shows only digits guaranteed by the bound.
    """

    value: Fraction
    error_bound: Fraction

    def __post_init__(self):
        if self.error_bound < 0:
            raise ValueError("error bound must be >= 0")

    def guaranteed_digits(self, cap: int = 30) -> int:
        """Number of significant digits fully backed by the error bound:
        the largest d <= cap with ``10**d <= |value| / (2 bound)``, or 0.
        The ratio is rounded as mpfs at 25 digits round it, so that a bound
        of ``|value| 10**-d / 2``, itself rounded, backs d digits."""
        if self.error_bound == 0:
            return cap
        if self.value == 0 or self.error_bound == math.inf:
            return 0
        prec = dps_to_prec(25)
        value, bound = (rounded(exact(x), prec) for x in (self.value, self.error_bound))
        ratio = rounded(abs(value) / (2 * bound), prec)
        whole = ratio.numerator // ratio.denominator
        return cap if whole >= 10**cap else len(str(whole)) - 1 if whole else 0

    def formatted(self, max_digits: int = 17) -> str:
        if self.value == 0:
            # a zero has no significant digits; "0" is backed only when
            # the bound cannot move it at the last displayable place
            bound = self.error_bound
            return "0" if bound != math.inf and 2 * exact(bound) * 10**max_digits < 1 else "?"
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
        significant digits, with an honest absolute error bound.  The
        working precision grows with the size of the parts, so that their
        cancellation does not eat the requested digits.  Each step rounds
        to nearest at that precision as an mpf evaluation does, so value
        and bound are the mpf path's, bit for bit."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if self.is_zero():
            return ApproxValue(Dyadic(0), Dyadic(0))
        # parts far above 1 may cancel to a small value: carry their digits too
        work = digits + PI_GUARD_DIGITS + max(
            len(str(abs(f.numerator) // f.denominator)) for f in (self.const, self.inv_pi))
        prec = dps_to_prec(work)

        def part(f: Fraction) -> Dyadic:  # mpf(f.numerator) / f.denominator
            top = _round(f.numerator, 1, prec)
            return _round(top.numerator, top.denominator * f.denominator, prec)

        c0, c1, pi = part(self.const), part(self.inv_pi), machin_pi(prec)
        quotient = _round(c1.numerator * pi.denominator, c1.denominator * pi.numerator, prec)
        value = rounded(c0 + quotient, prec)
        # True error (rounding plus pi truncation) is a few ulps at working
        # precision; the reported bound is the requested resolution, so the
        # printed form carries exactly the digits that were asked for.
        parts = rounded(rounded(abs(c0) + abs(c1), prec) + 1, prec)
        tight = rounded(parts * ten_to_minus(work - 3, prec), prec)
        resolution = rounded(abs(value) * ten_to_minus(digits, prec), prec, -1)
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


@lru_cache(maxsize=None)
def ten_to_minus(k: int, prec: int) -> Dyadic:
    """``10**-k`` rounded at ``prec`` bits: mpmath's ``mpf(10) ** -k`` while
    ``10**k`` is exact at ``prec + 5`` bits (k < prec / 2.3), as at every use."""
    return _round(1, 10**k, prec)


# ``PiLinear.approx`` under its older name, called as ``pilinear_eval(x, digits)``
pilinear_eval = PiLinear.approx
