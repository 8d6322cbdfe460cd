import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from pilerace import reference
from pilerace.numeric import (
    PI_GUARD_DIGITS,
    ApproxValue,
    Dyadic,
    PiLinear,
    as_fraction,
    exact,
    machin_pi,
    nstr,
    pilinear_eval,
    rational_str,
    rounded,
)
from pilerace.passage import MoveSet
from pilerace.series import TailPolicy, square_sum_value


class TestRationalRoundTrip:
    def test_serialize(self):
        assert rational_str(Fraction(3, 16)) == "3/16"
        assert rational_str(Fraction(5)) == "5/1"
        assert rational_str(Fraction(-1, 2)) == "-1/2"

    def test_exactness_round_trips(self):
        # (p+q)-q = p and (p*q)/q = p for random rationals
        rng = random.Random(7)
        for _ in range(300):
            p = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
            q = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
            assert (p + q) - q == p
            if q != 0:
                assert (p * q) / q == p

    def test_canonical_form_is_stable(self):
        x = Fraction(6, 32)
        assert Fraction(x.numerator, x.denominator) == x
        assert x.denominator > 0

    def test_as_fraction_rejects_floats(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)


class TestPiLinear:
    def test_paper_constant_four_over_pi_minus_one(self):
        val = pilinear_eval(PiLinear(Fraction(-1), Fraction(4)), 10)
        assert str(val) == "0.2732395447"

    def test_zero(self):
        val = pilinear_eval(PiLinear(Fraction(0), Fraction(0)), 5)
        assert val.value == 0
        assert val.error_bound == 0
        assert str(val) == "0"

    def test_sixteen_over_pi_minus_five(self):
        # high-precision oracle: evaluate with mpmath at 60 digits
        with mp.workdps(60):
            oracle = 16 / mp.pi - 5
        val = pilinear_eval(PiLinear(Fraction(-5), Fraction(16)), 10)
        assert abs(val.value - oracle) <= val.error_bound
        assert str(val).startswith("0.0929581789")

    def test_error_bound_contract(self):
        val = pilinear_eval(PiLinear(Fraction(-1), Fraction(4)), 10)
        assert val.error_bound < mpf(10) ** (1 - 10) * abs(val.value)

    def test_arithmetic_is_componentwise(self):
        x = PiLinear(Fraction(1, 3), Fraction(2))
        y = PiLinear(Fraction(-1), Fraction(5, 7))
        assert x + y == PiLinear(Fraction(-2, 3), Fraction(19, 7))
        assert x - y == PiLinear(Fraction(4, 3), Fraction(9, 7))
        assert x * Fraction(3, 2) == PiLinear(Fraction(1, 2), Fraction(3))

    def test_product_of_pilinear_rejected(self):
        x = PiLinear(Fraction(1), Fraction(1))
        with pytest.raises(TypeError):
            x * x

    def test_arithmetic_commutes_with_eval(self):
        rng = random.Random(11)
        for _ in range(30):
            x = PiLinear(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                         Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
            y = PiLinear(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                         Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
            both = pilinear_eval(x + y, 20)
            apart_x = pilinear_eval(x, 20)
            apart_y = pilinear_eval(y, 20)
            with mp.workdps(40):
                err = both.error_bound + apart_x.error_bound + apart_y.error_bound
                assert abs(both.value - (apart_x.value + apart_y.value)) <= err

    def test_str_forms(self):
        assert str(PiLinear(Fraction(161), Fraction(-504))) == "161 - 504/pi"
        assert str(PiLinear(Fraction(-1), Fraction(4))) == "-1 + 4/pi"
        assert str(PiLinear(Fraction(0), Fraction(8, 3))) == "(8/3)/pi"
        assert str(PiLinear(Fraction(1), Fraction(-8, 3))) == "1 - (8/3)/pi"
        assert str(PiLinear(Fraction(0), Fraction(0))) == "0"

    def test_large_parts_back_every_requested_digit(self):
        # parts near 1e72 cancel to a value below 1, as the exact T(100) does
        inv_pi = Fraction(10**72)
        with mp.workdps(200):
            const = -Fraction(int(mp.nint(10**72 / mp.pi)))
            oracle = mpf(10**72) / mp.pi + int(const)
        val = pilinear_eval(PiLinear(const, inv_pi), 20)
        assert abs(oracle) < 1
        assert val.guaranteed_digits() >= 20
        with mp.workdps(200):
            assert abs(val.value - oracle) <= val.error_bound

    def test_rejects_digits_below_one(self):
        with pytest.raises(ValueError):
            pilinear_eval(PiLinear(Fraction(1), Fraction(0)), 0)


class TestApproxValue:
    def test_printed_digits_are_guaranteed(self):
        val = ApproxValue(mpf("0.123456789"), mpf("1e-5"))
        shown = val.formatted()
        # between 3 and 5 significant digits are defensible for this bound;
        # what matters is that the true value sits within half an ulp of
        # the displayed string's last place
        assert shown in ("0.123", "0.1235", "0.12346")
        half_ulp = mpf(10) ** (-len(shown.split(".")[1])) / 2
        assert abs(mpf(shown) - val.value) <= half_ulp + val.error_bound

    def test_unresolved_value_prints_no_digits(self):
        assert ApproxValue(mpf("0.5"), mpf("inf")).formatted() == "?"

    def test_zero_prints_only_when_backed(self):
        assert ApproxValue(mpf(0), mpf(0)).formatted() == "0"
        assert ApproxValue(mpf(0), mpf("2e-35")).formatted() == "0"
        assert ApproxValue(mpf(0), mpf("1e-9")).formatted() == "?"
        assert ApproxValue(mpf(0), mpf("inf")).formatted() == "?"
        # r(100, k) = 0 for every k <= 16, so the sum is in [0, q_16**2 = 1]
        res = square_sum_value(MoveSet(-1, 2), 100, TailPolicy(max_k=16))
        assert res.tail_estimate >= mpf(1) / 2 and res.verdict == "inconclusive"
        assert res.formatted() == "?"

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            ApproxValue(mpf(1), mpf(-1))


# m * 2**e with a mantissa of up to 200 bits, either sign
dyadics = st.builds(lambda m, e: rounded(m, 200, e),
                    st.integers(-(2**200), 2**200), st.integers(-1200, 1200))


def _tie(n_digits: int, exp10: int, odd: int) -> Dyadic:
    """A dyadic exactly halfway between two n-digit decimals: (N + 1/2)
    10**exp10, where 2N + 1 is ``odd`` scaled to n + 1 digits and, for
    exp10 < 0, a multiple of 5**-exp10 so that the value is dyadic."""
    step = 5 ** max(-exp10, 0)
    m = odd * step
    m += (10**n_digits * 2 - m) // (2 * step) * 2 * step if m < 10**n_digits else 0
    x = Fraction(m, 2) * Fraction(10) ** exp10
    assert x.denominator & (x.denominator - 1) == 0
    return Dyadic(x)


class TestNstr:
    """``nstr`` prints what ``mpmath.nstr`` prints for the same number."""

    @given(x=dyadics, n=st.integers(1, 60))
    def test_equals_mpmath_on_random_dyadics(self, x, n):
        with mp.workdps(80):
            assert nstr(x, n) == mp.nstr(mpf(x), n)

    @given(n=st.integers(1, 12), exp10=st.integers(-12, 6), odd=st.integers(0, 10**6))
    def test_ties_round_as_mpmath_does(self, n, exp10, odd):
        x = _tie(n, exp10, 2 * odd + 1)
        with mp.workdps(200):
            assert nstr(x, n) == mp.nstr(mpf(x), n)
            assert nstr(-x, n) == mp.nstr(-mpf(x), n)

    @pytest.mark.parametrize("x, n, shown", [
        (Fraction(1, 8), 2, "0.13"),  # a tie rounds away from zero
        (Fraction(-1, 8), 2, "-0.13"),
        (Fraction(5, 2), 1, "3.0"),
        (Fraction(199, 2), 2, "1.0e+2"),  # a tie that carries to a power of ten
        (Fraction(19999, 2), 4, "1.0e+4"),
        (Fraction(1999, 2), 3, "1.0e+3"),
        (Fraction(2**20 - 1, 2**20), 5, "1.0"),  # a carry in fixed notation
        (Fraction(2**20 - 1, 2**10), 6, "1024.0"),
        (Fraction(0), 5, "0.0"),
        (float.fromhex("0x1.3ffbe76c8b439p+3"), 4, "9.999"),  # the double nearest 9.9995
        (float("inf"), 6, "+inf"),
        (float("-inf"), 6, "-inf"),
    ])
    def test_pinned_cases(self, x, n, shown):
        assert nstr(x, n) == shown
        with mp.workdps(80):
            assert mp.nstr(mpf(x) if isinstance(x, float) else mpf(x.numerator) / x.denominator,
                           n) == shown

    @pytest.mark.parametrize("n", range(1, 61))
    def test_every_notation_switch(self, n):
        # the leading digit's exponent at and beside both fixed-notation
        # limits, min(-(n // 3), -5) and n, and at 10**k exactly
        low = min(-(n // 3), -5)
        for k in (low - 1, low, low + 1, n - 1, n, n + 1):
            for x in (Fraction(10) ** k, Fraction(10) ** k * Fraction(2**60 - 1, 2**60),
                      Fraction(10) ** k * 7 / 3):
                d = rounded(x, 300)
                with mp.workdps(120):
                    assert nstr(d, n) == mp.nstr(mpf(d), n), (k, x)

    @given(x=dyadics, n=st.integers(1, 60))
    def test_mpf_input_is_read_exactly(self, x, n):
        with mp.workdps(80):
            y = mpf(x)
        assert exact(y) == x
        assert nstr(y, n) == nstr(x, n)


class TestDyadic:
    @given(x=dyadics)
    def test_mpf_round_trip(self, x):
        with mp.workdps(80):
            y = mpf(x)
            assert y == x and x == y
            assert mp.nstr(x, 30) == mp.nstr(y, 30)
            assert y - x == 0 and x + y == 2 * y

    @given(x=st.fractions(), prec=st.integers(1, 300))
    def test_rounded_is_mpf_rounding(self, x, prec):
        with mp.workprec(prec):
            y = mpf(x.numerator) / x.denominator if abs(x.numerator).bit_length() <= prec else None
        if y is not None:  # one rounding: the numerator is exact at prec
            assert rounded(x, prec) == exact(y)

    def test_rounding_is_to_nearest_even(self):
        assert rounded(Fraction(5, 2), 2) == 2  # 10.1 in binary: a tie, kept even
        assert rounded(Fraction(7, 2), 2) == 4
        assert rounded(-Fraction(5, 2), 2) == -2
        assert rounded(Fraction(11, 4), 2) == 3


def _old_guaranteed_digits(value, bound, cap):
    """The mpf formula ``guaranteed_digits`` replaced: the ratio at 25
    digits and the floor of its log10."""
    if bound == 0:
        return cap
    if value == 0:
        return 0
    with mp.workdps(25):
        ratio = abs(mpf(value)) / (2 * mpf(bound))
        if ratio <= 1:
            return 0
        return min(cap, int(mp.floor(mp.log10(ratio))))


@given(value=dyadics, bound=dyadics, cap=st.integers(1, 60))
def test_guaranteed_digits_equals_the_mpf_formula(value, bound, cap):
    bound = Dyadic(abs(bound))
    assert ApproxValue(value, bound).guaranteed_digits(cap) == _old_guaranteed_digits(
        value, bound, cap)


def test_machin_pi_equals_mpmath_pi_to_2000_bits():
    for prec in range(2, 2001):
        with mp.workprec(prec):
            assert machin_pi(prec) == exact(+mp.pi), prec


def _mpf_pilinear_eval(x: PiLinear, digits: int):
    """``pilinear_eval`` as it was computed in mpf arithmetic."""
    work = digits + PI_GUARD_DIGITS + max(
        len(str(abs(f.numerator) // f.denominator)) for f in (x.const, x.inv_pi))
    with mp.workdps(work):
        c0 = mpf(x.const.numerator) / x.const.denominator
        c1 = mpf(x.inv_pi.numerator) / x.inv_pi.denominator
        value = c0 + c1 / mp.pi
        tight = (abs(c0) + abs(c1) + 1) * mpf(10) ** (-(work - 3))
        bound = max(tight, abs(value) * mpf(10) ** (-digits) / 2)
    return exact(value), exact(bound)


@pytest.mark.parametrize("digits", [1, 10, 17, 20, 30, 40, 60])
def test_pilinear_eval_equals_the_mpf_path(digits):
    forms = [*reference.TARGET_TABLE_PM1.values(), *reference.SQUARE_SUMS_PM1.values()]
    for form in forms:
        approx = pilinear_eval(form, digits)
        assert (approx.value, approx.error_bound) == _mpf_pilinear_eval(form, digits), form
