import math
import random
from decimal import ROUND_HALF_UP, Context, Decimal, Inexact
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from pilerace import numeric, reference
from pilerace.numeric import (
    PI_GUARD_DIGITS,
    ApproxValue,
    Dyadic,
    PiLinear,
    as_fraction,
    dps_to_prec,
    dyadic,
    floor_log10,
    machin_pi,
    nstr,
    pilinear_eval,
    rational_str,
    rounded,
)
from pilerace.passage import MoveSet
from pilerace.series import SeriesResult, TailPolicy, square_sum_value


def _read(y) -> Fraction:
    """The exact binary value of a finite mpf."""
    sign, man, exp, _ = y._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


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

    def test_as_fraction_rejects_bools(self):
        # bool is an int, hence a Rational, but True is no probability
        with pytest.raises(TypeError, match="bool is not a rational value"):
            as_fraction(True)


class TestPiLinear:
    def test_paper_constant_four_over_pi_minus_one(self):
        val = PiLinear(Fraction(-1), Fraction(4)).approx(10)
        assert str(val) == "0.2732395447"

    def test_zero(self):
        val = PiLinear(Fraction(0), Fraction(0)).approx(5)
        assert val.value == 0
        assert val.error_bound == 0
        assert str(val) == "0"

    def test_sixteen_over_pi_minus_five(self):
        # high-precision oracle: evaluate with mpmath at 60 digits
        with mp.workdps(60):
            oracle = 16 / mp.pi - 5
        val = PiLinear(Fraction(-5), Fraction(16)).approx(10)
        assert abs(val.value - oracle) <= val.error_bound
        assert str(val).startswith("0.0929581789")

    def test_error_bound_contract(self):
        val = PiLinear(Fraction(-1), Fraction(4)).approx(10)
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
            both = (x + y).approx(20)
            apart_x = x.approx(20)
            apart_y = y.approx(20)
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
        val = PiLinear(const, inv_pi).approx(20)
        assert abs(oracle) < 1
        assert val.guaranteed_digits() >= 20
        with mp.workdps(200):
            assert abs(val.value - oracle) <= val.error_bound

    def test_rejects_digits_below_one(self):
        with pytest.raises(ValueError):
            PiLinear(Fraction(1), Fraction(0)).approx(0)


class TestApproxValue:
    def test_printed_digits_are_guaranteed(self):
        val = ApproxValue(Fraction("0.123456789"), Fraction("1e-5"))
        shown = val.formatted()
        # between 3 and 5 significant digits are defensible for this bound;
        # what matters is that the true value sits within half an ulp of
        # the displayed string's last place
        assert shown in ("0.123", "0.1235", "0.12346")
        half_ulp = Fraction(1, 10 ** len(shown.split(".")[1])) / 2
        assert abs(Fraction(shown) - val.value) <= half_ulp + val.error_bound

    def test_unresolved_value_prints_no_digits(self):
        assert ApproxValue(Fraction(1, 2), math.inf).formatted() == "?"

    def test_zero_prints_only_when_backed(self):
        assert ApproxValue(Fraction(0), Fraction(0)).formatted() == "0"
        assert ApproxValue(Fraction(0), Fraction("2e-35")).formatted() == "0"
        assert ApproxValue(Fraction(0), Fraction("1e-9")).formatted() == "?"
        assert ApproxValue(Fraction(0), math.inf).formatted() == "?"
        # "0" needs 2 bound < 10**-max_digits, strictly
        for max_digits in (5, 17, 5000):
            edge = 2 * 10**max_digits
            assert ApproxValue(Fraction(0), Fraction(1, edge)).formatted(max_digits) == "?"
            assert ApproxValue(Fraction(0), Fraction(1, edge + 1)).formatted(max_digits) == "0"
        # r(100, k) = 0 for every k <= 16, so the sum is in [0, q_16**2 = 1]
        res = square_sum_value(MoveSet(-1, 2), 100, TailPolicy(max_k=16))
        assert res.tail_estimate >= Fraction(1, 2) and res.verdict == "inconclusive"
        assert res.formatted() == "?"

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            ApproxValue(Fraction(1), Fraction(-1))


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


def _reference_nstr(x: Fraction, n: int) -> str:
    """x rounded half up at n significant digits by ``decimal``, after a
    division that is exact on these dyadics, in the notation that
    ``mpmath.nstr`` gives that n-digit decimal."""
    exact_value = Context(prec=2000, traps=[Inexact]).divide(Decimal(x.numerator), x.denominator)
    shown = Context(prec=n, rounding=ROUND_HALF_UP).plus(exact_value)
    with mp.workdps(n + 20):
        return mp.nstr(mpf(str(shown)), n)


class TestNstr:
    """``nstr`` rounds the exact value once, a tie away from zero, and
    prints it in the notation of ``mpmath.nstr``."""

    @given(x=dyadics, n=st.integers(1, 60))
    def test_equals_the_decimal_reference_on_random_dyadics(self, x, n):
        assert nstr(x, n) == _reference_nstr(x, n)

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

    @pytest.mark.parametrize("x, n, shown", [
        (0.15 + 2**-40, 1, "0.2"),  # just above a tie, where mpmath prints 0.1
        (Fraction("0.123456785") + Fraction(1, 2**70), 8, "0.12345679"),
        # 10**-19 (1 - 2**-60) is ...0859375000...0547e-20 exactly
        (rounded(Fraction(1, 10**19) * Fraction(2**60 - 1, 2**60), 300), 59,
         "9.9999999999999999913263826201159645279403775930404663085938e-20"),
    ])
    def test_rounds_the_exact_value_next_to_a_tie(self, x, n, shown):
        assert nstr(x, n) == shown
        assert nstr(-x, n) == "-" + shown

    @pytest.mark.parametrize("n", range(1, 61))
    def test_every_notation_switch(self, n):
        # the leading digit's exponent at and beside both fixed-notation
        # limits, min(-(n // 3), -5) and n, and at 10**k exactly
        low = min(-(n // 3), -5)
        for k in (low - 1, low, low + 1, n - 1, n, n + 1):
            for x in (Fraction(10) ** k, Fraction(10) ** k * Fraction(2**60 - 1, 2**60),
                      Fraction(10) ** k * 7 / 3):
                d = rounded(x, 300)
                assert nstr(d, n) == _reference_nstr(d, n), (k, x)


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
            assert rounded(x, prec) == _read(y)

    @given(num=st.integers(-(2**300), 2**300), k=st.integers(0, 600))
    @example(num=0, k=0)
    @example(num=0, k=600)
    @example(num=3 << 40, k=7)  # more trailing zeros than k: an integer
    @example(num=-(5 << 9), k=9)  # exactly k trailing zeros
    @example(num=-(2**300), k=600)
    def test_dyadic_is_the_reduced_fraction(self, num, k):
        # a value not in lowest terms would break Fraction's == and hash
        x, ref = dyadic(num, k), Fraction(num, 1 << k)
        assert type(x) is Dyadic
        assert (x.numerator, x.denominator, hash(x)) == (ref.numerator, ref.denominator, hash(ref))
        assert x == ref and ref == x

    def test_rounding_is_to_nearest_even(self):
        assert rounded(Fraction(5, 2), 2) == 2  # 10.1 in binary: a tie, kept even
        assert rounded(Fraction(7, 2), 2) == 4
        assert rounded(-Fraction(5, 2), 2) == -2
        assert rounded(Fraction(11, 4), 2) == 3


floats = st.floats(allow_nan=False, allow_infinity=False)


@given(value=st.one_of(dyadics, floats), bound=st.one_of(dyadics, floats),
       cap=st.integers(1, 60))
@example(value=Fraction(3), bound=Fraction(1, 20), cap=5)  # 10 * 2 * bound == |value|
@example(value=Fraction(-3), bound=Fraction(3, 20), cap=5)  # 2 * bound < |value| < 20 * bound
def test_guaranteed_digits_is_the_exact_definition(value, bound, cap):
    # the largest d <= cap with 10**d 2 bound <= |value|, or 0
    bound = abs(bound)
    backed = [d for d in range(cap + 1) if 10**d * 2 * Fraction(bound) <= abs(Fraction(value))]
    assert ApproxValue(value, bound).guaranteed_digits(cap) == max(backed, default=0)


def _floor_log10_reference(x: Fraction) -> int:
    """The largest e with ``10**e <= x``, bisected on exact comparisons."""
    lo, hi = -x.denominator.bit_length(), x.numerator.bit_length()  # 10**lo <= x < 10**hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if x >= Fraction(10) ** mid else (lo, mid)
    return lo


class _HexFraction(Fraction):
    """A Fraction that prints its parts in hex, which has no length limit,
    so that hypothesis can show a failing example past 4,300 digits."""

    def __repr__(self):
        return f"Fraction({self.numerator:#x}, {self.denominator:#x})"


# 10**k and 10**k +- 1, their reciprocals and both over a power of ten
near_powers_of_ten = st.builds(
    lambda k, d, j, flip: _HexFraction(*((10**k + d, 10**j) if not flip else (10**j, 10**k + d))),
    st.integers(1, 5000), st.sampled_from([-1, 0, 1]), st.integers(0, 5000), st.booleans())
# 2**t and 2**t +- 1 over a power of two, and the reciprocals
near_powers_of_two = st.builds(
    lambda t, d, s, flip: _HexFraction(*((2**t + d, 2**s) if not flip else (2**s, 2**t + d))),
    st.integers(1, 17000), st.sampled_from([-1, 0, 1]), st.integers(0, 17000), st.booleans())
# parts of up to 6,000 digits, past the 4,300 digits an int may print,
# drawn as bytes, which hypothesis can show
big_parts = st.builds(lambda b: int.from_bytes(b, "big") + 1, st.binary(max_size=2500))
big_fractions = st.builds(_HexFraction, big_parts, big_parts)


def _check_floor_log10(x: Fraction):
    assert floor_log10(x.numerator, x.denominator) == _floor_log10_reference(x)
    # the parts need not be in lowest terms
    assert floor_log10(3 * x.numerator, 3 * x.denominator) == _floor_log10_reference(x)


@given(x=st.one_of(near_powers_of_ten, near_powers_of_two, big_fractions))
def test_floor_log10_is_exact(x):
    _check_floor_log10(x)


# pytest's ids, not hypothesis' examples: a 5,000-digit int cannot be printed
@pytest.mark.parametrize("x", [
    Fraction(10**5000), Fraction(10**5000 - 1), Fraction(1, 10**5000 + 1), Fraction(1),
    Fraction(9, 10), Fraction(2**20000 - 1, 3**9000)])
def test_floor_log10_pinned_cases(x):
    _check_floor_log10(x)


def _guaranteed_digits_by_integer_part(value, bound, cap: int) -> int:
    if bound == 0:
        return cap
    if value == 0 or bound == math.inf:
        return 0
    whole = int(abs(Fraction(value)) / (2 * Fraction(bound)))
    return cap if whole >= 10**cap else len(str(whole)) - 1 if whole else 0


@pytest.mark.parametrize("cap", range(1, 41))
@given(value=st.one_of(dyadics, floats), bound=st.one_of(dyadics, floats, st.just(math.inf)))
@settings(max_examples=25)
def test_guaranteed_digits_keeps_the_integer_part_count(cap, value, bound):
    bound = abs(bound)
    assert (ApproxValue(value, bound).guaranteed_digits(cap)
            == _guaranteed_digits_by_integer_part(value, bound, cap))


@given(value=dyadics, tail=st.one_of(dyadics, st.just(math.inf)), error=dyadics,
       work_dps=st.integers(1, 60))
def test_value_digits_keep_the_integer_part_count(value, tail, error, work_dps):
    res = SeriesResult(value=value, tail_estimate=abs(tail), eval_error=abs(error), method="test",
                       work_dps=work_dps)
    bound = res.error_bound()
    if not bound or not value:
        expected = work_dps
    elif bound == math.inf:
        expected = 1
    else:
        ratio = 50 * abs(value) / bound
        expected = max(1, min(work_dps, len(str(ratio.numerator // ratio.denominator))))
    assert res._value_digits() == expected


# rationals of up to 300 digits either side of the point, and powers of ten
parts = st.one_of(
    st.builds(Fraction, st.integers(-(10**300), 10**300), st.integers(1, 10**300)),
    st.builds(lambda k, d: Fraction(10**k + d), st.integers(0, 300), st.sampled_from([-1, 0, 1])),
    st.just(Fraction(0)))


@given(const=parts, inv_pi=parts, digits=st.integers(1, 40))
def test_pilinear_working_digits_count_the_integer_parts(const, inv_pi, digits):
    form = PiLinear(const, inv_pi)
    assume(not form.is_zero())
    with mock.patch.object(numeric, "dps_to_prec", wraps=numeric.dps_to_prec) as spy:
        form.approx(digits)
    work = digits + PI_GUARD_DIGITS + max(
        len(str(abs(f.numerator) // f.denominator)) for f in (const, inv_pi))
    assert spy.call_args.args == (work,)


def test_pilinear_approx_reads_parts_past_the_int_print_limit():
    # the integer part has 5,001 digits, past the 4,300 an int may print
    assert PiLinear(Fraction(10**5000 + 1), Fraction(-1)).approx(10).formatted() == "1.0e+5000"


def test_machin_pi_equals_mpmath_pi_to_2000_bits():
    for prec in range(2, 2001):
        with mp.workprec(prec):
            assert machin_pi(prec) == _read(+mp.pi), prec


FORMS = [*reference.TARGET_TABLE_PM1.values(), *reference.SQUARE_SUMS_PM1.values()]


def test_pilinear_eval_is_the_approx_method():
    # the older function name stays importable; the oracle builder calls it
    assert pilinear_eval is PiLinear.approx
    form = reference.TARGET_TABLE_PM1[(2, 3)]
    assert pilinear_eval(form, 25) == form.approx(25)


@pytest.mark.parametrize("digits", [1, 10, 17, 20, 30, 40, 60])
def test_pilinear_eval_error_is_within_the_bound(digits):
    for form in FORMS:
        approx = form.approx(digits)
        work = digits + PI_GUARD_DIGITS + max(
            len(str(abs(f.numerator) // f.denominator)) for f in (form.const, form.inv_pi))
        prec = 2 * dps_to_prec(work)  # twice approx's precision
        truth = form.const + form.inv_pi / machin_pi(prec)  # within |inv_pi| 2**-prec
        assert abs(approx.value - truth) + abs(form.inv_pi) / 2**prec <= approx.error_bound, form
        assert type(approx.value) is type(approx.error_bound) is Dyadic


def test_pilinear_eval_backs_exactly_the_digits_asked_for():
    for digits in range(1, 61):
        for form in FORMS:
            assert form.approx(digits).guaranteed_digits(61) == digits, (form, digits)
