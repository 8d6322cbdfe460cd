import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from pilerace.numeric import (
    ApproxValue,
    PiLinear,
    as_fraction,
    pilinear_eval,
    rational_pow2_scale,
    rational_str,
)


class TestPow2Scale:
    def test_one_move_one_path(self):
        assert rational_pow2_scale(1, 1) == Fraction(1, 2)

    def test_reduces(self):
        assert rational_pow2_scale(2, 4) == Fraction(1, 8)

    def test_reduction_matches_gcd_oracle(self):
        # independent route: reduce 6/32 by the gcd directly
        import math

        g = math.gcd(6, 32)
        assert rational_pow2_scale(6, 5) == Fraction(6 // g, 32 // g) == Fraction(3, 16)

    def test_negative_numerator(self):
        assert rational_pow2_scale(-6, 5) == Fraction(-3, 16)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            rational_pow2_scale(1, -1)


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

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            ApproxValue(mpf(1), mpf(-1))
