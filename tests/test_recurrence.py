from fractions import Fraction

import pytest

from pilerace.numeric import PiLinear
from pilerace.recurrence import LinearRecurrence, verify_recurrence
from pilerace.reference import SQUARE_SUMS_PM1, SQUARE_SUM_RECURRENCE

F = Fraction


class TestVerify:
    def test_square_sum_recurrence_on_exact_values(self):
        seq = [SQUARE_SUMS_PM1[n] for n in range(1, 7)]
        res = verify_recurrence(SQUARE_SUM_RECURRENCE, seq, n_start=1)
        assert res.ok
        assert res.checked == 3  # n = 1, 2, 3 fit in six terms

    def test_componentwise_failure_detected(self):
        seq = [SQUARE_SUMS_PM1[n] for n in range(1, 7)]
        # perturb one pi-component: the recurrence must now fail
        broken = list(seq)
        broken[3] = broken[3] + PiLinear(F(0), F(1, 10**9))
        res = verify_recurrence(SQUARE_SUM_RECURRENCE, broken, n_start=1)
        assert not res.ok

    def test_zero_candidate_fails_immediately(self):
        # 1*T(n) + 1*T(n+1) = 0 cannot hold on a positive sequence
        rec = LinearRecurrence(((F(0), F(1)), (F(0), F(1))))
        res = verify_recurrence(rec, [1, 1, 1, 1], n_start=1)
        assert not res.ok and res.failed_at == 1

    def test_constant_sequence_difference(self):
        rec = LinearRecurrence(((F(0), F(-1)), (F(0), F(1))))  # T(n+1) - T(n) = 0
        assert verify_recurrence(rec, [F(5)] * 6, n_start=1).ok

    def test_insufficient_data_rejected(self):
        with pytest.raises(ValueError):
            verify_recurrence(SQUARE_SUM_RECURRENCE, [F(1), F(2)], n_start=1)


class TestRecurrenceType:
    def test_leading_pair_must_not_vanish(self):
        with pytest.raises(ValueError):
            LinearRecurrence(((F(1), F(0)), (F(0), F(0))))
