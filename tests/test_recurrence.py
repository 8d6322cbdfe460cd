from fractions import Fraction

import pytest

from pilerace.numeric import PiLinear
from pilerace.recurrence import LinearRecurrence
from pilerace.reference import SQUARE_SUMS_PM1, SQUARE_SUM_RECURRENCE

F = Fraction


def residuals(rec, seq, n_start=1):
    """``rec.apply`` on every window of ``seq``, whose first entry is T(n_start)."""
    return [rec.apply(seq[j : j + rec.order + 1], n_start + j)
            for j in range(len(seq) - rec.order)]


class TestVerify:
    def test_square_sum_recurrence_on_exact_values(self):
        seq = [SQUARE_SUMS_PM1[n] for n in range(1, 7)]
        found = residuals(SQUARE_SUM_RECURRENCE, seq)
        assert len(found) == 3  # n = 1, 2, 3 fit in six terms
        assert all(r.is_zero() for r in found)

    def test_componentwise_failure_detected(self):
        seq = [SQUARE_SUMS_PM1[n] for n in range(1, 7)]
        # perturb one pi-component: every window holding T(4) must now fail
        seq[3] = seq[3] + PiLinear(F(0), F(1, 10**9))
        assert [r.is_zero() for r in residuals(SQUARE_SUM_RECURRENCE, seq)] == [False] * 3

    def test_zero_candidate_fails_immediately(self):
        # 1*T(n) + 1*T(n+1) = 0 cannot hold on a positive sequence
        rec = LinearRecurrence(((F(0), F(1)), (F(0), F(1))))
        assert residuals(rec, [1, 1, 1, 1])[0] == PiLinear(F(2), F(0))

    def test_constant_sequence_difference(self):
        rec = LinearRecurrence(((F(0), F(-1)), (F(0), F(1))))  # T(n+1) - T(n) = 0
        assert all(r.is_zero() for r in residuals(rec, [F(5)] * 6))

    def test_insufficient_data_rejected(self):
        with pytest.raises(ValueError):
            SQUARE_SUM_RECURRENCE.apply([F(1), F(2)], 1)


class TestRecurrenceType:
    def test_leading_pair_must_not_vanish(self):
        with pytest.raises(ValueError):
            LinearRecurrence(((F(1), F(0)), (F(0), F(0))))
