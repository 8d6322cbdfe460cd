from fractions import Fraction

import pytest

from pilerace.numeric import PiLinear
from pilerace.reference import SQUARE_SUMS_PM1, recurrence_residual

F = Fraction


def residuals(seq, n_start=1):
    """``recurrence_residual`` on every window of ``seq``, whose first entry is T(n_start)."""
    return [recurrence_residual(seq[j : j + 4], n_start + j) for j in range(len(seq) - 3)]


class TestVerify:
    def test_square_sum_recurrence_on_exact_values(self):
        seq = [SQUARE_SUMS_PM1[n] for n in range(1, 7)]
        found = residuals(seq)
        assert len(found) == 3  # n = 1, 2, 3 fit in six terms
        assert all(r.is_zero() for r in found)

    def test_componentwise_failure_detected(self):
        seq = [SQUARE_SUMS_PM1[n] for n in range(1, 7)]
        # perturb one pi-component: every window holding T(4) must now fail
        seq[3] = seq[3] + PiLinear(F(0), F(1, 10**9))
        assert [r.is_zero() for r in residuals(seq)] == [False] * 3

    def test_insufficient_data_rejected(self):
        with pytest.raises(ValueError):
            recurrence_residual([F(1), F(2)], 1)

    def test_rational_window(self):
        # every coefficient at once: (-1 + 7 - 7 + 1) n + (0 + 5 - 16 + 3) = -8
        assert recurrence_residual([1, 1, 1, 1], 5) == PiLinear.of(-8)
