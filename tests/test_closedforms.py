from fractions import Fraction
from math import comb

import pytest
from mpmath import mp, mpf

from pilerace import closedforms, passage, reference
from pilerace.closedforms import (
    catalan_count,
    hitting_time_count,
    monotone_survival_count,
    passage_prob_m1p2,
    passage_prob_pm1,
    raney_count,
    survival_one,
    unit_step_sum,
    win_within_one,
)
from pilerace.numeric import PiLinear
from pilerace.passage import GameSpec, MoveSet, iter_passage
from pilerace.series import win_within

F = Fraction


def dp_rq(moves, n, horizon):
    """The exact DP's r_k and q_k, k = 1..horizon, read from ``iter_passage``
    itself: tables and ``win_within`` take closed forms on skip-free sets."""
    stream = iter_passage(GameSpec(MoveSet(*moves), n), horizon=horizon)
    return [(F(win, 1 << k), F(survived, 1 << k)) for k, win, survived, _ in stream]


def walk_count(steps, n, k, targets):
    """Oracle: number of length-k walks over ``steps`` staying strictly
    below n and ending in ``targets``, by direct state-space counting."""
    dist = {0: 1}
    for _ in range(k):
        new = {}
        for pos, c in dist.items():
            for s in steps:
                p = pos + s
                if p < n:
                    new[p] = new.get(p, 0) + c
        dist = new
    return sum(c for pos, c in dist.items() if pos in targets)


class TestCatalanCount:
    def test_catalan_row(self):
        # C(1, 2m) are the Catalan numbers
        assert catalan_count(1, 4) == 2
        assert [catalan_count(1, 2 * m) for m in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_base_column(self):
        assert catalan_count(1, 0) == 1
        assert catalan_count(3, 0) == 0
        assert catalan_count(0, 0) == 0

    def test_parity_zeros(self):
        for n in range(8):
            for k in range(20):
                if k >= 1 and (n - k) % 2 == 0:
                    assert catalan_count(n, k) == 0

    def test_against_walk_oracle(self):
        # frozen spot value: 3 walks of length 4 below 3 ending at 2
        # (n = 0 is a defined boundary, not a path count, so start at 1)
        assert walk_count((-1, 1), 3, 4, {2}) == 3
        assert catalan_count(3, 4) == 3
        for n in range(1, 7):
            for k in range(0, 13):
                assert catalan_count(n, k) == walk_count((-1, 1), n, k, {n - 1})

    def test_shift_recurrence(self):
        # C(n, k) = C(n-1, k+1) - C(n-2, k) for n >= 2
        for n in range(2, 13):
            for k in range(61):
                assert catalan_count(n, k) == catalan_count(n - 1, k + 1) - catalan_count(n - 2, k)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            catalan_count(-1, 2)
        with pytest.raises(ValueError):
            catalan_count(2, -1)


class TestRaneyCount:
    def test_base_row_closed_forms(self):
        assert raney_count(1, 3) == 1
        assert raney_count(1, 4) == 2
        for m in range(21):
            assert raney_count(1, 3 * m) == comb(3 * m, m) // (2 * m + 1)
            assert raney_count(1, 3 * m + 1) == comb(3 * m + 1, m + 1) // (2 * m + 1)
            assert raney_count(1, 3 * m + 2) == 0

    def test_three_raney_prefix(self):
        # A001764 and A006013 prefixes
        assert [raney_count(1, 3 * m) for m in range(6)] == [1, 1, 3, 12, 55, 273]
        assert [raney_count(1, 3 * m + 1) for m in range(6)] == [1, 2, 7, 30, 143, 728]

    def test_zero_rows(self):
        for k in range(10):
            assert raney_count(-1, k) == 0
            assert raney_count(0, k) == 0

    def test_against_walk_oracle(self):
        assert walk_count((-1, 2), 2, 2, {0, 1}) == 1
        assert raney_count(2, 2) == 1
        for n in range(1, 6):
            for k in range(0, 13):
                assert raney_count(n, k) == walk_count((-1, 2), n, k, {n - 1, n - 2})

    def test_recurrence(self):
        for n in range(2, 8):
            for k in range(40):
                assert raney_count(n, k) == raney_count(n - 1, k + 1) - raney_count(n - 3, k)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            raney_count(-2, 0)
        with pytest.raises(ValueError):
            raney_count(1, -1)


class TestPassageEquivalence:
    def test_unit_step_counts_equal_dp(self):
        for n in range(1, 10):
            for k, (r, _) in enumerate(dp_rq((-1, 1), n, 400), 1):
                assert passage_prob_pm1(n, k) == r

    def test_minus12_counts_equal_dp(self):
        for n in range(1, 8):
            for k, (r, _) in enumerate(dp_rq((-1, 2), n, 400), 1):
                assert passage_prob_m1p2(n, k) == r


class TestClassicalLaws:
    @pytest.mark.parametrize("a", [-3, -2, -1, 0])
    def test_hitting_time_equals_walk_count(self, a):
        # a skip-free walk first reaches n by an up-move from n - 1
        for n in range(1, 5):
            for k in range(1, 16):
                assert hitting_time_count(a, n, k) == walk_count((a, 1), n, k - 1, {n - 1})

    @pytest.mark.parametrize("a, b", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 5)])
    def test_monotone_survival_equals_walk_count(self, a, b):
        for n in range(1, 7):
            for k in range(0, 16):
                assert monotone_survival_count(a, b, n, k) == walk_count((a, b), n, k, range(n))


class TestSurvivalOne:
    def test_values(self):
        assert survival_one(0) == 1
        assert survival_one(2) == F(1, 2)
        assert survival_one(4) == F(3, 8)

    def test_flat_pairs(self):
        for m in range(1, 30):
            assert survival_one(2 * m) == survival_one(2 * m - 1)

    def test_equals_dp(self):
        assert survival_one(0) == 1
        for k, (_, q) in enumerate(dp_rq((-1, 1), 1, 200), 1):
            assert survival_one(k) == q


class TestWinWithinOne:
    def test_first_values(self):
        assert win_within_one(1) == F(1, 4)
        assert win_within_one(2) == F(1, 4)

    def test_equals_exact_partial_sums(self):
        spec = GameSpec(MoveSet(-1, 1), 1)
        total = F(0)
        for k, (r, q) in enumerate(dp_rq((-1, 1), 1, 200), 1):
            total += r * q
            assert win_within_one(k) == total == win_within(spec, k)

    def test_limit_approaches_win_probability(self):
        # 1 - 2/pi ~ 0.36338
        val = float(win_within_one(4000))
        assert 0.3625 < val < 0.36338022763242

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            win_within_one(0)


class TestUnitStepSum:
    """The telescoped exact sums on {-1,1}: T(n) = sum r(n, k)**2 and
    p(n1, n2) = sum q(n1, k) r(n2, k)."""

    def test_pinned_forms_without_the_reference(self, monkeypatch):
        cells = dict(reference.TARGET_TABLE_PM1)
        squares = dict(reference.SQUARE_SUMS_PM1)
        monkeypatch.setattr(reference, "TARGET_TABLE_PM1", {})
        monkeypatch.setattr(reference, "SQUARE_SUMS_PM1", {})
        assert "reference" not in vars(closedforms)
        assert {cell: unit_step_sum(cell[1], cell[0]) for cell in cells} == cells
        assert {n: unit_step_sum(n) for n in squares} == squares

    def test_recurrence_holds_exactly_through_forty(self):
        t = [unit_step_sum(n) for n in range(1, 41)]
        assert all(reference.recurrence_residual(t[n - 1 : n + 3], n).is_zero()
                   for n in range(1, 38))

    def test_square_sums_fall_with_the_target(self):
        values = [unit_step_sum(n).approx(30).value for n in range(1, 41)]
        assert all(0 < b < a < 1 for a, b in zip(values, values[1:]))

    def test_mixed_parity_pairs_sum_to_one(self):
        # no tie is possible, and the race almost surely ends; the ranges
        # reach (16, 15) and (25, 24), where the integer core's numbers are largest
        for n1 in range(1, 26):
            for n2 in range(n1 + 1, 26, 2):
                assert unit_step_sum(n2, n1) + unit_step_sum(n1, n2) == PiLinear.of(1), (n1, n2)

    def test_equal_targets_are_half_the_square_sum_complement(self):
        for n in range(1, 26):
            assert unit_step_sum(n, n) == (PiLinear.of(1) - unit_step_sum(n)) * F(1, 2), n

    @pytest.mark.parametrize("n1, n2", [(7, 12), (10, 3), (9, 9), (3, 20)])
    def test_between_exact_partial_sums(self, n1, n2):
        # 0 <= p - sum_{k <= K} q1 r2 <= q1(K) sum_{k > K} r2 <= q1(K) q2(K)
        K = 10_000
        walks = zip(*(passage._exact_stream(GameSpec(MoveSet(-1, 1), n)) for n in (n1, n2)))
        total = 0
        for (k, _, q1, _), (_, r2, q2, _) in walks:
            total = 4 * total + q1 * r2
            if k == K:
                break
        value = unit_step_sum(n2, n1).approx(30)
        with mp.workdps(60):
            low, slack = mpf(total) / 4**K, mpf(q1 * q2) / 4**K
            assert low - value.error_bound <= value.value <= low + slack + value.error_bound

    def test_rejects_targets_below_one(self):
        with pytest.raises(ValueError):
            unit_step_sum(0)
        with pytest.raises(ValueError):
            unit_step_sum(2, 0)
