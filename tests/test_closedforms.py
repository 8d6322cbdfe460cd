from fractions import Fraction
from math import comb

import pytest

from pilerace.closedforms import (
    catalan_count,
    hitting_time_count,
    monotone_survival_count,
    passage_prob_m1p2,
    passage_prob_pm1,
    raney_count,
    survival_one,
    win_within_one,
)
from pilerace.passage import GameSpec, MoveSet, build_passage_table
from pilerace.series import win_within

F = Fraction


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
            table = build_passage_table(GameSpec(MoveSet(-1, 1), n), 400)
            for k in range(1, 401):
                assert passage_prob_pm1(n, k) == table.r[k]

    def test_minus12_counts_equal_dp(self):
        for n in range(1, 8):
            table = build_passage_table(GameSpec(MoveSet(-1, 2), n), 400)
            for k in range(1, 401):
                assert passage_prob_m1p2(n, k) == table.r[k]


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
        table = build_passage_table(GameSpec(MoveSet(-1, 1), 1), 200)
        for k in range(201):
            assert survival_one(k) == table.q[k]


class TestWinWithinOne:
    def test_first_values(self):
        assert win_within_one(1) == F(1, 4)
        assert win_within_one(2) == F(1, 4)

    def test_equals_exact_partial_sums(self):
        spec = GameSpec(MoveSet(-1, 1), 1)
        for k in range(1, 201):
            assert win_within_one(k) == win_within(spec, k)

    def test_limit_approaches_win_probability(self):
        # 1 - 2/pi ~ 0.36338
        val = float(win_within_one(4000))
        assert 0.3625 < val < 0.36338022763242

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            win_within_one(0)
