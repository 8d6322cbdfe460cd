import io
from fractions import Fraction

import pytest

from pilerace.passage import (
    GameSpec,
    MoveSet,
    build_passage_table,
    check_claim_partial_sums,
    enumerate_first_passage,
    iter_passage,
    passage_gcd_reachability,
    reduce_zero_drift,
)

MOVE_MATRIX = [MoveSet(-1, 1), MoveSet(-1, 2), MoveSet(1, 2), MoveSet(-2, 1), MoveSet(0, 1)]

F = Fraction


class TestMoveSet:
    def test_order_insensitive(self):
        assert MoveSet(1, -1) == MoveSet(-1, 1)
        assert MoveSet(1, -1).a == -1

    def test_parse(self):
        assert MoveSet.parse("-1,2") == MoveSet(-1, 2)
        assert MoveSet.parse(" 2 , -1 ") == MoveSet(-1, 2)
        with pytest.raises(ValueError):
            MoveSet.parse("1")

    def test_drift(self):
        assert MoveSet(-1, 2).drift == F(1, 2)
        assert MoveSet(-1, 1).drift == 0

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            MoveSet(0.5, 1)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            GameSpec(MoveSet(-1, 1), -1)


class TestTableExamples:
    def test_unit_step_target_one(self):
        t = build_passage_table(GameSpec(MoveSet(-1, 1), 1), 3)
        assert list(t.r[1:]) == [F(1, 2), F(0), F(1, 8)]
        assert list(t.q) == [F(1), F(1, 2), F(1, 2), F(3, 8)]

    def test_deterministic_walk(self):
        t = build_passage_table(GameSpec(MoveSet(1, 1), 3), 4)
        assert list(t.r[1:]) == [F(0), F(0), F(1), F(0)]
        assert list(t.q) == [F(1), F(1), F(1), F(0), F(0)]

    def test_minus_one_plus_two_target_one(self):
        # frozen from the exhaustive-enumeration oracle below
        t = build_passage_table(GameSpec(MoveSet(-1, 2), 1), 6)
        expected = [F(1, 2), F(1, 4), F(0), F(1, 16), F(1, 16), F(0)]
        assert list(t.r[1:]) == expected
        assert list(t.r[1:]) == list(enumerate_first_passage(MoveSet(-1, 2), 1, 6)[1:])

    def test_rejects_zero_target(self):
        with pytest.raises(ValueError):
            build_passage_table(GameSpec(MoveSet(-1, 1), 0), 4)

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            build_passage_table(GameSpec(MoveSet(-1, 1), 1), 0)


class TestExactIdentities:
    @pytest.mark.parametrize("moves", MOVE_MATRIX, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_mass_identities(self, moves, n):
        # r = delta q, q = 1 - sum r, telescoped sum = 1 - q^2, all exact
        table = build_passage_table(GameSpec(moves, n), 120)
        check_claim_partial_sums(table)

    @pytest.mark.parametrize("moves", MOVE_MATRIX, ids=str)
    def test_brute_force_equivalence(self, moves):
        for n in range(1, 5):
            table = build_passage_table(GameSpec(moves, n), 10)
            oracle = enumerate_first_passage(moves, n, 10)
            assert list(table.r[1:]) == oracle[1:]

    @pytest.mark.parametrize("moves", MOVE_MATRIX, ids=str)
    def test_denominators_divide_two_to_k(self, moves):
        table = build_passage_table(GameSpec(moves, 3), 40)
        for k in range(1, 41):
            assert (1 << k) % table.r[k].denominator == 0
            assert (1 << k) % table.q[k].denominator == 0

    def test_q_nonincreasing_and_bounded(self):
        for moves in MOVE_MATRIX:
            t = build_passage_table(GameSpec(moves, 4), 60)
            for k in range(1, 61):
                assert 0 <= t.r[k] <= 1
                assert 0 <= t.q[k] <= t.q[k - 1] <= 1

    def test_q_nondecreasing_in_target(self):
        for moves in MOVE_MATRIX:
            tables = [build_passage_table(GameSpec(moves, n), 30) for n in (1, 2, 3)]
            for k in range(31):
                assert tables[0].q[k] <= tables[1].q[k] <= tables[2].q[k]

    def test_minus12_survival_dominated_by_unit_step(self):
        for n in range(1, 7):
            a = build_passage_table(GameSpec(MoveSet(-1, 2), n), 60)
            b = build_passage_table(GameSpec(MoveSet(-1, 1), n), 60)
            for k in range(61):
                assert a.q[k] <= b.q[k]


class TestSurvivalLimits:
    def test_nonnegative_drift_drains_survival(self):
        # survival mass vanishing in the limit is what classifies a+b >= 0
        for moves, n in [(MoveSet(-1, 1), 1), (MoveSet(-1, 2), 2), (MoveSet(1, 2), 3)]:
            t = build_passage_table(GameSpec(moves, n), 4000)
            assert t.q[4000] < F(1, 50)
            assert t.q[4000] < t.q[2000] or t.q[4000] == 0

    def test_negative_drift_retains_survival(self):
        t = build_passage_table(GameSpec(MoveSet(-2, 1), 1), 2000)
        assert t.q[2000] > F(1, 3)  # tends to 1 - (sqrt(5)-1)/2 ~ 0.382


class TestReachability:
    def test_unit_step_odd_indices(self):
        rv = passage_gcd_reachability(GameSpec(MoveSet(-1, 1), 1))
        assert (rv.modulus, rv.residues) == (2, frozenset({1}))

    def test_deterministic_single_index(self):
        rv = passage_gcd_reachability(GameSpec(MoveSet(1, 1), 5))
        assert rv.deterministic_k == 5
        assert [k for k in range(1, 12) if rv.allows(k)] == [5]

    def test_minus_one_plus_two(self):
        # frozen from the DP zero pattern: nonzero except k = 0 mod 3
        rv = passage_gcd_reachability(GameSpec(MoveSet(-1, 2), 1))
        assert (rv.modulus, rv.residues) == (3, frozenset({1, 2}))

    def test_never_when_no_positive_move(self):
        assert passage_gcd_reachability(GameSpec(MoveSet(-1, 0), 1)).never
        assert passage_gcd_reachability(GameSpec(MoveSet(0, 0), 2)).never

    @pytest.mark.parametrize("moves", MOVE_MATRIX, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_sound_against_dp(self, moves, n):
        # every nonzero r lands on an admissible index
        rv = passage_gcd_reachability(GameSpec(moves, n))
        table = build_passage_table(GameSpec(moves, n), 80)
        for k in range(1, 81):
            if table.r[k] != 0:
                assert rv.allows(k), (moves, n, k)


class TestSerialization:
    def test_csv_export(self):
        t = build_passage_table(GameSpec(MoveSet(-1, 1), 1), 4)
        buf = io.StringIO()
        t.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "k,r,q,r_decimal,q_decimal"
        assert len(lines) == 6
        assert lines[2].startswith("1,1/2,1/2,0.5,0.5")


class TestZeroDriftReduction:
    def test_scaled_sets_reduce(self):
        assert reduce_zero_drift(GameSpec(MoveSet(-3, 3), 7)) == 3
        assert reduce_zero_drift(GameSpec(MoveSet(-1, 1), 4)) == 4
        assert reduce_zero_drift(GameSpec(MoveSet(-1, 2), 4)) is None
        assert reduce_zero_drift(GameSpec(MoveSet(0, 0), 4)) is None

    def test_scaled_walk_equals_unit_walk(self):
        scaled = build_passage_table(GameSpec(MoveSet(-3, 3), 7), 40)
        unit = build_passage_table(GameSpec(MoveSet(-1, 1), 3), 40)
        assert scaled.r == unit.r
        assert scaled.q == unit.q


def test_iter_passage_stops_at_absorption():
    ks = [k for k, _, _ in iter_passage(GameSpec(MoveSet(1, 2), 3))]
    assert ks == [1, 2, 3]
