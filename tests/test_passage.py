import hashlib
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pilerace.cli import _write_rows_csv
from pilerace.closedforms import hitting_time_count, monotone_survival_count, passage_prob_m1p2
from pilerace.passage import (
    GameSpec,
    MoveSet,
    build_passage_table,
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

    @pytest.mark.parametrize(
        "moves, n",
        [((-1, 2), 3), ("-1,2", 3), (MoveSet(-1, 2), 1.0), (MoveSet(-1, 2), True)],
    )
    def test_spec_field_types(self, moves, n):
        with pytest.raises(TypeError):
            GameSpec(moves, n)


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
        # the exact r and q masses against laws that share no code with the
        # DP: the hitting-time theorem ({a, 1}, a <= 0), the binomial
        # survival law (0 <= a < b) and the Raney counts ({-1, 2})
        a, b = moves.a, moves.b
        table = build_passage_table(GameSpec(moves, n), 120)
        for k in range(1, 121):
            if b == 1 and a <= 0:
                assert table.r[k] == F(hitting_time_count(a, n, k), 1 << k)
            if a >= 0:
                assert table.q[k] == F(monotone_survival_count(a, b, n, k), 1 << k)
            if (a, b) == (-1, 2):
                assert table.r[k] == passage_prob_m1p2(n, k)

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

    def test_residues_match_the_window_scan(self):
        # the definition: some position s in [n-b, n-1] after k-1 moves has
        # s = b*(k-1) (mod b-a), scanned pair by pair
        cases = 0
        for b in range(1, 10):
            for a in range(-9, b):
                g = b - a
                for n in range(1, 15):
                    scanned = frozenset(
                        t for t in range(g)
                        if any((b * (t - 1) - s) % g == 0 for s in range(n - b, n))
                    )
                    rv = passage_gcd_reachability(GameSpec(MoveSet(a, b), n))
                    assert (rv.modulus, rv.residues) == (g, scanned), (a, b, n)
                    cases += 1
        assert cases == 1764

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
    def test_csv_export(self, tmp_path):
        # a passage table's rows through the CLI's one CSV writer
        t = build_passage_table(GameSpec(MoveSet(-1, 1), 1), 4)
        path = tmp_path / "rq.csv"
        _write_rows_csv(path, t.rows())
        lines = path.read_text().strip().splitlines()
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
    ks = [k for k, _, _, _ in iter_passage(GameSpec(MoveSet(1, 2), 3))]
    assert ks == [1, 2, 3]


# sha256 of the "num/den" lines of r[1:] + q, frozen from the exact output of
# the position-window DP that the lattice DP replaced.
PINNED_DIGESTS = [
    ((-3, 4), 1, 2048, "cf9258c6e83a2c3a9bd64dc7b99cace12274bd634c1512d378c7a4ce63b50e77"),
    ((-2, 3), 2, 1024, "c9a1a869c6189f32a7c92f7b6097cafcee4afed711c9d7851c04785e68fe8449"),
    ((-3, 2), 1, 1024, "4977a0175049b03d2fd3a700a7bce8e212d803c9fb61d867cd8610c10bd2e9bb"),
    ((-1, 3), 50, 2000, "9f66b213dbbab48cfb6791e05cf7659e0b2e456a609b125165d689adb3a551d0"),
    ((2, 5), 9, 40, "ff8c131b45bd413d1a83d5d4c3dfc745ce95e76815222d7c6795cbda031e804a"),
    ((-4, -1), 1, 300, "d5704aefbccc226211239842b41ba9edbd85e59ad2c4f4fd1e0b9c866e872363"),
    ((3, 3), 7, 10, "bd84a160fb61196086863fef0f1c567d33416e7f0b0645f1b791a182c560cb5c"),
    ((0, 0), 2, 50, "0f3ff4cf6655ee6cdd484ba0796321b605f34fa13c85eee4f4f07b1248228873"),
    ((-5, 1), 3, 500, "868e093846bc3fa6143279b182ed7792948268a1f324184c3cfa42adf4d7e581"),
]


@pytest.mark.parametrize(
    "moves,n,k_max,digest", PINNED_DIGESTS, ids=[f"{m}-n{n}-K{k}" for m, n, k, _ in PINNED_DIGESTS]
)
def test_table_matches_pinned_digest(moves, n, k_max, digest):
    table = build_passage_table(GameSpec(MoveSet(*moves), n), k_max)
    text = "\n".join(f"{v.numerator}/{v.denominator}" for v in table.r[1:] + table.q)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@given(moves=st.builds(MoveSet, st.integers(-5, 5), st.integers(-5, 5)), n=st.integers(1, 8))
def test_table_equals_enumeration(moves, n):
    table = build_passage_table(GameSpec(moves, n), 12)
    assert list(table.r) == enumerate_first_passage(moves, n, 12)
    for k in range(13):
        assert table.q[k] == 1 - sum(table.r[: k + 1])


@given(moves=st.builds(MoveSet, st.integers(1, 5), st.integers(1, 5)), n=st.integers(1, 8))
def test_positive_walk_stops_at_its_last_win(moves, n):
    last = -(-n // moves.a)  # the all-a path is absorbed last
    items = list(islice(iter_passage(GameSpec(moves, n)), last + 1))
    k, r, q, _ = items[-1]
    assert (k, q) == (last, 0) and r != 0
