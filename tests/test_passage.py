import hashlib
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, count, islice, repeat
from operator import add
from time import perf_counter

import pytest
from brute_force import enumerate_first_passage
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import dps_to_prec

from pilerace import passage
from pilerace.cli import _write_rows_csv
from pilerace.closedforms import hitting_time_count, monotone_survival_count, passage_prob_m1p2
from pilerace.passage import (
    FLOOR_EVERY,
    GameSpec,
    MoveSet,
    build_passage_table,
    iter_passage,
    reachability_rule,
    reduce_zero_drift,
    unpack,
)
from pilerace.series import FLOOR_GUARD_BITS, WORK_DPS, _lundberg, win_prob_direct, win_within

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


def in_lowest_terms(x) -> bool:
    """A power-of-two denominator, an odd numerator over any larger one,
    and 0 written as 0/1."""
    num, den = x.numerator, x.denominator
    return den & (den - 1) == 0 and (num % 2 == 1 or den == 1) and (num != 0 or den == 1)


# {2,3} is absorbed early (zero padding), {-2,-1} never reaches n, and the
# table and win_within read {-1,1} and {-2,2} (zero drift, reduced) from the
# hitting-time stream, {-1,2} n=3 and {-1,3} from the row recursion and
# {-1,2} n=60 from the DP, so each is checked against the DP itself
LOWEST_TERMS_CASES = [((-1, 2), 3, 80), ((-1, 3), 5, 120), ((-3, 4), 2, 100), ((2, 3), 7, 12),
                      ((-2, -1), 1, 10), ((-1, 1), 2, 60), ((-2, 2), 3, 60), ((-1, 2), 60, 40)]


@pytest.mark.parametrize("moves, n, k_max", LOWEST_TERMS_CASES)
def test_table_values_are_the_dyadics_of_the_stream(moves, n, k_max):
    spec = GameSpec(MoveSet(*moves), n)
    table = build_passage_table(spec, k_max)
    stream = {k: (win, survived) for k, win, survived, _ in iter_passage(spec, horizon=k_max)}
    stream[0] = (0, 1)
    for k in range(k_max + 1):
        win, survived = stream.get(k, (0, 0))
        for value, num in ((table.r[k], win), (table.q[k], survived)):
            ref = Fraction(num, 1 << k)
            assert in_lowest_terms(value), (k, value)
            assert (value.numerator, value.denominator) == (ref.numerator, ref.denominator)
    if moves == (2, 3):
        assert len(stream) <= k_max and table.q[-1] == 0
    if moves == (-2, -1):
        assert set(table.r[1:]) == {0} and set(table.q) == {1}


@pytest.mark.parametrize("moves, n, k_max", LOWEST_TERMS_CASES)
def test_win_within_is_the_dyadic_of_its_partial_sum(moves, n, k_max):
    spec = GameSpec(MoveSet(*moves), n)
    terms = {k: Fraction(win * survived, 1 << 2 * k)
             for k, win, survived, _ in iter_passage(spec, horizon=k_max)}
    total = Fraction(0)
    for k in range(1, k_max + 1):
        total += terms.get(k, 0)  # absorbed early: every later term is 0
        value = win_within(spec, k)
        assert in_lowest_terms(value), (k, value)
        assert (value.numerator, value.denominator) == (total.numerator, total.denominator)


class TestExactIdentities:
    @pytest.mark.parametrize("moves", MOVE_MATRIX, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_mass_identities(self, moves, n):
        # the exact r and q masses against laws that share no code with the
        # DP: the hitting-time theorem ({a, 1}, a <= 0), the binomial
        # survival law (0 <= a < b) and the Raney counts ({-1, 2})
        # (read from iter_passage: the table takes closed forms on {a, 1}
        # and {-1, b})
        a, b = moves.a, moves.b
        stream = chain(iter_passage(GameSpec(moves, n), horizon=120), repeat((0, 0, 0, None)))
        for k, (_, win, survived, _) in zip(range(1, 121), stream):
            if b == 1 and a <= 0:
                assert win == hitting_time_count(a, n, k)
            if a >= 0:
                assert survived == monotone_survival_count(a, b, n, k)
            if (a, b) == (-1, 2):
                assert F(win, 1 << k) == passage_prob_m1p2(n, k)

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


# the fixed-point precision of a sum at the default tolerance
DEFAULT_BITS = dps_to_prec(WORK_DPS) + FLOOR_GUARD_BITS
FURTHER = 2000  # moves the exact walk runs past the sink line


@lru_cache(maxsize=None)
def _arrivals(moves: MoveSet, top: int) -> list:
    """``u[d - 1]``: how many of the ``2**FURTHER`` move sequences from d
    positions below the target reach it, for d = 1..len(u) <= top; a
    longer gap is never crossed.  The walk is translation invariant, so
    one list serves every target."""
    a, b = moves.a, moves.b
    u = []  # no moves left: no gap is crossed
    for m in range(1, FURTHER + 1):
        width = min(b * m, top - a * (FURTHER - m))
        ext = [1 << (m - 1)] * b + u + [0] * (width + b - a - len(u))
        u = list(map(add, ext[b - a:b - a + width], ext[:width]))
    return u


class TestFixedPointStream:
    """``iter_passage``'s fixed-point mode against its exact mode, at a
    precision that floors from move 96 on and at the one a default sum
    uses.  At every move the exact r and q lie within the fixed-point
    values, the tally and the sink's bound; under negative drift that
    bound, with the tally for mass floored away before it reached the
    line, covers what the exact walk absorbs from below the sink line in
    the next 2,000 moves."""

    NEGATIVE = [MoveSet(-2, 1), MoveSet(-3, 2), MoveSet(-6, 1), MoveSet(-5, 3), MoveSet(-5, 4)]
    POSITIVE = [MoveSet(-1, 2), MoveSet(-3, 4), MoveSet(-5, 6), MoveSet(0, 1), MoveSet(1, 2),
                MoveSet(2, 5), MoveSet(-2, 5)]

    @pytest.mark.parametrize("bits", [64, DEFAULT_BITS])
    @pytest.mark.parametrize("n", [1, 6])
    @pytest.mark.parametrize("moves", NEGATIVE + POSITIVE, ids=str)
    def test_exact_walk_within_the_tally(self, moves, n, bits):
        spec, span, k_max = GameSpec(moves, n), moves.b - moves.a, 400
        depth = None
        if moves.drift < 0:
            with mp.workdps(WORK_DPS):
                depth = _lundberg(spec, bits)[0]
        one = bits + FLOOR_EVERY
        exact = chain(iter_passage(spec), repeat((None, 0, 0, [])))
        floored = False
        for (_, win, survived, cells), (k, fwin, fsurvived, _, _, _, tally, sunk) in zip(
                exact, islice(iter_passage(spec, bits, depth), k_max)):
            assert fwin << k <= win << one <= (fwin + tally + sunk) << k
            assert (fsurvived - sunk) << k <= survived << one <= (fsurvived + tally) << k
            floored |= tally > 0
            if depth is None:
                assert sunk == 0
                continue
            deep = -(-(n - depth - moves.a * k) // span)  # cells j < deep lie below the line
            if deep <= 0:
                continue
            u = _arrivals(moves, n - moves.a * k_max)
            absorbed = sum(c * u[gap - 1] for c, gap in zip(
                cells[:deep], range(n - moves.a * k, 0, -span)) if gap <= len(u))
            assert absorbed << one <= (sunk + tally) << (k + FURTHER)
        assert floored or moves.a > 0  # a walk with two positive moves ends within n moves

    @pytest.mark.parametrize("moves, n", [(MoveSet(1, 2), 5), (MoveSet(0, 1), 3)], ids=str)
    def test_nothing_floored_stays_exact(self, moves, n):
        spec = GameSpec(moves, n)
        for k, *_, tally, sunk in islice(iter_passage(spec, DEFAULT_BITS), 60):
            assert (tally, sunk) == (0, 0), k
        res = win_prob_direct(spec)
        assert res.eval_error == 0
        # the partial sum plus half its bound q_K**2, to the last bit
        table = build_passage_table(spec, res.truncation_k)
        exact = sum(table.q[k] * table.r[k] for k in range(res.truncation_k + 1))
        assert res.value == exact + table.q[-1] ** 2 / 2


def _list_fixed_passage(spec: GameSpec, bits: int, depth: int | None):
    """The fixed-point mode of ``iter_passage`` on a list of cells, lowest j
    first, one Python addition per cell per move: the reference for the
    packed lattice.  Yields what the packed stream yields, with the list of
    cells in place of the packed integer."""
    a, b, n = spec.moves.a, spec.moves.b, spec.n
    span, every = b - a, FLOOR_EVERY
    counts, survived = [1], 1
    k = low = tally = sink = sunk = 0
    e = -bits
    while True:
        k += 1
        if e == every:
            floored = [c >> e for c in counts]
            mass = sum(floored)
            tally += survived - (mass << e)
            survived, e = mass, 0
            zeros = next((i for i, c in enumerate(floored) if c), len(floored))
            counts, low = floored[zeros:], low + zeros
        if span:
            counts = list(map(add, counts + [0], [0] + counts))
            cut = max(-(-(n - a * k) // span) - low, 0)
            win = sum(counts[cut:])
            del counts[cut:]
        else:
            win = 2 * survived if a * k >= n else 0
        survived = 2 * survived - win
        if not span:
            counts = [survived]
        e += 1
        lift = every - e
        if depth is not None and span:
            deep = -(-(n - depth - a * k) // span) - low
            if deep > 0:
                moved = sum(counts[:deep])
                del counts[:deep]
                low += deep
                survived -= moved
                sink += moved << lift
                sunk = -(-sink >> bits)
        yield k, win << lift, (survived << lift) + sink, counts, low, lift, tally, sunk


class TestPackedStream:
    """The packed fixed-point lattice against the list of cells it
    replaced, bit for bit: every r, q, tally, sink bound, offset and cell
    at every move k <= 400.  Bottom cells of zero weight vanish from the
    packed lattice as leading zero bits, so the list is read from its
    lowest non-zero cell, and an empty lattice has no offset.  {-2,-1}
    never absorbs, so its lattice holds the whole mass, the largest sum a
    slot must hold."""

    MOVES = [*TestFixedPointStream.NEGATIVE, *TestFixedPointStream.POSITIVE,
             MoveSet(2, 2), MoveSet(-2, -1)]

    @pytest.mark.parametrize("bits", [64, DEFAULT_BITS])
    @pytest.mark.parametrize("n", [1, 6])
    @pytest.mark.parametrize("moves", MOVES, ids=str)
    def test_equals_the_list_of_cells(self, moves, n, bits):
        spec = GameSpec(moves, n)
        depth = None
        if moves.drift < 0 and moves.b > 0:
            with mp.workdps(WORK_DPS):
                depth = _lundberg(spec, bits)[0]
        pairs = zip(islice(_list_fixed_passage(spec, bits, depth), 400),
                    iter_passage(spec, bits, depth))
        for (k, win, survived, cells, low, *rest), (*same, lattice, plow, plift, ptally,
                                                    psunk) in pairs:
            assert same == [k, win, survived], k
            assert [plift, ptally, psunk] == rest, k
            zeros = next((i for i, c in enumerate(cells) if c), len(cells))
            assert unpack(lattice, bits)[::-1] == cells[zeros:], k
            assert plow == low + zeros or not lattice, k


def test_horizon_ends_the_exact_stream():
    """``iter_passage(spec, horizon=K)`` yields the first K items of the
    unpruned stream, r and q to the last bit, and stops: over every move
    set with |a|, |b| <= 6 (both moves positive, both drifts, zero drift
    and no positive move), n <= 8 and K = 1, 8, ..., 57, 60.  The
    fixed-point mode takes no horizon, and the exact one no depth."""
    with pytest.raises(ValueError, match="a horizon applies to the exact stream only"):
        iter_passage(GameSpec(MoveSet(-1, 2), 1), 64, horizon=5)
    with pytest.raises(ValueError, match="a depth applies to the fixed-point stream only"):
        iter_passage(GameSpec(MoveSet(-2, 1), 1), depth=3, horizon=4)
    for a in range(-6, 7):
        for b in range(a, 7):
            for n in range(1, 9):
                spec = GameSpec(MoveSet(a, b), n)
                full = [item[:3] for item in islice(iter_passage(spec), 60)]
                for horizon in (*range(1, 60, 7), 60):
                    cut = [item[:3] for item in iter_passage(spec, horizon=horizon)]
                    assert cut == full[:horizon], (a, b, n, horizon)


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


@lru_cache(maxsize=None)
def _compiled(condition: str):
    return compile(condition, "<residue_condition>", "eval")


def allows(rule: dict, k: int) -> bool:
    """Whether move k obeys a printed reachability rule."""
    if not rule["reachable"] or k < rule["min_k"]:
        return False
    if rule["max_k"] is not None and k > rule["max_k"]:
        return False
    condition = rule["residue_condition"]
    return condition is None or eval(_compiled(condition), {"k": k})


class TestReachability:
    def test_unit_step_odd_indices(self):
        rule = reachability_rule(GameSpec(MoveSet(-1, 1), 1))
        assert rule["period"] == 2
        assert [k for k in range(1, 9) if allows(rule, k)] == [1, 3, 5, 7]

    def test_deterministic_single_index(self):
        rule = reachability_rule(GameSpec(MoveSet(1, 1), 5))
        assert (rule["min_k"], rule["max_k"], rule["period"]) == (5, 5, None)
        assert [k for k in range(1, 12) if allows(rule, k)] == [5]

    def test_minus_one_plus_two(self):
        # frozen from the DP zero pattern: nonzero except k = 0 mod 3
        rule = reachability_rule(GameSpec(MoveSet(-1, 2), 1))
        assert rule == {"reachable": True, "min_k": 1, "max_k": None, "period": 3,
                        "residue_condition": "(2*(k - 1) - (-1)) % 3 < 2"}
        assert [k for k in range(1, 10) if allows(rule, k)] == [1, 2, 4, 5, 7, 8]

    def test_never_when_no_positive_move(self):
        for moves, n in [(MoveSet(-1, 0), 1), (MoveSet(0, 0), 2), (MoveSet(-3, -1), 4)]:
            rule = reachability_rule(GameSpec(moves, n))
            assert not rule["reachable"]
            assert not any(allows(rule, k) for k in range(1, 20))

    def test_residues_match_the_window_scan(self):
        # the definition: some position s in [n-b, n-1] after k-1 moves has
        # s = b*(k-1) (mod b-a), scanned pair by pair
        cases = 0
        for b in range(1, 10):
            for a in range(-9, b):
                g = b - a
                for n in range(1, 15):
                    rule = reachability_rule(GameSpec(MoveSet(a, b), n))
                    for k in range(rule["min_k"], rule["min_k"] + g):
                        scanned = any((b * (k - 1) - s) % g == 0 for s in range(n - b, n))
                        in_range = rule["max_k"] is None or k <= rule["max_k"]
                        assert allows(rule, k) == (scanned and in_range), (a, b, n, k)
                    cases += 1
        assert cases == 1764

    def test_every_win_obeys_the_rule(self):
        # every move set with |a|, |b| <= 9, reachable or not
        for b in range(-9, 10):
            for a in range(-9, b + 1):
                for n in range(1, 15):
                    spec = GameSpec(MoveSet(a, b), n)
                    rule = reachability_rule(spec)
                    for k, win, _, _ in islice(iter_passage(spec), 40):
                        assert not win or allows(rule, k), (a, b, n, k)

    def test_huge_span_is_stated_not_listed(self):
        rule = reachability_rule(GameSpec(MoveSet(-(10**9), 10**9 - 1), 1))
        assert rule["period"] == 2 * 10**9 - 1
        assert allows(rule, 1) and not allows(rule, 2)

    @pytest.mark.parametrize("moves", MOVE_MATRIX, ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_sound_against_dp(self, moves, n):
        # every nonzero r lands on an admissible index
        rule = reachability_rule(GameSpec(moves, n))
        table = build_passage_table(GameSpec(moves, n), 80)
        for k in range(1, 81):
            if table.r[k] != 0:
                assert allows(rule, k), (moves, n, k)


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

    def test_decimals_keep_15_digits_below_the_float_range(self):
        # {-1,10} n=1 falls below 2**-1022 near k = 1,900; a float printed
        # many of its entries as "0" and k = 1,890 69% off
        table = build_passage_table(GameSpec(MoveSet(-1, 10), 1), 2000)
        tiny = 0
        for row in table.rows():
            for exact, decimal in ((row["r"], row["r_decimal"]), (row["q"], row["q_decimal"])):
                if not exact:  # r at k = 0
                    continue
                x = Fraction(exact)
                assert (decimal == "0") == (x == 0), row["k"]
                if x == 0:
                    continue
                assert abs(Fraction(decimal) - x) <= Fraction(10) ** (_exponent10(x) - 14), row["k"]
                if x < Fraction(1, 1 << 1022):
                    tiny += 1
                else:  # the float's decimal, byte for byte, where a float holds it
                    assert decimal == f"{float(x):.15g}", row["k"]
        assert tiny > 200


def _exponent10(x: Fraction) -> int:
    """floor(log10(x)) for a rational x > 0, exactly."""
    e = (x.numerator.bit_length() - x.denominator.bit_length()) * 3 // 10
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    return e


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


class TestSkipFreeStreams:
    """The closed-form streams of {a, 1} and {-1, b} against the DP, item
    for item, and against exhaustive enumeration."""

    @staticmethod
    def streams(a: int, b: int, n: int, horizon: int):
        """The closed-form stream of {a, b}, whichever the chooser would pick:
        {a, 1} always takes it, and the rows of {-1, b} are read directly,
        with q_k = 2 q_(k-1) - r_k."""
        if b == 1:
            return passage._exact_stream(GameSpec(MoveSet(a, b), n), horizon)
        wins = list(islice(passage._descending(b, n), horizon))
        survived = accumulate(wins, lambda q, r: 2 * q - r, initial=1)
        return zip(count(1), wins, islice(survived, 1, None), repeat(None))

    @given(a=st.integers(-8, 0), n=st.integers(1, 200), horizon=st.integers(1, 300))
    def test_climbing_equals_the_dp(self, a, n, horizon):
        spec = GameSpec(MoveSet(a, 1), n)
        dp = [item[:3] for item in iter_passage(spec, horizon=horizon)]
        assert [item[:3] for item in self.streams(a, 1, n, horizon)] == dp

    @given(b=st.integers(2, 8), n=st.integers(1, 200), horizon=st.integers(1, 300))
    def test_descending_equals_the_dp(self, b, n, horizon):
        spec = GameSpec(MoveSet(-1, b), n)
        dp = [item[:3] for item in iter_passage(spec, horizon=horizon)]
        assert [item[:3] for item in self.streams(-1, b, n, horizon)] == dp

    @pytest.mark.parametrize("c, n", [(2, 5), (3, 7), (5, 1)])
    def test_zero_drift_reduces_to_the_unit_walk(self, c, n):
        spec = GameSpec(MoveSet(-c, c), n)
        dp = [item[:3] for item in iter_passage(spec, horizon=150)]
        assert [item[:3] for item in passage._exact_stream(spec, 150)] == dp

    @pytest.mark.parametrize("a, b", [(-8, 1), (-3, 1), (-1, 1), (0, 1), (-1, 2), (-1, 3), (-1, 8)])
    def test_streams_equal_enumeration(self, a, b):
        for n in range(1, 13):
            oracle = enumerate_first_passage(MoveSet(a, b), n, 12)
            q = 1
            for k, win, survived, cells in self.streams(a, b, n, 12):
                q -= oracle[k]
                assert (F(win, 1 << k), F(survived, 1 << k), cells) == (oracle[k], q, None), (n, k)

    @pytest.mark.parametrize("moves, n", [((-3, 1), 200), ((0, 1), 10**9), ((-1, 2), 200),
                                          ((-1, 8), 150), ((-1, 10**8), 1)])
    def test_first_items_come_at_once(self, moves, n):
        # nothing of the horizon's size is built before the first yield
        start = perf_counter()
        items = list(islice(passage._exact_stream(GameSpec(MoveSet(*moves), n), 10**12), 5))
        assert perf_counter() - start < 0.1
        assert [item[0] for item in items] == [1, 2, 3, 4, 5] and items[0][3] is None

    @pytest.mark.parametrize("count_moves", [build_passage_table, win_within])
    @pytest.mark.parametrize("n, horizon, rows", [(1000, 2000, False), (10, 2000, True)])
    def test_row_recursion_only_where_it_is_cheaper(self, monkeypatch, count_moves, n, horizon,
                                                    rows):
        # about n (K + n) additions for the rows against the DP's cells
        calls = []

        def counted(name):
            original = getattr(passage, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("iter_passage", "_descending"):
            monkeypatch.setattr(passage, name, counted(name))
        count_moves(GameSpec(MoveSet(-1, 2), n), horizon)
        assert calls == ["_descending" if rows else "iter_passage"]
