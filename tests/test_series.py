import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from pilerace import series
from pilerace.closedforms import unit_step_sum, win_within_one
from pilerace.numeric import ApproxValue, PiLinear, dps_to_prec
from pilerace.passage import GameSpec, MoveSet, build_passage_table, iter_passage, unpack
from pilerace.reference import SQUARE_SUMS_PM1, TARGET_TABLE_PM1, recurrence_residual
from pilerace.series import (
    CONVERGED,
    DEFAULT_TOLERANCE,
    DIVERGED,
    WORK_DPS,
    TailPolicy,
    expected_duration,
    square_sum_value,
    win_prob_direct,
    win_prob_targets,
    win_within,
)

PM1 = MoveSet(-1, 1)
M12 = MoveSet(-1, 2)

F = Fraction


def pl(const, inv_pi):
    return PiLinear(F(const), F(inv_pi)).approx(30).value


def square_sums_pm1(n_max):
    """Exact T(n) = sum_k r(n, k)**2 on {-1,1} for n = 1..n_max: the
    pinned T(1..6), continued by the pinned order-3 recurrence."""
    t = [SQUARE_SUMS_PM1[n] for n in range(1, 7)]
    while len(t) < n_max:
        n = len(t) - 2  # the window T(n..n+3) with T(n+3) unknown
        lower = recurrence_residual(t[-3:] + [PiLinear.zero()], n)
        t.append(lower * F(-1, n + 3))  # T(n+3)'s coefficient is n + 3
    return t[:n_max]


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TailPolicy(tolerance=0)
        with pytest.raises(ValueError):
            TailPolicy(max_k=8)
        for tolerance in (math.inf, float("1e400"), math.nan, -math.inf):
            with pytest.raises(ValueError):
                TailPolicy(tolerance=tolerance)
        for max_k in (16.0, 1e9, "64", True):
            with pytest.raises(TypeError):
                TailPolicy(max_k=max_k)

    def test_defaults_by_drift(self):
        # the cap bounds summed series only; zero drift is answered exactly
        assert TailPolicy().max_k == 5_000
        assert win_prob_direct(GameSpec(M12, 1)).method != "exact"
        exact = win_prob_direct(GameSpec(PM1, 1))
        assert (exact.method, exact.truncation_k) == ("exact", 0)


def test_win_prob_squares_is_the_old_name_of_direct():
    # the benchmark calls p_n by the old name
    assert series.win_prob_squares is series.win_prob_direct


class TestWinProbDirect:
    def test_minus12_target_one(self):
        res = win_prob_direct(GameSpec(M12, 1))
        assert abs(res.value - mpf("0.33891390869471156")) < 1e-9

    def test_minus12_target_five(self):
        res = win_prob_direct(GameSpec(M12, 5))
        assert abs(res.value - mpf("0.45292179047578731")) < 1e-9

    def test_zero_target_is_immediate(self):
        res = win_prob_direct(GameSpec(PM1, 0))
        assert res.value == 0 and res.verdict == CONVERGED

    def test_deterministic_race_second_player_never_wins(self):
        res = win_prob_direct(GameSpec(MoveSet(1, 1), 5))
        assert res.value == 0 and res.verdict == CONVERGED and res.tail_estimate == 0

    def test_negative_drift_reports_no_winner(self):
        res = win_prob_direct(GameSpec(MoveSet(-2, 1), 1))
        assert res.verdict == CONVERGED
        assert 0 < float(res.value) < 0.5
        assert float(res.no_winner) > 0.10
        # stalemate odds: both walks independently miss forever,
        # P(miss) = 1 - (sqrt(5) - 1)/2 exactly, squared; no_winner is the
        # truncation-point estimate q_K^2, so allow its remaining drift
        import math

        miss = 1 - (math.sqrt(5) - 1) / 2
        assert abs(float(res.no_winner) - miss**2) < 1e-5

    def test_negative_drift_agrees_with_frozen_simulation(self):
        # frozen oracle: run_simulation(SimConfig(MoveSet(-2, 1), 1, 1,
        # trials=10**7, seed=777)) -> see FROZEN constants
        res = win_prob_direct(GameSpec(MoveSet(-2, 1), 1))
        mc_rate, mc_se = FROZEN_M21_MC
        assert abs(float(res.value) - mc_rate) < 4 * mc_se

    def test_unreachable_target(self):
        res = win_prob_direct(GameSpec(MoveSet(-1, 0), 3))
        assert res.value == 0 and float(res.no_winner) == 1.0


# frozen 10^7-trial Monte Carlo oracle for the {-2,1} race to one chip
# (p2 win rate and its standard error); regenerate with the call above
FROZEN_M21_MC = (0.2999770, 0.0001449)


class TestWinProbTargets:
    def test_table_cells(self):
        cells = {
            (1, 2): pl(-1, 4),
            (4, 1): pl(0, F(8, 3)),
            (3, 2): pl(7, -20),
            (5, 4): pl(161, -504),
        }
        for (n1, n2), expected in cells.items():
            res = win_prob_targets(n1, n2, PM1)
            assert res.verdict == CONVERGED
            assert abs(res.value - expected) < 1e-8, (n1, n2)

    @pytest.mark.parametrize(
        "moves, n",
        [(M12, 1), (M12, 3), (MoveSet(-3, 4), 2), (MoveSet(1, 2), 3), (MoveSet(0, 1), 2),
         (MoveSet(1, 1), 5), (PM1, 1)],
        ids=str,
    )
    def test_equal_targets_are_the_symmetric_game(self, moves, n):
        # p_n is p_{n,n}: one race body gives both results exactly
        a = win_prob_direct(GameSpec(moves, n)).to_json_dict()
        b = win_prob_targets(n, n, moves).to_json_dict()
        assert {**a, "method": None} == {**b, "method": None}

    @pytest.mark.parametrize("moves, n", [(MoveSet(-2, 1), 1), (MoveSet(-3, 1), 2)], ids=str)
    def test_negative_drift_equal_targets_are_direct(self, moves, n):
        a = win_prob_direct(GameSpec(moves, n)).to_json_dict()
        b = win_prob_targets(n, n, moves).to_json_dict()
        assert {**a, "method": None} == {**b, "method": None}

    @pytest.mark.parametrize("n1, n2, streams", [(2, 2, 1), (2, 3, 2)])
    def test_one_stream_per_distinct_target(self, monkeypatch, n1, n2, streams):
        calls = []

        def counted(spec, *args):
            calls.append(spec)
            return iter_passage(spec, *args)

        monkeypatch.setattr(series, "iter_passage", counted)
        win_prob_targets(n1, n2, M12)
        assert len(calls) == streams

    def test_deterministic_targets(self):
        assert win_prob_targets(3, 5, MoveSet(1, 1)).value == 0
        assert win_prob_targets(5, 3, MoveSet(1, 1)).value == 1

    def test_negative_drift_direct_path(self):
        res = win_prob_targets(1, 2, MoveSet(-2, 1))
        assert res.verdict == CONVERGED
        assert 0 < float(res.value) < 0.5
        assert res.no_winner is not None

    def test_rejects_zero_targets(self):
        with pytest.raises(ValueError):
            win_prob_targets(0, 1, PM1)

    def test_mixed_parity_pairs_sum_to_one(self):
        a = win_prob_targets(5, 4, PM1)
        b = win_prob_targets(4, 5, PM1)
        with mp.workdps(WORK_DPS):
            assert abs(a.value + b.value - 1) <= a.error_bound() + b.error_bound()

    def test_same_parity_pairs_sum_below_one(self):
        # simultaneous arrivals are possible, so the pair leaves mass for ties
        a = win_prob_targets(3, 5, PM1)
        b = win_prob_targets(5, 3, PM1)
        exact = (TARGET_TABLE_PM1[3, 5] + TARGET_TABLE_PM1[5, 3]).approx(50)
        assert exact.value < 1 - 0.01
        with mp.workdps(60):
            err = abs(a.value + b.value - exact.value)
            assert err <= a.error_bound() + b.error_bound() + exact.error_bound


class TestExpectedDuration:
    @pytest.mark.parametrize(
        "moves, n",
        [
            (PM1, 1),
            (PM1, 2),
            (PM1, 3),
            (MoveSet(-3, 3), 2),
            (MoveSet(0, 0), 1),
            (MoveSet(-2, 1), 1),
            (MoveSet(-1, 0), 2),
        ],
        ids=str,
    )
    def test_drift_at_most_zero_diverges(self, moves, n):
        # decided by the drift before any term is summed
        res = expected_duration(GameSpec(moves, n))
        assert res.verdict == DIVERGED
        assert res.truncation_k == 0
        assert res.tail_estimate == mpf("inf")
        assert mp.isfinite(res.value)
        assert res.formatted() == "?"
        assert res.witness

    def test_deterministic_exact(self):
        res = expected_duration(GameSpec(MoveSet(1, 1), 4))
        assert res.value == 4
        assert res.verdict == CONVERGED and res.tail_estimate == 0

    def test_minus12_converges(self):
        res = expected_duration(GameSpec(M12, 1))
        assert res.verdict == CONVERGED
        # independent check: exact partial sum of q^2 to k=400 (geometric tail)
        table = build_passage_table(GameSpec(M12, 1), 400)
        partial = sum((q * q for q in table.q), F(0))
        assert abs(res.value - mpf(partial.numerator) / partial.denominator) < 1e-8

    def test_positive_drift_with_zero_move(self):
        # q(1,k) = 2^-k exactly, so the sum is 1/(1 - 1/4) = 4/3
        res = expected_duration(GameSpec(MoveSet(0, 1), 1))
        assert res.verdict == CONVERGED
        assert abs(res.value - mpf(4) / 3) < 1e-9

    def test_lower_bound_when_convergent(self):
        # no race ends before n / max-move rounds
        for moves, n in [(M12, 4), (MoveSet(1, 2), 5), (MoveSet(0, 1), 3)]:
            res = expected_duration(GameSpec(moves, n))
            if res.verdict == CONVERGED:
                assert float(res.value) >= n / max(moves.a, moves.b) - 1


class TestWinWithin:
    def test_first_round(self):
        assert win_within(GameSpec(PM1, 1), 1) == F(1, 4)

    def test_matches_closed_form_exactly(self):
        spec = GameSpec(PM1, 1)
        assert win_within(spec, 200) == win_within_one(200)

    def test_nondecreasing_and_bounded_by_total(self):
        spec = GameSpec(M12, 2)
        total = win_prob_direct(spec)
        prev = F(0)
        for k in range(1, 40):
            cur = win_within(spec, k)
            assert cur >= prev
            prev = cur
        assert float(prev) <= float(total.value) + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            win_within(GameSpec(PM1, 1), 0)


@pytest.mark.parametrize(
    "count_moves, k", [(win_within, 5.5), (build_passage_table, 2.0), (build_passage_table, True)]
)
def test_move_count_must_be_an_integer(count_moves, k):
    # a fractional count summed to floor(k) in win_within, and never ended
    # the table's DP, which stops when it reaches k exactly
    with pytest.raises(TypeError):
        count_moves(GameSpec(M12, 1), k)


class TestSquareSums:
    def test_unit_step_values(self):
        assert abs(square_sum_value(PM1, 1).value - pl(-1, 4)) < 1e-8
        assert abs(square_sum_value(PM1, 3).value - pl(-25, F(236, 3))) < 1e-8

    def test_minus12_value(self):
        res = square_sum_value(M12, 2)
        assert abs(res.value - mpf("0.2886887304423")) < 1e-9

    @pytest.mark.parametrize("moves", [MoveSet(-1, 0), MoveSet(-3, -1), MoveSet(0, 0)], ids=str)
    def test_unreachable_target_is_exactly_zero(self, moves):
        # decided by the move set before any term is summed
        res = square_sum_value(moves, 2)
        assert res.verdict == CONVERGED
        assert res.value == 0
        assert res.truncation_k == 0
        assert res.witness == "moves can never reach the target"


def _evaluations(moves: MoveSet, policy: TailPolicy | None = None) -> dict:
    """The result of each summing evaluator on ``moves``."""
    return {
        "direct": win_prob_direct(GameSpec(moves, 1), policy),
        "targets": win_prob_targets(2, 1, moves, policy),
        "square_sum": square_sum_value(moves, 1, policy),
        "duration": expected_duration(GameSpec(moves, 1), policy),
    }


class TestReachabilityGuard:
    """Whether a target can be reached is ``b > 0``, decided from the move
    set before any term is summed; there is no residue table to build."""

    @pytest.mark.parametrize(
        "moves",
        [MoveSet(-1, 0), MoveSet(0, 0), MoveSet(-2, -1), MoveSet(-1, 2), MoveSet(-2, 1)],
        ids=str,
    )
    def test_same_results_without_the_table(self, moves):
        results = _evaluations(moves)
        if moves.b > 0:
            for name in ("direct", "targets", "square_sum"):
                assert results[name].truncation_k > 0, name
            return
        for name in ("direct", "targets", "square_sum"):
            res = results[name]
            assert (res.value, res.truncation_k, res.verdict) == (0, 0, CONVERGED), name
        assert results["duration"].verdict == DIVERGED

    def test_huge_span_returns(self):
        moves = MoveSet(-(10**9), 10**9 - 1)
        results = _evaluations(moves, TailPolicy(max_k=16))
        for name in ("direct", "targets", "square_sum"):
            assert results[name].verdict == series.INCONCLUSIVE, name
            assert results[name].truncation_k == 16, name
        assert results["duration"].verdict == DIVERGED


# every reachable move set with |a|, |b| <= 4 that is summed: zero drift is exact
MOVE_SETS = [MoveSet(a, b) for b in range(1, 5) for a in range(-4, b + 1) if a + b]
NEGATIVE_DRIFT = [m for m in MOVE_SETS if m.drift < 0]
POSITIVE_DRIFT = [m for m in MOVE_SETS if m.drift > 0]


def within_bound_of_further_run(make, tol):
    """``make(policy)`` at ``tol`` and at ``tol * 1e-8``: both answers are
    within their proved bounds of the true sum, so of each other too."""
    first = make(TailPolicy(tolerance=tol))
    ref = make(TailPolicy(tolerance=tol * 1e-8))
    with mp.workdps(60):
        assert abs(first.value - ref.value) <= first.error_bound() + ref.error_bound()
    return first


class TestTailHonesty:
    """Every summed tail is a proved bound: no run carried further leaves it."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda p: win_prob_direct(GameSpec(PM1, 1), p),
            lambda p: win_prob_direct(GameSpec(M12, 3), p),
            lambda p: win_prob_targets(1, 2, PM1, p),
            lambda p: expected_duration(GameSpec(M12, 1), p),
            lambda p: win_prob_direct(GameSpec(MoveSet(-2, 1), 1), p),
            lambda p: win_prob_direct(GameSpec(MoveSet(-3, 1), 1), p),
            # zero drift is exact: no tail, and the same value on every run
            lambda p: square_sum_value(PM1, 6, p),
            lambda p: win_prob_targets(2, 3, PM1, p),
        ],
    )
    def test_doubling_stays_within_tail(self, make):
        assert within_bound_of_further_run(make, DEFAULT_TOLERANCE).verdict == CONVERGED

    # answers whose fitted geometric tails once fell short of the error
    @pytest.mark.parametrize(
        "make, tol",
        [
            (lambda p: win_prob_direct(GameSpec(MoveSet(-3, 1), 1), p), 1e-9),
            (lambda p: win_prob_targets(3, 3, M12, p), 1e-7),
            (lambda p: win_prob_targets(2, 3, MoveSet(-3, 4), p), 1e-15),
            (lambda p: win_prob_targets(2, 1, M12, p), DEFAULT_TOLERANCE),
            (lambda p: win_prob_targets(1, 2, M12, p), DEFAULT_TOLERANCE),
            (lambda p: win_prob_targets(1, 2, MoveSet(-2, 3), p), DEFAULT_TOLERANCE),
            (lambda p: win_prob_targets(2, 3, MoveSet(-2, 3), p), DEFAULT_TOLERANCE),
            (lambda p: win_prob_direct(GameSpec(MoveSet(-1, 3), 2), p), DEFAULT_TOLERANCE),
        ],
        ids=["direct(-3,1)n=1", "targets(-1,2)(3,3)", "targets(-3,4)(2,3)",
             "targets(-1,2)(2,1)", "targets(-1,2)(1,2)", "targets(-2,3)(1,2)",
             "targets(-2,3)(2,3)", "direct(-1,3)n=2"],
    )
    def test_former_under_reports(self, make, tol):
        assert within_bound_of_further_run(make, tol).verdict == CONVERGED

    @settings(max_examples=50)  # a negative-drift race at 1e-20 costs up to 2 s
    @given(
        moves=st.sampled_from(NEGATIVE_DRIFT) | st.sampled_from(POSITIVE_DRIFT),
        n1=st.integers(1, 4),
        n2=st.integers(1, 4),
        evaluator=st.sampled_from(["race", "square_sum", "duration"]),
        digits=st.floats(6, 30),
    )
    def test_error_within_bound(self, moves, n1, n2, evaluator, digits):
        assume(evaluator != "duration" or moves.drift > 0)  # it diverges otherwise
        make = {
            "race": lambda p: win_prob_targets(n1, n2, moves, p),
            "square_sum": lambda p: square_sum_value(moves, n2, p),
            "duration": lambda p: expected_duration(GameSpec(moves, n2), p),
        }[evaluator]
        within_bound_of_further_run(make, 10.0**-digits)


class TestRoundingBound:
    """Non-zero-drift sums are rounded at WORK_DPS; the result's
    eval_error must cover that against the exact sum over k = 0..K."""

    @pytest.mark.parametrize(
        "evaluate, spec, term",
        [
            (lambda s: square_sum_value(s.moves, s.n), GameSpec(M12, 100), lambda r, q: r * r),
            (
                lambda s: expected_duration(s, TailPolicy(tolerance=1e-20)),
                GameSpec(MoveSet(-2, 3), 10), lambda r, q: q * q,
            ),
            (win_prob_direct, GameSpec(MoveSet(-3, 2), 1), lambda r, q: q * r),
            (
                lambda s: win_prob_direct(s, TailPolicy(tolerance=1e-60)),
                GameSpec(M12, 1), lambda r, q: q * r,
            ),
        ],
        ids=["square_sum", "duration", "direct", "direct_1e-60"],
    )
    def test_rounding_within_eval_error(self, evaluate, spec, term):
        res = evaluate(spec)
        assert res.verdict == CONVERGED
        t = build_passage_table(spec, res.truncation_k)
        exact = sum(term(t.r[k], t.q[k]) for k in range(res.truncation_k + 1))
        # the value is the partial sum plus its tail_estimate
        assert abs(res.value - res.tail_estimate - exact) <= res.eval_error

    def test_eval_error_is_one_rounding(self):
        # 508 terms, one rounding: far below the 1e-35 per term of a
        # term-by-term mpf sum
        res = square_sum_value(M12, 100)
        assert res.truncation_k > 500
        assert 0 < res.eval_error < mpf("1e-38")

    def test_converged_counts_the_rounding(self):
        for tol in (1e-12, 1e-30, 1e-60):
            res = win_prob_direct(GameSpec(M12, 1), TailPolicy(tolerance=tol))
            assert res.verdict == CONVERGED
            assert res.tail_estimate + res.eval_error <= Fraction(tol)  # exact rationals
            assert res.eval_error <= res.value / 10**res.work_dps


class TestLundbergScale:
    """Under negative drift Lundberg's bound is taken at checkpoints and
    carried to later moves on their denominator; read on the checkpoint's
    scale it would be far too small and stop the sum early."""

    @pytest.mark.parametrize("moves, stop", [(MoveSet(-2, 1), 340), (MoveSet(-3, 2), 1035)],
                             ids=str)
    def test_stop_move(self, moves, stop):
        res = win_prob_direct(GameSpec(moves, 1))
        assert (res.verdict, res.truncation_k) == (CONVERGED, stop)


# the fixed-point bits of a sum at the default tolerance, and the s of
# Lundberg's base at those bits
LUNDBERG_BITS = dps_to_prec(WORK_DPS) + series.FLOOR_GUARD_BITS
LUNDBERG_S = 2 * LUNDBERG_BITS


class TestLundbergBase:
    """Lundberg's integer base z, its bound and its sink depth, checked in
    mpmath: ``z**S_k`` is a supermartingale only for z at most the root z*
    of ``(z**a + z**b) / 2 = 1``."""

    @pytest.mark.parametrize(
        "moves",
        NEGATIVE_DRIFT + [MoveSet(-101, 100), MoveSet(-1001, 1000), MoveSet(-10**12, 1),
                          MoveSet(-10**13, 10**13 - 1)],
        ids=str)
    def test_base_is_just_below_the_root(self, moves):
        a, b = moves.a, moves.b
        big = series._lundberg_base(a, b, LUNDBERG_S)
        with mp.workdps(100):
            z = mpf(big) / 2**LUNDBERG_S
            assert (z**a + z**b) / 2 <= 1
            # and z* lies within twice the nudge z (1 - theta 1e-20) above
            above = z * (1 + 2 * mp.log(z) * mpf(10) ** -20)
            assert (above**a + above**b) / 2 > 1

    def test_no_base_where_rounding_hides_the_root(self):
        # the nudge moves g by about 1e-100 here, less than the rounding of
        # z**b at s bits
        moves = MoveSet(-10**40, 10**40 - 1)
        assert series._lundberg_base(moves.a, moves.b, LUNDBERG_S) is None
        assert series._lundberg(GameSpec(moves, 1), LUNDBERG_BITS) == (None, None)

    @pytest.mark.parametrize("a, b", [(-10**310, 10**309), (-(2**950 + 2**850), 2**950)],
                             ids=["b-past-floats", "root-past-floats"])
    def test_no_base_below_the_floats(self, a, b):
        # at 1175 bits each z* - 1 is resolved, below 2**-1000, where ln z and
        # the depth would leave a float's range
        assert series._lundberg(GameSpec(MoveSet(a, b), 1), 1175) == (None, None)

    @staticmethod
    def _checkpoints(moves, ks=(16, 150, 250, 350)):
        """(k, packed cells, low, lift) of the sink-cut lattice at each move k."""
        spec = GameSpec(moves, 1)
        depth, _ = series._lundberg(spec, LUNDBERG_BITS)
        stream = iter_passage(spec, LUNDBERG_BITS, depth)
        for k, _, _, lattice, low, lift, *_ in islice(stream, max(ks)):
            if k in ks:
                yield k, lattice, low, lift

    @pytest.mark.parametrize("moves", [MoveSet(-2, 1), MoveSet(-3, 2), MoveSet(-5, 4)], ids=str)
    def test_bound_is_the_sum_rounded_up(self, moves):
        a, b = moves.a, moves.b
        _, bound = series._lundberg(GameSpec(moves, 1), LUNDBERG_BITS)
        with mp.workprec(2 * LUNDBERG_S):  # z exactly, and a unit of each cell
            z = mpf(series._lundberg_base(a, b, LUNDBERG_S)) / 2**LUNDBERG_S
            for k, lattice, low, lift in self._checkpoints(moves):
                cells = unpack(lattice, LUNDBERG_BITS)
                top = low + len(cells) - 1
                assert cells and cells[-1], k  # the lowest cell is low's
                # on the final scale: before the first floor a cell's unit
                # is 2**lift of it, and the bound rounds in the finer one
                exact = mp.fsum((c << lift) * z ** -(1 - a * k - (b - a) * (top - i))
                                for i, c in enumerate(cells))
                got = bound(k, lattice, low, lift)
                assert exact <= got <= exact * (1 + mpf(10) ** -30), k

    @pytest.mark.parametrize("a, stop", [(-100, 16), (-20, 25)])
    def test_bound_rounds_at_the_final_scale(self, a, stop):
        # rounded up to a lattice unit, 2**-k before the first floor, the
        # bound held both sums open until move 38
        assert win_prob_direct(GameSpec(MoveSet(a, 1), 1)).truncation_k == stop

    def test_newton_starts_near_the_root(self, monkeypatch):
        # from 2**(1/b), z - 1 only halves per Newton step at this span, and
        # the search gave up after its 200 steps of two powers each
        calls = []
        power = series._power
        monkeypatch.setattr(series, "_power", lambda *args: calls.append(args) or power(*args))
        assert series._lundberg(GameSpec(MoveSet(-2**500, 2**500 - 1), 1), 1175) == (None, None)
        assert len(calls) < 20

    @pytest.mark.parametrize("moves", NEGATIVE_DRIFT, ids=str)
    def test_depth_is_the_least_deep_enough(self, moves):
        depth, _ = series._lundberg(GameSpec(moves, 1), LUNDBERG_BITS)
        with mp.workprec(2 * LUNDBERG_S):
            z = mpf(series._lundberg_base(moves.a, moves.b, LUNDBERG_S)) / 2**LUNDBERG_S
            level = mpf(2) ** -LUNDBERG_BITS / mp.e
            assert z**-depth < level <= z ** -(depth - 1)


class TestZeroDriftConstants:
    """Every zero-drift answer is exact: the pinned constants to within
    the decimal's own eval_error, with no tail and no truncation."""

    @staticmethod
    def assert_exact(res, exact):
        assert (res.verdict, res.method, res.truncation_k) == (CONVERGED, "exact", 0)
        assert res.tail_estimate == 0
        with mp.workdps(60):
            assert abs(res.value - exact.approx(60).value) <= res.eval_error

    @pytest.mark.parametrize("n1, n2", sorted(TARGET_TABLE_PM1))
    def test_target_table(self, n1, n2):
        self.assert_exact(win_prob_targets(n1, n2, PM1), TARGET_TABLE_PM1[n1, n2])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_square_sums(self, n):
        self.assert_exact(square_sum_value(PM1, n), square_sums_pm1(n)[-1])

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_equal_targets(self, n):
        half = (PiLinear.of(1) - SQUARE_SUMS_PM1[n]) * F(1, 2)
        self.assert_exact(win_prob_direct(GameSpec(PM1, n)), half)

    # nothing is summed at zero drift, so no cap or tolerance can leave an
    # answer inconclusive or move it off the exact constant

    @pytest.mark.parametrize("max_k", [129, 1001])
    @pytest.mark.parametrize("n1, n2", [(1, 2), (1, 5), (3, 4)])
    def test_odd_cap_keeps_the_bound(self, n1, n2, max_k):
        res = win_prob_targets(n1, n2, PM1, TailPolicy(tolerance=1e-30, max_k=max_k))
        self.assert_exact(res, TARGET_TABLE_PM1[n1, n2])

    @pytest.mark.parametrize("n", [20, 30])
    def test_far_targets_start_at_n_squared(self, n):
        # exact at any target: no cap below K = n**2 can cut the answer short
        for max_k in (16, n * n // 2):
            res = square_sum_value(PM1, n, TailPolicy(tolerance=1e-6, max_k=max_k))
            self.assert_exact(res, square_sums_pm1(n)[-1])

    @pytest.mark.parametrize("n", [6, 12, 30])
    def test_every_checkpoint_keeps_the_bound(self, n):
        exact = square_sums_pm1(n)[-1]
        for j in range(4, 14):
            res = square_sum_value(PM1, n, TailPolicy(tolerance=1e-30, max_k=2**j))
            self.assert_exact(res, exact)

    def test_exact_forms_equal_the_recurrence_through_100(self):
        # the telescoped forms at n = 64 and 100 have parts near 1e74
        assert [unit_step_sum(n) for n in range(1, 101)] == square_sums_pm1(100)

    @pytest.mark.parametrize("n", [64, 100])
    def test_large_targets_back_every_digit(self, n):
        # the parts of T(100) are about 1e74; the decimal still backs 30 digits
        for res in (square_sum_value(PM1, n), win_prob_direct(GameSpec(PM1, n))):
            assert res.verdict == CONVERGED and res.method == "exact"
            assert ApproxValue(res.value, res.error_bound()).guaranteed_digits() == 30
            assert 0 < res.value < 1


class TestScaledZeroDrift:
    def test_scaled_moves_match_unit_step(self):
        a = win_prob_direct(GameSpec(MoveSet(-3, 3), 7))
        b = win_prob_direct(GameSpec(PM1, 3))
        assert a.value == b.value and a.method == b.method == "exact"

    @pytest.mark.parametrize("c, n1, n2", [(2, 3, 4), (3, 7, 2), (5, 11, 30)])
    def test_scaled_targets_reduce_to_unit_step(self, c, n1, n2):
        # {-c, c} reaches n exactly when the unit-step walk reaches ceil(n / c)
        u1, u2 = -(-n1 // c), -(-n2 // c)
        scaled = MoveSet(-c, c)
        assert win_prob_targets(n1, n2, scaled) == win_prob_targets(u1, u2, PM1)
        assert square_sum_value(scaled, n2) == square_sum_value(PM1, u2)


def test_result_serialization_round_trip():
    res = win_prob_direct(GameSpec(M12, 1))
    d = res.to_json_dict()
    assert d["verdict"] == CONVERGED
    assert d["method"] == "direct"
    assert abs(Fraction(d["value"]) - res.value) <= res.error_bound() / 10
    assert d["witness"] is None
