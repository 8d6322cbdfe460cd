import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pilerace import simulate
from pilerace.passage import MoveSet
from pilerace.simulate import (SimConfig, SimReport, _accumulate, _byte_tables, _chunk_schedule,
                                _play_rows, _near_games, _stream_words, _Tally, _trial_keys,
                                run_simulation)


def counts(report: SimReport):
    return (report.p1_wins, report.p2_wins, report.censored, report.duration_sum,
            report.duration_sumsq)


# A scalar simulator on Python ints: SplitMix64 by hand, one trial at a
# time, reading the stream layout the module docstring states.
M64 = 2**64 - 1
GOLDEN, MIX1, MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix(x):
    x = (x ^ (x >> 30)) * MIX1 & M64
    x = (x ^ (x >> 27)) * MIX2 & M64
    return x ^ (x >> 31)


def _loop_schedule(t, horizon, cap=32_768):
    """The chunk schedule as a loop from t = 0: 4, 8, 16, ... rounds up to
    the cap, then the cap."""
    chunk = 4
    done = 0
    while done < t:
        done += chunk
        chunk = min(chunk * 2, cap)
    return min(chunk, horizon - t)


def _reference_game(cfg, key):
    """(winner, duration) of one game, or None when it is censored."""
    a, b = cfg.moves.a, cfg.moves.b
    piles, targets, t, block = [0, 0], (cfg.n1, cfg.n2), 0, 0
    while t < cfg.horizon:
        rounds = _loop_schedule(t, cfg.horizon)
        for k in range(2 * rounds):  # bit 2i moves A in round i, bit 2i + 1 moves B
            if k % 64 == 0:  # the chunk's next 64-bit word
                word = _mix(key + (block + k // 64 + 1) * GOLDEN & M64)
            piles[k % 2] += b if word >> k % 64 & 1 else a
            if piles[k % 2] >= targets[k % 2]:
                return k % 2, t + k // 2 + 1
        t, block = t + rounds, block + (2 * rounds + 63) // 64
    return None


def reference_counts(cfg):
    base = _mix(cfg.seed + GOLDEN & M64)
    games = [_reference_game(cfg, _mix(base ^ (i * MIX1 + GOLDEN & M64)))
             for i in range(cfg.trials)]
    ended = [g for g in games if g is not None]
    return (sum(w == 0 for w, _ in ended), sum(w == 1 for w, _ in ended),
            cfg.trials - len(ended), sum(d for _, d in ended), sum(d * d for _, d in ended))


@given(a=st.integers(-5, 5), b=st.integers(-5, 5), n1=st.integers(1, 6),
       n2=st.integers(1, 6), horizon=st.integers(1, 300), seed=st.integers(0, 2**64 - 1),
       trials=st.integers(1, 40))
# int64 piles: just past int32 range, far past it, and at the largest
# bound SimConfig accepts
@example(a=1, b=2**30, n1=2**31, n2=2**31, horizon=2, seed=0, trials=40)
@example(a=-(2**31), b=2**31 + 5, n1=2**33, n2=3 * 2**31 + 7, horizon=2_000,
         seed=2**64 - 1, trials=40)
@example(a=-1, b=2**62 - 2, n1=2**62 - 2, n2=2**63 - 4, horizon=2, seed=0, trials=40)
# a final partial byte after the chunk cap (65,532 + 32,768 rounds, then 1
# to 3): trial 0 of each seed is one below both targets at round 98,300 and
# ends in the last byte, at its first, second and third round
@example(a=0, b=1, n1=49_019, n2=49_354, horizon=98_301, seed=33, trials=1)
@example(a=0, b=1, n1=49_329, n2=49_169, horizon=98_302, seed=40, trials=1)
@example(a=0, b=1, n1=49_042, n2=49_222, horizon=98_303, seed=61, trials=1)
# int32 piles, where a four-round table sum would not fit
@example(a=1, b=2**29, n1=2**29 + 2, n2=2**30 + 1, horizon=1, seed=0, trials=40)
@example(a=1, b=2**29, n1=2**29 + 2, n2=2**30 + 1, horizon=2, seed=0, trials=40)
@example(a=1, b=2**29, n1=2**29 + 2, n2=2**30 + 1, horizon=3, seed=0, trials=40)
# the word pass: far games up to a last chunk of 981 rounds, whose last word
# holds 21; both moves upward, so the bound counts a, and most games end in
# the last word of the chunk at 124; trial 0 is far in the first three words
# of the chunk at 124 and wins in its fourth, at round 242; int64 piles, far
# and near, over chunks of up to 31 words
@example(a=-2, b=1, n1=1, n2=1, horizon=2_001, seed=0, trials=40)
@example(a=1, b=3, n1=470, n2=480, horizon=300, seed=0, trials=40)
@example(a=-1, b=2, n1=115, n2=116, horizon=300, seed=0, trials=40)
@example(a=-(2**31), b=2**31 + 5, n1=2**36, n2=2**35 + 3, horizon=2_000, seed=7, trials=40)
# both sides of the byte path's hit search: a last chunk of 9 bytes (t = 60 leaves 36
# rounds), searched by argmax, and a one-word chunk of 8 bytes (t = 28, 32 rounds),
# searched by running maxima; in each, several games end after the chunk's first byte
@example(a=-1, b=1, n1=6, n2=6, horizon=96, seed=0, trials=100)
@example(a=-1, b=1, n1=6, n2=7, horizon=60, seed=0, trials=40)
def test_matches_scalar_reference(a, b, n1, n2, horizon, seed, trials):
    cfg = SimConfig(MoveSet(a, b), n1, n2, trials, seed, horizon)
    assert counts(run_simulation(cfg)) == reference_counts(cfg)


# Tallies frozen from the shift-and-mask simulator that preceded
# unpackbits: the benchmark's monte_carlo configurations at 20k trials, a
# long censored run past the chunk cap, and a move set with int64 piles.
@pytest.mark.parametrize(
    "moves, n1, n2, trials, seed, horizon, expected",
    [
        ((-1, 2), 3, 3, 20_000, 901, None, (11593, 8407, 0, 72918, 426990)),
        ((-1, 3), 5, 5, 20_000, 902, None, (11661, 8339, 0, 69675, 340415)),
        ((-1, 1), 2, 2, 20_000, 903, 10_000, (10978, 9013, 9, 386242, 393588676)),
        ((-2, 1), 1, 1, 20_000, 904, 10_000, (11189, 5883, 2928, 30725, 237095)),
        ((-2, 1), 1, 1, 1_000, 905, 100_000, (553, 289, 158, 1352, 7802)),
        ((-(2**31), 2**31 + 5), 2**33, 3 * 2**31 + 7, 20_000, 2**64 - 1, 2_000,
         (8130, 11816, 54, 738644, 278524588)),
    ],
)
def test_pinned_tallies(moves, n1, n2, trials, seed, horizon, expected):
    cfg = SimConfig(MoveSet(*moves), n1, n2, trials, seed, horizon)
    assert counts(run_simulation(cfg)) == expected


def test_chunk_schedule_closed_form():
    horizon = 2 * 10**9
    starts, chunk, done = [], 4, 0  # chunk starts up to 10**9, as the loop walks them
    while done <= 10**9:
        starts.append((done, chunk))
        done += chunk
        chunk = min(chunk * 2, 32_768)
    i = 0
    for t in range(2**18 + 1):  # the loop gives the chunk at the first start >= t
        while starts[i][0] < t:
            i += 1
        assert _chunk_schedule(t, horizon) == starts[i][1]
    for (t, chunk), (_, after) in zip(starts, starts[1:]):
        assert _chunk_schedule(t, horizon) == chunk
        assert _chunk_schedule(t + 1, horizon) == after
        assert t == 0 or _chunk_schedule(t - 1, horizon) == chunk
        assert _chunk_schedule(t, t + 3) == min(chunk, 3)
    for t in (0, 1, 5, 100, 32_764, 65_532, 65_533, 10**6):
        for h in (t + 1, t + 7, 10**7):
            assert _chunk_schedule(t, h) == _loop_schedule(t, h)


@pytest.mark.parametrize("a, b, horizon, dtype", [
    (-1, 2, 10, np.int32), (-3, 5, 10, np.int32), (-(2**31), 2**31 + 5, 10, np.int64),
    (1, 2**29, 3, np.int32), (-1, 2**62 - 2, 2, np.int64), (2, 2, 1, np.int32)])
def test_byte_tables_match_bit_walk(a, b, horizon, dtype):
    rounds = min(4, horizon)  # no table covers more rounds than the horizon
    for p, (step, over) in enumerate(_byte_tables(SimConfig(MoveSet(a, b), 1, 1, 1, 0, horizon))):
        assert step.shape == over.shape == (rounds, 256)
        assert step.dtype == over.dtype == dtype
        for v in range(256):
            piles = []
            for m in range(rounds):  # round m moves the pile by bit 2m + p of v
                piles.append((piles[-1] if piles else 0) + (b if v >> (2 * m + p) & 1 else a))
            for k in range(1, rounds + 1):
                assert step[k - 1, v] == piles[k - 1]
                assert over[k - 1, v] == max(piles[:k]) - piles[k - 1]


def test_partial_last_byte_reads_only_its_rounds():
    # a horizon of 10 clips the second chunk to 6 rounds, two bytes of which
    # the last holds 2 rounds; the piles after it must count those alone
    cfg = SimConfig(MoveSet(-3, 5), 10**6, 10**6, 64, 5, 10)
    keys, rows = _trial_keys(cfg.seed, np.arange(64)), np.arange(64)
    piles, tally = (np.zeros(64, np.int32), np.zeros(64, np.int32)), _Tally()
    assert _chunk_schedule(4, 10) == 6
    words = _stream_words(keys, np.uint64(1))[None]  # word 2
    _play_rows(cfg, _byte_tables(cfg), words, rows, piles, 4, 6, tally)
    for i, key in enumerate(keys.tolist()):
        word = _mix(key + 2 * GOLDEN & M64)
        for p in (0, 1):
            assert piles[p][i] == sum(5 if word >> (2 * r + p) & 1 else -3 for r in range(6))


def test_word_pass_reads_only_its_rounds():
    # a 40-round chunk reads two words, the second holding 8 rounds; a far game
    # moves by those rounds alone, and a near one, which must include every game
    # that reaches a target inside them, is left where it was
    cfg = SimConfig(MoveSet(-3, 5), 80, 80, 64, 5, 100)
    keys, rows = _trial_keys(cfg.seed, np.arange(64)), np.arange(64)
    piles = (np.zeros(64, np.int32), np.zeros(64, np.int32))
    words = _stream_words(keys, np.arange(3, 5, dtype=np.uint64)[:, None])  # words 4 and 5
    near = _near_games(cfg, words, rows, piles, 40)
    assert 0 < near.sum() < 64
    reached = 0
    for i, key in enumerate(keys.tolist()):
        stream = [_mix(key + w * GOLDEN & M64) for w in (4, 5)]
        for p in (0, 1):
            walk = [0]
            for r in range(40):  # round r reads bit 2r + p of the chunk's words
                walk.append(walk[-1] + (5 if stream[r // 32] >> (2 * (r % 32) + p) & 1 else -3))
            reached += max(walk) >= 80
            assert near[i] or max(walk) < 80
            assert piles[p][i] == (0 if near[i] else walk[-1])
    assert reached > 0


def test_duration_moments_past_int64():
    # {1,1} races end at round n exactly; run one game's last chunk to 3.1e9
    horizon = 3_100_000_000
    cfg = SimConfig(MoveSet(1, 1), horizon, horizon, 1, 0, horizon)
    t = 0
    while t + _chunk_schedule(t, horizon) < horizon:
        t += _chunk_schedule(t, horizon)
    rounds, tally = horizon - t, _Tally()
    piles, row = (np.array([t]), np.array([t])), np.arange(1)
    blocks = np.arange((2 * rounds + 63) // 64, dtype=np.uint64)[:, None]
    words = _stream_words(_trial_keys(0, row), blocks)
    alive = _play_rows(cfg, _byte_tables(cfg), words, row, piles, t, rounds, tally)
    assert alive.size == 0 and tally.wins1 == 1
    assert tally.dur_sum == horizon
    assert tally.dur_sumsq == horizon**2 == 9_610_000_000_000_000_000


def traced_peak(cfg):
    """The ``tracemalloc`` peak of one ``run_simulation(cfg)``, in bytes."""
    tracemalloc.start()
    try:
        run_simulation(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory():
    assert traced_peak(SimConfig(MoveSet(-1, 2), 3, 3, trials=200_000, seed=5)) < 40 * 2**20


class TestDeterminism:
    def test_same_config_same_report(self):
        cfg = SimConfig(MoveSet(-1, 1), 1, 1, trials=30_000, seed=42)
        assert counts(run_simulation(cfg)) == counts(run_simulation(cfg))

    def test_batch_partition_irrelevant(self, monkeypatch):
        cfg = SimConfig(MoveSet(-1, 2), 1, 2, trials=25_000, seed=7)
        whole = counts(run_simulation(cfg))  # one batch
        for batch_size in (999, 4_096):
            monkeypatch.setattr(simulate, "BATCH_SIZE", batch_size)
            assert whole == counts(run_simulation(cfg)), batch_size
        monkeypatch.undo()
        # row groups of one game, a few dozen and a few thousand, on short games and
        # on long ones whose last chunk ends in a one-round byte after most are censored
        for cfg in (SimConfig(MoveSet(-1, 2), 1, 2, trials=2_000, seed=7),
                    SimConfig(MoveSet(-2, 1), 1, 1, trials=300, seed=8, max_moves_per_game=3_001)):
            whole = counts(run_simulation(cfg))
            for budget in (1, 37, 4_096):
                monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", budget)
                assert whole == counts(run_simulation(cfg)), (cfg, budget)
            monkeypatch.undo()

    def test_seed_changes_outcome(self):
        cfg1 = SimConfig(MoveSet(-1, 1), 1, 1, trials=20_000, seed=1)
        cfg2 = SimConfig(MoveSet(-1, 1), 1, 1, trials=20_000, seed=2)
        assert counts(run_simulation(cfg1)) != counts(run_simulation(cfg2))


def count_rows(monkeypatch, name):
    """Spies on ``simulate.<name>``, ``_play_group`` or ``_play_rows``, whose arguments
    begin (cfg, tables, keys or words, rows, piles, t); returns chunk start -> rows
    passed there.  From the second chunk on, ``_play_group`` sees every game that is
    played, by the word pass or byte by byte, and ``_play_rows`` only those played byte
    by byte.  Neither sees the first chunk, which ``_play_first`` plays from its table."""
    rows_at = {}
    inner = getattr(simulate, name)

    def counting(cfg, tables, stream, rows, piles, t, *rest):
        rows_at[t] = rows_at.get(t, 0) + rows.size
        return inner(cfg, tables, stream, rows, piles, t, *rest)

    monkeypatch.setattr(simulate, name, counting)
    return rows_at


class TestHopelessGames:
    """A game in which neither pile can reach its target by the horizon is
    censored at a chunk start without being played."""

    @pytest.mark.parametrize("moves", [(-2, -1), (-1, 0), (0, 0)])
    def test_no_upward_move_plays_nothing(self, monkeypatch, moves):
        rows_at = count_rows(monkeypatch, "_play_group")
        cfg = SimConfig(MoveSet(*moves), 1, 2, trials=1_000, seed=3, max_moves_per_game=50)
        assert counts(run_simulation(cfg)) == (0, 0, 1_000, 0, 0) == reference_counts(cfg)
        assert rows_at == {}

    def test_final_chunk_of_a_negative_drift_race_plays_nothing(self, monkeypatch):
        # at t = 8,188 the piles sit near -4,094, and 1,812 rounds of +1 cannot reach 1
        rows_at = count_rows(monkeypatch, "_play_group")
        cfg = SimConfig(MoveSet(-2, 1), 1, 1, 20_000, 904, 10_000)
        assert counts(run_simulation(cfg)) == (11189, 5883, 2928, 30725, 237095)
        assert _chunk_schedule(8_188, 10_000) == 1_812
        assert rows_at[4_092] > 0 and 8_188 not in rows_at


class TestWordPass:
    """In a chunk of more than one word, a game whose piles stay below both
    targets in every word moves a word at a time, without the byte tables."""

    CFG = SimConfig(MoveSet(-2, 1), 1, 1, 20_000, 904, 10_000)

    def test_far_games_skip_the_byte_tables(self, monkeypatch):
        # the first chunk takes neither path, and from the 1,024-round chunk on, every
        # live {-2,1} game sits far below 1
        played = count_rows(monkeypatch, "_play_group")
        by_bytes = count_rows(monkeypatch, "_play_rows")
        assert counts(run_simulation(self.CFG)) == (11189, 5883, 2928, 30725, 237095)
        assert 0 not in played and played[1_020] > 0 and played[4_092] > 0
        assert min(by_bytes) == 4 and max(by_bytes) < 1_020

    def test_peak_memory(self):
        assert traced_peak(self.CFG) < 4 * 2**20


class TestFirstChunk:
    """The first chunk, at most four rounds from piles of 0, is read from one table
    over its byte values."""

    def test_no_round_counts(self, monkeypatch):
        calls = []
        rounds_below = simulate._rounds_below
        monkeypatch.setattr(simulate, "_rounds_below",
                            lambda *args: calls.append(1) or rounds_below(*args))
        cfg = SimConfig(MoveSet(-1, 2), 3, 3, 2_000, 901, 4)  # the first chunk alone
        report = run_simulation(cfg)
        assert counts(report) == reference_counts(cfg) and report.p1_wins > 0
        assert calls == []
        cfg = SimConfig(MoveSet(-1, 2), 3, 3, 2_000, 901, 8)  # and a second one
        assert counts(run_simulation(cfg)) == reference_counts(cfg)
        assert calls

    @pytest.mark.parametrize("a, b, n1, n2", [
        (-1, 2, 2, 3), (-3, 5, 5, 4), (-(2**31), 2**31 + 5, 2**31, 2**32),
        (-1, 2, 9, 10)])  # the last: 2 * 4 < 9, so every game is hopeless before it starts
    @pytest.mark.parametrize("horizon", [1, 2, 3, 4])
    def test_matches_scalar_reference(self, a, b, n1, n2, horizon):
        cfg = SimConfig(MoveSet(a, b), n1, n2, 500, 19, horizon)
        assert counts(run_simulation(cfg)) == reference_counts(cfg)


@given(rows=st.integers(1, 1_100), cols=st.integers(1, 40),
       dtype=st.sampled_from([np.int32, np.int64]), seed=st.integers(0, 2**32 - 1))
@example(rows=511, cols=40, dtype=np.int32, seed=0)  # the last shape of log-step passes
@example(rows=512, cols=40, dtype=np.int64, seed=0)  # the first of numpy's accumulate
def test_accumulate_matches_numpy(rows, cols, dtype, seed):
    x = np.random.default_rng(seed).integers(-(2**20), 2**20, (rows, cols)).astype(dtype)
    for op, expected in ((np.add, np.cumsum(x, axis=0, dtype=dtype)),
                         (np.maximum, np.maximum.accumulate(x, axis=0))):
        y = x.copy()
        _accumulate(op, y)  # in place
        assert y.dtype == dtype and np.array_equal(y, expected)


class TestAccounting:
    def test_counts_add_up(self):
        cfg = SimConfig(MoveSet(-1, 1), 2, 2, trials=50_000, seed=3)
        rep = run_simulation(cfg)
        assert rep.p1_wins + rep.p2_wins + rep.censored == cfg.trials
        assert math.isclose(rep.p1_win_rate + rep.p2_win_rate + rep.censored_rate, 1.0)

    def test_standard_error_formula(self):
        cfg = SimConfig(MoveSet(-1, 1), 1, 1, trials=10_000, seed=9)
        rep = run_simulation(cfg)
        p = rep.p2_win_rate
        assert math.isclose(
            rep.standard_errors()["p2_win_rate"], math.sqrt(p * (1 - p) / cfg.trials)
        )

    def test_one_finished_game_has_no_duration_error(self):
        # a sample variance needs two finished games
        rep = run_simulation(SimConfig(MoveSet(-1, 1), 1, 1, trials=1, seed=0))
        assert rep.standard_errors()["mean_duration_uncensored"] is None

    def test_report_validation(self):
        cfg = SimConfig(MoveSet(-1, 1), 1, 1, trials=10, seed=0)
        with pytest.raises(ValueError):
            SimReport(cfg, p1_wins=5, p2_wins=4, censored=2, duration_sum=0, duration_sumsq=0)


class TestGameSemantics:
    def test_deterministic_race_first_mover_wins(self):
        rep = run_simulation(SimConfig(MoveSet(1, 1), 3, 3, trials=2_000, seed=11))
        assert rep.p1_win_rate == 1.0
        assert rep.p2_win_rate == 0.0
        assert rep.mean_duration_uncensored == 3.0

    def test_second_player_easier_target_still_loses_ties(self):
        # identical targets, deterministic moves: A always reaches first
        rep = run_simulation(SimConfig(MoveSet(2, 2), 4, 4, trials=500, seed=13))
        assert rep.p1_win_rate == 1.0

    def test_agreement_with_exact_value(self):
        # 5-sigma guard band keeps this stable across any seed choice
        from pilerace.series import win_prob_direct
        from pilerace.passage import GameSpec

        exact = float(win_prob_direct(GameSpec(MoveSet(-1, 1), 1)).value)
        rep = run_simulation(SimConfig(MoveSet(-1, 1), 1, 1, trials=1_000_000, seed=2024))
        se = rep.standard_errors()["p2_win_rate"]
        assert abs(rep.p2_win_rate - exact) < 5 * se

    def test_asymmetric_agreement(self):
        from pilerace.series import win_prob_targets

        exact = float(win_prob_targets(1, 2, MoveSet(-1, 2)).value)
        rep = run_simulation(SimConfig(MoveSet(-1, 2), 1, 2, trials=1_000_000, seed=31))
        se = rep.standard_errors()["p2_win_rate"]
        assert abs(rep.p2_win_rate - exact) < 5 * se

    @pytest.mark.parametrize("n1, n2, seed", [(16, 15, 3), (25, 24, 4)])
    def test_large_zero_drift_cells(self, n1, n2, seed):
        # the exact telescoped answer lies between the seeded simulator's
        # win rate and that rate plus its censored share, up to 5 SE
        from pilerace.series import win_prob_targets

        exact = float(win_prob_targets(n1, n2, MoveSet(-1, 1)).value)
        rep = run_simulation(SimConfig(MoveSet(-1, 1), n1, n2, trials=20_000, seed=seed))
        band = 5 * rep.standard_errors()["p2_win_rate"]
        assert rep.p2_win_rate - band <= exact <= rep.p2_win_rate + rep.censored_rate + band


class TestCensoring:
    def test_short_horizon_censors(self):
        cfg = SimConfig(MoveSet(-1, 1), 4, 4, trials=5_000, seed=17, max_moves_per_game=8)
        rep = run_simulation(cfg)
        assert rep.censored > 0
        assert rep.config.horizon == 8

    def test_default_horizon_by_drift(self):
        assert SimConfig(MoveSet(-1, 1), 1, 1, trials=1, seed=0).horizon == 1_000_000
        assert SimConfig(MoveSet(-1, 2), 1, 1, trials=1, seed=0).horizon == 10_000

    def test_doubling_horizon_moves_rate_less_than_censored_mass(self):
        base = SimConfig(MoveSet(-1, 1), 1, 1, trials=200_000, seed=23,
                         max_moves_per_game=64)
        doubled = SimConfig(MoveSet(-1, 1), 1, 1, trials=200_000, seed=23,
                            max_moves_per_game=128)
        r1 = run_simulation(base)
        r2 = run_simulation(doubled)
        assert abs(r2.p2_win_rate - r1.p2_win_rate) < 2 * r1.censored_rate

    def test_all_censored_has_no_duration(self):
        cfg = SimConfig(MoveSet(-1, 1), 50, 50, trials=100, seed=29, max_moves_per_game=3)
        rep = run_simulation(cfg)
        assert rep.censored == 100
        assert rep.mean_duration_uncensored is None


class TestValidation:
    def test_bad_targets(self):
        with pytest.raises(ValueError):
            SimConfig(MoveSet(-1, 1), 0, 1, trials=1, seed=0)

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            SimConfig(MoveSet(-1, 1), 1, 1, trials=0, seed=0)

    def test_bad_horizon(self):
        with pytest.raises(ValueError, match="the censoring horizon must be >= 1"):
            SimConfig(MoveSet(-1, 2), 1, 1, 10, 0, 0)

    def test_piles_beyond_64_bits_rejected(self):
        # two b-moves would carry a pile past 2**63 - 1 within the horizon
        with pytest.raises(ValueError, match="64-bit"):
            SimConfig(MoveSet(1, 2**62), 2**63 - 1, 2**63 - 1, 1_000, 0, 100)
        with pytest.raises(ValueError, match="64-bit"):
            SimConfig(MoveSet(0, 2**62), 1, 1, trials=1, seed=0, max_moves_per_game=2)
        SimConfig(MoveSet(-1, 2**62 - 2), 1, 1, trials=1, seed=0, max_moves_per_game=2)

    def test_unreachable_target(self):
        rep = run_simulation(SimConfig(MoveSet(-1, 2), 10**30, 1, trials=1_000, seed=3,
                                       max_moves_per_game=50))
        assert rep.p1_wins == 0
        assert rep.p2_wins + rep.censored == 1_000

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            SimConfig(MoveSet(-1, 1), 1, 1, trials=1, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(MoveSet(-1, 1), 1, 1, trials=1, seed=2**64)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("moves", (-1, 2)),
            ("n1", 1.5),
            ("n2", True),
            ("trials", 10.5),
            ("seed", 0.0),
            ("max_moves_per_game", 10.0),
        ],
    )
    def test_field_types(self, field, value):
        fields = dict(moves=MoveSet(-1, 2), n1=1, n2=1, trials=10, seed=0,
                      max_moves_per_game=None)
        fields[field] = value
        with pytest.raises(TypeError):
            SimConfig(**fields)

    def test_json_fields(self):
        rep = run_simulation(SimConfig(MoveSet(-1, 1), 1, 1, trials=1_000, seed=1))
        d = rep.to_json_dict()
        assert d["trials"] == 1_000
        assert d["p1_wins"] + d["p2_wins"] + d["censored"] == 1_000
        assert "standard_errors" in d
