"""Monte Carlo oracle for the race game.

Full two-player games are simulated in vectorized batches.  Player A
moves first each round and is checked first, so a round in which both
piles would reach their targets counts as an A win; B's k-th move only
happens when A has not yet won.  Games that exceed the censoring horizon
count toward neither player and are reported separately (at zero drift
the game length has no finite mean, so censoring is unavoidable and must
never be hidden).

Randomness is counter-based: trial ``i`` consumes a SplitMix64 output
stream whose key is mixed from ``(seed, i)``, and the stream position
consumed at a given round is a fixed function of the round index alone.
Results are therefore bit-identical however the trials are partitioned
into batches or row groups (or distributed across workers), which is the
reproducibility contract the tests pin down.  The stream layout is part
of that contract.  Games advance in chunks of rounds set by
``_chunk_schedule``.  A chunk of ``r`` rounds reads the next
``ceil(2r / 64)`` words of the trial's stream, and unread bits of its last
word are dropped.  Round ``i`` of a chunk reads bits ``2i`` (player A) and
``2i + 1`` (player B), little-endian within and across words; a set bit
moves the pile by ``b``, a clear one by ``a``.

Piles are cumulative sums in ``int32`` when ``(|a| + |b|) * horizon`` is
below ``2**31``, which bounds every pile and every intermediate of the
pile arithmetic, and in ``int64`` otherwise.  ``SimConfig`` rejects move
sets and horizons whose bound reaches ``2**63``.

This is the one module that imports numpy at load time; the only other
user, the exhaustive oracle ``enumerate_first_passage``, imports it when
called.  The package and the CLI load this module on first use, so the
exact and series commands never pay numpy's import, which is most of a
``pilerace`` process's start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .passage import MoveSet, require_int

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)

DEFAULT_HORIZON_ZERO_DRIFT = 1_000_000
DEFAULT_HORIZON = 10_000
_CHUNK_CAP = 32_768  # rounds per fetch once the schedule has grown
# Unpacked bits (bytes) per row group: rows * 2 * rounds.  Each player's
# pile array then holds half as many elements.
_ELEMENT_BUDGET = 1 << 22


def _mix64(x):
    x = (x ^ (x >> _U64(30))) * _MIX1
    x = (x ^ (x >> _U64(27))) * _MIX2
    return x ^ (x >> _U64(31))


def _trial_keys(seed: int, trial_ids):
    with np.errstate(over="ignore"):
        return _mix64(
            _mix64(_U64(seed) + _GOLDEN) ^ (trial_ids.astype(_U64) * _MIX1 + _GOLDEN)
        )


def _stream_words(keys, blocks):
    # SplitMix64 output sequence per key; blocks index stream positions,
    # and the two arrays broadcast against each other.
    with np.errstate(over="ignore"):
        return _mix64(keys + (blocks + _U64(1)) * _GOLDEN)


@dataclass(frozen=True)
class SimConfig:
    """One simulation request; identical configs give identical reports."""

    moves: MoveSet
    n1: int
    n2: int
    trials: int
    seed: int
    max_moves_per_game: int | None = None

    def __post_init__(self):
        if not isinstance(self.moves, MoveSet):
            raise TypeError(f"moves must be a MoveSet, got {self.moves!r}")
        for name in ("n1", "n2", "trials", "seed"):
            require_int(getattr(self, name), name)
        if self.max_moves_per_game is not None:
            require_int(self.max_moves_per_game, "max_moves_per_game")
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("both targets must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.max_moves_per_game is not None and self.max_moves_per_game < 1:
            raise ValueError("the censoring horizon must be >= 1")
        if self._pile_bound >= 2**63:
            raise ValueError(
                "piles could leave the 64-bit range within the horizon: "
                "(|a| + |b|) * horizon must be below 2**63"
            )

    @property
    def horizon(self) -> int:
        if self.max_moves_per_game is not None:
            return self.max_moves_per_game
        if self.moves.drift == 0:
            return DEFAULT_HORIZON_ZERO_DRIFT
        return DEFAULT_HORIZON

    @property
    def _pile_bound(self) -> int:
        """Bounds the magnitude of every pile, and of every intermediate
        of ``_play_rows``' pile arithmetic, within the horizon."""
        return (abs(self.moves.a) + abs(self.moves.b)) * self.horizon


@dataclass(frozen=True)
class SimReport:
    """Counts and derived estimates; counts merge exactly across batches."""

    config: SimConfig
    p1_wins: int
    p2_wins: int
    censored: int
    duration_sum: int
    duration_sumsq: int

    def __post_init__(self):
        if self.p1_wins + self.p2_wins + self.censored != self.config.trials:
            raise ValueError("win/censor counts must add up to the trial count")

    @property
    def p1_win_rate(self) -> float:
        return self.p1_wins / self.config.trials

    @property
    def p2_win_rate(self) -> float:
        return self.p2_wins / self.config.trials

    @property
    def censored_rate(self) -> float:
        return self.censored / self.config.trials

    @property
    def mean_duration_uncensored(self) -> float | None:
        done = self.p1_wins + self.p2_wins
        if done == 0:
            return None
        return self.duration_sum / done

    def standard_errors(self) -> dict:
        n = self.config.trials
        out = {}
        for name, p in (
            ("p1_win_rate", self.p1_win_rate),
            ("p2_win_rate", self.p2_win_rate),
            ("censored_rate", self.censored_rate),
        ):
            out[name] = math.sqrt(p * (1 - p) / n)
        done = self.p1_wins + self.p2_wins
        if done >= 2:
            mean = self.duration_sum / done
            var = (self.duration_sumsq - done * mean * mean) / (done - 1)
            out["mean_duration_uncensored"] = math.sqrt(max(var, 0.0) / done)
        else:
            out["mean_duration_uncensored"] = None
        return out

    def to_json_dict(self) -> dict:
        return {
            "moves": [self.config.moves.a, self.config.moves.b],
            "n1": self.config.n1,
            "n2": self.config.n2,
            "trials": self.config.trials,
            "seed": self.config.seed,
            "horizon": self.config.horizon,
            "p1_wins": self.p1_wins,
            "p2_wins": self.p2_wins,
            "censored": self.censored,
            "p1_win_rate": self.p1_win_rate,
            "p2_win_rate": self.p2_win_rate,
            "censored_rate": self.censored_rate,
            "mean_duration_uncensored": self.mean_duration_uncensored,
            "standard_errors": self.standard_errors(),
        }


def _chunk_schedule(t: int, horizon: int) -> int:
    """Rounds to simulate next, given ``t`` rounds done already.  A fixed
    function of t and the horizon only, so that the words each trial
    consumes never depend on how trials were grouped."""
    chunk = 4
    done = 0
    while done < t:
        done += chunk
        chunk = min(chunk * 2, _CHUNK_CAP)
    return min(chunk, horizon - t)


class _Tally:
    __slots__ = ("wins1", "wins2", "dur_sum", "dur_sumsq")

    def __init__(self):
        self.wins1 = 0
        self.wins2 = 0
        self.dur_sum = 0
        self.dur_sumsq = 0


def _play_rows(cfg, keys, rows, piles, t, rounds, block, nwords, tally):
    """Advance one group of live games by ``rounds`` rounds; returns the
    surviving row indices."""
    words = _stream_words(keys[rows, None], np.arange(block, block + nwords, dtype=_U64))
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=1,
                         count=2 * rounds, bitorder="little")
    a, b = cfg.moves.a, cfg.moves.b
    a_steps = np.arange(1, rounds + 1, dtype=piles[0].dtype) * a
    firsts = []
    for p, n in enumerate((cfg.n1, cfg.n2)):
        pile = np.cumsum(bits[:, p::2], axis=1, dtype=piles[p].dtype)  # b-moves so far
        pile *= b - a
        pile += a_steps
        pile += piles[p][rows, None]
        first = np.full(rows.size, rounds)
        hit = np.flatnonzero(pile.max(axis=1) >= n)
        first[hit] = (pile[hit] >= n).argmax(axis=1)
        firsts.append(first)
        piles[p][rows] = pile[:, -1]
    first1, first2 = firsts
    done = (first1 < rounds) | (first2 < rounds)
    a_wins = done & (first1 <= first2)  # A moves first: simultaneous hits go to A
    b_wins = done & (first2 < first1)
    tally.wins1 += int(a_wins.sum())
    tally.wins2 += int(b_wins.sum())
    ends = t + 1 + np.where(a_wins, first1, first2)[done]
    tally.dur_sum += int(ends.sum())
    tally.dur_sumsq += int((ends * ends).sum())
    return rows[~done]


def _run_batch(cfg: SimConfig, start: int, count: int, tally: _Tally) -> int:
    horizon = cfg.horizon
    keys = _trial_keys(cfg.seed, np.arange(start, start + count, dtype=np.int64))
    dt = np.int32 if cfg._pile_bound < 2**31 else np.int64
    piles = (np.zeros(count, dtype=dt), np.zeros(count, dtype=dt))
    alive = np.arange(count)
    t = 0
    block = 0
    while alive.size and t < horizon:
        rounds = _chunk_schedule(t, horizon)
        nwords = (2 * rounds + 63) // 64
        group = max(1, _ELEMENT_BUDGET // (2 * rounds))
        survivors = []
        for g0 in range(0, alive.size, group):
            rows = alive[g0 : g0 + group]
            survivors.append(_play_rows(cfg, keys, rows, piles, t, rounds, block, nwords, tally))
        alive = survivors[0] if len(survivors) == 1 else np.concatenate(survivors)
        t += rounds
        block += nwords
    return alive.size


def run_simulation(cfg: SimConfig, batch_size: int = 500_000) -> SimReport:
    """Simulate ``cfg.trials`` games; deterministic given the seed and
    independent of ``batch_size`` (a memory/performance knob only)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    tally = _Tally()
    censored = 0
    for start in range(0, cfg.trials, batch_size):
        count = min(batch_size, cfg.trials - start)
        censored += _run_batch(cfg, start, count, tally)
    return SimReport(cfg, tally.wins1, tally.wins2, censored, tally.dur_sum, tally.dur_sumsq)
