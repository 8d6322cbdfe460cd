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

Each stream byte holds four whole rounds, so games advance four rounds
per table lookup.  ``_byte_tables`` gives, per player and byte value, the
pile change over the byte's first k rounds and the highest pile reached
inside them; a cumulative sum of the changes gives the pile at every
byte's end, and a hit's round is sought only in the first byte that
reaches the target.  Piles are ``int32`` when ``(|a| + |b|) * horizon``
is below ``2**31`` and ``int64`` otherwise.  No table covers more rounds
than the horizon, so that bound covers every table entry too: at
``{-1, 2**62 - 2}`` with horizon 2, a four-round sum would leave
``int64``.  ``SimConfig`` rejects move sets and horizons whose bound
reaches ``2**63``.

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
# trials per batch: a memory/performance knob only, since the report does not
# depend on how the trials are partitioned
BATCH_SIZE = 500_000
# Stream bytes per row group, rows * ceil(rounds / 4): few enough that the group's
# arrays stay in a 2 MB L2 cache, and enough that per-group overhead stays small.
_ELEMENT_BUDGET = 1 << 17


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
    """Rounds to simulate next, given ``t`` rounds done already: 4, 8, 16,
    ... up to ``_CHUNK_CAP``, then the cap (a t between chunk starts gets
    the next one's), so that no trial's words depend on its grouping."""
    return min(4 << ((t + 3) // 4).bit_length(), _CHUNK_CAP, horizon - t)


def _byte_tables(cfg: SimConfig) -> list:
    """Per player, ``(step, over)`` in the pile dtype: the pile change over the first
    k rounds of byte v, ``step[k - 1, v]``, and their highest prefix minus it, ``over``."""
    dt = np.int32 if cfg._pile_bound < 2**31 else np.int64
    m = np.arange(min(4, cfg.horizon))[:, None]  # round m of a byte reads bit 2m (A) or 2m + 1 (B)
    moved = [np.array((cfg.moves.a, cfg.moves.b), dt)[np.arange(256) >> (2 * m + p) & 1]
             for p in (0, 1)]
    return [(s, np.maximum.accumulate(s, axis=0) - s) for s in np.cumsum(moved, axis=1, dtype=dt)]


class _Tally:
    __slots__ = ("wins1", "wins2", "dur_sum", "dur_sumsq")

    def __init__(self):
        self.wins1 = 0
        self.wins2 = 0
        self.dur_sum = 0
        self.dur_sumsq = 0


def _play_rows(cfg, tables, keys, rows, piles, t, rounds, block, nwords, tally):
    """Advance one group of live games by ``rounds`` rounds, a stream byte
    at a time; returns the surviving row indices."""
    words = _stream_words(keys[rows, None], np.arange(block, block + nwords, dtype=_U64))
    nbytes = (rounds + 3) // 4
    data = np.ascontiguousarray(words.astype("<u8", copy=False).view(np.uint8)[:, :nbytes])
    k, last = min(4, rounds), rounds - 4 * (nbytes - 1)  # rounds in a full and the last byte
    firsts = []
    for p, n in enumerate((cfg.n1, cfg.n2)):
        step, over = tables[p]
        inc, reach = np.take(step[k - 1], data), np.take(over[k - 1], data)
        if last < k:
            inc[:, -1], reach[:, -1] = step[last - 1, data[:, -1]], over[last - 1, data[:, -1]]
        end = np.cumsum(inc, axis=1, dtype=inc.dtype) + piles[p][rows, None]  # at each byte's end
        reach += end  # the highest pile inside each byte
        hit = np.flatnonzero(reach.max(axis=1) >= n)
        j = (reach[hit] >= n).argmax(axis=1)  # the first byte that reaches n
        at = hit * nbytes + j  # its flat index
        v, before = np.take(data, at), np.take(end, at) - np.take(inc, at)
        # the first round of byte j that reaches n, reading no round past the
        # chunk's last, so that every sum stays within the pile bound
        left, inner = rounds - 1 - 4 * j, np.full(hit.size, step.shape[0] - 1)
        for r in range(step.shape[0] - 2, -1, -1):
            inner[before + np.take(step, v + 256 * np.minimum(r, left)) >= n] = r
        first = np.full(rows.size, rounds)
        first[hit] = 4 * j + inner
        firsts.append(first)
        piles[p][rows] = end[:, -1]
    first1, first2 = firsts
    done = (first1 < rounds) | (first2 < rounds)
    a_wins = done & (first1 <= first2)  # A moves first: simultaneous hits go to A
    b_wins = done & (first2 < first1)
    tally.wins1 += int(a_wins.sum())
    tally.wins2 += int(b_wins.sum())
    ends = t + 1 + np.where(a_wins, first1, first2)[done]
    if ends.size * (t + rounds) ** 2 >= 2**63:  # the int64 sum of squares could wrap
        ends = np.array(ends.tolist(), dtype=object)
    tally.dur_sum += int(ends.sum())
    tally.dur_sumsq += int((ends * ends).sum())
    return rows[~done]


def _run_batch(cfg: SimConfig, tables, start: int, count: int, tally: _Tally) -> int:
    horizon = cfg.horizon
    keys = _trial_keys(cfg.seed, np.arange(start, start + count, dtype=np.int64))
    dt = tables[0][0].dtype
    piles = (np.zeros(count, dtype=dt), np.zeros(count, dtype=dt))
    alive = np.arange(count)
    t = 0
    block = 0
    while alive.size and t < horizon:
        rounds = _chunk_schedule(t, horizon)
        nwords = (2 * rounds + 63) // 64
        group = max(1, _ELEMENT_BUDGET // ((rounds + 3) // 4))
        survivors = []
        for g0 in range(0, alive.size, group):
            rows = alive[g0 : g0 + group]
            survivors.append(_play_rows(cfg, tables, keys, rows, piles, t, rounds, block, nwords,
                                        tally))
        alive = survivors[0] if len(survivors) == 1 else np.concatenate(survivors)
        t += rounds
        block += nwords
    return alive.size


def run_simulation(cfg: SimConfig) -> SimReport:
    """Simulate ``cfg.trials`` games in batches of ``BATCH_SIZE``;
    deterministic given the seed."""
    tables = _byte_tables(cfg)
    tally = _Tally()
    censored = 0
    for start in range(0, cfg.trials, BATCH_SIZE):
        count = min(BATCH_SIZE, cfg.trials - start)
        censored += _run_batch(cfg, tables, start, count, tally)
    return SimReport(cfg, tally.wins1, tally.wins2, censored, tally.dur_sum, tally.dur_sumsq)
