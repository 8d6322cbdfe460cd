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
inside them.  The first chunk, at most four rounds, is one byte played
from piles of 0, so its outcome depends on the byte value alone:
``_first_chunk`` turns the byte tables into 256-entry tables of each
player's first hitting round, the game's win and duration tallies and its
piles after the chunk.  A ``bincount`` of a group's byte values, times
those tallies, gives the group's wins and duration sums, and only the
games that go on gather their piles.

Later chunks are played byte by byte.  A row group lays its bytes out
bytes × games, so every table read, reduction and prefix sum runs along
rows of games, and it converts the bytes to ``intp`` once for all of its
table reads.  It sums the changes along its bytes to get the pile at every
byte's end, finds the first byte whose highest pile reaches the target,
and counts the rounds r inside that byte with ``pile + cmax[r, v] < n``,
``cmax`` being the running maximum of the byte's changes.  A last byte cut
short by the horizon reads columns of the tables that stop at its end.
Prefix sums and running maxima along axis 0 take log2(rows) whole-array
passes, which beat numpy's ``accumulate`` along axis 0 below 512 rows and
lose to it above.  In a chunk of one word or less, the first reaching byte
is the count of bytes whose running maximum stays below the target; in a
wider one, where ``argmax`` along axis 0 over the games that hit is
cheaper, it is that ``argmax``.

A chunk of more than one word first takes a word pass over its group's
games, which are ``_ELEMENT_BUDGET // nwords`` at a time.  Per word and
player, ``cnt = bitwise_count(word & mask)`` counts the ``b`` moves, with
``mask`` = ``0x5555...`` for A (bits 2i), ``0xAAAA...`` for B (bits
2i + 1), and the unread bits of the last word masked off.  A word of R
rounds (32, or fewer in the last word) moves the pile by
``a * R + (b - a) * cnt``, and no pile inside it exceeds its start plus
its upward moves, ``max(b, 0) * cnt + max(a, 0) * (R - cnt)``.  A prefix
sum of the words' changes gives every word's start.  A game whose bound
stays below both targets in every word is far: it cannot end in the chunk,
so it survives, and its piles advance by the summed changes without a
table read.  Only the near games are played byte by byte, from the words
already mixed.  Long games under negative drift sink far below their
targets, and from their first few hundred rounds on they take only the
word pass, 32 rounds per word read.  The pass is exact, and the stream
layout does not change with it.

At each chunk start, a game in which neither pile can reach its target
by the horizon, even moving by ``b`` every round, is censored at once
without being played: it could neither win nor end.  Piles are ``int32``
when ``(|a| + |b|) * horizon`` is below ``2**31`` and ``int64`` otherwise.
No table covers more rounds than the horizon, so that bound covers every
table entry too: at ``{-1, 2**62 - 2}`` with horizon 2, a four-round sum
would leave ``int64``.  ``SimConfig`` rejects move sets and horizons whose
bound reaches ``2**63``.

This is the one module that imports numpy.  The package and the CLI load
it on first use, so the exact and series commands never pay numpy's
import, which is most of a ``pilerace`` process's start-up.
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
# Stream bytes per row group played byte by byte, rows * ceil(rounds / 4), and stream words
# per word-pass group, rows * nwords.  Each byte is an 8-byte intp index plus three
# pile-dtype arrays (changes, prefix sums, highest piles), 20 to 32 bytes, and each word
# 8 bytes plus its masked copy and a few pile-dtype arrays, so one player's pass over a
# group touches 0.6 to 1.2 MB and stays in a 2 MB L2 cache, while the group stays large
# enough that per-group overhead is small.
_ELEMENT_BUDGET = 1 << 15


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
        of the pile arithmetic of ``_play_rows`` and ``_near_games``, within
        the horizon."""
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


def _first_chunk(cfg: SimConfig, tables) -> tuple:
    """The first chunk, its ``min(4, horizon)`` rounds played from piles of 0, as tables
    over its one stream byte v: ``outcome[v]`` holds a game's (A wins, B wins, duration,
    duration squared), all 0 when it does not end, ``live[v]`` whether it goes on, and
    ``ends[p][v]`` player p's pile if it does."""
    rounds = min(4, cfg.horizon)
    f1, f2 = (((step + over)[:rounds] < n).sum(axis=0)  # each player's first hitting round
              for (step, over), n in zip(tables, (cfg.n1, cfg.n2)))
    ended = np.minimum(f1, f2)
    done = ended < rounds
    duration = np.where(done, ended + 1, 0)
    outcome = np.stack([done & (f1 <= f2), done & (f2 < f1), duration, duration * duration], 1)
    return outcome.astype(np.int64), ~done, [step[rounds - 1] for step, _ in tables]


def _play_first(first, keys, rows, piles, tally):
    """Play the first chunk of one group of games, whose trial keys are ``keys``, from
    the byte values alone; returns the surviving row indices."""
    outcome, live, ends = first
    v = _stream_words(keys, _U64(0)).astype("<u8", copy=False).view(np.uint8)[::8].astype(np.intp)
    wins1, wins2, dur_sum, dur_sumsq = (np.bincount(v, minlength=256) @ outcome).tolist()
    tally.wins1 += wins1
    tally.wins2 += wins2
    tally.dur_sum += dur_sum
    tally.dur_sumsq += dur_sumsq
    going = np.flatnonzero(live.take(v))
    v, rows = v[going], rows[going]
    for p in (0, 1):
        piles[p][rows] = ends[p].take(v)
    return rows


class _Tally:
    __slots__ = ("wins1", "wins2", "dur_sum", "dur_sumsq")

    def __init__(self):
        self.wins1 = 0
        self.wins2 = 0
        self.dur_sum = 0
        self.dur_sumsq = 0


def _rounds_below(cmax, pile, v, n):
    """Rounds of byte ``v``, played from ``pile``, before the pile first reaches
    ``n``: the count of rows r of ``cmax`` with ``pile + cmax[r, v] < n``."""
    return (cmax.take(v, axis=1) + pile < n).sum(axis=0, dtype=np.int8)


def _accumulate(op, x):
    """``op.accumulate(x, axis=0)`` in place, for ``op`` ``np.add`` or ``np.maximum``.
    Below 512 rows it takes log2(rows) whole-array passes, which beat numpy's
    accumulate along axis 0 on wide arrays and lose to it on tall ones: int32 sums took
    8 against 229 µs at 2 × 16,384 and 96 against 79 µs at 512 × 64 (numpy 2.4, one
    core of a shared 2-vCPU Xeon)."""
    if x.shape[0] >= 512:
        return op.accumulate(x, axis=0, out=x)
    span = 1
    while span < x.shape[0]:
        op(x[span:], x[:-span], out=x[span:])
        span *= 2
    return x


def _near_games(cfg, words, rows, piles, rounds):
    """The word pass over one chunk's ``words`` (words × games): a game whose piles
    stay below both targets in every word moves by the words' summed changes and
    survives; returns the mask of the other, near, games, whose piles are untouched.
    Each word's start comes from ``_accumulate``'s prefix sum over the words."""
    nwords = words.shape[0]
    dt = piles[0].dtype
    a, b = cfg.moves.a, cfg.moves.b
    last = rounds - 32 * (nwords - 1)  # rounds in the last word
    per_word = np.full((nwords, 1), 32, dt)
    per_word[-1] = last
    mask = np.full((nwords, 1), 0x5555555555555555, _U64)  # player A's bits, 2i
    mask[-1] &= _U64((1 << 2 * last) - 1)  # unread bits of the last word
    near, ends = np.zeros(rows.size, bool), []
    for p, n in enumerate((cfg.n1, cfg.n2)):
        cnt = np.bitwise_count(words & (mask << _U64(p))).astype(dt)  # b moves per word
        end = _accumulate(np.add, (b - a) * cnt + a * per_word)  # change to each word's end
        pile = piles[p][rows]
        ends.append(pile + end[-1])
        # the word's start plus its upward moves bounds every pile inside it
        end -= (min(b, 0) - min(a, 0)) * cnt + min(a, 0) * per_word
        near |= pile + end.max(axis=0) >= n
    far = ~near
    for p in (0, 1):
        piles[p][rows[far]] = ends[p][far]
    return near


def _play_rows(cfg, tables, words, rows, piles, t, rounds, tally):
    """Advance one group of live games by ``rounds`` rounds, a stream byte at a time,
    reading the chunk's ``words`` (words × games), in any chunk but the first, which
    ``_play_first`` plays; returns the surviving row indices.  Each player's first
    reaching byte is found from running maxima in a chunk of one word or less and by
    ``argmax`` in a wider one."""
    nwords = words.shape[0]
    nbytes = (rounds + 3) // 4
    idx = np.empty((nbytes, rows.size), np.intp)  # byte j of game g at [j, g]
    by_word = words.astype("<u8", copy=False).view(np.uint8).reshape(nwords, rows.size, 8)
    for i in range(min(8, nbytes)):
        idx[i::8] = by_word[: (nbytes - i + 7) // 8, :, i]
    last = rounds - 4 * (nbytes - 1)  # rounds in the last byte
    if last < 4:  # the last byte reads columns 256 + v, which stop at its end
        idx[-1] += 256
        cut = np.minimum(np.arange(4), last - 1)
        tables = [[np.concatenate([tab, tab[cut]], axis=1) for tab in pair] for pair in tables]
    firsts = []
    for p, n in enumerate((cfg.n1, cfg.n2)):
        step, over = tables[p]
        pile = piles[p][rows]
        inc, reach = step[3].take(idx), over[3].take(idx)
        end = inc.copy()
        end[0] += pile
        _accumulate(np.add, end)  # the pile at each byte's end
        reach += end  # the highest pile inside each byte
        if nbytes <= 8:  # one word or less: count the bytes whose running maximum is below n
            j = (_accumulate(np.maximum, reach) < n).sum(axis=0, dtype=np.int8)
            hit = np.flatnonzero(j < nbytes)
            j = j[hit].astype(np.intp)
        else:
            hit = np.flatnonzero(reach.max(axis=0) >= n)
            j = (reach.take(hit, axis=1) >= n).argmax(axis=0)  # the first byte that reaches n
        at = j * rows.size + hit
        before = end.ravel().take(at) - inc.ravel().take(at)
        first = np.full(rows.size, rounds)
        first[hit] = 4 * j + _rounds_below(step + over, before, idx.ravel().take(at), n)
        firsts.append(first)
        piles[p][rows] = end[-1]
    first1, first2 = firsts
    ended = np.minimum(first1, first2)  # rounds before the game's last move, if it ends
    done = ended < rounds
    ndone = int(np.count_nonzero(done))
    wins1 = int(np.count_nonzero(done & (first1 <= first2)))  # A moves first: ties go to A
    tally.wins1 += wins1
    tally.wins2 += ndone - wins1
    # a game that ends lasts t + 1 + e rounds; the sums over e count ``rounds``
    # for each game still running, taken out again in Python ints
    running = rows.size - ndone
    e1 = int(ended.sum()) - rounds * running
    e2 = int(np.square(ended, dtype=np.int64).sum()) - rounds * rounds * running
    tally.dur_sum += ndone * (t + 1) + e1
    tally.dur_sumsq += ndone * (t + 1) ** 2 + 2 * (t + 1) * e1 + e2
    return rows[~done]


def _play_group(cfg, tables, keys, rows, piles, t, rounds, blocks, tally) -> list:
    """Advance one group of live games by ``rounds`` rounds, reading the stream
    words at ``blocks``; returns the surviving row indices, in pieces.  In a chunk
    of more than one word, the word pass moves far games and only near ones are
    played byte by byte."""
    words = _stream_words(keys[rows], blocks)
    survivors = []
    if words.shape[0] > 1:
        near = _near_games(cfg, words, rows, piles, rounds)
        survivors.append(rows[~near])
        rows, words = rows[near], words.compress(near, axis=1)
    play = max(1, _ELEMENT_BUDGET // ((rounds + 3) // 4))
    for h in range(0, rows.size, play):
        survivors.append(_play_rows(cfg, tables, words[:, h : h + play], rows[h : h + play],
                                    piles, t, rounds, tally))
    return survivors


def _run_batch(cfg: SimConfig, tables, first, start: int, count: int, tally: _Tally) -> int:
    horizon = cfg.horizon
    keys = _trial_keys(cfg.seed, np.arange(start, start + count, dtype=np.int64))
    dt = tables[0][0].dtype
    piles = (np.zeros(count, dtype=dt), np.zeros(count, dtype=dt))
    alive = np.arange(count)
    t = 0
    block = 0
    hopeless = 0
    while t < horizon:
        # games in which neither pile can reach its target by the horizon are
        # censored at once; there are none while even the lowest possible pile,
        # a * t, could still reach the smaller target
        gain = max(cfg.moves.b, 0) * (horizon - t)
        if cfg.moves.a * t + gain < min(cfg.n1, cfg.n2):
            out = (piles[0][alive] < cfg.n1 - gain) & (piles[1][alive] < cfg.n2 - gain)
            hopeless += int(np.count_nonzero(out))
            alive = alive[~out]
        if not alive.size:
            break
        rounds = _chunk_schedule(t, horizon)
        nwords = (2 * rounds + 63) // 64
        group = max(1, _ELEMENT_BUDGET // nwords)
        blocks = np.arange(block, block + nwords, dtype=_U64)[:, None]
        survivors = []
        for g0 in range(0, alive.size, group):
            rows = alive[g0 : g0 + group]
            if t == 0:  # every game is live, in trial order
                survivors.append(_play_first(first, keys[g0 : g0 + group], rows, piles, tally))
            else:
                survivors += _play_group(cfg, tables, keys, rows, piles, t, rounds, blocks, tally)
        alive = survivors[0] if len(survivors) == 1 else np.concatenate(survivors)
        t += rounds
        block += nwords
    return hopeless + alive.size


def run_simulation(cfg: SimConfig) -> SimReport:
    """Simulate ``cfg.trials`` games in batches of ``BATCH_SIZE``;
    deterministic given the seed."""
    tables = _byte_tables(cfg)
    first = _first_chunk(cfg, tables)
    tally = _Tally()
    censored = 0
    for start in range(0, cfg.trials, BATCH_SIZE):
        count = min(BATCH_SIZE, cfg.trials - start)
        censored += _run_batch(cfg, tables, first, start, count, tally)
    return SimReport(cfg, tally.wins1, tally.wins2, censored, tally.dur_sum, tally.dur_sumsq)
