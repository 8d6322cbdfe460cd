"""Truncated evaluation of the race's infinite series with explicit
tail policies.

Everything here is a sum over the per-move first-passage probabilities
``r(n, k)`` and survival probabilities ``q(n, k)`` of a single walk:

* the second player's win probability, through the squared-passage
  series ``1/2 - (1/2) sum r**2`` or through the direct sum of
  ``q * r`` terms;
* the asymmetric-target variant ``sum q(n1, k) r(n2, k)``;
* the expected game length ``sum q**2``;
* exact win-within-k partial sums.

Tail policy, by drift of the move set: positive or negative drift gives
geometrically decaying terms, so the tail is bounded from the fitted
ratio of recent nonzero terms.  Zero drift gives power-law terms whose
partial sums expand in integer powers of 1/K (Stirling on ``r(n, k) =
(n/k) C(k, (k+n)/2) / 2**k``), so the totals at the checkpoints from
K = max(16, n**2) on are extrapolated to 1/K = 0 (Richardson, by
Neville's table), and the tail is the change from the previous order.
Both tails are estimates, checked by the test suite by doubling the
truncation point and against the exact constants.  The only divergent
series, the expected length at drift <= 0, is decided by the drift
before any term is summed: at zero drift ``q(n, k)**2 ~ c / k``, below
it ``q`` does not tend to 0, and above it ``sum q**2 <= E[T] < inf``.

``p_n`` is the diagonal ``p_{n,n}`` of ``p_{n1,n2}``, so the three
win-probability evaluators share one race body, ``_race``.  Direct sums
of ``q1 r2`` converge too slowly at zero drift on their own: the partial
sums telescope, leaving half the squared surviving mass plus half the
``r1 r2`` and cross-difference tails.  When the race almost surely ends,
the body sums the split-corrected form ``(1 - sum r1 r2 + sum (q1 r2 -
q2 r1)) / 2``, which is ``(1 - sum r**2) / 2`` on equal targets.  Under
negative drift the ``q1 r2`` terms, which decay at the walk's ratio
rather than its square, are summed and fitted themselves.

Every evaluator runs through one summation core, ``_summed``.  From the
move set and the ``TailPolicy`` it picks the tail mode and the
truncation cap; it builds the single ``(k, r, q)`` stream or the zipped
``(k, r1, q1, r2, q2)`` stream of two targets, drives the channels and
assembles the ``SeriesResult``.  An evaluator supplies only its input
guards, its per-term map, its channel scales and structural zeros, and
how the channel totals become a value, a tail bound and a last term.
The core sums in one arithmetic, ``mpf`` at ``WORK_DPS``, for every
move set; the rounding is covered by the result's ``eval_error``.
Exact streams (integer numerators over ``2**k``) feed only
``win_within``, whose caller gets a ``Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, zip_longest

from mpmath import mp, mpf

from .passage import (
    GameSpec,
    MoveSet,
    Reachability,
    iter_passage,
    passage_gcd_reachability,
    reduce_zero_drift,
)

WORK_DPS = 40
DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_K = 5_000
DEFAULT_MAX_K_ZERO_DRIFT = 200_000
FIT_WINDOW = 8
_MIN_FIT_TERMS = 5
_MIN_EXTRAPOLATION_POINTS = 4

CONVERGED = "converged"
DIVERGED = "diverged"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TailPolicy:
    """Stopping rule for truncated summation.

    ``max_k`` defaults by drift: 200000 at zero drift ("power" mode: the
    checkpoint totals are extrapolated, which meets 1e-9 by K = 16384 for
    targets up to 12), 5000 otherwise ("geometric" mode: a fitted ratio).
    ``min_k`` forces summation at least that far even if the tolerance is
    met earlier; it exists for honesty checks that re-run a converged
    series twice as far.
    """

    tolerance: float = DEFAULT_TOLERANCE
    max_k: int | None = None
    min_k: int = 0

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_k is not None and self.max_k < 16:
            raise ValueError("max_k must be at least 16")
        if self.min_k < 0:
            raise ValueError("min_k must be >= 0")

    def mode_for(self, moves: MoveSet) -> str:
        return "power" if moves.drift == 0 else "geometric"

    def resolved_max_k(self, moves: MoveSet) -> int:
        if self.max_k is not None:
            cap = self.max_k
        elif moves.drift == 0:
            cap = DEFAULT_MAX_K_ZERO_DRIFT
        else:
            cap = DEFAULT_MAX_K
        return max(cap, self.min_k)


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of one truncated series evaluation.

    Every number is an mpf; sums run at ``WORK_DPS``.  ``value`` is the
    estimate; ``tail_estimate`` bounds what truncation may still be
    missing, and ``eval_error`` bounds arithmetic rounding.  A diverged
    verdict always carries a witness.
    """

    value: mpf
    truncation_k: int
    last_term: mpf
    tail_estimate: mpf
    verdict: str
    method: str
    witness: str | None = None
    no_winner: mpf | None = None
    eval_error: mpf = field(default_factory=lambda: mpf(0))

    def error_bound(self) -> mpf:
        return self.tail_estimate + self.eval_error

    def formatted(self, max_digits: int = 17) -> str:
        from .numeric import ApproxValue

        return ApproxValue(self.value, self.error_bound()).formatted(max_digits)

    def to_json_dict(self) -> dict:
        def num(x):
            return None if x is None else mp.nstr(x, 24)

        return {
            "value": num(self.value),
            "display": self.formatted(),
            "truncation_k": self.truncation_k,
            "last_term": num(self.last_term),
            "tail_estimate": num(self.tail_estimate),
            "eval_error": num(self.eval_error),
            "verdict": self.verdict,
            "method": self.method,
            "witness": self.witness,
            "no_winner": num(self.no_winner),
        }


# ---------------------------------------------------------------------------
# term streams


def _stream_unit_exact(n: int):
    """(k, r, q) for the unit-step symmetric walk, exact: r and q as
    integer numerators over ``2**k``, the format of ``iter_passage``.

    The walk first hits n only at k = n + 2j, with count n C(k, j) / k
    (hitting-time theorem).  The binomial is kept as a running integer,
    ``C(k + 2, j + 1) = C(k, j) (k + 1)(k + 2) / ((j + 1)(n + j + 1))``,
    so each term is one multiply and two exact divisions.
    """
    q = 1
    binom = 1  # C(k, j) at the next hitting index k = n + 2j
    for k in count(1):
        q <<= 1
        if k < n or (k - n) % 2:
            yield k, 0, q
            continue
        j = (k - n) // 2
        r = n * binom // k
        binom = binom * (k + 1) * (k + 2) // ((j + 1) * (n + j + 1))
        q -= r
        yield k, r, q


def _stream_unit_float(n: int):
    """(k, r, q) for the unit-step symmetric walk as mpf values.

    One multiplicative update per index: the closed-form counts reduce to
    a running central-binomial ratio, so this stream is O(1) per term and
    carries no big integers.  Every zero-drift summation runs on it.
    """
    s, parity = n // 2, n % 2
    u = mpf(4) ** (-s)  # C(2m, m-s) / 4**m at m = s
    m = s
    q = mpf(1)
    zero = mpf(0)
    for k in count(1):
        r = zero
        if k % 2 == parity:
            mm = k // 2
            while m < mm:
                u *= mpf((2 * m + 1) * (m + 1)) / (2 * (m + 1 - s) * (m + 1 + s))
                m += 1
            if parity == 1 and mm >= s:
                r = mpf(2 * s + 1) / (2 * (mm + s + 1)) * u
            elif parity == 0 and mm >= max(s, 1) and s > 0:
                r = mpf(s) / mm * u
        if r:
            q = q - r
        yield k, r, q


def rq_stream(spec: GameSpec, *, prefer_float: bool = False):
    """(k, r, q) for any move set.

    Zero-drift sets reduce to the unit-step walk and use its closed
    forms; everything else runs the exact lattice DP.  By default r and
    q are exact, integer numerators over ``2**k``.  ``prefer_float``
    gives mpf values at the current precision instead: the O(1)-per-term
    closed-form stream, or the DP's numerators each rounded once.
    DP-backed streams end once the walk is absorbed; closed-form streams
    are infinite.
    """
    reduced = reduce_zero_drift(spec)
    if reduced is not None:
        return _stream_unit_float(reduced) if prefer_float else _stream_unit_exact(reduced)
    dp = iter_passage(spec)
    if prefer_float:
        return ((k, mpf((w, -k)), mpf((s, -k))) for k, w, s in dp)
    return dp


# ---------------------------------------------------------------------------
# adaptive summation


class _Channel:
    """One summed series: an mpf accumulator, a ring of recent nonzero
    block magnitudes for the geometric tail fit, and the checkpoint
    totals for the zero-drift extrapolation.

    ``block`` consecutive indices are fitted as one unit; the asymmetric
    cross-difference series alternates sign with parity and only its
    2-blocks decay cleanly.  Checkpoints are recorded from ``start`` on.
    """

    def __init__(self, block: int, scale: float, structural_zero: bool, start: int):
        self.block = block
        self.scale = scale  # weight of this channel's tail in the stop rule
        self.total = mpf(0)
        self.ring: list[tuple[float, float]] = []  # (k, |block sum|)
        self.nterms = 0
        self.last_nonzero = 0.0
        self.structural_zero = structural_zero
        self.start = start
        self.ks: list[int] = []  # checkpoints K, with the totals through them
        self.totals: list = []
        self.extrapolated = None  # R[i][i] when the tail came from it
        self.amplification = 1  # sum of |weights| of that extrapolation
        self._bsum = 0.0
        self._bstart = 1

    @property
    def value(self):
        """The total the tail describes: extrapolated or partial."""
        return self.total if self.extrapolated is None else self.extrapolated

    def add(self, k: int, term) -> None:
        if term:
            self.total += term
            self.nterms += 1
            t = float(term)
            self.last_nonzero = abs(t)
            self._bsum += t
        if k >= 1 and (k - self._bstart + 1) >= self.block:
            if self._bsum != 0.0:
                mid = k - (self.block - 1) / 2
                self.ring.append((mid, abs(self._bsum)))
                if len(self.ring) > FIT_WINDOW:
                    self.ring.pop(0)
            self._bsum = 0.0
            self._bstart = k + 1

    def tail(self, mode: str, k: int) -> mpf | None:
        """The tail estimate at checkpoint ``k`` (in power mode this also
        records the checkpoint); None when not yet fittable."""
        if self.structural_zero:
            return mpf(0)
        if mode == "power":
            return self._extrapolate(k)
        if len(self.ring) < _MIN_FIT_TERMS:
            return None
        rho = max(
            self.ring[i][1] / self.ring[i - 1][1]
            for i in range(1, len(self.ring))
            if self.ring[i - 1][1] > 0
        )
        if rho >= 1:
            return None
        last = self.ring[-1][1]
        return mpf(last) * rho / (1 - rho)

    def _extrapolate(self, k: int) -> mpf | None:
        """Zero-drift tails expand in integer powers of h = 1/K, so the
        polynomial in h through the checkpoint totals (Neville's table)
        is evaluated at h = 0; the tail is the change from the previous
        diagonal entry.  Unit-step terms live on one parity of k, so that
        expansion holds along even K only (an odd cap is not recorded)."""
        if k >= self.start and k % 2 == 0:
            self.ks.append(k)
            self.totals.append(self.total)
        ks, diag = self.ks, list(self.totals)  # diag[i]: R[i][j] of column j
        if len(ks) < _MIN_EXTRAPOLATION_POINTS:
            return None
        for j in range(1, len(ks)):
            for i in range(len(ks) - 1, j - 1, -1):
                diag[i] += (diag[i] - diag[i - 1]) * ks[i - j] / (ks[i] - ks[i - j])
        # R[i][i] = sum_m w_m S_m with w_m = prod_{l != m} K_m / (K_m - K_l)
        self.amplification = sum(abs(math.prod(K / (K - L) for L in ks if L != K)) for K in ks)
        self.extrapolated = diag[-1]
        return abs(diag[-1] - diag[-2])


@dataclass
class _DriveResult:
    channels: list
    truncation_k: int
    tails: list
    verdict: str
    witness: str | None
    exhausted: bool
    last: tuple  # the last stream item pulled

    def tail_at(self, i: int) -> mpf:
        """The i-th channel's tail bound: zero when the series provably
        ended, +inf when no fit was available (never on a converged run)."""
        t = self.tails[i]
        if t is not None:
            return mpf(t)
        if self.exhausted or self.channels[i].structural_zero:
            return mpf(0)
        return mpf("inf")


def _drive(
    stream, fmap, channels: list[_Channel], *, mode: str, tolerance: float, max_k: int, min_k: int = 0
) -> _DriveResult:
    """Pull items from ``stream``, map each through ``fmap(*item)`` to one
    term per channel, until every channel's scaled tail estimate fits
    under ``tolerance`` (or the truncation cap is hit).
    Convergence cannot be declared before ``min_k`` or while any
    channel's fit window or checkpoint record is still filling.
    """
    next_check = 16
    k = 0
    item = ()
    witness = None
    verdict = None
    exhausted = False
    tails: list = [None] * len(channels)

    for item in stream:
        k = item[0]
        for ch, term in zip(channels, fmap(*item)):
            ch.add(k, term)
        if k < next_check and k < max_k:
            continue
        next_check = min(next_check * 2, max_k)

        tails = [ch.tail(mode, k) for ch in channels]
        if k >= min_k and all(t is not None for t in tails):
            weighted = sum(float(t) * ch.scale for t, ch in zip(tails, channels))
            if weighted <= tolerance:
                verdict = CONVERGED
                break
        if k >= max_k:  # max_k >= min_k, so the test above already failed
            verdict = INCONCLUSIVE
            witness = f"tail not below tolerance by the truncation cap k={max_k}"
            break
    else:
        # the walk was absorbed: every later term is exactly zero
        exhausted = True
        verdict = CONVERGED
        tails = [mpf(0)] * len(channels)

    return _DriveResult(channels, k, tails, verdict, witness, exhausted, item)


def _eval_rounding_bound(channels) -> mpf:
    n = sum(ch.nterms * ch.amplification for ch in channels)
    return mpf(10) ** (-(WORK_DPS - 5)) * (n + 1)


def _single(res: _DriveResult):
    """The finish of a plain one-channel sum: its total, tail and last term."""
    (ch,) = res.channels
    return ch.value, res.tail_at(0), mpf(ch.last_nonzero), None


def _summed(
    specs: tuple[GameSpec, ...],
    policy: TailPolicy | None,
    method: str,
    fmap,
    scales: tuple[float, ...],
    finish=_single,
    *,
    structural: tuple[bool, ...] | None = None,
    head: int = 0,
) -> SeriesResult:
    """The summation core behind every evaluator.

    The move set and ``policy`` fix the tail mode and truncation cap.
    Every walk is summed on its mpf stream: the closed form at zero
    drift, the once-rounded DP items otherwise.  One spec gives its
    ``(k, r, q)`` stream as is; two specs (same moves) are zipped into
    ``(k, r1, q1, r2, q2)``, an absorbed walk padded with zeros, and two
    equal specs share one stream fed as ``(k, r, q, r, q)``.
    ``fmap(*item)`` gives one term per channel, channel i weighted by
    ``scales[i]`` in the stop rule and, when ``structural[i]`` is set,
    known to be identically zero.  ``head`` is a k = 0 term added to the
    first channel before the stream starts.  ``finish(drive_result)``
    returns ``(value, tail, last_term, no_winner)``; everything runs at
    ``WORK_DPS``.
    """
    policy = policy if policy is not None else TailPolicy()
    moves = specs[0].moves
    max_k = policy.resolved_max_k(moves)
    unit_targets = [reduce_zero_drift(spec) for spec in specs]
    # below K = n**2 the unit-step terms have not yet settled into their
    # asymptotic expansion, so extrapolation starts no earlier
    start = 16 if unit_targets[0] is None else max(16, max(unit_targets) ** 2)
    with mp.workdps(WORK_DPS):
        streams = [rq_stream(spec, prefer_float=True) for spec in dict.fromkeys(specs)]
        stream = streams[0]
        if len(specs) == 2 and len(streams) == 1:
            stream = ((k, r, q, r, q) for k, r, q in stream)
        elif len(streams) == 2:
            pad = (None, mpf(0), mpf(0))
            pairs = zip(count(1), zip_longest(*streams, fillvalue=pad))
            stream = ((k, r1, q1, r2, q2) for k, ((_, r1, q1), (_, r2, q2)) in pairs)
        # tail fits run on blocks spanning one congruence period b - a of
        # the walk, so that within-period term structure (zeros and
        # non-monotone wiggles) cannot masquerade as non-decay
        block = min(max(moves.b - moves.a, 1), 128)
        channels = [
            _Channel(block, scale, flag, start)
            for scale, flag in zip(scales, structural or (False,) * len(scales))
        ]
        if head:
            channels[0].add(0, mpf(head))
        res = _drive(
            stream, fmap, channels, mode=policy.mode_for(moves), tolerance=policy.tolerance,
            max_k=max_k, min_k=policy.min_k,
        )
        value, tail, last_term, no_winner = finish(res)
        return SeriesResult(
            value=value,
            truncation_k=res.truncation_k,
            last_term=last_term,
            tail_estimate=tail,
            verdict=res.verdict,
            method=method,
            witness=res.witness,
            no_winner=no_winner,
            eval_error=_eval_rounding_bound(channels),
        )


# ---------------------------------------------------------------------------
# evaluators


def _validated(spec: GameSpec) -> GameSpec:
    if not isinstance(spec, GameSpec):
        raise TypeError("spec must be a GameSpec")
    return spec


def _trivial_result(value, method: str, witness: str | None = None, no_winner=None) -> SeriesResult:
    return SeriesResult(
        value=mpf(value),
        truncation_k=0,
        last_term=mpf(0),
        tail_estimate=mpf(0),
        verdict=CONVERGED,
        method=method,
        witness=witness,
        no_winner=None if no_winner is None else mpf(no_winner),
    )


def win_prob_squares(spec: GameSpec, policy: TailPolicy | None = None) -> SeriesResult:
    """Second player's win probability via ``1/2 - (1/2) sum r**2``.

    Valid only when the race almost surely ends (non-negative drift and a
    reachable target); otherwise the direct method must be used.  Equal
    to ``win_prob_direct`` and ``win_prob_targets(n, n)`` but for ``method``.
    """
    spec = _validated(spec)
    if spec.n == 0:
        return _trivial_result(0, "squares", witness="zero target: the first player has already won")
    if spec.moves.drift < 0:
        raise ValueError(
            "the squared-passage identity needs non-negative drift; "
            "use the direct method for this move set"
        )
    if passage_gcd_reachability(spec).never:
        raise ValueError(
            "the squared-passage identity needs an almost surely finished race, "
            "but these moves can never reach the target"
        )
    return _race(spec.n, spec.n, spec.moves, policy, "squares")


def win_prob_direct(spec: GameSpec, policy: TailPolicy | None = None) -> SeriesResult:
    """Second player's win probability, the sum of ``q * r``; valid for
    every drift.

    At every K, ``sum_{k<=K} q r + q_K**2 / 2 = (1 - sum_{k<=K} r**2) / 2``,
    so when the race almost surely ends the split-corrected direct sum is
    the squared-passage series, tail included.  With negative drift no
    correction applies: the ``q * r`` terms carry their own tail fit, and
    the never-decided probability estimate ``q_K**2`` is reported.
    """
    spec = _validated(spec)
    if spec.n == 0:
        return _trivial_result(0, "direct", witness="zero target: the first player has already won")
    if passage_gcd_reachability(spec).never:
        return _trivial_result(
            0, "direct", witness="moves can never reach the target", no_winner=1,
        )
    return _race(spec.n, spec.n, spec.moves, policy, "direct")


def _targets_reachability_overlap(rv1: Reachability, rv2: Reachability) -> bool:
    """Whether any index can carry simultaneous first-passage mass."""
    if rv1.never or rv2.never:
        return False
    if rv1.deterministic_k is not None:
        return rv2.allows(rv1.deterministic_k)
    if rv2.deterministic_k is not None:
        return rv1.allows(rv2.deterministic_k)
    if rv1.max_k is not None and rv1.max_k < rv2.min_k:
        return False
    if rv2.max_k is not None and rv2.max_k < rv1.min_k:
        return False
    lcm = math.lcm(rv1.modulus, rv2.modulus)
    return any(
        (t % rv1.modulus) in rv1.residues and (t % rv2.modulus) in rv2.residues
        for t in range(lcm)
    )


def win_prob_targets(
    n1: int, n2: int, moves: MoveSet, policy: TailPolicy | None = None
) -> SeriesResult:
    """Probability the second player reaches ``n2`` before the first
    player reaches ``n1``: the sum of ``q(n1, k) r(n2, k)``.

    When the race almost surely ends, the sum is evaluated in its
    symmetrized form ``(1 - sum r1 r2 + sum (q1 r2 - q2 r1)) / 2``,
    algebraically equal to the direct partial sum plus the split
    correction ``q1 q2 / 2``; both component series have summable tails
    even at zero drift, where the direct terms alone decay too slowly.
    Under zero drift both are extrapolated from their checkpoint totals.
    With negative drift the ``q1 r2`` terms are summed and fitted
    directly, and ``q1_K q2_K`` is reported as the never-decided mass.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("both targets must be >= 1")
    if passage_gcd_reachability(GameSpec(moves, n2)).never:
        return _trivial_result(
            0, "asymmetric", witness="the second walk can never reach its target",
        )
    return _race(n1, n2, moves, policy, "asymmetric")


def _race(n1: int, n2: int, moves: MoveSet, policy: TailPolicy | None, method: str) -> SeriesResult:
    """``p(n1, n2)`` behind every win-probability evaluator: one ``q1 r2``
    channel under negative drift, else the symmetrized pair."""
    specs = (GameSpec(moves, n1), GameSpec(moves, n2))
    if moves.drift < 0:

        def finish_direct(res):
            value, tail, last_term, _ = _single(res)
            _, _, q1, _, q2 = res.last
            return value, tail, last_term, q1 * q2

        return _summed(
            specs, policy, method, lambda k, r1, q1, r2, q2: (q1 * r2,), (1.0,), finish_direct,
        )

    overlap = _targets_reachability_overlap(*(passage_gcd_reachability(s) for s in specs))

    def sym_terms(k, r1, q1, r2, q2):
        rr = r1 * r2 if overlap else 0
        delta = 0
        if n1 != n2:
            if r2:
                delta = q1 * r2
            if r1:
                delta = delta - q2 * r1
        return rr, delta

    def finish(res):
        rr_ch, delta_ch = res.channels
        tail = (res.tail_at(0) + res.tail_at(1)) / 2
        last_term = mpf(max(rr_ch.last_nonzero, delta_ch.last_nonzero)) / 2
        return (1 - rr_ch.value + delta_ch.value) / 2, tail, last_term, None

    return _summed(
        specs, policy, method, sym_terms, (0.5, 0.5), finish,
        structural=(not overlap, n1 == n2),
    )


def expected_duration(spec: GameSpec, policy: TailPolicy | None = None) -> SeriesResult:
    """Expected number of rounds until someone wins: ``sum_k q(n, k)**2``
    over k >= 0.

    The series diverges exactly when the drift is <= 0 (an unreachable
    target has drift <= 0 too): zero drift gives ``q**2 ~ c / k`` and
    negative drift leaves ``q`` above a positive limit.  That verdict is
    returned before any term is summed, with the finite partial sum
    through k = 0 as its value and an infinite tail.
    """
    spec = _validated(spec)
    if spec.n == 0:
        return _trivial_result(0, "duration", witness="zero target: the race is over before any move")
    if spec.moves.drift <= 0:
        return SeriesResult(
            value=mpf(1),
            truncation_k=0,
            last_term=mpf(1),
            tail_estimate=mpf("inf"),
            verdict=DIVERGED,
            method="duration",
            witness=f"drift {spec.moves.drift} <= 0, so the terms q(n, k)**2 are not summable",
        )
    return _summed((spec,), policy, "duration", lambda k, r, q: (q * q,), (1.0,), head=1)


def win_within(spec: GameSpec, k: int) -> Fraction:
    """Exact probability the second player wins within ``k`` moves: the
    partial sum of ``q * r`` through ``k`` as a rational.

    The exact stream gives every r and q at index j as a count over
    ``2**j``, so the sum is kept as one integer over ``4**j`` and reduced
    once at the end."""
    spec = _validated(spec)
    if spec.n < 1:
        raise ValueError("target must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    total = last = 0
    for j, win, survived in rq_stream(spec):
        if j > k:
            break
        total = (total << 2) + win * survived
        last = j
    return Fraction(total, 4**last)


def square_sum_value(
    moves: MoveSet, n: int, policy: TailPolicy | None = None
) -> SeriesResult:
    """The sum ``sum_k r(n, k)**2`` for a single target."""
    if n < 1:
        raise ValueError("target must be >= 1")
    spec = GameSpec(moves, n)
    if passage_gcd_reachability(spec).never:
        return _trivial_result(0, "square_sum", witness="moves can never reach the target")
    return _summed((spec,), policy, "square_sum", lambda k, r, q: (r * r,), (1.0,))

