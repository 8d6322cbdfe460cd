"""The race's infinite series: exact at zero drift, summed with
explicit tail policies otherwise.

Everything here is a sum over the per-move first-passage probabilities
``r(n, k)`` and survival probabilities ``q(n, k)`` of a single walk: the
second player's win probability ``sum q(n1, k) r(n2, k)`` (``p_n`` is its
diagonal, also ``1/2 - (1/2) sum r**2``), the expected game length
``sum q**2`` and exact win-within-k partial sums.

Zero drift is not summed.  A {-c, c} walk is the unit-step walk with
target ``ceil(n / c)``, and ``closedforms.unit_step_sum`` telescopes each
win-probability and squared-passage series to its exact value in
span{1, 1/pi}; the result carries only the error of its decimal.

Every other drift is summed, and the tail is bounded from the fitted
geometric ratio of recent nonzero terms: an estimate, checked by the test
suite by doubling the truncation point.  The only divergent series, the
expected length at drift <= 0, is decided by the drift before any term is
summed.  The three win-probability evaluators share one race body,
``_race``: when the race almost surely ends it sums the split-corrected
form ``(1 - sum r1 r2 + sum (q1 r2 - q2 r1)) / 2``; under negative drift
it sums and fits the ``q1 r2`` terms themselves.

Every summed evaluator runs through one core, ``_summed``, which builds
the ``(k, r, q)`` stream (or the zipped ``(k, r1, q1, r2, q2)`` stream of
two targets), drives the channels in ``mpf`` at ``WORK_DPS`` and
assembles the ``SeriesResult``; the rounding is covered by its
``eval_error``.  An evaluator supplies its guards, per-term map, channel
scales and structural zeros, and how the channel totals become a value,
a tail bound and a last term.  Exact streams (integer numerators over
``2**k``) feed ``win_within``, whose caller gets a ``Fraction``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, pairwise, zip_longest

from mpmath import mp, mpf

from .closedforms import unit_step_sum
from .numeric import ApproxValue, PiLinear
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
FIT_WINDOW = 8
_MIN_FIT_TERMS = 5

CONVERGED = "converged"
DIVERGED = "diverged"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TailPolicy:
    """Stopping rule of the summed (non-zero drift) series; exact
    zero-drift answers ignore it.

    Summation stops once the fitted geometric tail is below ``tolerance``,
    or at the cap ``max_k``.  ``min_k`` forces summation at least that far
    (raising the cap to it); it exists for honesty checks that re-run a
    converged series twice as far.
    """

    tolerance: float = DEFAULT_TOLERANCE
    max_k: int = DEFAULT_MAX_K
    min_k: int = 0

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_k < 16:
            raise ValueError("max_k must be at least 16")
        if self.min_k < 0:
            raise ValueError("min_k must be >= 0")

    def resolved_max_k(self) -> int:
        return max(self.max_k, self.min_k)


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of one truncated series evaluation.

    Every number is an mpf; sums run at ``WORK_DPS``.  ``value`` is the
    estimate; ``tail_estimate`` bounds what truncation may still be
    missing (zero for an exact answer), and ``eval_error`` bounds
    arithmetic rounding.  A diverged verdict always carries a witness.
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
        return ApproxValue(self.value, self.error_bound()).formatted(max_digits)

    def to_json_dict(self) -> dict:
        def num(x, digits=24):
            return None if x is None else mp.nstr(x, digits)

        return {
            # nothing truncated: every working digit of the value is backed
            "value": num(self.value, 24 if self.tail_estimate else WORK_DPS),
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


def rq_stream(spec: GameSpec, *, prefer_float: bool = False):
    """(k, r, q) for any move set, r and q as integer numerators over
    ``2**k``: the unit-step Catalan stream for a zero-drift set, reduced
    to its unit-step target, and the exact lattice DP otherwise.
    ``prefer_float`` gives mpf values at the current precision instead,
    each numerator rounded once.  DP-backed streams end once the walk is
    absorbed; the Catalan stream is infinite.
    """
    reduced = reduce_zero_drift(spec)
    stream = iter_passage(spec) if reduced is None else _stream_unit_exact(reduced)
    if prefer_float:
        return ((k, mpf((w, -k)), mpf((s, -k))) for k, w, s in stream)
    return stream


# ---------------------------------------------------------------------------
# adaptive summation


class _Channel:
    """One summed series: an mpf accumulator and a ring of recent nonzero
    block magnitudes for the geometric tail fit.

    ``block`` consecutive indices are fitted as one unit; the asymmetric
    cross-difference series alternates sign with parity and only its
    2-blocks decay cleanly.
    """

    def __init__(self, block: int, scale: float, structural_zero: bool):
        self.block = block
        self.scale = scale  # weight of this channel's tail in the stop rule
        self.total = mpf(0)
        self.ring: deque[float] = deque(maxlen=FIT_WINDOW)  # |block sum|
        self.nterms = 0
        self.last_nonzero = 0.0
        self.structural_zero = structural_zero
        self._bsum = 0.0
        self._bstart = 1

    def add(self, k: int, term) -> None:
        if term:
            self.total += term
            self.nterms += 1
            t = float(term)
            self.last_nonzero = abs(t)
            self._bsum += t
        if (k - self._bstart + 1) >= self.block:
            if self._bsum != 0.0:
                self.ring.append(abs(self._bsum))
            self._bsum = 0.0
            self._bstart = k + 1

    def tail(self) -> mpf | None:
        """The geometric tail estimate; None when not yet fittable."""
        if self.structural_zero:
            return mpf(0)
        if len(self.ring) < _MIN_FIT_TERMS:
            return None
        rho = max(b / a for a, b in pairwise(self.ring))
        if rho >= 1:
            return None
        return mpf(self.ring[-1]) * rho / (1 - rho)


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
    stream, fmap, channels: list[_Channel], *, tolerance: float, max_k: int, min_k: int = 0
) -> _DriveResult:
    """Pull items from ``stream``, map each through ``fmap(*item)`` to one
    term per channel, until every channel's scaled tail estimate fits
    under ``tolerance`` (or the truncation cap is hit).
    Convergence cannot be declared before ``min_k`` or while any
    channel's fit window is still filling.
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

        tails = [ch.tail() for ch in channels]
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


def _single(res: _DriveResult):
    """The finish of a plain one-channel sum: its total, tail and last term."""
    (ch,) = res.channels
    return ch.total, res.tail_at(0), mpf(ch.last_nonzero), None


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
    """The summation core behind every summed evaluator.

    ``policy`` fixes the tolerance and the truncation cap.  Every walk is
    summed on its once-rounded mpf stream.  One spec gives its
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
            _Channel(block, scale, flag)
            for scale, flag in zip(scales, structural or (False,) * len(scales))
        ]
        if head:
            channels[0].add(0, mpf(head))
        res = _drive(
            stream, fmap, channels, tolerance=policy.tolerance,
            max_k=policy.resolved_max_k(), min_k=policy.min_k,
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
            eval_error=mpf(10) ** (5 - WORK_DPS) * (sum(ch.nterms for ch in channels) + 1),
        )


# ---------------------------------------------------------------------------
# evaluators


def _validated(spec: GameSpec) -> GameSpec:
    if not isinstance(spec, GameSpec):
        raise TypeError("spec must be a GameSpec")
    return spec


def _exact_result(form: PiLinear) -> SeriesResult:
    """The decimal of an exact answer at ``WORK_DPS``; its ``eval_error``
    covers both pi and the rounding to ``WORK_DPS``."""
    approx = form.approx(WORK_DPS)
    with mp.workdps(WORK_DPS):
        value = +approx.value
        error = approx.error_bound + abs(value) * mpf(10) ** -WORK_DPS
        return _trivial_result(value, "exact", eval_error=error)


def _trivial_result(value, method: str, witness: str | None = None, no_winner=None,
                    eval_error=0) -> SeriesResult:
    return SeriesResult(
        value=mpf(value),
        truncation_k=0,
        last_term=mpf(0),
        tail_estimate=mpf(0),
        verdict=CONVERGED,
        method=method,
        witness=witness,
        no_winner=None if no_winner is None else mpf(no_winner),
        eval_error=mpf(eval_error),
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

    At zero drift the answer is exact (``closedforms.unit_step_sum``).
    Otherwise, when the race almost surely ends, the sum is evaluated in
    its symmetrized form ``(1 - sum r1 r2 + sum (q1 r2 - q2 r1)) / 2``,
    algebraically equal to the direct partial sum plus the split
    correction ``q1 q2 / 2``.  With negative drift the ``q1 r2`` terms are summed and fitted
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
    """``p(n1, n2)`` behind every win-probability evaluator: exact at zero
    drift, one ``q1 r2`` channel under negative drift, else the
    symmetrized pair."""
    specs = (GameSpec(moves, n1), GameSpec(moves, n2))
    u1, u2 = (reduce_zero_drift(spec) for spec in specs)
    if u1 is not None:
        return _exact_result(unit_step_sum(u2, u1))
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
        return (1 - rr_ch.total + delta_ch.total) / 2, tail, last_term, None

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
    """The sum ``sum_k r(n, k)**2`` for a single target; exact at zero
    drift."""
    if n < 1:
        raise ValueError("target must be >= 1")
    spec = GameSpec(moves, n)
    if passage_gcd_reachability(spec).never:
        return _trivial_result(0, "square_sum", witness="moves can never reach the target")
    unit = reduce_zero_drift(spec)
    if unit is not None:
        return _exact_result(unit_step_sum(unit))
    return _summed((spec,), policy, "square_sum", lambda k, r, q: (r * r,), (1.0,))

