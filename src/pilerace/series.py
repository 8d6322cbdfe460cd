"""The race's infinite series: exact at zero drift, summed to a proved
tail bound otherwise.

Everything here is a sum over the per-move first-passage probabilities
``r(n, k)`` and survival probabilities ``q(n, k)`` of a single walk: the
second player's win probability ``sum q(n1, k) r(n2, k)`` (``p_n`` is its
diagonal, also ``1/2 - (1/2) sum r**2``), the expected game length
``sum q**2`` and exact win-within-k partial sums.

Zero drift is not summed.  A {-c, c} walk is the unit-step walk with
target ``ceil(n / c)``, and ``closedforms.unit_step_sum`` telescopes each
win-probability and squared-passage series to its exact value in
span{1, 1/pi}; the result carries only the error of its decimal.

Every other drift is summed by one core, ``_summed``, which adds one term
per move k and bounds everything after it from the walk's own state.
Let ``h_K`` bound the chance that the walk still reaches its target after
move K.  ``q_K`` is one such bound; under negative drift Lundberg's
inequality gives a far smaller one from the surviving lattice cells
(``_lundberg``).  The tail of ``sum q1 r2`` is then in ``[0, q1_K h2_K]``,
that of ``sum r**2`` in ``[0, h_K**2]``, and, by Wald's identity, that of
``sum q**2`` in ``[0, q_K**2 (n + b - 1 - a K) / drift]``.  The result is
the partial sum plus half the bound, with half the bound as its
``tail_estimate``; summation stops once that is below the tolerance.  The
only divergent series, the expected length at drift <= 0, is decided by
the drift before any term is summed.

Sums run in ``mpf`` at ``WORK_DPS`` on the once-rounded stream; the
rounding is covered by ``eval_error``.  Exact streams (integer numerators
over ``2**k``) feed ``win_within``, whose caller gets a ``Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, zip_longest

from mpmath import mp, mpf

from .closedforms import unit_step_sum
from .numeric import ApproxValue, PiLinear
from .passage import GameSpec, MoveSet, iter_passage, reduce_zero_drift, require_int

WORK_DPS = 40
# The stop rule is a proved bound tested at every move, so an answer backs
# about the digits its tolerance asks for and no more; 1e-12 gives the
# default commands about 11 backed digits.
DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_K = 5_000

CONVERGED = "converged"
DIVERGED = "diverged"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TailPolicy:
    """Stopping rule of the summed (non-zero drift) series; exact
    zero-drift answers ignore it.

    Summation stops at the first move where half the proved tail bound is
    below ``tolerance``, or at the cap ``max_k``, where the result keeps
    its proved bound and the verdict is inconclusive.
    """

    tolerance: float = DEFAULT_TOLERANCE
    max_k: int = DEFAULT_MAX_K

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        require_int(self.max_k, "max_k")
        if self.max_k < 16:
            raise ValueError("max_k must be at least 16")


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of one truncated series evaluation.

    Every number is an mpf; sums run at ``WORK_DPS``.  ``value`` is the
    estimate; ``tail_estimate`` is a proved bound on what truncation may
    still be missing (zero for an exact answer), and ``eval_error`` bounds
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

    def _value_digits(self) -> int:
        """Significant digits that round ``value`` by at most a tenth of
        its error bound, ``5 |value| 10**-d <= bound / 10``, capped at
        ``WORK_DPS``."""
        bound = self.error_bound()
        if not bound or not self.value:
            return WORK_DPS
        if mp.isinf(bound):
            return 1
        digits = int(mp.floor(mp.log10(50 * abs(self.value) / bound))) + 1
        return max(1, min(WORK_DPS, digits))

    def to_json_dict(self, max_digits: int = 17) -> dict:
        def num(x, digits=24):
            return None if x is None else mp.nstr(x, digits)

        return {
            "value": num(self.value, self._value_digits()),
            "display": self.formatted(max_digits),
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
    """(k, r, q, None) for the unit-step symmetric walk, exact: r and q as
    integer numerators over ``2**k``, the format of ``iter_passage``, with
    no lattice cells.

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
            yield k, 0, q, None
            continue
        j = (k - n) // 2
        r = n * binom // k
        binom = binom * (k + 1) * (k + 2) // ((j + 1) * (n + j + 1))
        q -= r
        yield k, r, q, None


def rq_stream(spec: GameSpec, *, prefer_float: bool = False):
    """(k, r, q, cells) for any move set, r and q as integer numerators
    over ``2**k``: the unit-step Catalan stream for a zero-drift set,
    reduced to its unit-step target (``cells`` is None), and the exact
    lattice DP otherwise (``cells`` as ``iter_passage`` yields them).
    ``prefer_float`` gives r and q as mpf values at the current precision
    instead, each numerator rounded once.  DP-backed streams end once the
    walk is absorbed; the Catalan stream is infinite.
    """
    reduced = reduce_zero_drift(spec)
    stream = iter_passage(spec) if reduced is None else _stream_unit_exact(reduced)
    if prefer_float:
        return ((k, mpf((w, -k)), mpf((s, -k)), cells) for k, w, s, cells in stream)
    return stream


# ---------------------------------------------------------------------------
# proved summation


def _lundberg(spec: GameSpec):
    """Lundberg's bound for a negative-drift walk: ``bound(K, cells)`` is
    at least the chance that the walk, alive at move K with lattice weights
    ``cells``, still reaches ``n`` later.

    For theta in (0, theta*], where theta* > 0 is the root of
    ``(e**(theta a) + e**(theta b)) / 2 = 1``, ``e**(theta S_k)`` is a
    supermartingale, so from x the walk ever reaches n with chance at most
    ``e**(-theta (n - x))``.  Summed over the cells at ``x_j = a K +
    (b - a) j`` this is one Horner pass in ``e**(theta (b - a))``.  With
    b = 1 the walk cannot overshoot and the bound is exact at theta*.
    Evaluated at the current precision; None when no theta passes the
    check there (a span of about 10**9), which leaves ``q_K`` as the bound.
    """
    a, b, n = spec.moves.a, spec.moves.b, spec.n

    def excess(theta):  # E[e**(theta X)] - 1
        return (mp.exp(theta * a) + mp.exp(theta * b)) / 2 - 1

    # excess is convex with its minimum at theta_min and positive at log(2)/b
    theta_min = mp.log(mpf(-a) / b) / (b - a)
    theta = mp.findroot(excess, (theta_min, mp.log(2) / b), solver="illinois", verify=False)
    theta *= 1 - mpf(10) ** -20  # just below the root
    if not excess(theta) <= 0:
        return None
    # e**(theta (b - a)) over 2**bits as an integer, raised past the rounding
    # of exp: the Horner pass runs on integers, and every step rounds up
    bits = 4 * WORK_DPS
    z = int(mp.ldexp(mp.exp(theta * (b - a)), bits) * (1 + mpf(10) ** (5 - WORK_DPS))) + 1

    def bound(k: int, cells: list) -> mpf:
        acc = 0
        for c in reversed(cells):
            acc = c - (-acc * z >> bits)
        return mp.ldexp(acc * mp.exp(-theta * (n - a * k)), -k)

    return bound


def _summed(specs: tuple[GameSpec, ...], policy: TailPolicy | None, method: str, term, bound,
            *, head: int = 0, no_winner: bool = False) -> SeriesResult:
    """The summation core behind every summed evaluator.

    Two specs (same moves) are zipped into ``(k, r1, q1, r2, q2, cells2)``,
    an absorbed walk padded with zeros; one spec, or two equal ones, feed
    their one stream as both walks.  At each move k the core adds
    ``term(r1, q1, r2, q2)`` and asks ``bound(k, q1, h2)`` for a proved
    bound B on the rest of the series, where ``h2`` bounds the chance that
    the second walk still reaches its target after move k: ``q2``, and
    under negative drift also Lundberg's sum, taken at moves growing by
    1.25x (it reads every cell).  The value is the partial sum plus B/2,
    ``tail_estimate`` is B/2 with B rounded up, and summation stops at the
    first k where that is below ``policy.tolerance``.  ``head`` is an exact
    k = 0 term; ``no_winner`` reports ``q1 q2`` at the stop.
    """
    policy = policy if policy is not None else TailPolicy()
    with mp.workdps(WORK_DPS):
        streams = [rq_stream(spec, prefer_float=True) for spec in dict.fromkeys(specs)]
        if len(streams) == 1:
            stream = ((k, r, q, r, q, cells) for k, r, q, cells in streams[0])
        else:
            pad = (None, mpf(0), mpf(0), [])
            pairs = zip(count(1), zip_longest(*streams, fillvalue=pad))
            stream = ((k, r1, q1, r2, q2, c2) for k, ((_, r1, q1, _), (_, r2, q2, c2)) in pairs)
        lundberg = _lundberg(specs[-1]) if specs[-1].moves.drift < 0 else None
        margin = 1 + mpf(10) ** (5 - WORK_DPS)  # covers the rounding of B
        limit = 2 * mpf(policy.tolerance) / margin
        total, last_term, nterms = mpf(head), mpf(0), 0
        reach, next_check = mpf("inf"), 16
        for k, r1, q1, r2, q2, cells in stream:
            t = term(r1, q1, r2, q2)
            if t:
                total += t
                last_term = t
                nterms += 1
            if lundberg is not None and (k >= next_check or k >= policy.max_k):
                reach = lundberg(k, cells)
                next_check = max(k + 1, int(k * 1.25))
            tail_bound = bound(k, q1, min(q2, reach))
            if tail_bound <= limit or k >= policy.max_k:  # an absorbed walk gives 0
                break
        tail = tail_bound * margin / 2
        converged = tail_bound <= limit
        return SeriesResult(
            value=total + tail,
            truncation_k=k,
            last_term=last_term,
            tail_estimate=tail,
            verdict=CONVERGED if converged else INCONCLUSIVE,
            method=method,
            witness=None if converged else f"tail not below tolerance by the truncation cap k={k}",
            no_winner=q1 * q2 if no_winner else None,
            eval_error=mpf(10) ** (5 - WORK_DPS) * (nterms + 1),
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
    if spec.moves.b <= 0:
        raise ValueError(
            "the squared-passage identity needs an almost surely finished race, "
            "but these moves can never reach the target"
        )
    return _race(spec.n, spec.n, spec.moves, policy, "squares")


def win_prob_direct(spec: GameSpec, policy: TailPolicy | None = None) -> SeriesResult:
    """Second player's win probability, the sum of ``q * r``; valid for
    every drift.

    The tail after move K lies in ``[0, q_K h_K]``, with ``h_K`` the proved
    bound on a later arrival: ``q_K`` under positive drift, where the
    reported value ``sum_{k<=K} q r + q_K**2 / 2`` equals ``(1 - sum_{k<=K}
    r**2) / 2``, and Lundberg's bound under negative drift, where the
    never-decided probability estimate ``q_K**2`` is reported too.
    """
    spec = _validated(spec)
    if spec.n == 0:
        return _trivial_result(0, "direct", witness="zero target: the first player has already won")
    if spec.moves.b <= 0:
        return _trivial_result(
            0, "direct", witness="moves can never reach the target", no_winner=1,
        )
    return _race(spec.n, spec.n, spec.moves, policy, "direct")


def win_prob_targets(
    n1: int, n2: int, moves: MoveSet, policy: TailPolicy | None = None
) -> SeriesResult:
    """Probability the second player reaches ``n2`` before the first
    player reaches ``n1``: the sum of ``q(n1, k) r(n2, k)``.

    At zero drift the answer is exact (``closedforms.unit_step_sum``).
    Otherwise the tail after move K lies in ``[0, q1_K h2_K]``, with
    ``h2_K`` the proved bound on a later arrival of the second walk
    (``q2_K``, or Lundberg's bound under negative drift, where ``q1_K
    q2_K`` is also reported as the never-decided mass).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("both targets must be >= 1")
    if GameSpec(moves, n2).moves.b <= 0:  # GameSpec checks the argument types
        return _trivial_result(
            0, "asymmetric", witness="the second walk can never reach its target",
        )
    return _race(n1, n2, moves, policy, "asymmetric")


def _race(n1: int, n2: int, moves: MoveSet, policy: TailPolicy | None, method: str) -> SeriesResult:
    """``p(n1, n2)`` behind every win-probability evaluator: exact at zero
    drift, else the ``q1 r2`` sum with tail in ``[0, q1_K h2_K]``."""
    specs = (GameSpec(moves, n1), GameSpec(moves, n2))
    u1, u2 = (reduce_zero_drift(spec) for spec in specs)
    if u1 is not None:
        return _exact_result(unit_step_sum(u2, u1))
    return _summed(
        specs, policy, method, lambda r1, q1, r2, q2: q1 * r2, lambda k, q1, h2: q1 * h2,
        no_winner=moves.drift < 0,
    )


def expected_duration(spec: GameSpec, policy: TailPolicy | None = None) -> SeriesResult:
    """Expected number of rounds until someone wins: ``sum_k q(n, k)**2``
    over k >= 0.

    The series diverges exactly when the drift is <= 0 (an unreachable
    target has drift <= 0 too): zero drift gives ``q**2 ~ c / k`` and
    negative drift leaves ``q`` above a positive limit.  That verdict is
    returned before any term is summed, with the finite partial sum
    through k = 0 as its value and an infinite tail.

    Under positive drift mu the tail after move K is at most
    ``q_K E[(T - K)+]``, and by Wald's identity ``E[(T - K)+] <= q_K (n +
    b - 1 - a K) / mu``: every survivor sits at or above ``a K`` and
    overshoots ``n`` by less than ``b``.
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
    a, b, n = spec.moves.a, spec.moves.b, spec.n
    mu = mpf(a + b) / 2

    def bound(k, q, _):
        return q * q * (n + b - 1 - a * k) / mu

    return _summed((spec,), policy, "duration", lambda r1, q1, r2, q2: q1 * q1, bound, head=1)


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
    for j, win, survived, _ in rq_stream(spec):
        if j > k:
            break
        total = (total << 2) + win * survived
        last = j
    return Fraction(total, 4**last)


def square_sum_value(
    moves: MoveSet, n: int, policy: TailPolicy | None = None
) -> SeriesResult:
    """The sum ``sum_k r(n, k)**2`` for a single target; exact at zero
    drift.  Otherwise every later ``r_k`` and their sum are at most the
    proved bound ``h_K`` on a later arrival, so the tail lies in
    ``[0, h_K**2]``."""
    if n < 1:
        raise ValueError("target must be >= 1")
    spec = GameSpec(moves, n)
    if moves.b <= 0:
        return _trivial_result(0, "square_sum", witness="moves can never reach the target")
    unit = reduce_zero_drift(spec)
    if unit is not None:
        return _exact_result(unit_step_sum(unit))
    return _summed((spec,), policy, "square_sum", lambda r1, q1, r2, q2: r2 * r2,
                   lambda k, q, h: h * h)
