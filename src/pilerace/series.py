"""The race's infinite series: exact at zero drift, summed to a proved
tail bound otherwise.

Everything here is a sum over the per-move first-passage probabilities
``r(n, k)`` and survival probabilities ``q(n, k)`` of a single walk: the
second player's win probability ``sum q(n1, k) r(n2, k)``, the expected
game length ``sum q**2`` and exact win-within-k partial sums.  ``p_n`` is
the diagonal n1 = n2.  Under non-negative drift, with a reachable target
(b > 0), the race ends almost surely and the paper's identity ``p_n =
(1 - sum r**2) / 2`` holds as well; ``square_sum_value`` gives that sum.

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

Sums run on integers.  The core steps the lattice DP in fixed point, at
the working precision (``WORK_DPS``, or the tolerance's digits plus
``GUARD_DPS`` if that is more) plus ``FLOOR_GUARD_BITS``: every r and q
is an integer numerator over one fixed power of two, so the partial sum
through move K is one integer over its square, and so is the bound B_K.
The mass the DP floored away (its tally) and, under negative drift, the
Lundberg bound of its sink raise ``q1`` and ``h2`` before B_K is formed,
and bound how far each term can be from the exact one.  Only the
returned numbers are rounded, once each, at the working precision, to
``numeric.Dyadic`` rationals; ``eval_error`` covers that rounding and the
floor error together.  mpmath is imported only for Lundberg's exp and log.
``win_within`` steps the exact DP only up to its move count (its
horizon), or the exact Catalan stream at zero drift, and returns the
partial sum as a ``Dyadic`` made from its integer numerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .closedforms import unit_step_sum
from .numeric import (
    ApproxValue,
    Dyadic,
    PiLinear,
    dps_to_prec,
    dyadic,
    nstr,
    rounded,
    ten_to_minus,
)
from .passage import (
    FLOOR_EVERY,
    GameSpec,
    MoveSet,
    iter_passage,
    reduce_zero_drift,
    require_int,
    unpack,
)

WORK_DPS = 40
# digits carried past the tolerance when a summed answer is rounded
GUARD_DPS = 10
# bits the fixed-point lattice carries past the working precision
FLOOR_GUARD_BITS = 64
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

    Summation stops at the first move where the reported error bound,
    ``tail_estimate + eval_error``, is at most ``tolerance``: the verdict
    is then converged.  At the cap ``max_k`` the result keeps its proved
    bound and the verdict is inconclusive.
    """

    tolerance: float = DEFAULT_TOLERANCE
    max_k: int = DEFAULT_MAX_K

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        require_int(self.max_k, "max_k")
        if self.max_k < 16:
            raise ValueError("max_k must be at least 16")


@dataclass(frozen=True, kw_only=True)
class SeriesResult:
    """Outcome of one truncated series evaluation.

    Every number is a ``Dyadic``, rounded once from an exact value to
    nearest at the bits of ``work_dps`` digits, as an mpf at that precision
    would be.  ``value`` is the estimate; ``tail_estimate`` is a proved
    bound on what truncation may still be missing (zero for an exact
    answer, ``math.inf`` for a diverged series), rounded up, and
    ``eval_error`` bounds the rounding of ``value``.  A diverged verdict
    always carries a witness.  The defaults are those of an answer decided
    without summing a term.
    """

    value: Dyadic
    truncation_k: int = 0
    last_term: Dyadic = Dyadic(0)
    tail_estimate: Dyadic | float = Dyadic(0)
    verdict: str = CONVERGED
    method: str
    witness: str | None = None
    no_winner: Dyadic | None = None
    eval_error: Dyadic = Dyadic(0)
    work_dps: int = WORK_DPS

    def error_bound(self) -> Dyadic | float:
        bound = self.tail_estimate + self.eval_error
        return bound if bound == math.inf else Dyadic(bound)

    def formatted(self, max_digits: int = 17) -> str:
        return ApproxValue(self.value, self.error_bound()).formatted(max_digits)

    def _value_digits(self) -> int:
        """Significant digits that round ``value`` by at most a tenth of
        its error bound, ``5 |value| 10**-d <= bound / 10``, capped at
        ``work_dps``."""
        bound = self.error_bound()
        if not bound or not self.value:
            return self.work_dps
        if bound == math.inf:
            return 1
        ratio = 50 * abs(self.value) / bound
        digits = len(str(ratio.numerator // ratio.denominator))  # floor(log10 ratio) + 1, if >= 1
        return max(1, min(self.work_dps, digits))

    def to_json_dict(self, max_digits: int = 17) -> dict:
        def num(x, digits=24):
            return None if x is None else nstr(x, digits)

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
    """(k, r, q, cells) for any move set, r and q as exact integer
    numerators over ``2**k``: the unit-step Catalan stream for a
    zero-drift set, reduced to its unit-step target (``cells`` is None),
    and the exact lattice DP otherwise (``cells`` as ``iter_passage``
    yields them).  ``win_within`` reads it at zero drift; the DP-backed
    evaluators step ``iter_passage`` with a horizon or in fixed point
    instead.  ``prefer_float`` gives r and q as mpf values at mpmath's
    current precision instead, each numerator rounded once; no evaluator
    reads that form, and it is kept for the benchmark's tracer.
    DP-backed streams end once the walk is absorbed; the Catalan stream is
    infinite.
    """
    reduced = reduce_zero_drift(spec)
    stream = iter_passage(spec) if reduced is None else _stream_unit_exact(reduced)
    if prefer_float:
        from mpmath import mpf

        return ((k, mpf((w, -k)), mpf((s, -k)), cells) for k, w, s, cells in stream)
    return stream


# ---------------------------------------------------------------------------
# proved summation


def _lundberg(spec: GameSpec, bits: int):
    """Lundberg's bound for a negative-drift walk, as ``(depth, bound)``:
    ``bound(k, lattice, low)`` is at least the chance that the walk, alive
    at move K with the packed fixed-point ``lattice`` of ``iter_passage``
    at ``bits``, lowest cell j = ``low``, still reaches ``n`` later, and a
    unit of mass more than ``depth`` positions below n reaches it with
    chance below ``2**-bits``.

    For theta in (0, theta*], where theta* > 0 is the root of
    ``(e**(theta a) + e**(theta b)) / 2 = 1``, ``e**(theta S_k)`` is a
    supermartingale, so from x the walk ever reaches n with chance at most
    ``e**(-theta (n - x))``.  Summed over the cells at ``x_j = a K +
    (b - a) j`` this is one Horner pass in ``e**(theta (b - a))``, from the
    top cell down; ``bound`` decodes the lattice's slots once per call, in
    O(cells), and returns an integer numerator on the cells' scale, rounded
    up past the rounding of its mpf factor.  With b = 1 the walk cannot
    overshoot and the bound is exact at theta*.  theta* is solved in
    floats and polished by three Newton steps at ``WORK_DPS`` digits;
    theta is then taken just below it and kept only if ``E[e**(theta X)]
    - 1``, summed from ``expm1`` terms, is negative past its rounding.
    ``depth`` is ``ceil((bits ln 2 + 1) / theta)``, so ``e**(-theta depth)
    < 2**-bits``.  Both are None when no theta passes that check (a span
    of about 10**14 at ``WORK_DPS``), which leaves ``q_K`` as the bound and
    no sink.
    """
    from mpmath import mp, mpf  # only negative drift loads mpmath, for exp and log

    a, b, n = spec.moves.a, spec.moves.b, spec.n
    with mp.workdps(WORK_DPS):
        theta = mpf(_theta_float(a, b))
        for _ in range(3):  # Newton's method from the float root, past WORK_DPS digits
            slope = a * mp.exp(theta * a) + b * mp.exp(theta * b)
            if not slope > 0:  # lost to cancellation at a huge span
                return None, None
            theta -= (mp.expm1(theta * a) + mp.expm1(theta * b)) / slope
        theta *= 1 - mpf(10) ** -20  # just below the root
        # 2 E[e**(theta X)] - 2 = ea + eb must be negative past its rounding
        ea, eb = mp.expm1(theta * a), mp.expm1(theta * b)
        if not ea + eb + (abs(ea) + abs(eb)) * mpf(10) ** (5 - WORK_DPS) <= 0:
            return None, None
        depth = int(mp.ceil((bits * mp.log(2) + 1) / theta))
        # e**(theta (b - a)) over 2**zbits as an integer, raised past the
        # rounding of exp: the Horner pass runs on integers, and every step
        # rounds up.  z has about theta (b - a) / ln 2 bits and is not built
        # once b - a >= depth: cells lie b - a apart and the sink keeps those
        # within depth of n, so at most one is left and z meets only the zero
        # that the pass starts from.
        zbits = 4 * WORK_DPS
        margin = 1 + mpf(10) ** (5 - WORK_DPS)  # covers the rounding of each mpf step
        z = int(mp.ldexp(mp.exp(theta * (b - a)), zbits) * margin) + 1 if b - a < depth else 0

    def bound(k: int, lattice: int, low: int) -> int:
        acc = 0
        for c in unpack(lattice, bits):
            acc = c - (-acc * z >> zbits)
        with mp.workdps(WORK_DPS):
            return int(mp.ceil(acc * mp.exp(-theta * (n - a * k - (b - a) * low)) * margin))

    return depth, bound


def _theta_float(a: int, b: int) -> float:
    """theta* of ``_lundberg`` in floats, by Newton's method from log(2)/b.
    There the excess ``(e**(theta a) + e**(theta b)) / 2 - 1`` is positive,
    and it is convex and rising from its minimum on, so the iterates fall
    to the root; ``expm1`` keeps its relative precision at a small theta."""
    theta = math.log(2) / b
    for _ in range(200):
        slope = a * math.exp(theta * a) + b * math.exp(theta * b)
        if not slope > 0:
            break
        below = theta - (math.expm1(theta * a) + math.expm1(theta * b)) / slope
        if not below < theta:
            break
        theta = below
    return theta


def _summed(specs: tuple[GameSpec, ...], policy: TailPolicy | None, method: str, term, bound,
            *, head: int = 0, no_winner: bool = False) -> SeriesResult:
    """The summation core behind every summed evaluator.

    Each spec's walk is the fixed-point lattice DP of ``iter_passage`` at
    ``bits`` = P, the bits of the working precision (``WORK_DPS``, or the
    tolerance's digits plus ``GUARD_DPS`` if that is more) plus
    ``FLOOR_GUARD_BITS``; its r, q, tally and sink bound are integer
    numerators over ``2**one``, ``one = P + FLOOR_EVERY``, and its cells
    stay packed in one integer that only Lundberg's checkpoints decode.
    Two specs (same moves) are zipped; one spec, or two equal ones, feed
    their one stream as both walks.  At each move k the core adds the integer ``term(r1,
    q1, r2, q2)`` to one exact total over ``2**(2 one)`` and asks
    ``bound(k, q1, h2)`` for a proved bound B on the rest of the series,
    also over ``2**(2 one)``.  ``h2`` bounds the chance that the second
    walk still reaches its target after move k: ``q2``, and under negative
    drift also Lundberg's sum over the lattice, taken at moves growing by
    1.25x (it reads every cell) and valid at every later move.  ``head``
    is the total at k = 0; ``no_winner`` reports ``q1 q2`` at the stop.

    Flooring and the sink enter the bounds.  The exact q is at most the
    fixed-point q plus the tally, so ``q1`` and ``h2`` are raised by their
    tallies before B is formed.  Under negative drift each walk's cells
    more than L = ``ceil((P ln 2 + 1) / theta)`` positions below its
    target sit in a sink; a unit of sunk mass ever arrives with chance
    below ``2**-P`` (Lundberg), so the sink's mass over ``2**P``, rounded
    up, bounds every later arrival of the sink and is added to ``h2``.
    Each r and q is then within e = tally + that sink bound of its
    fixed-point value, and every term, a product of two such factors in
    [0, 1], within ``e1 + e2``.

    The value is the partial sum plus B/2 and ``tail_estimate`` is B/2
    rounded up.  Each is rounded once, to the working precision.  Half an
    ulp of the value bounds its rounding to nearest, and ``eval_error`` is
    one ulp, or half an ulp plus the K terms' floor error ``K (e1 + e2)``
    rounded up if that is more.  The result is converged, and summation
    stops, at the first k where ``tail_estimate + eval_error`` is at most
    ``policy.tolerance``; the test runs on integers.
    """
    policy = policy if policy is not None else TailPolicy()
    tol = Fraction(policy.tolerance)
    dps = max(WORK_DPS, math.ceil(-math.log10(policy.tolerance)) + GUARD_DPS)
    prec = dps_to_prec(dps)
    bits = prec + FLOOR_GUARD_BITS
    one = bits + FLOOR_EVERY
    depth, lundberg = _lundberg(specs[-1], bits) if specs[-1].moves.drift < 0 else (None, None)
    streams = [iter_passage(spec, bits, depth) for spec in dict.fromkeys(specs)]
    walks = zip(*streams) if len(streams) == 2 else ((item, item) for item in streams[0])
    total, last = head << 2 * one, 0
    reach, next_check = None, 16
    limit = tol.numerator << (2 * one + 1)  # tol on the scale 2**-(2 one + 1)
    den, max_k = tol.denominator, policy.max_k
    for (k, r1, q1, _, _, _, t1, w1), (_, r2, q2, lattice, low, lift, t2, w2) in walks:
        t = term(r1, q1, r2, q2)
        total += t
        if t:
            last = t
        if lundberg is not None and (k >= next_check or k >= max_k):
            reach = lundberg(k, lattice, low) << lift
            next_check = max(k + 1, int(k * 1.25))
        # a later arrival only gets less likely, so an earlier figure
        # holds at move k
        h2 = (q2 if reach is None else min(q2, reach + w2)) + t2
        tail_bound = bound(k, q1 + t1, h2)
        # on the scale 2**-(2 one + 1), B is tail_estimate and 2 * total + B the value
        if tail_bound * den <= limit or k >= max_k:
            ulp = _ulp(2 * total + tail_bound, prec)
            floor_error = k * (t1 + w1 + t2 + w2) << (one + 1)
            tail = _round_up(tail_bound, prec)
            error = _round_up(max(ulp, ulp // 2 + floor_error), prec)
            converged = (tail + error) * den <= limit
            if converged or k >= max_k:
                break
    scale = -(2 * one + 1)
    return SeriesResult(
        value=rounded(2 * total + tail_bound, prec, scale),
        truncation_k=k,
        last_term=rounded(last, prec, -2 * one),
        tail_estimate=rounded(tail, prec, scale),
        verdict=CONVERGED if converged else INCONCLUSIVE,
        method=method,
        witness=None if converged else f"tail not below tolerance by the truncation cap k={k}",
        no_winner=rounded(q1 * q2, prec, -2 * one) if no_winner else None,
        eval_error=rounded(error, prec, scale),
        work_dps=dps,
    )


def _round_up(x: int, prec: int) -> int:
    """The least integer >= x with at most ``prec`` significant bits."""
    shift = x.bit_length() - prec
    return x if shift <= 0 else -(-x >> shift) << shift


def _ulp(x: int, prec: int) -> int:
    """One unit in the last place of x rounded to ``prec`` bits, twice the
    bound on that rounding to nearest; zero when x needs no rounding."""
    shift = x.bit_length() - prec
    return 1 << shift if shift > 0 and x & ((1 << shift) - 1) else 0


# ---------------------------------------------------------------------------
# evaluators


def _validated(spec: GameSpec) -> GameSpec:
    if not isinstance(spec, GameSpec):
        raise TypeError("spec must be a GameSpec")
    return spec


def _exact_result(form: PiLinear) -> SeriesResult:
    """The decimal of an exact answer at ``WORK_DPS``; its ``eval_error``
    covers both pi and the rounding to ``WORK_DPS``."""
    prec = dps_to_prec(WORK_DPS)
    approx = form.approx(WORK_DPS)
    value = rounded(approx.value, prec)
    error = approx.error_bound + rounded(abs(value) * ten_to_minus(WORK_DPS, prec), prec)
    return SeriesResult(value=value, method="exact", eval_error=rounded(error, prec))


def win_prob_direct(spec: GameSpec, policy: TailPolicy | None = None) -> SeriesResult:
    """Second player's win probability p_n, the sum of ``q * r``; valid
    for every drift.  ``win_prob_squares`` is its older name.

    Under non-negative drift, with b > 0, the race ends almost surely and
    the paper's identity ``p_n = (1 - sum r**2) / 2`` holds;
    ``square_sum_value`` and the CLI's ``table case_minus1_2`` take that
    route.  The tail after move K lies in ``[0, q_K h_K]``, with ``h_K``
    the proved bound on a later arrival: ``q_K`` under positive drift,
    where the reported value ``sum_{k<=K} q r + q_K**2 / 2`` equals ``(1 -
    sum_{k<=K} r**2) / 2``, and Lundberg's bound under negative drift,
    where the never-decided probability estimate ``q_K**2`` is reported too.
    """
    spec = _validated(spec)
    if spec.n == 0:
        return SeriesResult(value=Dyadic(0), method="direct",
                            witness="zero target: the first player has already won")
    if spec.moves.b <= 0:
        return SeriesResult(value=Dyadic(0), method="direct",
                            witness="moves can never reach the target", no_winner=Dyadic(1))
    return _race(spec.n, spec.n, spec.moves, policy, "direct")


# The benchmark's exact_walks workload calls p_n by this name, and
# ``pilerace.__all__`` exports it.
win_prob_squares = win_prob_direct


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
        # neither walk ever arrives, as in win_prob_direct
        return SeriesResult(value=Dyadic(0), method="asymmetric",
                            witness="the second walk can never reach its target", no_winner=Dyadic(1))
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
        return SeriesResult(value=Dyadic(0), method="duration",
                            witness="zero target: the race is over before any move")
    if spec.moves.drift <= 0:
        return SeriesResult(
            value=Dyadic(1),
            last_term=Dyadic(1),
            tail_estimate=math.inf,
            verdict=DIVERGED,
            method="duration",
            witness=f"drift {spec.moves.drift} <= 0, so the terms q(n, k)**2 are not summable",
        )
    a, b, n = spec.moves.a, spec.moves.b, spec.n

    def bound(k, q, _):  # q**2 (n + b - 1 - a k) / mu, rounded up
        return -(-2 * q * q * (n + b - 1 - a * k) // (a + b))

    return _summed((spec,), policy, "duration", lambda r1, q1, r2, q2: q1 * q1, bound, head=1)


def win_within(spec: GameSpec, k: int) -> Fraction:
    """Exact probability the second player wins within ``k`` moves: the
    partial sum of ``q * r`` through ``k`` as a rational.

    The exact DP, stopped at its horizon k, or at zero drift the exact
    Catalan stream, gives every r and q at index j as a count over
    ``2**j``, so the sum is kept as one integer over ``4**j`` and made a
    ``numeric.dyadic`` at the end, in lowest terms with no gcd."""
    spec = _validated(spec)
    if spec.n < 1:
        raise ValueError("target must be >= 1")
    require_int(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    if reduce_zero_drift(spec) is None:
        stream = iter_passage(spec, horizon=k)  # drops the cells that cannot win by move k
    else:
        stream = rq_stream(spec)
    total = last = 0
    for j, win, survived, _ in islice(stream, k):
        total = (total << 2) + win * survived
        last = j
    return dyadic(total, 2 * last)


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
        return SeriesResult(value=Dyadic(0), method="square_sum",
                            witness="moves can never reach the target")
    unit = reduce_zero_drift(spec)
    if unit is not None:
        return _exact_result(unit_step_sum(unit))
    return _summed((spec,), policy, "square_sum", lambda r1, q1, r2, q2: r2 * r2,
                   lambda k, q, h: h * h)
