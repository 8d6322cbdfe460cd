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
floor error together; ``numeric._round`` makes every rounding, and the
value's ulp is its rounding up minus its rounding down.  Lundberg's base
is a dyadic tested on integers.
``win_within`` is not summed to a bound: it adds the exact terms of
``passage._exact_stream`` up to its move count, the stream's horizon, and
returns the partial sum as a ``Dyadic`` made from its integer numerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .closedforms import unit_step_sum
from .numeric import (
    ApproxValue,
    Dyadic,
    PiLinear,
    _round,
    dps_to_prec,
    dyadic,
    floor_log10,
    nstr,
    rounded,
)
from .passage import (
    FLOOR_EVERY,
    GameSpec,
    MoveSet,
    _exact_stream,
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
MIN_MAX_K = 16

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
        if self.max_k < MIN_MAX_K:
            raise ValueError(f"max_k must be at least {MIN_MAX_K}")


@dataclass(frozen=True, kw_only=True)
class SeriesResult:
    """Outcome of one truncated series evaluation.

    Every number is a ``Dyadic``, rounded once from an exact value to
    nearest at ``dps_to_prec(work_dps)`` bits.  ``value`` is the estimate;
    ``tail_estimate`` is a proved bound on what truncation may still be
    missing (zero for an exact answer, ``math.inf`` for a diverged
    series), rounded up, and ``eval_error`` bounds the rounding of
    ``value``.  A diverged verdict always carries a witness.  The defaults
    are those of an answer decided without summing a term.
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
        digits = floor_log10(ratio.numerator, ratio.denominator) + 1
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


# the exact stream under its old name, with no caller in the package: the
# benchmark's tracer still installs a wrapper under this name
rq_stream = _exact_stream


# ---------------------------------------------------------------------------
# proved summation


def _lundberg(spec: GameSpec, bits: int):
    """Lundberg's bound for a negative-drift walk, as ``(depth, bound)``:
    ``bound(k, lattice, low, lift)``, over ``2**(bits + FLOOR_EVERY)``, is
    at least the chance that the walk, alive at move k with the packed
    fixed-point ``lattice`` of ``iter_passage`` at ``bits`` (lowest cell j
    = ``low``, cells over that denominator shifted down by ``lift``),
    still reaches ``n`` later, and a unit of mass more than ``depth``
    positions below n reaches it with chance below ``2**-bits``.

    For z in (1, z*], where z* > 1 solves ``z**a + z**b = 2``, ``z**S_k``
    is a supermartingale: from x the walk ever reaches n with chance at
    most ``z**-(n - x)``.  Summed over the cells by one Horner pass in
    ``z**(b - a)``, times ``z**-(n - x_low)``, every product rounded up on
    that denominator, this is exact at z* when b = 1.  z is
    ``_lundberg_base`` at s = 2 ``bits``; ``depth`` is the least L with ``z**-L < 2**-bits / e``, a
    float estimate confirmed on integers.  Both are None if either fails.
    """
    a, b, n = spec.moves.a, spec.moves.b, spec.n
    s = 2 * bits
    z = _lundberg_base(a, b, s)
    if z is None:
        return None, None
    theta = math.log1p((z - (1 << s)) / (1 << s))
    depth = math.ceil((bits * math.log(2) + 1) / theta * (1 + 1e-12))
    if _power(z, -depth, s) * 27182818284590453 >= 10**16 << (s - bits):  # e < 2.7182818284590453
        return None, None
    # z**(b - a) is huge but unused once b - a >= depth: one cell is left
    factor = _power(z, b - a, s) if b - a < depth else 0

    def bound(k: int, lattice: int, low: int, lift: int) -> int:
        acc = 0
        for c in unpack(lattice, bits):
            acc = (c << lift) - (-acc * factor >> s)
        # an empty lattice's low may lie far above n
        return -(-acc * _power(z, a * k + (b - a) * low - n, s) >> s) if acc else 0

    return depth, bound


def _lundberg_base(a: int, b: int, s: int) -> int | None:
    """Lundberg's base for moves {a, b} of negative drift, as the numerator
    of z over ``2**s``: Newton's method on ``g(z) = z**a + z**b - 2``, its
    powers rounded down, falls to the root z* from a start where g > 0 is
    convex and rising: z*'s quadratic estimate, or else ``2**(1/b)``.  The
    last iterate that falls is lowered by the factor ``1 - theta 1e-20``,
    theta = ln z* in floats.  None unless g(z) <= 0 holds with powers
    rounded up and ln z lies in a float's range: at ``WORK_DPS``, b up to
    about 10**100, spans at drift -1/2 to 10**33."""
    if b >> min(s, 990):  # z* - 1 < ln 2 / b: below the point or the floats
        return None
    one = 1 << s

    def g(z: int, up: bool = False) -> tuple[int, int]:  # g(z) over one, and Newton's step
        za, zb = _power(z, a, s, up), _power(z, b, s, up)
        excess, slope = za + zb - 2 * one, a * za + b * zb  # slope: z g'(z)
        return excess, z * excess // slope if slope > 0 else 0

    # ln z* ~ -2 (a + b) / (a**2 + b**2) by g's quadratic term; from below, a Newton step
    # lands above the root, and 256 |a| units past g's rounding (a squaring doubles it)
    theta = (-2 * (a + b) << s) // (a * a + b * b)
    z = one + theta + (theta * theta >> s + 1)
    excess, step = g(z)
    if excess <= 0:
        z += (-a << 8) - step
    if g(z)[0] <= 0:  # not above the root after all
        num, den = math.expm1(math.log(2) / b).as_integer_ratio()
        rise = -(-(num << s) // den)
        z = one + rise + (rise >> 40)  # past the float's rounding, so g > 0
    for _ in range(200):  # capped: z - 1 only halves per step at a drift tiny beside the span
        if (step := g(z)[1]) <= 0:
            break
        z -= step
    num, den = math.log1p((z - one) / one).as_integer_ratio()
    z -= z * num // (den * 10**20)  # just below the root
    return z if (z - one) << 990 > one and g(z, up=True)[0] <= 0 else None


def _power(x: int, e: int, s: int, up: bool = True) -> int:
    """``(x / 2**s)**e`` over ``2**s`` by repeated squaring, every product,
    and ``2**s / x`` for a negative e, rounded up, or down if not ``up``."""
    sign = -1 if up else 1  # sign * (sign * v >> s) is v / 2**s rounded
    if e < 0:
        x, e = sign * ((sign << 2 * s) // x), -e
    y = 1 << s
    while True:
        if e & 1:
            y = sign * (sign * y * x >> s)
        e >>= 1
        if not e:
            return y
        x = sign * (sign * x * x >> s)


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
    more than L positions below its target sit in a sink, L the least
    with ``z**-L < 2**-P / e`` for Lundberg's base z; a unit of sunk mass
    ever arrives with chance below ``2**-P``, so the sink's mass over
    ``2**P``, rounded up, bounds every later arrival of the sink and is
    added to ``h2``.
    Each r and q is then within e = tally + that sink bound of its
    fixed-point value, and every term, a product of two such factors in
    [0, 1], within ``e1 + e2``.

    The value is the partial sum plus B/2 and ``tail_estimate`` is B/2
    rounded up.  Each is rounded once, to the working precision.  Half an
    ulp of the value (rounded up minus rounded down, zero where it is
    exact) bounds its rounding to nearest, and ``eval_error`` is
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
            reach = lundberg(k, lattice, low, lift)
            next_check = max(k + 1, int(k * 1.25))
        # a later arrival only gets less likely, so an earlier figure
        # holds at move k
        h2 = (q2 if reach is None else min(q2, reach + w2)) + t2
        tail_bound = bound(k, q1 + t1, h2)
        # on the scale 2**-(2 one + 1), B is tail_estimate and 2 * total + B the value
        if tail_bound * den <= limit or k >= max_k:
            value = 2 * total + tail_bound
            ulp = int(_round(value, 1, prec, 1) - _round(value, 1, prec, -1))
            floor_error = k * (t1 + w1 + t2 + w2) << (one + 1)
            tail = int(_round(tail_bound, 1, prec, 1))
            error = int(_round(max(ulp, ulp // 2 + floor_error), 1, prec, 1))
            converged = (tail + error) * den <= limit
            if converged or k >= max_k:
                break
    scale = -(2 * one + 1)
    return SeriesResult(
        value=rounded(value, prec, scale),
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
    error = approx.error_bound + abs(value) / 10**WORK_DPS
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


# The benchmark's exact_walks workload calls p_n by this name.
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

    ``passage._exact_stream`` at horizon k, a closed form or the DP for
    every move set, gives each r and q at move j as a count over ``2**j``,
    so the sum is kept as one integer over ``4**j`` and made a
    ``numeric.dyadic`` at the end, in lowest terms with no gcd.  A stream
    that ends early (the walk is absorbed) sets the denominator by its last
    move."""
    spec = _validated(spec)
    if spec.n < 1:
        raise ValueError("target must be >= 1")
    require_int(k, "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    total = last = 0
    for j, win, survived, _ in _exact_stream(spec, k):
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
