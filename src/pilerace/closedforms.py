"""Closed-form counting formulas for the two classic move sets.

These are the independent oracles against the lattice DP in
:mod:`pilerace.passage`:

* ``catalan_count(n, k)``: number of ±1 walks of length k that stay
  strictly below n and end at n - 1.  First-passage mass for {-1, 1}
  is ``catalan_count(n, k - 1) / 2**k``.
* ``raney_count(n, k)``: number of {-1, +2} walks of length k that stay
  strictly below n and end at n - 1 or n - 2.  First-passage mass for
  {-1, 2} is ``raney_count(n, k - 1) / 2**k``.  The base row n = 1
  consists of the 3-Raney numbers interleaved with their companions.
* ``hitting_time_count`` and ``monotone_survival_count``: r and q
  numerators over ``2**k`` for the walks {a, 1}, a <= 0, and 0 <= a < b.

``unit_step_sum`` is the exact evaluator behind every zero-drift answer:
the sums ``sum_k r(n, k)**2`` and ``sum_k q(n1, k) r(n2, k)`` of the
{-1, 1} walk as exact values in span{1, 1/pi}.

The rational-looking expressions are evaluated in exact integer
arithmetic with the division performed last and checked exact: these
counts are integers by construction, so an inexact division is a bug,
not a rounding issue.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial, lcm, perm

from .numeric import PiLinear


def _exact_div(num: int, den: int) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise AssertionError(f"expected exact division, got {num}/{den}")
    return quotient


def catalan_count(n: int, k: int) -> int:
    """Walks of length k with ±1 steps, all partial sums < n, ending at n-1."""
    if n < 0 or k < 0:
        raise ValueError("catalan_count needs n >= 0 and k >= 0")
    if k == 0:
        return 1 if n == 1 else 0
    if (n - k) % 2 == 0:
        return 0
    if n % 2 == 1:
        s, m = (n - 1) // 2, k // 2
        if m < s:
            return 0
        return _exact_div((2 * s + 1) * comb(2 * m, m - s), m + s + 1)
    s, m = n // 2, (k + 1) // 2
    if s == 0 or m < s:
        return 0
    return _exact_div(s * comb(2 * m, m - s), m)


def _raney_base(k: int) -> int:
    m, rem = divmod(k, 3)
    if rem == 0:
        return _exact_div(comb(3 * m, m), 2 * m + 1)
    if rem == 1:
        return _exact_div(comb(3 * m + 1, m + 1), 2 * m + 1)
    return 0


# rows of the {-1, 2} walk counts by n >= 1, kept for the life of the
# process; they are small integer tables
_RANEY_ROWS: dict[int, list[int]] = {}


def raney_count(n: int, k: int) -> int:
    """Walks of length k with {-1, +2} steps, all partial sums < n,
    ending at n-1 or n-2.  Defined for n >= -1 (rows -1 and 0 vanish).

    Row n needs row n-1 one index further out, so a request past the
    stored row n builds rows 1..n bottom-up, row 1 out to index k + 2n."""
    if n < -1 or k < 0:
        raise ValueError("raney_count needs n >= -1 and k >= 0")
    if n <= 0:
        return 0
    if len(_RANEY_ROWS.get(n, ())) <= k:
        extent = k + 2 * n + 1
        _RANEY_ROWS[1] = [_raney_base(j) for j in range(extent)]
        for m in range(2, n + 1):
            prev = _RANEY_ROWS[m - 1]
            older = _RANEY_ROWS.get(m - 3, [])
            row = []
            for j in range(extent - m):
                val = prev[j + 1] - (older[j] if j < len(older) else 0)
                if val < 0:
                    raise AssertionError(f"negative walk count at n={m}, k={j}")
                row.append(val)
            _RANEY_ROWS[m] = row
    return _RANEY_ROWS[n][k]


def survival_one(k: int) -> Fraction:
    """Probability a ±1 walk stays below 1 through k moves: the closed
    form central-binomial ratio C(2m, m) / 4**m with m = ceil(k / 2)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    m = (k + 1) // 2
    return Fraction(comb(2 * m, m), 4**m)


def win_within_one(k: int) -> Fraction:
    """Probability the second player wins a {-1, 1} race to one chip
    within k moves: 1 - (2L+1)/16**L * C(2L, L)**2 with L = floor((k+1)/2)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    half = (k + 1) // 2
    return 1 - Fraction((2 * half + 1) * comb(2 * half, half) ** 2, 16**half)


def passage_prob_pm1(n: int, k: int) -> Fraction:
    """Exact first-passage probability for {-1, 1}: catalan_count(n, k-1) / 2**k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction(catalan_count(n, k - 1), 1 << k)


def passage_prob_m1p2(n: int, k: int) -> Fraction:
    """Exact first-passage probability for {-1, 2}: raney_count(n, k-1) / 2**k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction(raney_count(n, k - 1), 1 << k)


def hitting_time_count(a: int, n: int, k: int) -> int:
    """First-passage numerator over ``2**k`` of the walk {a, 1}, a <= 0,
    to n >= 1 at move k >= 1.  The walk climbs one chip at a time, so by
    the hitting-time theorem (van der Hofstad & Keane, Amer. Math. Monthly
    2008) it is n/k times the count at n: n C(k, j) / k with j = (n - a k)
    / (1 - a) up-moves."""
    j, rem = divmod(n - a * k, 1 - a)
    if rem or not 0 <= j <= k:
        return 0
    return _exact_div(n * comb(k, j), k)


def monotone_survival_count(a: int, b: int, n: int, k: int) -> int:
    """Survival numerator over ``2**k`` of the walk {a, b}, 0 <= a < b:
    the pile never falls, so it is below n after k moves exactly when
    a k + (b - a) j <= n - 1, with j ~ Binomial(k, 1/2) b-moves."""
    return sum(comb(k, j) for j in range(min(k, (n - 1 - a * k) // (b - a)) + 1))


def _partial_fractions(scale: int, den: int, zeros: range, npoles: int, odd: int = 0) -> tuple:
    """``scale / den * (2m + 1)**odd * prod_{z in zeros} (m - z) /
    prod_{p=1..npoles} (m + p)``, zeros >= 0, with at most ``npoles`` factors
    above, as ``(D, constant, {p: residue at m = -p})``: integer numerators
    over ``D = den * npoles!``, which leaves ``p C(npoles, p)`` over the
    residue's ``prod_{l != p} (l - p) = (-1)**(p - 1) (p - 1)! (npoles - p)!``."""
    residues = {
        p: (-1) ** (p - 1 + len(zeros)) * scale * (1 - 2 * p) ** odd
        * perm(p + zeros.stop - 1, len(zeros)) * p * comb(npoles, p)
        for p in range(1, npoles + 1)
    }
    whole = factorial(npoles)
    constant = scale * whole << odd if len(zeros) + odd == npoles else 0
    return den * whole, constant, residues


def _times(f: tuple, g: tuple) -> tuple:
    """``f * g`` for partial fractions from ``_partial_fractions``, g
    without a constant: ``(D, {p: [numerator of 1/(m + p), of 1/(m + p)**2]})``.
    As ``1/((m+p)(m+l)) = (1/(m+p) - 1/(m+l)) / (l - p)``, D carries the lcm
    ``span`` of every ``l - p``, and each pair costs a product by ``span / (l - p)``."""
    (df, c, fs), (dg, _, gs) = f, g
    poles = fs.keys() | gs.keys()
    span = lcm(*range(1, max(poles)))
    out = {p: [c * gs.get(p, 0) * span, 0] for p in poles}
    for p, a in fs.items():  # a/(m+p) times every b/(m+l), l != p, at the pole p
        out[p][0] += a * sum(b * (span // (l - p)) for l, b in gs.items() if l != p)
    for l, b in gs.items():  # ... and at the pole l
        out[l][0] -= b * sum(a * (span // (l - p)) for p, a in fs.items() if p != l)
        out[l][1] = fs.get(l, 0) * b * span
    return df * dg * span, out


def unit_step_sum(n2: int, n1: int | None = None) -> PiLinear:
    """Exact ``sum_k r(n2, k)**2`` (``n1`` None) or ``sum_k q(n1, k) r(n2, k)``
    for the {-1, 1} walk: T(n2) and the race probability p(n1, n2).

    r lives on k = 2m + e, e = n2 mod 2.  With c_m = C(2m, m) / 4**m,
    ``C(2m + e, m + e + t) / 2**k = c_m ((m + 1/2) / (m + 1))**e
    prod_{i<t} (m - i) / (m + 1 + e + i)``.  The hitting-time theorem
    makes r that at t = n2 // 2 times n2 / k, and reflection makes q(n1, k)
    = P(-n1 <= S_k <= n1 - 1) a sum of them.  So each summand is u_m R(m),
    u_m = c_m**2, with R -> 0 at infinity and poles of order <= 2 at
    m = -1, -2, ...

    As u_{m+1} / u_m = rho(m) = ((2m + 1) / (2m + 2))**2, every
    L[P](m) = rho(m) P(m + 1) - P(m) telescopes: sum_{m >= m0} u_m L[P](m)
    = -u_{m0} P(m0) for bounded P.  R's poles are cancelled from the
    farthest, m = -N, towards -1 by terms y/(m + c) + x/(m + c)**2 of P
    (Abramov's reduction), the double pole left at -1 by a constant p0,
    leaving alpha / (m + 1).  Gauss's 2F1(1/2, 1/2; 2; 1) gives
    sum_{m >= 0} u_m / (m + 1) = 4/pi, so the sum is ``-u_{m0} P(m0) +
    alpha (4/pi - sum_{m < m0} u_m / (m + 1))`` with m0 = 1 - e, the first
    m with k >= 1.  Every step is exact (Petkovsek, Wilf & Zeilberger,
    *A = B*, 1996).

    The work is on integer numerators over explicit denominators: r's over
    2 N!, N its pole count, q's over ``2**e`` times its largest pole's
    factorial, R's over their product times the lcm of the pole gaps.  The
    reduction carries one pole over that times h, the product of (2c + 1)**3
    so far, and adds the parts left at -1 and in P(m0) over a further
    4 lcm(1..M)**3, M R's farthest pole.  Only the answer's two parts are
    ``Fraction``s, one gcd each.
    """
    if n2 < 1 or (n1 is not None and n1 < 1):
        raise ValueError("targets must be >= 1")
    e, t = n2 % 2, n2 // 2
    # n2 / k times the ratio at t, k = 2m + e cancelling its zero m (e = 0) or m + 1/2 (e = 1)
    r = _partial_fractions(n2, 2, range(1 - e, t), t + e)
    if n1 is None:
        den, R = _times(r, r)
    else:  # S_k = s, of k's parity, is C(k, (k + s) / 2) / 2**k: offset |s| // 2
        offsets = Counter(abs(s) // 2 for s in range(-n1, n1) if (s - e) % 2 == 0)
        deg = max(offsets) + e
        q_const, q_res = 0, Counter()
        for off, mult in offsets.items():  # (m + 1/2)**e = (2m + 1)**e / 2**e
            _, const, res = _partial_fractions(1, 1 << e, range(off), off + e, e)
            mult *= perm(deg, deg - off - e)  # onto the denominator of the largest offset
            q_const += mult * const
            q_res.update({p: mult * a for p, a in res.items()})
        den, R = _times((factorial(deg) << e, q_const, q_res), r)
    # Reduce from the farthest pole down.  R[c + 1] is reduced once R[c + 2]
    # has added its part, so one pole (a1, a2) is carried, over den * h;
    # the parts left at -1 and in P(m0) add up over den * h * base.
    m0 = 1 - e
    top = max(R)
    base = 4 * lcm(*range(1, top + 1)) ** 3  # a multiple of 4 c**3 and (m0 + c)**2
    (a1, a2), h, left1, left2, at = R[top], 1, 0, 0, 0
    for c in range(top - 1, 0, -1):
        g = 2 * c + 1
        # y/(m + c) + x/(m + c)**2 cancels the pole at -(c + 1), where
        # rho = g**2 / (4 c**2) and rho' = g / (2 c**3): both over den * h * g**3
        x = 4 * c * c * g * a2
        y = 4 * c * (c * g * a1 - 2 * a2)
        h *= g**3
        # subtract L[x/(m + c)**2 + y/(m + c)]: its -P(m) part sits at -c,
        # and rho's double pole at -1 leaves a part there
        a1, a2 = R[c][0] * h + y, R[c][1] * h + x
        left1 = left1 * g**3 + (2 * g * x + c * (4 * c + 1) * y) * (base // (4 * c**3))
        left2 = left2 * g**3 - (x + c * y) * (base // (4 * c * c))
        at = at * g**3 + (x + (m0 + c) * y) * (base // (m0 + c) ** 2)
    p0 = 4 * (a2 * base + left2)  # L[p0] = p0 (1/(4 (m + 1)**2) - 1/(m + 1))
    alpha = a1 * base + left1 + p0
    # u_0 = 1 and u_1 = 1/4; for m0 = 1 the head sum is u_0 / 1 = 1
    whole = den * h * base << 2 * m0
    return PiLinear(Fraction(-(p0 + at) - 4 * m0 * alpha, whole),
                    Fraction(alpha << 2 + 2 * m0, whole))
