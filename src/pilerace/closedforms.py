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
from math import comb, factorial

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


def _partial_fractions(scale: Fraction, zeros, npoles: int) -> tuple:
    """``scale * prod(m - z) / prod_{p=1..npoles} (m + p)``, with at most
    ``npoles`` zeros, as ``(constant, {p: residue at m = -p})``."""
    residues = {}
    for p in range(1, npoles + 1):
        num = scale
        for z in zeros:
            num *= -p - z
        residues[p] = num / ((-1) ** (p - 1) * factorial(p - 1) * factorial(npoles - p))
    return (scale if len(zeros) == npoles else 0), residues


def _times(f: tuple, g: tuple) -> dict:
    """``f * g`` for partial fractions ``f`` and ``g``, g without a
    constant: ``{p: [coefficient of 1/(m + p), of 1/(m + p)**2]}``."""
    (c, fs), (_, gs) = f, g
    out = {p: [c * gs.get(p, 0), Fraction(0)] for p in fs.keys() | gs.keys()}
    for p, a in fs.items():
        for l, b in gs.items():
            if p == l:
                out[p][1] += a * b
            else:  # 1/((m+p)(m+l)) = (1/(m+p) - 1/(m+l)) / (l - p)
                out[p][0] += a * b / (l - p)
                out[l][0] -= a * b / (l - p)
    return out


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
    """
    if n2 < 1 or (n1 is not None and n1 < 1):
        raise ValueError("targets must be >= 1")
    e, t = n2 % 2, n2 // 2
    # n2 / k times the ratio at t, k = 2m + e cancelling its zero m (e = 0) or m + 1/2 (e = 1)
    r = _partial_fractions(Fraction(n2, 2), range(1 - e, t), t + e)
    if n1 is None:
        R = _times(r, r)
    else:  # S_k = s, of k's parity, is C(k, (k + s) / 2) / 2**k: offset |s| // 2
        q_const, q_res = Fraction(0), Counter()
        for off, mult in Counter(abs(s) // 2 for s in range(-n1, n1) if (s - e) % 2 == 0).items():
            zeros = [Fraction(-1, 2)] * e + list(range(off))
            const, res = _partial_fractions(Fraction(1), zeros, off + e)
            q_const += mult * const
            q_res.update({p: mult * a for p, a in res.items()})
        R = _times((q_const, q_res), r)

    x, y = {}, {}  # P's coefficients of 1/(m + c)**2 and 1/(m + c)
    for pole in range(max(R), 1, -1):
        a1, a2 = R.pop(pole)
        c = pole - 1
        lead = Fraction((2 * c + 1) ** 2, 4 * c * c)  # rho(-pole)
        x[c] = a2 / lead
        y[c] = (a1 - x[c] * Fraction(2 * c + 1, 2 * c**3)) / lead
        # subtract L[x/(m + c)**2 + y/(m + c)]: its -P(m) part sits at -c,
        # and rho's double pole at -1 leaves a part there
        R[c][0] += y[c]
        R[c][1] += x[c]
        for coef, s in ((x[c], 2), (y[c], 1)):
            R[1][1] -= coef * Fraction(1, 4 * c**s)
            R[1][0] += coef * (Fraction(1, c**s) + Fraction(s, 4 * c ** (s + 1)))
    a1, a2 = R[1]
    p0 = 4 * a2  # L[p0] = p0 (1/(4 (m + 1)**2) - 1/(m + 1))
    alpha = a1 + p0
    m0 = 1 - e
    at_m0 = p0 + sum(y[c] / (m0 + c) + x[c] / (m0 + c) ** 2 for c in x)
    # u_0 = 1 and u_1 = 1/4; for m0 = 1 the head sum is u_0 / 1 = 1
    u_m0, head = (Fraction(1, 4), 1) if m0 else (1, 0)
    return PiLinear(-u_m0 * at_m0 - alpha * head, 4 * alpha)
