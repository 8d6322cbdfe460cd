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

The rational-looking expressions are evaluated in exact integer
arithmetic with the division performed last and checked exact: these
counts are integers by construction, so an inexact division is a bug,
not a rounding issue.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


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


class _RaneyMemo:
    """Rows of the {-1, 2} walk counts, built bottom-up.

    Row n needs row n-1 one index further out, so requesting (n, k)
    materializes rows 1..n padded out to k + n.  Rows are kept for the
    life of the process; they are small integers tables.
    """

    def __init__(self):
        self._rows: dict[int, list[int]] = {}

    def _base(self, k: int) -> int:
        m, rem = divmod(k, 3)
        if rem == 0:
            return _exact_div(comb(3 * m, m), 2 * m + 1)
        if rem == 1:
            return _exact_div(comb(3 * m + 1, m + 1), 2 * m + 1)
        return 0

    def get(self, n: int, k: int) -> int:
        if n <= 0:
            return 0
        self._ensure(n, k)
        row = self._rows[n]
        return row[k] if k < len(row) else 0

    def _ensure(self, n: int, k: int) -> None:
        have = self._rows.get(n)
        if have is not None and len(have) > k:
            return
        extent = k + n + 1  # row m is built out to extent + (n - m)
        self._rows[1] = [self._base(j) for j in range(extent + n)]
        for m in range(2, n + 1):
            prev = self._rows[m - 1]
            older = self._rows.get(m - 3, []) if m >= 3 else []
            row = []
            for j in range(extent + n - m):
                val = prev[j + 1] - (older[j] if j < len(older) else 0)
                if val < 0:
                    raise AssertionError(f"negative walk count at n={m}, k={j}")
                row.append(val)
            self._rows[m] = row


_RANEY = _RaneyMemo()


def raney_count(n: int, k: int) -> int:
    """Walks of length k with {-1, +2} steps, all partial sums < n,
    ending at n-1 or n-2.  Defined for n >= -1 (rows -1 and 0 vanish)."""
    if n < -1 or k < 0:
        raise ValueError("raney_count needs n >= -1 and k >= 0")
    return _RANEY.get(n, k)


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
