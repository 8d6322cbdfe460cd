"""Exact first-passage engine for two-move coin-flip walks.

A player's pile follows a walk that adds ``a`` or ``b`` chips per move,
each with probability 1/2.  For a target ``n`` the engine computes, as
exact rationals,

* ``r[k]``: probability the pile first reaches ``>= n`` on move ``k``
  (overshoot counts; there is no exact-landing mode), and
* ``q[k]``: probability the pile stays strictly below ``n`` through move
  ``k`` (``q[0] = 1``),

by stepping the exact distribution of surviving paths on the walk's
lattice.  After k moves a path with j b-moves sits at ``a*k + (b-a)*j``,
so the state is one big-integer weight per j over the common denominator
``2**k``: a step is Pascal's rule, and the absorbed paths are a top run
of j.  Nothing is truncated probabilistically: tables are exact by
construction.

The degenerate target ``n = 0`` is refused here; a zero-target race is
decided before anyone moves and is answered directly by the series layer.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .numeric import rational_str


@dataclass(frozen=True, slots=True)
class MoveSet:
    """The two equally likely per-move increments; order-insensitive."""

    a: int
    b: int

    def __post_init__(self):
        for v in (self.a, self.b):
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"moves must be integers, got {v!r}")
        if self.a > self.b:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    @classmethod
    def parse(cls, text: str) -> "MoveSet":
        """Parse "a,b" (e.g. "-1,2")."""
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected two comma-separated integers, got {text!r}")
        return cls(int(parts[0].strip()), int(parts[1].strip()))

    @property
    def drift(self) -> Fraction:
        """Mean increment per move, (a + b) / 2."""
        return Fraction(self.a + self.b, 2)

    @property
    def deterministic(self) -> bool:
        return self.a == self.b

    def __str__(self) -> str:
        return f"{self.a},{self.b}"


@dataclass(frozen=True, slots=True)
class GameSpec:
    """A move set together with the chip target ``n >= 0``."""

    moves: MoveSet
    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise TypeError(f"target must be an integer, got {self.n!r}")
        if self.n < 0:
            raise ValueError(f"target must be >= 0, got {self.n}")


def iter_passage(spec: GameSpec):
    """Yield ``(k, r_k, q_k)`` exactly for k = 1, 2, ...

    ``counts[j]`` is the weight over ``2**k`` of the surviving paths with
    j b-moves, all at position ``a*k + (b-a)*j``.  Position rises with j,
    so the paths absorbed at move k are the cells j >= ceil((n - a*k) /
    (b-a)); they are cut into ``r_k``.  When a == b every path shares one
    position and only the surviving weight is kept.  The generator ends
    once the surviving mass hits zero (every later r and q is exactly
    zero), which happens iff both moves are positive.
    """
    if spec.n < 1:
        raise ValueError(
            "the passage engine needs a target >= 1; a zero-target race is "
            "decided before any move"
        )
    a, b = spec.moves.a, spec.moves.b
    n = spec.n
    span = b - a
    counts = [1]
    survived = 1
    pow2 = 1
    k = 0
    while True:
        k += 1
        pow2 <<= 1
        if span:
            counts = list(map(add, counts + [0], [0] + counts))
            cut = max(_ceil_div(n - a * k, span), 0)
            win = sum(counts[cut:])
            del counts[cut:]
        else:
            win = 2 * survived if a * k >= n else 0
        survived = 2 * survived - win
        yield k, Fraction(win, pow2), Fraction(survived, pow2)
        if survived == 0:
            return


@dataclass(frozen=True)
class PassageTable:
    """Exact ``r`` and ``q`` arrays for one game, k = 0..k_max.

    ``r[0]`` is a structural zero (there is no move 0); ``q[0] = 1``.
    Completed tables are immutable and safe to share between workers.
    """

    spec: GameSpec
    k_max: int
    r: tuple
    q: tuple

    def write_csv(self, fileobj) -> None:
        """Rows of (k, exact r, exact q, 15-digit decimals) for inspection."""
        writer = csv.writer(fileobj)
        writer.writerow(["k", "r", "q", "r_decimal", "q_decimal"])
        for k in range(self.k_max + 1):
            r_s = rational_str(self.r[k]) if k else ""
            r_d = f"{float(self.r[k]):.15g}" if k else ""
            writer.writerow([k, r_s, rational_str(self.q[k]), r_d, f"{float(self.q[k]):.15g}"])


def build_passage_table(spec: GameSpec, k_max: int) -> PassageTable:
    """Exact table of r and q up to ``k_max`` moves."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    r = [Fraction(0)]
    q = [Fraction(1)]
    for k, rk, qk in iter_passage(spec):
        r.append(rk)
        q.append(qk)
        if k == k_max:
            break
    while len(r) <= k_max:  # walk was absorbed early: all later mass is gone
        r.append(Fraction(0))
        q.append(Fraction(0))
    return PassageTable(spec, k_max, tuple(r), tuple(q))


def enumerate_first_passage(moves: MoveSet, n: int, k_max: int) -> list:
    """Exact r values for k <= k_max by exhausting all 2**k_max move
    sequences.  Independent of the lattice DP; intended as an oracle.
    """
    import numpy as np

    if n < 1:
        raise ValueError("target must be >= 1")
    if not 1 <= k_max <= 20:
        raise ValueError("exhaustive enumeration is limited to k_max in 1..20")
    seqs = np.arange(1 << k_max, dtype=np.int64)
    bits = (seqs[:, None] >> np.arange(k_max, dtype=np.int64)) & 1
    steps = np.where(bits == 1, moves.b, moves.a).astype(np.int32)
    sums = np.cumsum(steps, axis=1)
    hit = sums >= n
    reached = hit.any(axis=1)
    first = hit.argmax(axis=1)
    counts = np.bincount(first[reached], minlength=k_max)
    return [Fraction(0)] + [
        Fraction(int(counts[k - 1]), 1 << k_max) for k in range(1, k_max + 1)
    ]


@dataclass(frozen=True)
class Reachability:
    """Congruence structure of the k with possibly nonzero r.

    ``never`` means no move index can win (both moves non-positive).  For a
    deterministic walk the single winning index is ``deterministic_k``.
    Otherwise r can be nonzero only for ``k % modulus in residues`` with
    ``k >= min_k`` (and ``k <= max_k`` when both moves are positive).  The
    condition is necessary, not sufficient; it is what tail estimation
    needs to skip structural zeros.
    """

    modulus: int
    residues: frozenset
    min_k: int
    max_k: int | None
    never: bool = False
    deterministic_k: int | None = None

    def allows(self, k: int) -> bool:
        if self.never or k < 1:
            return False
        if self.deterministic_k is not None:
            return k == self.deterministic_k
        if k < self.min_k or (self.max_k is not None and k > self.max_k):
            return False
        return (k % self.modulus) in self.residues

    def to_json_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "residues": sorted(self.residues),
            "min_k": self.min_k,
            "max_k": self.max_k,
            "never": self.never,
            "deterministic_k": self.deterministic_k,
        }


def passage_gcd_reachability(spec: GameSpec) -> Reachability:
    """Diagnose which move indices can carry nonzero first-passage mass."""
    a, b = spec.moves.a, spec.moves.b
    n = spec.n
    if n == 0 or b <= 0:
        # n = 0: the race is over before any move; b <= 0: the pile never climbs.
        return Reachability(1, frozenset(), 1, None, never=True)
    if a == b:
        k0 = -(-n // b)  # ceil(n / b)
        return Reachability(1, frozenset({0}), k0, k0, deterministic_k=k0)
    min_k = -(-n // b)
    max_k = (n - 1) // a + 1 if a >= 1 else None
    g = b - a
    # A win at move k happens from a previous position s in [n-b, n-1], and
    # every position after j moves is congruent to b*j (mod b-a).
    window = range(n - b, n)
    residues = frozenset(
        t for t in range(g) if any((b * (t - 1) - s) % g == 0 for s in window)
    )
    return Reachability(g, residues, min_k, max_k)


def check_claim_partial_sums(table: PassageTable) -> None:
    """Assert the exact structural identities of a finished table.

    Raises AssertionError if mass conservation is broken anywhere:
    r[k] = q[k-1] - q[k], q[K] = 1 - sum(r), and the telescoped
    sum((q[k-1] + q[k]) * r[k]) = 1 - q[K]**2.
    """
    K = table.k_max
    total_r = Fraction(0)
    telescoped = Fraction(0)
    for k in range(1, K + 1):
        assert table.r[k] == table.q[k - 1] - table.q[k], f"delta-q identity fails at k={k}"
        total_r += table.r[k]
        telescoped += (table.q[k - 1] + table.q[k]) * table.r[k]
    assert table.q[K] == 1 - total_r, "q != 1 - sum(r)"
    assert telescoped == 1 - table.q[K] ** 2, "telescoped sum != 1 - q[K]^2"


def _ceil_div(p: int, q: int) -> int:
    return -(-p // q)


def reduce_zero_drift(spec: GameSpec) -> int | None:
    """For a zero-drift move set {-c, c}, the walk is the unit-step
    symmetric walk scaled by c: return the equivalent unit-step target
    ceil(n / c).  Returns None for any other move set (including {0, 0})."""
    moves = spec.moves
    if moves.drift == 0 and moves.b > 0:
        return _ceil_div(spec.n, moves.b)
    return None

