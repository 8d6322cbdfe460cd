"""Exact first-passage engine for two-move coin-flip walks.

A player's pile follows a walk that adds ``a`` or ``b`` chips per move,
each with probability 1/2.  For a target ``n`` the engine computes
exactly

* ``r[k]``: probability the pile first reaches ``>= n`` on move ``k``
  (overshoot counts; there is no exact-landing mode), and
* ``q[k]``: probability the pile stays strictly below ``n`` through move
  ``k`` (``q[0] = 1``),

by stepping the exact distribution of surviving paths on the walk's
lattice.  After k moves a path with j b-moves sits at ``a*k + (b-a)*j``,
so the state is one big-integer weight per j over the common denominator
``2**k``: a step is Pascal's rule, and the absorbed paths are a top run
of j.  The stream yields r and q as integer numerators over ``2**k``;
``build_passage_table`` turns them into ``Fraction``s, and tables are
exact by construction.

Exact numerators grow by one bit per move, so a long sum would cost about
K**3 bit operations.  The series core therefore asks for the same steps
in fixed point: weights floored to a fixed number of bits, with the mass
floored away counted exactly in a tally, leading cells that floor to zero
dropped, and, under negative drift, cells too deep to matter moved to a
sink.  Every fixed-point weight is at most the exact one, so the tally
and the sink bound what the fixed-point r and q miss.

The degenerate target ``n = 0`` is refused here; a zero-target race is
decided before anyone moves and is answered directly by the series layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .numeric import rational_str

# moves between two floors of the fixed-point lattice: each floor costs a
# pass over the cells, and the weights carry up to this many extra bits
FLOOR_EVERY = 32


def require_int(value, what: str) -> None:
    """Raise TypeError unless ``value`` is an int (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class MoveSet:
    """The two equally likely per-move increments; order-insensitive."""

    a: int
    b: int

    def __post_init__(self):
        for v in (self.a, self.b):
            require_int(v, "moves")
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

    def __str__(self) -> str:
        return f"{self.a},{self.b}"


@dataclass(frozen=True, slots=True)
class GameSpec:
    """A move set together with the chip target ``n >= 0``."""

    moves: MoveSet
    n: int

    def __post_init__(self):
        if not isinstance(self.moves, MoveSet):
            raise TypeError(f"moves must be a MoveSet, got {self.moves!r}")
        require_int(self.n, "target")
        if self.n < 0:
            raise ValueError(f"target must be >= 0, got {self.n}")


def iter_passage(spec: GameSpec, bits: int | None = None, depth: int | None = None):
    """Yield ``(k, win, survived, counts)`` for k = 1, 2, ...: the integer
    numerators of ``r_k`` and ``q_k`` over ``2**k``, and the lattice cells.

    ``counts[j]`` is the weight over ``2**k`` of the surviving paths with
    j b-moves, all at position ``a*k + (b-a)*j``.  Position rises with j,
    so the paths absorbed at move k are the cells j >= ceil((n - a*k) /
    (b-a)); they are cut into ``r_k``.  Each step builds a fresh list, so
    a consumer may keep the one it was given.  When a == b every path
    shares one position, and the one cell is the surviving weight.  The
    generator ends once the surviving mass hits zero (every later r and q
    is exactly zero), which happens iff both moves are positive.

    With ``bits`` the same steps run in fixed point, and the generator
    yields ``(k, win, survived, counts, low, lift, tally, sunk)``.  Every
    weight is an integer over ``2**(bits + e)``; a step doubles the
    denominator (e grows by 1).  The weights start exact, at e = -bits,
    and once e reaches ``FLOOR_EVERY`` all of them are shifted right by
    ``FLOOR_EVERY``, back to e = 0, and again every ``FLOOR_EVERY`` moves.
    The bits shifted out add up, exactly, in ``tally``; cells that floor to
    zero at the bottom of the lattice are dropped, and ``counts[i]`` is the
    cell j = ``low + i``.  With ``depth`` the cells more than ``depth``
    positions below n move to a sink, whose mass still counts as
    surviving; the caller picks ``depth`` so that a unit of mass that deep
    ever reaches n with chance below ``2**-bits``, and ``sunk``, the sink's
    mass over ``2**bits`` rounded up, then bounds every later arrival of
    the sink.  ``win``, ``survived``, ``tally`` and ``sunk`` are over
    ``2**(bits + FLOOR_EVERY)``, and the cells are over that denominator
    shifted down by ``lift``.  Every step is monotone, so each fixed-point
    weight is at most the exact one, and the mass missing from the lattice
    and the sink is at most ``tally``: the exact q is in ``[survived -
    sunk, survived + tally]``, and the exact r is at least ``win`` and at
    most ``win + tally + sunk``.  This stream never ends; once the lattice
    and the sink are empty it repeats its last tally with zero r and q.
    """
    if spec.n < 1:
        raise ValueError(
            "the passage engine needs a target >= 1; a zero-target race is "
            "decided before any move"
        )
    a, b = spec.moves.a, spec.moves.b
    n = spec.n
    span = b - a
    fixed = bits is not None
    counts = [1]
    survived = 1  # in fixed point, the lattice's mass alone
    k = low = e = tally = sink = sunk = 0
    every = FLOOR_EVERY
    if fixed:
        e = -bits
    while True:
        k += 1
        if e == every:
            floored = [c >> e for c in counts]
            mass = sum(floored)
            tally += survived - (mass << e)
            survived, e = mass, 0
            zeros = next((i for i, c in enumerate(floored) if c), len(floored))
            counts, low = floored[zeros:], low + zeros
        if span:
            shifted = [0, *counts]
            counts.append(0)
            stepped = list(map(add, counts, shifted))
            counts.pop()  # leaves the list already yielded as it was
            counts = stepped
            cut = max(_ceil_div(n - a * k, span) - low, 0)
            win = sum(counts[cut:])
            del counts[cut:]
        else:
            win = 2 * survived if a * k >= n else 0
        survived = 2 * survived - win
        if not span:
            counts = [survived]
        if not fixed:
            yield k, win, survived, counts
            if survived == 0:
                return
            continue
        e += 1
        lift = every - e
        if depth is not None and span:
            deep = _ceil_div(n - depth - a * k, span) - low
            if deep > 0:
                moved = sum(counts[:deep])
                del counts[:deep]
                low += deep
                survived -= moved
                sink += moved << lift
                sunk = -(-sink >> bits)
        yield k, win << lift, (survived << lift) + sink, counts, low, lift, tally, sunk


@dataclass(frozen=True)
class PassageTable:
    """Exact ``r`` and ``q`` arrays for one game, k = 0..k_max.

    ``r[0]`` is a structural zero (there is no move 0); ``q[0] = 1``.
    Completed tables are immutable and safe to share between workers.
    """

    k_max: int
    r: tuple
    q: tuple

    def rows(self):
        """Yield one dict per k: exact r and q and their 15-digit decimals
        (r is blank at k = 0, where there is no move)."""
        for k in range(self.k_max + 1):
            yield {
                "k": k,
                "r": rational_str(self.r[k]) if k else "",
                "q": rational_str(self.q[k]),
                "r_decimal": f"{float(self.r[k]):.15g}" if k else "",
                "q_decimal": f"{float(self.q[k]):.15g}",
            }


def build_passage_table(spec: GameSpec, k_max: int) -> PassageTable:
    """Exact table of r and q up to ``k_max`` moves."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    r = [Fraction(0)]
    q = [Fraction(1)]
    for k, win, survived, _ in iter_passage(spec):
        r.append(Fraction(win, 1 << k))
        q.append(Fraction(survived, 1 << k))
        if k == k_max:
            break
    while len(r) <= k_max:  # walk was absorbed early: all later mass is gone
        r.append(Fraction(0))
        q.append(Fraction(0))
    return PassageTable(k_max, tuple(r), tuple(q))


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


def reachability_rule(spec: GameSpec) -> dict:
    """The rule that every move k with ``r_k != 0`` obeys, stated in O(1).

    The target is reachable exactly when ``b > 0``; a win then needs ``k >=
    ceil(n / b)`` and, when both moves are positive, ``k <= max_k``, where
    even the slowest walk has arrived.  A win at move k comes from a
    position s in [n - b, n - 1] after k - 1 moves, and every position
    after j moves is congruent to ``b j`` modulo the period ``b - a``.
    These b consecutive positions hold one congruent to ``b (k - 1)``
    exactly when its offset from ``n - b``, taken modulo ``b - a``, is
    below b: ``residue_condition``, a Python expression in k.  When a == b
    every path shares one position and the range alone pins k.  The rule
    is necessary, not sufficient.
    """
    a, b, n = spec.moves.a, spec.moves.b, spec.n
    rule = {"reachable": b > 0, "min_k": None, "max_k": None, "period": None,
            "residue_condition": None}
    if b <= 0:
        return rule
    rule["min_k"] = _ceil_div(n, b)
    if a >= 1:
        rule["max_k"] = (n - 1) // a + 1
    if a < b:
        rule["period"] = b - a
        rule["residue_condition"] = f"({b}*(k - 1) - ({n - b})) % {b - a} < {b}"
    return rule


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

