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
``build_passage_table`` makes each one a ``numeric.Dyadic`` in lowest
terms as the table is built, by shifting out trailing zero bits rather
than by a gcd, so tables are exact by construction.

A consumer that reads only the first K moves passes ``horizon=K``: the
cells that can no longer reach n by move K are dropped as the walk goes,
their mass kept in q, and the stream ends at K.

``_exact_stream`` carries exact r and q to ``build_passage_table`` and
``series.win_within``: this stream's, item for item, but with ``cells``
None from a closed form where one is cheaper, the hitting-time counts on
{a, 1}, a <= 0 (and zero drift, reduced to {-1, 1}), and the row recursion
on {-1, b} where its about n (K + n) additions are fewer than the K-move
DP's cells.  ``iter_passage`` is always the DP; ``verify`` and the tests
read it.

Exact numerators grow by one bit per move, so a long sum would cost about
K**3 bit operations.  The series core therefore asks for the same steps
in fixed point: weights floored to a fixed number of bits, with the mass
floored away counted exactly in a tally, bottom cells that floor to zero
dropped, and, under negative drift, cells too deep to matter moved to a
sink.  Every fixed-point weight is at most the exact one, so the tally
and the sink bound what the fixed-point r and q miss.  The fixed-point
lattice is one integer with a fixed-width slot per cell, the top cell in
the lowest slot, so that a step is a shift and an add, absorption a low
mask and a shift, and a floor a shift and a mask; the slot width leaves
room for the whole mass, so no slot ever carries into the next.

The degenerate target ``n = 0`` is refused here; a zero-target race is
decided before anyone moves and is answered directly by the series layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, count, repeat
from operator import add, sub

from .numeric import dyadic, nstr, rational_str

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


def iter_passage(spec: GameSpec, bits: int | None = None, depth: int | None = None, *,
                 horizon: int | None = None):
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

    With ``horizon`` = K the stream ends at move K, and from each move k on
    the cells more than ``b (K - k)`` positions below n are dropped: they
    cannot reach n by move K.  Their mass stays in ``survived``, so every
    yielded r and q equals the unpruned stream's; ``counts`` then holds
    only the cells above the dropped ones.

    With ``bits`` the same steps run in fixed point, and the generator
    yields ``(k, win, survived, lattice, low, lift, tally, sunk)``.  Every
    weight is an integer over ``2**(bits + e)``; a step doubles the
    denominator (e grows by 1).  The weights start exact, at e = -bits,
    and once e reaches ``FLOOR_EVERY`` all of them are shifted right by
    ``FLOOR_EVERY``, back to e = 0, and again every ``FLOOR_EVERY`` moves.
    The bits shifted out add up, exactly, in ``tally``.  With ``depth``
    the cells more than ``depth`` positions below n move to a sink, whose
    mass still counts as surviving; the caller picks ``depth`` so that a
    unit of mass that deep ever reaches n with chance below ``2**-bits``,
    and ``sunk``, the sink's mass over ``2**bits`` rounded up, then bounds
    every later arrival of the sink.  ``win``, ``survived``, ``tally`` and
    ``sunk`` are over ``2**(bits + FLOOR_EVERY)``, and the cells are over
    that denominator shifted down by ``lift``.  Every step is monotone, so
    each fixed-point weight is at most the exact one, and the mass missing
    from the lattice and the sink is at most ``tally``: the exact q is in
    ``[survived - sunk, survived + tally]``, and the exact r is at least
    ``win`` and at most ``win + tally + sunk``.  This stream never ends;
    once the lattice and the sink are empty it repeats its last tally with
    zero r and q.

    The fixed-point cells are packed into the one integer ``lattice``:
    slot i, bits ``[i w, (i + 1) w)`` with w = ``slot_width(bits)``, holds
    the cell j = top - i, so the top cell sits in the lowest slot, and
    ``unpack`` lists the cells from the top down.  The lattice's mass never
    exceeds ``2**(bits + FLOOR_EVERY)``, which is below ``2**w - 1``, so no
    slot, nor any sum of slots, carries into the next slot.  A step is
    then ``x + (x << w)``; the absorbed cells are the lowest slots, cut off
    by a small mask and a shift; a floor is one shift and one mask; and
    ``_slot_sum`` adds slots.  A bottom cell of zero weight vanishes as
    leading zero bits, so ``low``, the j of the lowest non-zero cell, is
    read from the bit length.
    """
    if spec.n < 1:
        raise ValueError(
            "the passage engine needs a target >= 1; a zero-target race is "
            "decided before any move"
        )
    if bits is None:
        return _exact_passage(spec.moves.a, spec.moves.b, spec.n, horizon)
    if horizon is not None:
        raise ValueError("a horizon applies to the exact stream only")
    return _fixed_passage(spec.moves.a, spec.moves.b, spec.n, bits, depth)


def _exact_passage(a: int, b: int, n: int, horizon: int | None):
    span = b - a
    counts = [1]
    survived = 1
    low = 0
    for k in count(1) if horizon is None else range(1, horizon + 1):
        if span:
            shifted = [0, *counts]
            counts.append(0)
            stepped = list(map(add, counts, shifted))
            counts.pop()  # leaves the list already yielded as it was
            counts = stepped
            cut = max(_ceil_div(n - a * k, span) - low, 0)
            win = sum(counts[cut:])
            del counts[cut:]
            if horizon is not None:
                deep = _ceil_div(n - b * (horizon - k) - a * k, span) - low
                if deep > 0:
                    del counts[:deep]
                    low += deep
        else:
            win = 2 * survived if a * k >= n else 0
        survived = 2 * survived - win
        if not span:
            counts = [survived]
        yield k, win, survived, counts
        if survived == 0:
            return


def _exact_stream(spec: GameSpec, horizon: int | None = None):
    """``iter_passage(spec, horizon=horizon)``'s r and q, item for item: a closed
    form (``cells`` None) where the module docstring says, else the DP."""
    unit = reduce_zero_drift(spec)
    a, b, n = (-1, 1, unit) if unit else (spec.moves.a, spec.moves.b, spec.n)
    wins = None
    if n >= 1 and b == 1 and a <= 0:  # r = n C(k, u) / k at k = n + (1 - a) u
        wins = chain(repeat(0, n - 1), _first_passages(a, n, 1))
    elif n >= 1 and a == -1 and b >= 2 and horizon is not None:
        # 2 (b + 1)**3 times the DP's cells, min(n + k, b (K - k)) / (b + 1) at move k, summed
        x = max(b * horizon - n, 0)
        dp_cells = 2 * (b + 1) * n * x + x * x + b * ((b + 1) * horizon - x) ** 2
        if 2 * (b + 1) ** 3 * n * (horizon + n) < dp_cells:
            wins = _descending(b, n)
    if wins is None:
        yield from iter_passage(spec, horizon=horizon)
        return
    survived = 1
    for k, win in zip(count(1) if horizon is None else range(1, horizon + 1), wins):
        survived = 2 * survived - win  # q_k = 2 q_(k-1) - r_k
        yield k, win, survived, None


def _first_passages(a: int, n: int, reach: int):
    """Yield, for k = n, n + 1, ..., the paths of {a, 1}, a <= 0, that first
    reach n + i, i = (k - n) mod (1 - a), at move k with u a-moves: (n + i)
    C(k, u) / k by the hitting-time theorem, from a running binomial, where
    i < ``reach``, and 0 elsewhere."""
    binom, u, i = 1, 0, 0
    for k in count(n):
        yield (n + i) * binom // k if i < reach else 0
        if i == -a:
            i, u = 0, u + 1
            binom = binom * (k + 1) // u
        else:
            i += 1
            binom = binom * (k + 1) // (k + 1 - u)


def _descending(b: int, n: int):
    """The r numerators of {-1, b}, b >= 2, by the row recursion.

    P(m, i), the walks of i moves that stay below m and end within b of
    it, gives r(n, k) = P(n, k - 1); splitting off the first move gives
    P(m, i) = P(m - 1, i + 1) - P(m - 1 - b, i), P = 0 for m < 1.  Row 1,
    read backwards, is walks {-b, 1} first reaching 1..b.  Down a diagonal
    d = m + i, P(m) is P(1, d - 1) for m <= b + 1 and that less a running
    sum of diagonal d - 1 - b below; its first n - 1 - b entries are held."""
    rest = max(n - 1 - b, 0)
    ring = deque([[0] * rest] * (b + 1 if rest else 1))  # diagonals d - 1 - b .. d - 1
    for d, top in enumerate(_first_passages(-b, 1, b), 1):  # top = P(1, d - 1)
        column = [top] * min(b, rest)  # P(m, d - m), m = 1..min(b, n - 1 - b)
        column += accumulate(chain((top,), ring.popleft()), sub)  # m = b + 1..n, or n
        last = column[-1]  # P(n, d - n)
        del column[rest:]
        ring.append(column)
        if d >= n:
            yield last


def _fixed_passage(a: int, b: int, n: int, bits: int, depth: int | None):
    span = b - a
    every = FLOOR_EVERY
    w = slot_width(bits)
    floor_mask, floor_slots = (1 << (w - every)) - 1, 1  # one slot's mask, repeated
    lattice = survived = 1  # survived: the lattice's mass alone
    top = 0  # j of the cell in the lowest slot
    k = tally = sink = sunk = 0
    e = -bits
    while True:
        k += 1
        if e == every:
            slots = -(-lattice.bit_length() // w)
            while floor_slots < slots:
                floor_mask |= floor_mask << floor_slots * w
                floor_slots *= 2
            lattice = (lattice >> every) & floor_mask
            mass = _slot_sum(lattice, w)
            tally += survived - (mass << every)
            survived, e = mass, 0
        if span:
            top += 1
            gone = top - _ceil_div(n - a * k, span) + 1
            if gone <= 0:
                win = 0
                lattice += lattice << w
            elif gone * w < lattice.bit_length() + w:
                # the step's low ``gone`` slots are absorbed: step them
                # alone, and shift the rest down in the same pass
                cut = gone * w
                head = lattice & ((1 << cut) - 1)
                win = _slot_sum((head + (head << w)) & ((1 << cut) - 1), w)
                rest = lattice >> (cut - w) if gone > 1 else lattice  # x >> 0 copies x
                lattice = rest + (rest >> w)
            else:  # the whole lattice
                win, lattice = 2 * _slot_sum(lattice, w), 0
            top -= max(gone, 0)
            survived = 2 * survived - win
        else:
            win = 2 * survived if a * k >= n else 0
            survived = lattice = 2 * survived - win
        e += 1
        lift = every - e
        low = top + 1 - -(-lattice.bit_length() // w)
        if depth is not None and span:
            deep = _ceil_div(n - depth - a * k, span) - low
            if deep > 0:
                keep = max(top + 1 - low - deep, 0) * w
                bottom = lattice >> keep
                lattice ^= bottom << keep
                moved = _slot_sum(bottom, w)
                low = top + 1 - -(-lattice.bit_length() // w)
                survived -= moved
                sink += moved << lift
                sunk = -(-sink >> bits)
        yield k, win << lift, (survived << lift) + sink, lattice, low, lift, tally, sunk


def _slot_sum(x: int, w: int) -> int:
    """The sum of the w-bit slots of x, which must be below ``2**w``: the
    halves are added slot by slot until one slot is left, a few passes over
    x where a remainder modulo ``2**w - 1`` would divide digit by digit."""
    slots = -(-x.bit_length() // w)
    while slots > 1:
        slots = (slots + 1) // 2
        half = slots * w
        x = (x >> half) + (x & ((1 << half) - 1))
    return x


def slot_width(bits: int) -> int:
    """Bits per cell of the packed fixed-point lattice at ``bits``: room for
    the mass bound ``2**(bits + FLOOR_EVERY)`` plus one, rounded up to
    whole bytes so that ``unpack`` can cut the slots out of one byte string."""
    return -(-(bits + FLOOR_EVERY + 1) // 8) * 8


def unpack(lattice: int, bits: int) -> list:
    """The cells of a packed fixed-point lattice, top cell first."""
    size = slot_width(bits) // 8
    raw = lattice.to_bytes(-(-lattice.bit_length() // (8 * size)) * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


@dataclass(frozen=True)
class PassageTable:
    """Exact ``r`` and ``q`` arrays for one game, k = 0..k_max.

    Every entry is a ``numeric.Dyadic``, a ``Fraction`` in lowest terms
    over a power of two, made when the table is built.  ``r[0]`` is a
    structural zero (there is no move 0); ``q[0] = 1``.  Completed tables
    are immutable and safe to share between workers.
    """

    k_max: int
    r: tuple
    q: tuple

    def rows(self):
        """Yield one dict per k: exact r and q and their 15-digit decimals
        (r is blank at k = 0, where there is no move).

        A decimal is the float's ``.15g`` at or above 2**-1022, the least
        normal float, and ``numeric.nstr(x, 15)`` below it, where a float
        would keep fewer digits or none; zero prints as "0"."""
        for k in range(self.k_max + 1):
            yield {
                "k": k,
                "r": rational_str(self.r[k]) if k else "",
                "q": rational_str(self.q[k]),
                "r_decimal": _decimal(self.r[k]) if k else "",
                "q_decimal": _decimal(self.q[k]),
            }


def _decimal(x: Fraction) -> str:
    """``x`` >= 0 to 15 significant digits, as ``PassageTable.rows`` prints it."""
    return nstr(x, 15) if 0 < x.numerator << 1022 < x.denominator else f"{float(x):.15g}"


def build_passage_table(spec: GameSpec, k_max: int) -> PassageTable:
    """Exact table of r and q up to ``k_max`` moves."""
    require_int(k_max, "k_max")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    r = [dyadic(0, 0)]
    q = [dyadic(1, 0)]
    for k, win, survived, _ in _exact_stream(spec, horizon=k_max):
        r.append(dyadic(win, k))
        q.append(dyadic(survived, k))
    padding = [dyadic(0, 0)] * (k_max + 1 - len(r))  # absorbed early: all later mass is gone
    return PassageTable(k_max, tuple(r + padding), tuple(q + padding))


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

