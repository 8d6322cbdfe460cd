"""Known exact constants of the race game, used by the verification
tables and the acceptance suite.

For the unit-step symmetric move set every quantity of interest is a
rational combination of 1 and 1/pi; this module stores those exact forms
(the squared-passage sums for targets 1..6, and the full 5x5 table of
asymmetric-target win probabilities) plus published reference decimals
for the {-1, 2} move set, where no closed form is known.
"""

from __future__ import annotations

from fractions import Fraction

from .numeric import PiLinear
from .recurrence import LinearRecurrence

F = Fraction


def _pl(const, inv_pi) -> PiLinear:
    return PiLinear(F(const), F(inv_pi))


#: sum_k r(n, k)**2 for the {-1, 1} walk, n = 1..6 (exact pi-linear forms).
SQUARE_SUMS_PM1: dict[int, PiLinear] = {
    1: _pl(-1, 4),
    2: _pl(-5, 16),
    3: _pl(-25, F(236, 3)),
    4: _pl(-129, F(1216, 3)),
    5: _pl(-681, F(32092, 15)),
    6: _pl(-3653, F(172144, 15)),
}

#: p(n1, n2) for {-1, 1}: probability the second player reaches n2 before
#: the first player reaches n1.  Exact pi-linear forms, n1, n2 = 1..5.
TARGET_TABLE_PM1: dict[tuple[int, int], PiLinear] = {
    (1, 1): _pl(1, -2),
    (1, 2): _pl(-1, 4),
    (1, 3): _pl(-3, 10),
    (1, 4): _pl(1, F(-8, 3)),
    (1, 5): _pl(5, F(-46, 3)),
    (2, 1): _pl(2, -4),
    (2, 2): _pl(3, -8),
    (2, 3): _pl(-6, 20),
    (2, 4): _pl(-15, 48),
    (2, 5): _pl(10, F(-92, 3)),
    (3, 1): _pl(1, F(-2, 3)),
    (3, 2): _pl(7, -20),
    (3, 3): _pl(13, F(-118, 3)),
    (3, 4): _pl(-31, F(296, 3)),
    (3, 5): _pl(-75, F(710, 3)),
    (4, 1): _pl(0, F(8, 3)),
    (4, 2): _pl(-1, F(16, 3)),
    (4, 3): _pl(32, F(-296, 3)),
    (4, 4): _pl(65, F(-608, 3)),
    (4, 5): _pl(-160, 504),
    (5, 1): _pl(1, F(-2, 5)),
    (5, 2): _pl(-9, F(92, 3)),
    (5, 3): _pl(-19, F(926, 15)),
    (5, 4): _pl(161, -504),
    (5, 5): _pl(341, F(-16046, 15)),
}

#: {-1, 2} reference values: n -> (sum of squared passage probs, win prob).
#: Decimals are truncated, not rounded, in their final digit.
MINUS12_REFERENCE: dict[int, tuple[str, str]] = {
    1: ("0.3221721826105", "0.33891390869471156"),
    2: ("0.2886887304423", "0.35565563477884626"),
    3: ("0.1547549217692", "0.42262253911538507"),
    4: ("0.1241072133089", "0.43794639334553199"),
    5: ("0.0941564190484", "0.45292179047578731"),
    10: ("0.047917368748", "0.47604131562562199"),
    20: ("0.028469734522", "0.48576513273891113"),
    100: ("0.010952807500", "0.49452359624969611"),
}

#: The order-3 recurrence satisfied by the squared-passage sums above,
#: with T(1) = SQUARE_SUMS_PM1[1]:
#: (n+3)*T(n+3) - (7*n+16)*T(n+2) + (7*n+5)*T(n+1) - n*T(n) = 0.
SQUARE_SUM_RECURRENCE = LinearRecurrence(
    ((F(-1), F(0)), (F(7), F(5)), (F(-7), F(-16)), (F(1), F(3)))
)
