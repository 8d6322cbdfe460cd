"""Known exact constants of the race game, used by the verification
tables and the acceptance suite.

For the unit-step symmetric move set every quantity of interest is a
rational combination of 1 and 1/pi; this module stores those exact forms
(the squared-passage sums for targets 1..6, and the full 5x5 table of
asymmetric-target win probabilities) and the order-3 recurrence of the
sums, plus published reference decimals for the {-1, 2} move set, where
no closed form is known.
"""

from __future__ import annotations

from fractions import Fraction

from .numeric import PiLinear

F = Fraction


#: sum_k r(n, k)**2 for the {-1, 1} walk, n = 1..6 (exact pi-linear forms).
SQUARE_SUMS_PM1: dict[int, PiLinear] = {
    1: PiLinear(-1, 4),
    2: PiLinear(-5, 16),
    3: PiLinear(-25, F(236, 3)),
    4: PiLinear(-129, F(1216, 3)),
    5: PiLinear(-681, F(32092, 15)),
    6: PiLinear(-3653, F(172144, 15)),
}

#: p(n1, n2) for {-1, 1}: probability the second player reaches n2 before
#: the first player reaches n1.  Exact pi-linear forms, n1, n2 = 1..5.
TARGET_TABLE_PM1: dict[tuple[int, int], PiLinear] = {
    (1, 1): PiLinear(1, -2),
    (1, 2): PiLinear(-1, 4),
    (1, 3): PiLinear(-3, 10),
    (1, 4): PiLinear(1, F(-8, 3)),
    (1, 5): PiLinear(5, F(-46, 3)),
    (2, 1): PiLinear(2, -4),
    (2, 2): PiLinear(3, -8),
    (2, 3): PiLinear(-6, 20),
    (2, 4): PiLinear(-15, 48),
    (2, 5): PiLinear(10, F(-92, 3)),
    (3, 1): PiLinear(1, F(-2, 3)),
    (3, 2): PiLinear(7, -20),
    (3, 3): PiLinear(13, F(-118, 3)),
    (3, 4): PiLinear(-31, F(296, 3)),
    (3, 5): PiLinear(-75, F(710, 3)),
    (4, 1): PiLinear(0, F(8, 3)),
    (4, 2): PiLinear(-1, F(16, 3)),
    (4, 3): PiLinear(32, F(-296, 3)),
    (4, 4): PiLinear(65, F(-608, 3)),
    (4, 5): PiLinear(-160, 504),
    (5, 1): PiLinear(1, F(-2, 5)),
    (5, 2): PiLinear(-9, F(92, 3)),
    (5, 3): PiLinear(-19, F(926, 15)),
    (5, 4): PiLinear(161, -504),
    (5, 5): PiLinear(341, F(-16046, 15)),
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
#: (n+3)*T(n+3) - (7*n+16)*T(n+2) + (7*n+5)*T(n+1) - n*T(n) = 0,
#: as the pairs (a, b) of the coefficient a*n + b of T(n) .. T(n+3).
SQUARE_SUM_RECURRENCE = ((-1, 0), (7, 5), (-7, -16), (1, 3))


def recurrence_residual(window, n: int) -> PiLinear:
    """The recurrence's left-hand side on ``window = T(n) .. T(n+3)``,
    exact on rationals and componentwise on span{1, 1/pi}."""
    if len(window) != len(SQUARE_SUM_RECURRENCE):
        raise ValueError("the window must hold T(n) .. T(n+3)")
    residual = PiLinear.zero()
    for (a, b), t in zip(SQUARE_SUM_RECURRENCE, window):
        residual = residual + PiLinear.of(t) * (a * n + b)
    return residual
