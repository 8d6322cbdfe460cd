"""Linear recurrences with degree-1 polynomial coefficients.

A recurrence of order N is ``sum_i (a_i*n + b_i) * T(n+i) = 0`` for
i = 0..N with rational ``a_i, b_i``.  ``apply`` evaluates the left-hand
side exactly on rationals or on values in span{1, 1/pi}, componentwise
(rational coefficients act on each coordinate separately), so ``verify
recurrence`` in the CLI checks the engine's exact sums against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numeric import PiLinear, as_fraction


@dataclass(frozen=True)
class LinearRecurrence:
    """Coefficient pairs ``(a_i, b_i)`` for i = 0..N, as rationals."""

    coeffs: tuple

    def __post_init__(self):
        pairs = tuple((as_fraction(a), as_fraction(b)) for a, b in self.coeffs)
        if len(pairs) < 2:
            raise ValueError("a recurrence needs order >= 1 (two coefficient pairs)")
        if pairs[-1] == (0, 0):
            raise ValueError("leading coefficient pair must not vanish")
        object.__setattr__(self, "coeffs", pairs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int, n: int) -> Fraction:
        a, b = self.coeffs[i]
        return a * n + b

    def apply(self, window, n: int) -> PiLinear:
        """Evaluate the left-hand side on ``window = T(n) .. T(n+N)``."""
        if len(window) != self.order + 1:
            raise ValueError("window length must be order + 1")
        acc = PiLinear.zero()
        for i, value in enumerate(window):
            acc = acc + PiLinear.of(value) * self.coefficient(i, n)
        return acc

