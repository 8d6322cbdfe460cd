"""Linear recurrences with degree-1 polynomial coefficients, over exact
sequences.

A recurrence of order N is ``sum_i (a_i*n + b_i) * T(n+i) = 0`` for
i = 0..N with rational ``a_i, b_i``.  Verification is exact; sequences
whose entries live in span{1, 1/pi} are checked componentwise (rational
coefficients act on each coordinate separately).
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


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failed_at: int | None = None
    checked: int = 0


def verify_recurrence(rec: LinearRecurrence, seq, n_start: int = 1) -> VerifyResult:
    """Check the recurrence exactly on every admissible window of ``seq``.

    ``seq`` entries may be rationals or PiLinear values; the first entry
    is ``T(n_start)``.  Returns the first failing index if any.
    """
    values = [PiLinear.of(x) for x in seq]
    if len(values) < rec.order + 1:
        raise ValueError(
            f"need at least {rec.order + 1} terms to check an order-{rec.order} recurrence"
        )
    checked = 0
    for j in range(len(values) - rec.order):
        n = n_start + j
        if not rec.apply(values[j : j + rec.order + 1], n).is_zero():
            return VerifyResult(False, failed_at=n, checked=checked)
        checked += 1
    return VerifyResult(True, checked=checked)
