"""The exhaustive first-passage oracle: every move sequence, counted with
numpy.  It shares no code with the lattice DP that it checks."""

from fractions import Fraction

import numpy as np

from pilerace.passage import MoveSet


def enumerate_first_passage(moves: MoveSet, n: int, k_max: int) -> list:
    """Exact r values for k <= k_max by exhausting all 2**k_max move
    sequences."""
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
