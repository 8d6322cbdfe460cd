"""pilerace: exact probabilities for the two-pile coin-flip race game.

Two players each flip a fair coin every turn to add ``a`` or ``b`` chips
to their own pile; whoever collects ``n`` chips first wins.  This package
computes the second player's win probability (equal or distinct targets),
win-within-k curves and expected game lengths.  Zero-drift move sets are
answered exactly, in span{1, 1/pi}; other drifts sum an infinite series
to a proved bound on its tail.  A vectorized, reproducibly seeded
simulator provides an independent Monte Carlo check, and ``pilerace
verify`` checks the engine against exact laws, closed-form counts, pinned
constants and the recurrence of the unit-step squared-passage sums, kept
with those constants in ``pilerace.reference``.

numpy is loaded only by the simulator.  Importing it costs more than half
of a ``pilerace`` process's start-up, and none of the exact or series
answers use it, so ``SimConfig``, ``SimReport`` and ``run_simulation`` are
served lazily from ``pilerace.simulate`` on first access.  Every answer,
its decimal and its error bound are made from integers, so no command
loads mpmath.
"""

from .closedforms import (
    catalan_count,
    passage_prob_m1p2,
    passage_prob_pm1,
    raney_count,
    survival_one,
    win_within_one,
)
from .numeric import (
    ApproxValue,
    PiLinear,
    pilinear_eval,
    rational_str,
)
from .passage import (
    GameSpec,
    MoveSet,
    PassageTable,
    build_passage_table,
    iter_passage,
)
from .series import (
    SeriesResult,
    TailPolicy,
    expected_duration,
    square_sum_value,
    win_prob_direct,
    win_prob_squares,
    win_prob_targets,
    win_within,
)

_LAZY_SIMULATE = ("SimConfig", "SimReport", "run_simulation")


def __getattr__(name):
    if name in _LAZY_SIMULATE:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "ApproxValue",
    "GameSpec",
    "MoveSet",
    "PassageTable",
    "PiLinear",
    "SeriesResult",
    "SimConfig",
    "SimReport",
    "TailPolicy",
    "build_passage_table",
    "catalan_count",
    "expected_duration",
    "iter_passage",
    "passage_prob_m1p2",
    "passage_prob_pm1",
    "pilinear_eval",
    "raney_count",
    "rational_str",
    "run_simulation",
    "square_sum_value",
    "survival_one",
    "win_prob_direct",
    "win_prob_squares",
    "win_prob_targets",
    "win_within",
    "win_within_one",
]
