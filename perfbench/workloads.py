"""The four fixed query lists and the checks of each answer against its
pinned oracle.

A query is plain data.  ``call`` turns it into one call of a public
pilerace function, looked up on its module at call time so that the
traced run's wrappers are the ones called.  ``check`` compares the answer
with the oracle from ``oracles.json`` and never computes an oracle itself.

The seed of a run never changes the query set: it only orders the queries
within each pass and seeds the simulator (``sim_seed``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

# Negative drift: the tail of win_prob_direct is fitted on the r**2 channel
# while the error decays like q*r, so the reported bound is far too small.
NEG_DRIFT_DEFECT = (
    "negative-drift tail under-report: the fit runs on the r^2 channel but the "
    "error is the q*r tail, which decays at rho rather than rho^2"
)
# Positive drift: the largest observed term ratio sits below the asymptotic
# rho because of the k^-3/2 prefactor, so the geometric tail falls short.
POS_DRIFT_DEFECT = (
    "positive-drift tail under-report: the fitted ratio is below the asymptotic "
    "rho because of the k^-3/2 prefactor"
)


@dataclass(frozen=True)
class Query:
    """One fixed question a workload asks of pilerace."""

    qid: str
    fn: str
    moves: tuple = (-1, 1)
    n: int = 0
    n2: int = 0  # second target of win_prob_targets and of simulated games
    tol: float | None = None  # None: the library's default tolerance
    k: int = 0
    trials: int = 0
    horizon: int | None = None
    argv: tuple = ()  # arguments of a ``pilerace`` child process
    expect: str = "converged"
    known_defect: str = ""  # why this query is expected to fail at the seed


def _spec_query(fn, moves, n, tol=None, **kw):
    return Query(f"{fn}{list(moves)}n={n}" + (f"tol={tol:g}" if tol else ""),
                 fn, moves, n, tol=tol, **kw)


def _targets(moves, n1, n2, tol=None, **kw):
    return Query(f"win_prob_targets{list(moves)}({n1},{n2})" + (f"tol={tol:g}" if tol else ""),
                 "win_prob_targets", moves, n1, n2, tol=tol, **kw)


def _sim(moves, n1, n2, trials, horizon=None):
    return Query(f"run_simulation{list(moves)}({n1},{n2})x{trials}",
                 "run_simulation", moves, n1, n2, trials=trials, horizon=horizon)


def _cli(*argv, **kw):
    return Query("pilerace " + " ".join(argv), "cli", argv=argv, **kw)


MINUS12_TARGETS = (1, 2, 3, 4, 5, 10, 20, 100)

WORKLOADS: dict[str, tuple[Query, ...]] = {
    # Zero drift at the default tolerance: the mpf closed-form stream plus
    # the summation core, and no DP at all.
    "unit_step_series": (
        *(_spec_query("square_sum_value", (-1, 1), n) for n in range(1, 7)),
        *(_targets((-1, 1), n1, n2) for n1, n2 in ((1, 1), (2, 3), (5, 5))),
        _spec_query("expected_duration", (-1, 1), 1, expect="diverged"),
    ),
    # Non-zero drift and exact rationals: the window DP, the exact Catalan
    # stream and the exact channels; no mpf stream.
    "exact_walks": (
        *(_spec_query("square_sum_value", (-1, 2), n) for n in MINUS12_TARGETS),
        *(_spec_query("win_prob_squares", (-1, 2), n) for n in MINUS12_TARGETS),
        _spec_query("win_prob_direct", (-3, 4), 1, 1e-20),
        _spec_query("win_prob_direct", (-2, 3), 1, 1e-9),
        _spec_query("win_prob_direct", (-2, 3), 5, 1e-15),
        _targets((-3, 4), 2, 3, 1e-15, known_defect=POS_DRIFT_DEFECT),
        _targets((-2, 3), 2, 3, 1e-20),
        Query("win_within[-1, 2]n=10k=2000", "win_within", (-1, 2), 10, k=2000),
        Query("build_passage_table[-1, 3]n=50k=2000", "build_passage_table", (-1, 3), 50, k=2000),
        Query("win_within[-1, 1]n=1k=2000", "win_within", (-1, 1), 1, k=2000),
        _spec_query("win_prob_direct", (-2, 1), 1, known_defect=NEG_DRIFT_DEFECT),
        _spec_query("win_prob_direct", (-3, 2), 1, known_defect=NEG_DRIFT_DEFECT),
    ),
    # Short games (key mixing dominates) and long, censored games (chunked
    # cumsum over many rounds dominates), all at the 10**4-round horizon.
    "monte_carlo": (
        _sim((-1, 2), 3, 3, 1_000_000),
        _sim((-1, 3), 5, 5, 1_000_000),
        _sim((-1, 1), 2, 2, 300_000, horizon=10_000),
        _sim((-2, 1), 1, 1, 30_000, horizon=10_000),
    ),
    # Short CLI commands, one child process at a time: imports, argparse and
    # rendering dominate.
    "cli_short": (
        _cli("pn", "--moves=-1,2", "--n=1"),
        _cli("pn", "--moves=-1,2", "--n=3"),
        _cli("pn", "--moves=-1,2", "--n=10"),
        _cli("within", "--moves=-1,2", "--n=3", "--k=200"),
        _cli("within", "--moves=-1,2", "--n=10", "--k=500"),
        _cli("within", "--moves=-1,1", "--n=1", "--k=100"),
        _cli("passage", "--moves=-1,1", "--n=3", "--max-k=40"),
        _cli("passage", "--moves=-1,2", "--n=4", "--max-k=30"),
        _cli("table", "case_minus1_2"),
        _cli("verify", "identities"),
        _cli("verify", "oracles"),
        _cli("verify", "recurrence"),
    ),
}

LONG_GAMES = frozenset(q.qid for q in WORKLOADS["monte_carlo"] if q.horizon)

# Layers reached by ``call``; the traced run wraps these same names.
MODULE_OF = {
    "square_sum_value": "series",
    "win_prob_squares": "series",
    "win_prob_direct": "series",
    "win_prob_targets": "series",
    "expected_duration": "series",
    "win_within": "series",
    "build_passage_table": "passage",
    "run_simulation": "simulate",
}
SERIES_EVALUATORS = tuple(f for f, m in MODULE_OF.items() if m == "series")


def sim_seed(seed: int, qid: str) -> int:
    """The simulator seed of one query in a run with workload seed ``seed``."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{qid}".encode()).digest()[:8], "big")


def pass_order(queries, seed: int, pass_index: int) -> list:
    """The queries of one pass, in the order the seed sets."""
    order = list(queries)
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order


def rational_digest(values) -> str:
    """sha256 of exact rationals written as "num/den", one per line."""
    text = "\n".join(f"{Fraction(v).numerator}/{Fraction(v).denominator}" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def call(q: Query, lib, seed: int):
    """Run one non-CLI query; ``lib`` maps a module name to the module."""
    fn = getattr(lib[MODULE_OF[q.fn]], q.fn)
    passage = lib["passage"]
    moves = passage.MoveSet(*q.moves)
    policy = lib["series"].TailPolicy(tolerance=q.tol) if q.tol else None
    if q.fn == "square_sum_value":
        return fn(moves, q.n, policy)
    if q.fn == "win_prob_targets":
        return fn(q.n, q.n2, moves, policy)
    if q.fn in ("win_within", "build_passage_table"):
        return fn(passage.GameSpec(moves, q.n), q.k)
    if q.fn == "run_simulation":
        cfg = lib["simulate"].SimConfig(moves, q.n, q.n2, q.trials, sim_seed(seed, q.qid), q.horizon)
        return fn(cfg)
    return fn(passage.GameSpec(moves, q.n), policy)


@dataclass
class Outcome:
    """The check of one answer.

    ``digits`` is the number of digits backed by the answer's own error
    bound (None for answers that are not numbers with a bound);
    ``bound_over_error`` is set where the oracle is exact and the error
    is non-zero.
    """

    ok: bool
    reason: str = ""
    digits: int | None = None
    bound_over_error: float | None = None
    verdict: str | None = None
    games: int = 0
    rounds: int = 0
    censored: int = 0


def backed_digits(value, bound) -> int:
    """``ApproxValue(value, bound).guaranteed_digits()``: the library's own
    count.  Imported here because only the worker has pilerace on its path."""
    from pilerace.numeric import ApproxValue

    return ApproxValue(value, bound).guaranteed_digits()


def _within(value, bound, oracle) -> tuple[bool, float | None, str]:
    """|value - oracle| <= bound + the oracle's own precision."""
    err = abs(mpf(value) - mpf(oracle["value"]))
    slack = mpf(bound) + mpf(oracle["precision"])
    ratio = None
    if oracle.get("exact") and err > 0 and bound < mpf("inf"):
        ratio = float(mpf(bound) / err)
    if err <= slack:
        return True, ratio, ""
    return False, ratio, f"error {float(err):.3g} exceeds bound {float(bound):.3g}"


def check(q: Query, answer, oracle: dict) -> Outcome:
    """Compare one answer with its oracle."""
    with mp.workdps(60):
        if q.fn == "cli":
            return _check_cli(q, answer, oracle)
        if q.fn == "win_within":
            ok = rational_digest([answer]) == oracle["digest"]
            return Outcome(ok, "" if ok else "exact value differs",
                           digits=backed_digits(mpf(answer.numerator) / answer.denominator, 0))
        if q.fn == "build_passage_table":
            ok = rational_digest(answer.r[1:] + answer.q) == oracle["digest"]
            return Outcome(ok, "" if ok else "exact table differs")
        if q.fn == "run_simulation":
            return _check_sim(q, answer, oracle)
        bound = answer.error_bound()
        out = Outcome(True, verdict=answer.verdict, digits=backed_digits(answer.value, bound))
        if answer.verdict != oracle["verdict"]:
            out.ok, out.reason = False, f"verdict {answer.verdict}, expected {oracle['verdict']}"
        elif "value" in oracle:
            out.ok, out.bound_over_error, out.reason = _within(answer.value, bound, oracle)
        return out


def _check_sim(q: Query, report, oracle: dict) -> Outcome:
    n = report.config.trials
    reasons = []
    for name, count in (("p2", report.p2_wins), ("censored", report.censored)):
        p = Fraction(oracle[name])
        se = math.sqrt(float(p * (1 - p)) / n)
        if abs(count / n - float(p)) > 5 * se:
            reasons.append(f"{name} {count / n:.6g} outside {float(p):.6g} +- 5 SE")
    se_hat = report.standard_errors()["p2_win_rate"]
    rounds = report.duration_sum + report.censored * report.config.horizon
    return Outcome(not reasons, "; ".join(reasons),
                   digits=backed_digits(report.p2_win_rate, 5 * se_hat),
                   games=n, rounds=rounds, censored=report.censored)


_DIGITS = re.compile(r"[1-9][0-9]*")


def shown_digits(display: str) -> int:
    """Significant digits of a decimal the CLI printed ("?" shows none)."""
    mantissa = display.lstrip("-").split("e")[0].replace(".", "")
    m = _DIGITS.search(mantissa)
    return len(mantissa) - m.start() if m else 0


def _check_cli(q: Query, proc, oracle: dict) -> Outcome:
    if proc.returncode != oracle["exit"]:
        return Outcome(False, f"exit code {proc.returncode}, expected {oracle['exit']}")
    try:
        results = json.loads(proc.stdout)["results"]
    except (ValueError, KeyError) as exc:
        return Outcome(False, f"unreadable --json output: {exc}")
    sub = q.argv[0]
    out = Outcome(True)
    if sub == "pn":
        # one answer, the win probability, by each method the CLI ran
        methods = [key for key in ("direct", "squares") if key in results]
        out.digits = max(shown_digits(results[key]["display"]) for key in methods)
        for key in methods:
            res = results[key]
            bound = mpf(res["tail_estimate"]) + mpf(res["eval_error"])
            ok, _, reason = _within(res["value"], bound, oracle)
            if not ok:
                out.ok, out.reason = False, f"{key}: {reason}"
    elif sub == "within":
        out.digits = shown_digits(results["decimal"])
        if hashlib.sha256(results["exact"].encode()).hexdigest() != oracle["digest"]:
            out.ok, out.reason = False, "exact value differs"
    elif sub == "passage":
        cells = [row["r"] for row in results["rows"][1:]] + [row["q"] for row in results["rows"]]
        if hashlib.sha256("\n".join(cells).encode()).hexdigest() != oracle["digest"]:
            out.ok, out.reason = False, "exact rows differ"
    elif sub == "table":
        out.digits = 0
        for row in results["rows"]:
            ref = oracle["rows"][str(row["n"])]
            for col in ("sum_squares", "p"):
                shown = row[col]
                out.digits += shown_digits(shown)
                if shown == "?" or abs(mpf(shown) - mpf(ref[col])) > _ulp(shown) + mpf(ref["precision"]):
                    out.ok, out.reason = False, f"row n={row['n']} {col} {shown} vs {ref[col]}"
    elif sub == "verify":
        bad = [c["check"] for c in results["checks"] if not c["ok"]]
        if bad or not results["all_ok"]:
            out.ok, out.reason = False, f"failed checks: {bad}"
    return out


def _ulp(shown: str):
    """One unit in the last printed digit of a decimal string."""
    mantissa, _, exp = shown.partition("e")
    decimals = len(mantissa.partition(".")[2])
    return mpf(10) ** (int(exp or 0) - decimals)
