"""Command-line front end.

Every computation the library offers is exposed as a subcommand.  Each
command body returns its inputs, its results (exact strings, decimals
with only guaranteed digits, error bounds), a one-line provenance note
saying which reference object the numbers reproduce, and its exit code;
``main`` alone adds the subcommand's name and builds the record, a plain
dict, from them.  ``--json`` prints that dict and the default prints
``render_human`` of it, so the two renderings always agree.

Exit codes: 0 on success, 1 on usage errors or when stdout is closed
before the output is written (``pilerace ... | head``), 2 when a series
fails to converge or a verification check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat

from . import closedforms, reference
from .numeric import DISPLAY_DIGITS, ApproxValue, dps_to_prec, nstr, rational_str, rounded
from .passage import GameSpec, MoveSet, build_passage_table, iter_passage, reachability_rule
from .series import (
    CONVERGED,
    DEFAULT_MAX_K,
    DEFAULT_TOLERANCE,
    DIVERGED,
    MIN_MAX_K,
    SeriesResult,
    TailPolicy,
    expected_duration,
    square_sum_value,
    win_prob_direct,
    win_prob_targets,
    win_within,
)

USAGE_ERROR = 1
CONVERGENCE_ERROR = 2


def render_human(record: dict) -> str:
    """The human rendering of a record, from exactly the dict ``--json`` prints."""
    lines = [f"# {record['command']}: {record['provenance']}"]
    inputs = ", ".join(f"{k}={v}" for k, v in record["inputs"].items())
    lines.append(f"inputs: {inputs}")
    for key, value in record["results"].items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{key}:")
            lines.extend(_render_table(value))
        elif isinstance(value, dict):
            lines.append(f"{key}:")
            for k2, v2 in value.items():
                lines.append(f"  {k2}: {_scalar(v2)}")
        else:
            lines.append(f"{key}: {_scalar(value)}")
    return "\n".join(lines)


def _scalar(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _render_table(rows: list[dict]) -> list[str]:
    columns = list(rows[0].keys())
    cells = [[_scalar(r.get(c)) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(columns)]
    out = ["  " + "  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for row in cells:
        out.append("  " + "  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return out


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    """``--tol`` as a float, refused as typed unless it reads as positive
    and finite: 1e-400 underflows to 0.0 and 1e400 overflows to inf."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < tol < float("inf"):  # nan fails both
        raise argparse.ArgumentTypeError(
            f"must be positive and finite as a double, got {text!r}, which reads as {tol!r}")
    return tol


def _moves(text: str) -> MoveSet:
    """``--moves`` as a MoveSet, refused under the flag's name with the reason
    ``MoveSet.parse`` gives: argparse would print only the function's name."""
    try:
        return MoveSet.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(low: int, below: int | None = None):
    """An argparse type for an int in [low, below), ``below`` optional, so
    that a value out of range is refused under the flag's own name."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" names the type
    return parse


def _add_series_flags(p: argparse.ArgumentParser) -> None:
    only = " (summed, non-zero drift series only; zero-drift answers are exact)"
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE,
                   help=f"tail tolerance, default {DEFAULT_TOLERANCE:g}" + only)
    p.add_argument("--max-k", type=_int_at_least(MIN_MAX_K), default=DEFAULT_MAX_K,
                   help=f"truncation cap, at least {MIN_MAX_K}" + only)
    p.add_argument("--digits", type=_int_at_least(1), default=DISPLAY_DIGITS,
                   help="max displayed digits")


_TARGET_HELP = {
    "--n": "the target",
    "--n1": "the first player's target",
    "--n2": "the second player's target",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="pilerace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, targets=("--n",), target_type=_int_at_least(1)):
        p.add_argument("--moves", type=_moves, required=True,
                       help="the two per-move increments, e.g. --moves=-1,1")
        for t in targets:
            p.add_argument(t, type=target_type, required=True, help=_TARGET_HELP[t])
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("pn", help="second player's win probability, equal targets")
    common(p, target_type=_int_at_least(0))  # a zero target is answered
    _add_series_flags(p)

    p = sub.add_parser("pmn", help="second player's win probability, distinct targets")
    common(p, targets=("--n1", "--n2"))
    _add_series_flags(p)

    p = sub.add_parser("within", help="exact win-within-k probability")
    common(p)
    p.add_argument("--k", type=_int_at_least(1), required=True)

    p = sub.add_parser("duration", help="expected number of rounds until someone wins")
    common(p, target_type=_int_at_least(0))  # as in pn
    _add_series_flags(p)

    p = sub.add_parser("table", help="reproduce a verification table")
    p.add_argument("which", choices=["table1", "case_minus1_2", "t_values"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", type=str, default=None, help="also write the rows as CSV")
    _add_series_flags(p)

    p = sub.add_parser("passage", help="exact r/q table for one walk")
    common(p)
    p.add_argument("--max-k", type=_int_at_least(1), default=40)
    p.add_argument("--csv", type=str, default=None, help="write the full table as CSV")

    p = sub.add_parser("simulate", help="Monte Carlo estimate from full games")
    common(p, targets=("--n1", "--n2"))
    p.add_argument("--trials", type=_int_at_least(1), default=1_000_000,
                   help="number of simulated games")
    p.add_argument("--seed", type=_int_at_least(0, below=2**64), default=2024,
                   help="seed of the games' random streams, 0 <= seed < 2**64")
    p.add_argument("--horizon", type=_int_at_least(1), default=None,
                   help="censoring horizon in rounds (default by drift)")

    p = sub.add_parser(
        "verify",
        help="check the engine: the DP against the hitting-time and binomial laws "
        "(identities), Catalan, Raney and unit-step closed forms (oracles), pinned win "
        "probabilities (residuals), the engine's exact unit-step T(n) against their "
        "recurrence (recurrence)",
    )
    p.add_argument("suite", nargs="?", default="all",
                   choices=["all", *_SUITES])
    p.add_argument("--json", action="store_true")

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (inputs, results, provenance, exit code)


def _exit_code_for(*results: SeriesResult) -> int:
    for r in results:
        if r.verdict not in (CONVERGED, DIVERGED):
            return CONVERGENCE_ERROR
    return 0


# each series command: its target arguments, its results key, its
# provenance and its evaluator call
_SERIES = {
    "pn": (("n",), "direct", "second player's win probability for equal targets",
           lambda args, policy: win_prob_direct(GameSpec(args.moves, args.n), policy)),
    "pmn": (("n1", "n2"), "p", "second player's win probability for distinct targets",
            lambda args, policy: win_prob_targets(args.n1, args.n2, args.moves, policy)),
    "duration": (("n",), "expected_rounds", "expected number of rounds until someone wins",
                 lambda args, policy: expected_duration(GameSpec(args.moves, args.n), policy)),
}


def _cmd_series(args):
    targets, key, provenance, evaluate = _SERIES[args.subcommand]
    res = evaluate(args, TailPolicy(args.tol, args.max_k))
    inputs = {"moves": str(args.moves), **{t: getattr(args, t) for t in targets}}
    return inputs, {key: res.to_json_dict(args.digits)}, provenance, _exit_code_for(res)


def _cmd_within(args):
    spec = GameSpec(args.moves, args.n)
    exact = win_within(spec, args.k)
    inputs = {"moves": str(args.moves), "n": args.n, "k": args.k}
    results = {"exact": rational_str(exact),
               "decimal": ApproxValue(exact, 0).formatted(DISPLAY_DIGITS)}
    return inputs, results, "probability the second player wins within k moves", 0


def _fmt_delta(x, y) -> str:
    """|x - y| to 6 digits, x, y and the difference each rounded at 30 digits' bits."""
    prec = dps_to_prec(30)
    return nstr(rounded(abs(rounded(x, prec) - rounded(y, prec)), prec), 6)


# the pinned {-1,1} tables: the exact forms by cell, the cell's columns,
# the evaluator of one cell and the provenance
_PINNED_TABLES = {
    "table1": (reference.TARGET_TABLE_PM1, ("n1", "n2"),
               lambda policy, n1, n2: win_prob_targets(n1, n2, MoveSet(-1, 1), policy),
               "win-probability table for distinct targets, unit-step race"),
    "t_values": ({(n,): form for n, form in reference.SQUARE_SUMS_PM1.items()}, ("n",),
                 lambda policy, n: square_sum_value(MoveSet(-1, 1), n, policy),
                 "squared-passage sums for the unit-step race"),
}


def _cmd_table(args):
    policy = TailPolicy(args.tol, args.max_k)
    rows: list[dict] = []
    outputs: list[SeriesResult] = []
    if args.which in _PINNED_TABLES:
        forms, columns, evaluate, provenance = _PINNED_TABLES[args.which]
        for cell, form in sorted(forms.items()):
            res = evaluate(policy, *cell)
            exact = form.approx(20)
            rows.append(
                {
                    **dict(zip(columns, cell)),
                    "exact_form": str(form),
                    "exact_decimal": exact.formatted(DISPLAY_DIGITS),
                    "computed": res.formatted(args.digits),
                    "abs_delta": _fmt_delta(res.value, exact.value),
                }
            )
            outputs.append(res)
    else:  # case_minus1_2
        moves = MoveSet(-1, 2)
        for n, (sumsq_ref, p_ref) in sorted(reference.MINUS12_REFERENCE.items()):
            t_res = square_sum_value(moves, n, policy)
            # the race almost surely ends, so p = (1 - sum r**2) / 2; the
            # subtraction and halving are exact, so p keeps every backed digit
            p = ApproxValue((1 - t_res.value) / 2, t_res.error_bound() / 2)
            rows.append(
                {
                    "n": n,
                    "sum_squares": t_res.formatted(args.digits),
                    "sum_squares_ref": sumsq_ref,
                    "p": p.formatted(args.digits),
                    "p_ref": p_ref,
                    "abs_delta_p": _fmt_delta(p.value, Fraction(p_ref)),
                }
            )
            outputs.append(t_res)
        provenance = "win probabilities for the {-1,2} move set"
    if args.csv:
        _write_rows_csv(args.csv, rows)
    return {"which": args.which}, {"rows": rows}, provenance, _exit_code_for(*outputs)


def _write_rows_csv(path: str, rows) -> None:
    """Write dict rows as CSV under a header of the first row's keys."""
    import csv

    rows = iter(rows)
    first = next(rows)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(first))
        writer.writeheader()
        writer.writerow(first)
        writer.writerows(rows)


def _cmd_passage(args):
    spec = GameSpec(args.moves, args.n)
    shown = min(args.max_k, 20)
    table = build_passage_table(spec, args.max_k if args.csv else shown)
    results = {
        "rows": list(islice(table.rows(), shown + 1)),
        "reachability": reachability_rule(spec),
    }
    if args.max_k > shown:
        results["note"] = f"showing k <= {shown} of {args.max_k}; use --csv for the full table"
    if args.csv:
        _write_rows_csv(args.csv, table.rows())
    inputs = {"moves": str(args.moves), "n": args.n, "max_k": args.max_k}
    return inputs, results, "exact first-passage and survival probabilities", 0


def _cmd_simulate(args):
    from .simulate import SimConfig, run_simulation

    cfg = SimConfig(args.moves, args.n1, args.n2, args.trials, args.seed, args.horizon)
    report = run_simulation(cfg)
    inputs = {"moves": str(args.moves), "n1": args.n1, "n2": args.n2, "trials": args.trials,
              "seed": args.seed, "horizon": cfg.horizon}
    return inputs, report.to_json_dict(), "Monte Carlo estimates from full simulated games", 0


# ---------------------------------------------------------------------------
# verification suites


def _verify_identities() -> Iterator[dict]:
    """The DP's numerators for k <= 100 and n = 1..5 against two exact laws
    that share no code with it; a stream that ends early is read as zeros."""
    from .closedforms import hitting_time_count, monotone_survival_count

    for a, b in [(-3, 1), (-2, 1), (-1, 1), (0, 1), (0, 2), (1, 2), (1, 3)]:
        skip_free, monotone = b == 1 and a <= 0, a >= 0
        mismatches = 0
        for n in range(1, 6):
            items = chain(iter_passage(GameSpec(MoveSet(a, b), n), horizon=100),
                          repeat((0, 0, 0, None)))
            for k, (_, win, survived, _) in zip(range(1, 101), items):
                if skip_free and win != hitting_time_count(a, n, k):
                    mismatches += 1
                if monotone and survived != monotone_survival_count(a, b, n, k):
                    mismatches += 1
        used = [("hitting-time theorem", skip_free), ("binomial survival law", monotone)]
        laws = " and ".join(law for law, applies in used if applies)
        yield {"check": f"{laws} on the DP moves={a},{b} n=1..5 k<=100",
               "ok": not mismatches, "mismatches": mismatches}


def _verify_oracles() -> Iterator[dict]:
    from .closedforms import passage_prob_m1p2, passage_prob_pm1, survival_one, win_within_one

    def dp(moves, n, horizon):  # r_k and q_k from the DP itself, not the tables' closed forms
        stream = iter_passage(GameSpec(MoveSet(*moves), n), horizon=horizon)
        return [(Fraction(r, 1 << k), Fraction(q, 1 << k)) for k, r, q, _ in stream]

    rq = dp((-1, 1), 1, 100)
    good = all(survival_one(k) == q for k, (_, q) in enumerate([(0, 1)] + rq))
    good &= all(win_within_one(k) == w for k, w in enumerate(accumulate(r * q for r, q in rq), 1))
    yield {"check": "unit-step closed forms equal exact partial sums (k<=100)", "ok": bool(good)}
    for n in range(1, 6):
        good = all(passage_prob_pm1(n, k) == r for k, (r, _) in enumerate(dp((-1, 1), n, 40), 1))
        yield {"check": f"catalan counts equal unit-step DP (n={n}, k<=40)", "ok": bool(good)}
    for n in range(1, 5):
        good = all(passage_prob_m1p2(n, k) == r for k, (r, _) in enumerate(dp((-1, 2), n, 30), 1))
        yield {"check": f"raney counts equal {{-1,2}} DP (n={n}, k<=30)", "ok": bool(good)}


def _verify_residuals() -> Iterator[dict]:
    """Distinct-target win probabilities against the pinned references:
    the exact {-1,1} table and the {-1,2} decimals (truncated at 1e-17)."""
    cells = [
        (MoveSet(-1, 1), n1, n2, reference.TARGET_TABLE_PM1[n1, n2].approx(30))
        for n1 in range(1, 4)
        for n2 in range(1, 4)
    ]
    cells += [
        (MoveSet(-1, 2), n, n,
         ApproxValue(Fraction(reference.MINUS12_REFERENCE[n][1]), Fraction(1, 10**17)))
        for n in range(1, 4)
    ]
    for moves, n1, n2, ref in cells:
        res = win_prob_targets(n1, n2, moves)
        err = abs(res.value - ref.value)
        bound = res.error_bound() + ref.error_bound
        good = res.verdict == CONVERGED and err <= bound
        yield {
            "check": f"pinned win probability moves={moves} n1={n1} n2={n2}",
            "ok": bool(good),
            "residual": nstr(err, 6),
            "bound": nstr(bound, 6),
        }


def _verify_recurrence_suite() -> Iterator[dict]:
    """The engine's exact sums T(1..40) on {-1,1} against the pinned
    order-3 recurrence: every window's left-hand side must be exactly 0."""
    sums = [closedforms.unit_step_sum(n) for n in range(1, 41)]
    for n in range(1, len(sums) - 2):
        residual = reference.recurrence_residual(sums[n - 1 : n + 3], n)
        check = f"squared-sum recurrence on the engine's exact T({n}..{n + 3})"
        yield {"check": check, "ok": residual.is_zero(), "residual": str(residual)}


# each suite with the provenance its record carries
_SUITES = {
    "identities": (_verify_identities,
                   "the DP's numerators against the hitting-time and binomial survival laws"),
    "oracles": (_verify_oracles,
                "the DP's exact tables against Catalan, Raney and unit-step closed forms"),
    "residuals": (_verify_residuals,
                  "win probabilities against the pinned {-1,1} forms and {-1,2} decimals"),
    "recurrence": (_verify_recurrence_suite,
                   "the engine's exact unit-step sums T(n) against their pinned recurrence"),
}


def _cmd_verify(args):
    chosen = _SUITES if args.suite == "all" else {args.suite: _SUITES[args.suite]}
    lines = [line for suite, _ in chosen.values() for line in suite()]
    ok = all(line["ok"] for line in lines)
    provenance = "; ".join(dict.fromkeys(what for _, what in chosen.values()))
    code = 0 if ok else CONVERGENCE_ERROR
    return {"suite": args.suite}, {"checks": lines, "all_ok": ok}, provenance, code


_COMMANDS = {
    "pn": _cmd_series,
    "pmn": _cmd_series,
    "within": _cmd_within,
    "duration": _cmd_series,
    "table": _cmd_table,
    "passage": _cmd_passage,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, results, provenance, code = _COMMANDS[args.subcommand](args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"pilerace: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    record = {"command": args.subcommand, "inputs": inputs, "results": results,
              "provenance": provenance}
    print(json.dumps(record, indent=2) if args.json else render_human(record))
    return code


def script() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so the flush at
        # interpreter exit cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(USAGE_ERROR)
    sys.exit(code)


if __name__ == "__main__":
    script()
