"""Write ``oracles.json``: the pinned answer of every benchmark query.

Run from the repository root:

    python3 perfbench/make_oracles.py

Sources, none of them the code path a query times:

* pi-linear exact forms (``pilinear_eval`` of ``TARGET_TABLE_PM1`` and
  ``SQUARE_SUMS_PM1``) for the unit-step series;
* the truncated ``MINUS12_REFERENCE`` decimals for the {-1, 2} rows;
* Catalan/Raney closed forms (``passage_prob_pm1``, ``passage_prob_m1p2``,
  ``win_within_one``) for exact tables and win-within sums;
* for series with no closed form, exact partial sums from an integer
  walk written here, carried at least 4x past the point where the
  evaluator stops; the oracle's precision is the change between the
  partial sums at half and at the full carried length;
* for each simulation, the exact probabilities over the game's horizon,
  which the benchmark checks to within 5 standard errors.

The script takes a few minutes; the benchmark itself only reads the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from mpmath import mp, mpf  # noqa: E402

from pilerace import closedforms, reference, series  # noqa: E402
from pilerace.numeric import pilinear_eval  # noqa: E402
from pilerace.passage import GameSpec, MoveSet  # noqa: E402
from pilerace.simulate import DEFAULT_HORIZON  # noqa: E402
from workloads import WORKLOADS, rational_digest  # noqa: E402

DIGITS = 60


def decimal(x) -> str:
    with mp.workdps(DIGITS + 20):
        if isinstance(x, Fraction):
            x = mpf(x.numerator) / x.denominator
        return mp.nstr(mpf(x), DIGITS)


def walk(a: int, b: int, n: int):
    """Yield (k, R_k, Q_k): first-passage and survival path counts after
    k moves of a walk with steps {a, b} and target n, both over 2**k.

    Counts live in an object array indexed by position - lo, so each move
    is two shifted big-integer additions."""
    counts = np.array([1], dtype=object)
    lo = 0
    k = 0
    while True:
        k += 1
        lo += a
        new = np.zeros(len(counts) + b - a, dtype=object)
        new[: len(counts)] += counts
        new[b - a :] += counts
        cut = n - lo  # index of position n
        won = int(new[max(cut, 0) :].sum()) if cut < len(new) else 0
        counts = new[: max(cut, 0)]
        yield k, won, int(counts.sum())


def race_values(moves, n1: int, n2: int):
    """Yield (k, V_k) at k = 2, 4, 8, ...: the exact sum over j <= k of
    q(n1, j) * r(n2, j), plus the split correction q1*q2/2 when the drift
    is non-negative (the race then almost surely ends)."""
    a, b = moves
    s_num = 0
    for (k, _, q1), (_, r2, q2) in zip(walk(a, b, n1), walk(a, b, n2)):
        s_num = 4 * s_num + q1 * r2
        if k & (k - 1) == 0 and k > 1:
            v = Fraction(s_num, 4**k)
            if a + b >= 0:
                v += Fraction(q1 * q2, 2 * 4**k)
            yield k, v


def carried(q) -> dict:
    """Oracle of a series with no closed form: the exact partial sums
    carried at least 4x (and at least to k = 1024) past the evaluator's
    truncation, and on until they settle to 1e-30."""
    moves = MoveSet(*q.moves)
    policy = series.TailPolicy(tolerance=q.tol) if q.tol else None
    if q.fn == "win_prob_targets":
        k_eval = series.win_prob_targets(q.n, q.n2, moves, policy).truncation_k
        n2 = q.n2
    else:
        k_eval = series.win_prob_direct(GameSpec(moves, q.n), policy).truncation_k
        n2 = q.n
    prev = None
    with mp.workdps(DIGITS + 20):
        for k, v in race_values(q.moves, q.n, n2):
            value = mpf(v.numerator) / v.denominator
            prec = abs(value - prev) if prev is not None else mpf(1)
            prev = value
            if k >= max(4 * k_eval, 1024) and prec < mpf(10) ** -30:
                break
        precision = mp.nstr(prec, 5) if prec else "1e-70"
    return {
        "verdict": "converged",
        "value": decimal(v),
        "precision": precision,
        "exact": True,
        "source": f"exact partial sum carried to k={k} (evaluator stops at k={k_eval})",
    }


def truncated(text: str) -> dict:
    ulp = "1e-%d" % len(text.partition(".")[2])
    return {"value": text, "precision": ulp}


def minus12_within(n: int, k: int) -> Fraction:
    """Exact win-within-k for {-1, 2} from the Raney counts."""
    closedforms.raney_count(n, k)  # build the rows once
    s_num, q_num = 0, 1
    for j in range(1, k + 1):
        r_num = closedforms.raney_count(n, j - 1)
        q_num = 2 * q_num - r_num
        s_num = 4 * s_num + q_num * r_num
    return Fraction(s_num, 4**k)


def sim_probs(q) -> dict:
    """Exact P(second player wins) and P(censored) within the horizon."""
    horizon = q.horizon or DEFAULT_HORIZON
    a, b = q.moves
    if q.moves == (-1, 1):
        if q.n != q.n2:
            raise ValueError("the Catalan branch serves equal targets only")

        def counts():
            q_num = 1
            for k in range(1, horizon + 1):
                r_num = closedforms.catalan_count(q.n, k - 1)
                q_num = 2 * q_num - r_num
                yield k, r_num, q_num
        pairs = ((x, x) for x in counts())
        source = "Catalan closed form over the horizon"
    else:
        w1, w2 = walk(a, b, q.n), walk(a, b, q.n2)
        pairs = zip(w1, w2)
        source = "exact integer walk over the horizon"
    s_num = 0
    for (k, _, q1), (_, r2, q2) in pairs:
        s_num = 4 * s_num + q1 * r2
        # positive drift: past k the second player can win at most q2 more
        if k == horizon or (a + b > 0 and Fraction(q2, 2**k) < Fraction(1, 10**40)):
            break
    p2 = Fraction(s_num, 4**k)
    censored = Fraction(q1 * q2, 4**k) if k == horizon else Fraction(0)
    return {"p2": decimal(p2), "censored": decimal(censored) if censored else "0",
            "source": f"{source} (k <= {k})"}


def passage_rows(moves, n: int, shown: int = 20) -> str:
    prob = closedforms.passage_prob_pm1 if moves == (-1, 1) else closedforms.passage_prob_m1p2
    r = [prob(n, k) for k in range(1, shown + 1)]
    qs = [Fraction(1)]
    for x in r:
        qs.append(qs[-1] - x)
    cells = [f"{x.numerator}/{x.denominator}" for x in r + qs]
    return hashlib.sha256("\n".join(cells).encode()).hexdigest()


def table_passage(q) -> str:
    """Digest of the exact r and q tables from this file's own walk."""
    r, qs = [], [Fraction(1)]
    for k, won, alive in walk(*q.moves, q.n):
        r.append(Fraction(won, 2**k))
        qs.append(Fraction(alive, 2**k))
        if k == q.k:
            return rational_digest(r + qs)


def cli_oracle(q) -> dict:
    sub = q.argv[0]
    args = dict(a.lstrip("-").split("=") for a in q.argv[1:] if "=" in a)
    out = {"exit": 0}
    if sub == "pn":
        out.update(truncated(reference.MINUS12_REFERENCE[int(args["n"])][1]))
        out["source"] = "MINUS12_REFERENCE win probability (truncated decimals)"
    elif sub == "within":
        n, k = int(args["n"]), int(args["k"])
        exact = closedforms.win_within_one(k) if args["moves"] == "-1,1" else minus12_within(n, k)
        out["digest"] = hashlib.sha256(f"{exact.numerator}/{exact.denominator}".encode()).hexdigest()
        out["value"] = decimal(exact)
        out["source"] = "win_within_one" if args["moves"] == "-1,1" else "Raney counts"
    elif sub == "passage":
        moves = tuple(int(x) for x in args["moves"].split(","))
        out["digest"] = passage_rows(moves, int(args["n"]))
        out["source"] = "passage_prob_pm1" if moves == (-1, 1) else "passage_prob_m1p2"
    elif sub == "table":
        out["rows"] = {
            str(n): {"sum_squares": t, "p": p,
                     "precision": "1e-%d" % min(len(t.partition(".")[2]), len(p.partition(".")[2]))}
            for n, (t, p) in reference.MINUS12_REFERENCE.items()
        }
        out["source"] = "MINUS12_REFERENCE (truncated decimals)"
    else:
        out["source"] = "every check of the suite passes"
    return out


def oracle_for(q) -> dict:
    if q.fn == "cli":
        return cli_oracle(q)
    if q.fn == "run_simulation":
        return sim_probs(q)
    if q.fn == "win_within":
        exact = closedforms.win_within_one(q.k) if q.moves == (-1, 1) else minus12_within(q.n, q.k)
        src = "win_within_one" if q.moves == (-1, 1) else "Raney counts (passage_prob_m1p2)"
        return {"digest": rational_digest([exact]), "value": decimal(exact), "exact": True, "source": src}
    if q.fn == "build_passage_table":
        return {"digest": table_passage(q), "exact": True, "source": "exact integer walk"}
    if q.expect == "diverged":
        return {"verdict": "diverged", "source": "sum of q_k^2 ~ c/k diverges at zero drift"}
    if q.moves == (-1, 1):
        form = (reference.SQUARE_SUMS_PM1[q.n] if q.fn == "square_sum_value"
                else reference.TARGET_TABLE_PM1[(q.n, q.n2)])
        approx = pilinear_eval(form, DIGITS)
        return {"verdict": "converged", "value": decimal(approx.value),
                "precision": mp.nstr(approx.error_bound, 5), "exact": True,
                "source": f"pilinear_eval({form})"}
    if q.moves == (-1, 2):
        col = 0 if q.fn == "square_sum_value" else 1
        out = {"verdict": "converged", **truncated(reference.MINUS12_REFERENCE[q.n][col])}
        out["source"] = "MINUS12_REFERENCE (truncated decimals)"
        return out
    return carried(q)


def main() -> int:
    out = {}
    for name, queries in WORKLOADS.items():
        for q in queries:
            print(f"{name}: {q.qid}", file=sys.stderr, flush=True)
            out[q.qid] = oracle_for(q)
    path = os.path.join(HERE, "oracles.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(out)} oracles to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
