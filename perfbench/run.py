"""The pilerace benchmark.  Run from the repository root:

    python3 perfbench/run.py                          # all four workloads
    python3 perfbench/run.py --workload exact_walks --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1 # per-layer metrics
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

Each workload runs in a fresh single-threaded ``worker.py`` process that
checks every answer against ``oracles.json`` and, between passes, times
fresh interpreters running ``import pilerace.cli`` (``setup_s``).  Times
are scaled to a reference machine speed by the probes of ``speed.py``.
This process prints every metric by name and unit, writes the stamped
result to ``--results``, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import PROBE_OF, REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 170
# End-to-end metrics printed and compared but not in BENCHMARK.json: the
# time of one query swings too much from run to run on a shared 2-core
# machine, and the others are n/a on some workload (or read 0).
EXTRA_END_TO_END = (
    {"name": "query_p50_s", "unit": "s", "better": "lower"},
    {"name": "query_max_s", "unit": "s", "better": "lower"},
    {"name": "games_per_s", "unit": "games/s", "better": "higher"},
    {"name": "backed_digits_min", "unit": "digits", "better": "higher"},
    {"name": "failed_frac", "unit": "ratio", "better": "lower"},
    {"name": "wall_raw_s", "unit": "s", "better": "lower"},
    {"name": "setup_raw_s", "unit": "s", "better": "lower"},
    {"name": "machine_slowdown", "unit": "ratio", "better": "lower"},
)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env() -> dict:
    """Environment of every child: the checkout's sources, one thread."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, seconds: int, trace: int, results: str, env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--results", results]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else None


def slowdown(samples, probe: str) -> float:
    """How much slower than its reference the machine ran ``probe``."""
    return _median(samples) / REFERENCE_S[probe]


def end_to_end(raw: dict) -> dict:
    """Every end-to-end metric as {"value", "samples"}; value None is n/a.

    Times are scaled to the reference speed of ``speed.py``: each pass's
    query times are divided by the pass's slowdown, and set-up times by
    the set-up probe's slowdown over the run.  Each query's scaled time is
    then reduced to its median over the passes, so that one slow moment
    of the machine moves one sample of one query: ``wall_s`` sums these
    medians and ``query_p50_s``/``query_max_s`` are their median and
    maximum.  ``wall_raw_s`` and ``setup_raw_s`` are the same without
    scaling.
    """
    passes = [p for p in raw["passes"] if not p["traced"]]
    records = [r for p in passes for r in p["queries"]]
    per_query, per_query_raw = defaultdict(list), defaultdict(list)
    for p in passes:
        factor = slowdown(p["probe"], raw["probe"])
        for r in p["queries"]:
            per_query[r["qid"]].append(r["s"] / factor)
            per_query_raw[r["qid"]].append(r["s"])
    medians = [_median(v) for v in per_query.values()]
    wall = sum(medians)
    setup_raw = _median(raw["setup"])
    digits = [r["digits"] for r in records if r["digits"] is not None and r["converges"]]
    per_pass_digits = _median([sum(r["digits"] or 0 for r in p["queries"]) for p in passes])
    has_digits = any(r["digits"] is not None for r in records)
    games = sum(r["games"] for r in passes[0]["queries"])
    failed = sum(not r["ok"] for r in records)
    m = {
        "setup_s": (setup_raw / slowdown(raw["setup_probe"], PROBE_OF["setup"]), len(raw["setup"])),
        "wall_s": (wall, len(passes)),
        "query_p50_s": (_median(medians), len(records)),
        "query_max_s": (max(medians), len(passes)),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
        "backed_digits_per_s": (per_pass_digits / wall if has_digits else None, len(passes)),
        "passed_frac": (1 - failed / len(records), len(records)),
        "games_per_s": (games / wall if games else None, len(passes)),
        "backed_digits_min": (min(digits) if digits else None, len(digits)),
        "failed_frac": (failed / len(records), len(records)),
        "wall_raw_s": (sum(_median(v) for v in per_query_raw.values()), len(passes)),
        "setup_raw_s": (setup_raw, len(raw["setup"])),
        "machine_slowdown": (slowdown([t for p in passes for t in p["probe"]], raw["probe"]),
                             sum(len(p["probe"]) for p in passes)),
    }
    return {k: {"value": v, "samples": n} for k, (v, n) in m.items()}


def per_layer(raw: dict) -> dict:
    """Medians of the traced passes' layer metrics, plus tracing overhead
    (the traced passes' wall time less the untraced passes', both scaled
    to the reference speed)."""
    traced = [p for p in raw["passes"] if p["traced"]]
    plain = [p for p in raw["passes"] if not p["traced"]]
    m = {name: {"value": _median([p["layers"][name] for p in traced]), "samples": len(traced)}
         for name in traced[0]["layers"]}

    def scaled_wall(passes):
        return _median([p["wall_s"] / slowdown(p["probe"], raw["probe"]) for p in passes])

    m["trace.overhead_s"] = {"value": scaled_wall(traced) - scaled_wall(plain),
                             "samples": min(len(traced), len(plain))}
    return m


def commit() -> str | None:
    """HEAD of the repository root, or None in a checkout that is not one."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over src/**/*.py, which identifies the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def assemble(spec: dict, raw: dict, trace: int) -> dict:
    """Every declared metric of one run: its BENCHMARK.json entry (or
    EXTRA_END_TO_END entry) with the measured value and sample count."""
    declared = spec["per_layer"] if trace else [*spec["end_to_end"], *EXTRA_END_TO_END]
    measured = per_layer(raw) if trace else end_to_end(raw)
    return {d["name"]: dict(d, **measured[d["name"]]) for d in declared}


def tally(raw: dict) -> dict:
    """Attempted and failed queries over all passes.  The run is correct
    when every failing query is a known defect of the program."""
    records = [r for p in raw["passes"] for r in p["queries"]]
    failing = {r["qid"]: {"reason": r["reason"], "known_defect": r["known_defect"]}
               for r in records if not r["ok"]}
    return {
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "correct": all(f["known_defect"] for f in failing.values()),
        "failing": failing,
    }


def run_one(spec: dict, workload: str, seed: int, seconds: int, trace: int, results: str) -> dict:
    raw = run_worker(workload, seed, seconds, trace, results, child_env())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "stamp": dict(raw["stamp"], commit=commit(), source_sha256=source_digest()),
        "passes": len(raw["passes"]),
        **tally(raw),
        "metrics": assemble(spec, raw, trace),
    }


def print_result(res: dict) -> None:
    st = res["stamp"]
    print(f"== {res['workload']}  seed {res['seed']}  trace {res['trace']}  passes {res['passes']}  "
          f"python {st['python']}  numpy {st['numpy']}  mpmath {st['mpmath']} "
          f"[{st['mpmath_backend']}]  nproc {st['nproc']}  commit {st['commit'] or '-'}")
    for name, m in res["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:38s} {value:>14s} {m['unit']:10s} (n={m['samples']})")
    print(f"  attempted {res['attempted']}  failed {res['failed']}  correct {res['correct']}")
    for qid, f in res["failing"].items():
        tag = "known defect" if f["known_defect"] else "UNEXPECTED"
        print(f"  failing [{tag}] {qid}: {f['reason']}")


def gated(res: dict, spec: dict) -> dict:
    """The metrics the last output line carries: those of BENCHMARK.json."""
    names = [d["name"] for d in spec["per_layer" if res["trace"] else "end_to_end"]]
    return {n: {"value": res["metrics"][n]["value"], "unit": res["metrics"][n]["unit"]} for n in names}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=os.path.join(HERE, "results"),
                   help="directory for result and trace files")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="compare two directories of result files and exit")
    args = p.parse_args()

    if args.compare:
        from compare import compare

        return compare(*args.compare)
    if not os.path.isfile(os.path.join(ROOT, "src", "pilerace", "__init__.py")):
        print(f"perfbench: no pilerace sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(args.results, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_one(spec, name, args.seed, seconds, args.trace, args.results)
        path = os.path.join(args.results, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(res, f, indent=1)
        print_result(res)
        results.append(res)
    if len(results) == 1:
        metrics = gated(results[0], spec)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in gated(r, spec).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
