"""Run one workload in this fresh process and print its raw results as
one JSON line.  Started by ``run.py``; not meant to be run by hand.

The fixed query list is run in passes until the time budget is spent.
Every pass times the workload's speed probe (``speed.py``) between
queries, up to ``PROBE_SHARE`` of the pass's query time, and each set-up
sample is followed by a sample of the set-up probe.
Without tracing every pass is untraced.  With tracing, untraced and
traced passes alternate (at least one of each), and the traced passes'
spans are written to ``results/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import PROBE_OF, PROBE_SHARE, time_probe  # noqa: E402
from tracing import Tracer, cli_layer_metrics, import_times, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Outcome, call, check, pass_order  # noqa: E402


def load_oracles() -> dict:
    with open(os.path.join(HERE, "oracles.json")) as f:
        return json.load(f)


def load_library() -> dict:
    from pilerace import passage, series, simulate

    return {"passage": passage, "series": series, "simulate": simulate}


SETUP_COMMAND = [sys.executable, "-c", "import pilerace.cli"]
CHILD_CPU_LIMIT_S = 120


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def run_child(cmd, **kwargs) -> subprocess.CompletedProcess:
    """Run a timed child and wait for it without a timeout: a timed wait
    polls with sleeps of up to 50 ms, which would round the measured time
    up.  A runaway child is killed by its own CPU-time limit instead."""
    return subprocess.run(cmd, preexec_fn=_limit_cpu, **kwargs)


def cli_command(argv) -> list[str]:
    return [sys.executable, "-m", "pilerace.cli", *argv, "--json"]


class Runner:
    """Runs passes of one query list and keeps what they measured."""

    def __init__(self, queries, oracles: dict, seed: int, trace: bool, probe: str):
        self.queries = queries
        self.probe = probe
        self.oracles = oracles
        self.seed = seed
        self.trace = trace
        self.cli = any(q.fn == "cli" for q in queries)
        # an untraced CLI run imports no pilerace: its peak RSS is its children's
        self.lib = load_library() if trace or not self.cli else None
        if trace and self.cli:
            # imported before any wrapper is installed, so that the names
            # the CLI imported from series stay the unwrapped functions
            import pilerace.cli  # noqa: F401
        self.tracer = Tracer() if trace else None
        self.passes: list[dict] = []
        self.setup: list[float] = []
        self.setup_probe: list[float] = []

    def _answer(self, q, traced: bool):
        """Time one query; returns (seconds, answer or the exception)."""
        tracer = self.tracer if traced else None
        if tracer:
            tracer.query = q.qid
            drained = tracer.drain_s
        span = tracer.open("cli.process", subcommand=q.argv[0]) if tracer and q.fn == "cli" else None
        t0 = perf_counter()
        try:
            if q.fn == "cli":
                answer = run_child(cli_command(q.argv), capture_output=True, text=True)
            else:
                answer = call(q, self.lib, self.seed)
        except Exception as exc:  # a failing query is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            answer = exc
        dt = perf_counter() - t0
        if span:
            tracer.close(span)
        if tracer:
            dt -= tracer.drain_s - drained
        return dt, answer

    def _in_process_main(self, q) -> None:
        """Span around an in-process ``pilerace.cli.main`` for one CLI query."""
        from pilerace import cli

        self.tracer.query = q.qid
        span = self.tracer.open("cli.main", subcommand=q.argv[0])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main([*q.argv, "--json"])
        self.tracer.close(span)

    def run_pass(self, index: int, traced: bool) -> dict:
        tracer = self.tracer if traced else None
        mark = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.install(self.lib)
        records, outcomes, probes = [], [], []
        try:
            for q in pass_order(self.queries, self.seed, index):
                # one probe per gap at most: in a burst the later probes
                # would run warm, in a state the queries never see
                if sum(probes) <= PROBE_SHARE * sum(r["s"] for r in records):
                    probes.append(time_probe(self.probe))
                dt, answer = self._answer(q, traced)
                if isinstance(answer, Exception):
                    out = Outcome(False, f"raised {type(answer).__name__}: {answer}")
                else:
                    try:
                        out = check(q, answer, self.oracles[q.qid])
                    except Exception as exc:  # an answer of the wrong shape fails, not the run
                        traceback.print_exc(file=sys.stderr)
                        out = Outcome(False, f"check raised {type(exc).__name__}: {exc}")
                outcomes.append((q, out))
                records.append({"qid": q.qid, "s": dt, "ok": out.ok, "reason": out.reason,
                                "known_defect": bool(q.known_defect), "digits": out.digits,
                                "converges": q.expect == "converged", "games": out.games})
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            # after uninstall: the CLI's own calls into series stay untraced
            for q in self.queries:
                if q.fn == "cli":
                    self._in_process_main(q)
        result = {"traced": traced, "wall_s": sum(r["s"] for r in records), "queries": records,
                  "probe": probes}
        if tracer:
            spans = tracer.spans[mark:]
            layers = layer_metrics(spans, outcomes)
            layers.update(cli_layer_metrics(
                [s for s in spans if s["name"] == "cli.process"],
                [s for s in spans if s["name"] == "cli.main"],
                import_times() if self.cli else {}))
            result["layers"] = layers
        return result

    def time_setup(self, count: int) -> None:
        """Wall times of fresh interpreters running ``import pilerace.cli``,
        each followed by one sample of the set-up probe."""
        for _ in range(count):
            t0 = perf_counter()
            run_child(SETUP_COMMAND, check=True)
            self.setup.append(perf_counter() - t0)
            self.setup_probe.append(time_probe(PROBE_OF["setup"]))

    def run(self, seconds: float) -> None:
        """Passes until the next one would overrun ``seconds``.  Without
        tracing, set-up is timed before the first pass and after each one,
        so that its samples span the whole run."""
        start = perf_counter()
        need = 2 if self.trace else 1
        if not self.trace:
            run_child(SETUP_COMMAND, check=True)  # writes the bytecode cache
            time_probe(PROBE_OF["setup"])
            time_probe(self.probe)
            self.time_setup(3)
        while True:
            t0 = perf_counter()
            self.passes.append(self.run_pass(len(self.passes), self.trace and len(self.passes) % 2 == 1))
            if not self.trace:
                self.time_setup(1)
            last = perf_counter() - t0
            if len(self.passes) >= need and perf_counter() - start + last > seconds:
                return


def stamp() -> dict:
    import platform
    from importlib.metadata import version

    import mpmath.libmp

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--results", required=True)
    args = p.parse_args()

    runner = Runner(WORKLOADS[args.workload], load_oracles(), args.seed, bool(args.trace),
                    PROBE_OF[args.workload])
    runner.run(args.seconds)
    if runner.tracer:
        path = os.path.join(args.results, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": runner.tracer.public_spans()}, f)
    print(json.dumps({"passes": runner.passes, "setup": runner.setup,
                      "setup_probe": runner.setup_probe, "probe": runner.probe, "peak_rss_mb": peak_rss_mb(),
                      "stamp": stamp()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
