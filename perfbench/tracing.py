"""Spans around the calls the benchmark makes into each pilerace layer.

Every public function a workload reaches is replaced, for the traced run
only, by a wrapper that records a span: name, start, end, parent span and
query id.  Spans stay in memory and are written out when the run ends.

Generators get detached spans that end when the consumer drops them.
``iter_passage`` spans also time every ``next`` (the DP costs ~1 ms per
term, so the clock reads are noise).  ``rq_stream`` spans only count
terms: the summation core (``_Channel``/``_drive``) is private, so its cost
is derived as evaluator time minus the time to drain the same streams for
the same number of terms, which the tracer measures right after each
evaluator returns.  Drain time is excluded from the traced wall time.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from collections import defaultdict
from itertools import islice
from time import perf_counter, perf_counter_ns

from workloads import LONG_GAMES, SERIES_EVALUATORS

DRIVEN = tuple(f for f in SERIES_EVALUATORS if f != "win_within")  # callers of _drive


class Tracer:
    """Span recorder; ``install`` patches the layers, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.query: str | None = None
        self.drain_s = 0.0  # taken out of the traced wall time
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str, stacked: bool = True, **attrs) -> dict:
        span = {"id": len(self.spans), "name": name, "start": perf_counter_ns(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "query": self.query, **attrs}
        self.spans.append(span)
        if stacked:
            self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter_ns()
        self._stack.pop()

    def public_spans(self) -> list[dict]:
        return [{k: v for k, v in s.items() if not k.startswith("_")} for s in self.spans]

    # -- wrappers ---------------------------------------------------------

    def _patch(self, module, name: str, wrapper) -> None:
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def install(self, lib: dict) -> None:
        series, passage, simulate = lib["series"], lib["passage"], lib["simulate"]
        iter_passage = self._timed_generator("passage.iter_passage", passage.iter_passage)
        self._patch(passage, "iter_passage", iter_passage)
        self._patch(series, "iter_passage", iter_passage)  # series imported it by name
        self._patch(passage, "build_passage_table",
                    self._function("passage.build_passage_table", passage.build_passage_table))
        self._patch(series, "rq_stream", self._stream(series, passage.reduce_zero_drift))
        for name in SERIES_EVALUATORS:
            self._patch(series, name, self._function(f"series.{name}", getattr(series, name), drain=True))
        self._patch(simulate, "run_simulation",
                    self._function("simulate.run_simulation", simulate.run_simulation))

    def uninstall(self) -> None:
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)

    def _function(self, name: str, fn, drain: bool = False):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
                if drain:
                    self._drain(span)

        return wrapper

    def _timed_generator(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self._timed(fn(*args, **kwargs), self.open(name, stacked=False))

        return wrapper

    @staticmethod
    def _timed(gen, span):
        terms = busy = 0
        try:
            while True:
                t0 = perf_counter_ns()
                try:
                    item = next(gen)
                except StopIteration:
                    busy += perf_counter_ns() - t0
                    return
                busy += perf_counter_ns() - t0
                terms += 1
                yield item
        finally:
            span["terms"], span["busy_ns"], span["end"] = terms, busy, perf_counter_ns()

    def _stream(self, series, reduce_zero_drift):
        original = series.rq_stream

        def rq_stream(spec, *, prefer_float=False):
            kind = "dp" if reduce_zero_drift(spec) is None else ("mpf" if prefer_float else "exact")
            span = self.open("series.rq_stream", stacked=False, kind=kind, terms=0,
                             spec=[spec.moves.a, spec.moves.b, spec.n])
            span["_replay"] = lambda: original(spec, prefer_float=prefer_float)
            if span["parent"] is not None:
                self.spans[span["parent"]].setdefault("_streams", []).append(span)
            return self._counted(original(spec, prefer_float=prefer_float), span)

        self._work_dps = series.WORK_DPS
        return rq_stream

    @staticmethod
    def _counted(gen, span):
        terms = 0
        try:
            for item in gen:
                terms += 1
                yield item
        finally:
            span["terms"], span["end"] = terms, perf_counter_ns()

    def _drain(self, evaluator: dict) -> None:
        """Time the closed-form streams of one evaluator call on their own."""
        from mpmath import mp

        for s in evaluator.get("_streams", []):
            if s["kind"] == "dp":
                continue  # timed inline by its iter_passage span
            t0 = perf_counter()
            with mp.workdps(self._work_dps):
                for _ in islice(s["_replay"](), s["terms"]):
                    pass
            s["drain_s"] = perf_counter() - t0
            self.drain_s += s["drain_s"]


def _dur(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e9


def _per(total, count) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: list[dict], outcomes: list[tuple]) -> dict:
    """Per-layer metrics of one traced pass.

    ``outcomes`` holds (query, Outcome) pairs of the pass.  A metric whose
    layer did no work on the workload reads 0.
    """
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    m = {}
    dp = by["passage.iter_passage"]
    dp_terms = sum(s["terms"] for s in dp)
    m["passage.iter_passage.us_per_term"] = _per(sum(s["busy_ns"] for s in dp) / 1e3, dp_terms)
    m["passage.iter_passage.terms"] = dp_terms
    m["passage.build_passage_table.s"] = sum(_dur(s) for s in by["passage.build_passage_table"])

    for kind in ("mpf", "exact"):
        st = [s for s in by["series.rq_stream"] if s["kind"] == kind and "drain_s" in s]
        m[f"series.rq_stream.{kind}.us_per_term"] = _per(
            sum(s["drain_s"] for s in st) * 1e6, sum(s["terms"] for s in st))

    dp_busy = defaultdict(int)
    for s in dp:
        dp_busy[s["parent"]] += s["busy_ns"]
    drive_s, drive_terms = defaultdict(float), defaultdict(int)
    total_terms = 0
    for name in SERIES_EVALUATORS:
        calls = by[f"series.{name}"]
        m[f"series.{name}.s"] = sum(_dur(s) for s in calls)
        for e in calls:
            streams = e.get("_streams", [])
            k_terms = max((s["terms"] for s in streams), default=0)
            total_terms += k_terms
            if name not in DRIVEN:
                continue
            kind = "mpf" if any(s["kind"] == "mpf" for s in streams) else "exact"
            stream_s = sum(s.get("drain_s", 0.0) for s in streams) + dp_busy[e["id"]] / 1e9
            drive_s[kind] += _dur(e) - stream_s
            drive_terms[kind] += k_terms
    for kind in ("mpf", "exact"):
        m[f"series.drive.{kind}.us_per_term"] = _per(drive_s[kind] * 1e6, drive_terms[kind])
    m["series.terms"] = total_terms

    series_out = [o for q, o in outcomes if q.fn in SERIES_EVALUATORS]
    m["series.terms_per_backed_digit"] = _per(total_terms, sum(o.digits or 0 for o in series_out))
    ratios = [o.bound_over_error for o in series_out if o.bound_over_error is not None]
    m["series.bound_over_error_min"] = min(ratios) if ratios else 0.0
    for verdict in ("inconclusive", "diverged"):
        m[f"series.verdict.{verdict}"] = sum(o.verdict == verdict for o in series_out)

    sim_s = {s["query"]: _dur(s) for s in by["simulate.run_simulation"]}
    sims = [(q.qid in LONG_GAMES, o, sim_s[q.qid]) for q, o in outcomes if q.fn == "run_simulation"]
    long = [(o, t) for is_long, o, t in sims if is_long]
    short = [(o, t) for is_long, o, t in sims if not is_long]
    m["simulate.rounds_per_s"] = _per(sum(o.rounds for o, _ in long), sum(t for _, t in long))
    m["simulate.censored_frac"] = _per(sum(o.censored for o, _ in long), sum(o.games for o, _ in long))
    m["simulate.short_games_per_s"] = _per(sum(o.games for o, _ in short), sum(t for _, t in short))
    m["simulate.run_simulation.s"] = sum(sim_s.values())
    return m


CLI_SUBCOMMANDS = ("pn", "within", "passage", "table", "verify")


def cli_layer_metrics(process: list[dict], main: list[dict], importtime: dict) -> dict:
    """CLI metrics of one traced pass from the child-process spans, the
    in-process ``main`` spans and one ``-X importtime`` probe."""
    m = {f"cli.main.{sub}.s": sum(_dur(s) for s in main if s["subcommand"] == sub)
         for sub in CLI_SUBCOMMANDS}
    in_proc = {s["query"]: _dur(s) for s in main}
    gaps = [_dur(s) - in_proc[s["query"]] for s in process if s["query"] in in_proc]
    m["cli.process_overhead_s"] = statistics.median(gaps) if gaps else 0.0
    m["cli.import_s"] = importtime.get("pilerace.cli", 0.0)
    m["cli.import.numpy_s"] = importtime.get("numpy", 0.0)
    m["cli.import.mpmath_s"] = importtime.get("mpmath", 0.0)
    return m


def import_times() -> dict:
    """Cumulative import seconds of each module of a fresh
    ``import pilerace.cli``, from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pilerace.cli"],
                          capture_output=True, text=True, timeout=120, check=True)
    out = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return out
