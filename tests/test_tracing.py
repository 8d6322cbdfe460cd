"""The benchmark's tracer still fits the library.

``perfbench/tracing.py`` patches names in ``pilerace.series``,
``pilerace.passage`` and ``pilerace.simulate`` by string and reads
``series.WORK_DPS``.  A refactor that renames one of them breaks only the
traced benchmark run, so this runs the tracer on three small calls.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from pilerace import passage, series, simulate
from pilerace.passage import GameSpec, MoveSet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports ``workloads``
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_and_restores(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    modules = (series, passage, simulate)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    tracer.install({"series": series, "passage": passage, "simulate": simulate})
    try:
        assert tracer._undo, "the tracer patched nothing"
        patched = [(m, name) for m, name, _ in tracer._undo]
        series.square_sum_value(MoveSet(-1, 2), 1)
        series.win_prob_direct(GameSpec(MoveSet(-2, 1), 1))
        series.win_within(GameSpec(MoveSet(-1, 2), 3), 50)
    finally:
        tracer.uninstall()
    for module, name in patched:
        assert getattr(module, name) is before[modules.index(module)][name], name
    # every evaluator steps the DP directly: the summed ones in fixed
    # point, win_within in exact mode up to its horizon
    assert not [s for s in tracer.spans if s["name"] == "series.rq_stream"]
    names = {s["id"]: s["name"] for s in tracer.spans}
    evaluators = {"series.square_sum_value", "series.win_prob_direct", "series.win_within"}
    assert evaluators <= {s["name"] for s in tracer.spans if s["parent"] is None}
    dp_parents = {names[s["parent"]] for s in tracer.spans
                  if s["name"] == "passage.iter_passage" and s["terms"] > 0}
    assert dp_parents == evaluators
