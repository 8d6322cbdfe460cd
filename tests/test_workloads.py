"""The benchmark's queries still fit the program.

``perfbench/workloads.py`` names library functions by string and passes
argv lists to ``pilerace``.  A renamed function or a changed parser would
break only the benchmark run, so this checks every query against the
program without running it.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pilerace.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
QUERIES = [q for queries in WORKLOADS.WORKLOADS.values() for q in queries]


def test_every_query_is_a_cli_call_or_a_library_call():
    assert QUERIES
    for q in QUERIES:
        assert q.fn == "cli" or q.fn in WORKLOADS.MODULE_OF, q.qid


@pytest.mark.parametrize("q", [q for q in QUERIES if q.fn == "cli"], ids=lambda q: q.qid)
def test_cli_argv_parses(q):
    args = build_parser().parse_args([*q.argv, "--json"])
    assert args.subcommand == q.argv[0] and args.json


@pytest.mark.parametrize("q", [q for q in QUERIES if q.fn != "cli"], ids=lambda q: q.qid)
def test_library_function_resolves(q):
    module = importlib.import_module(f"pilerace.{WORKLOADS.MODULE_OF[q.fn]}")
    assert callable(getattr(module, q.fn))
