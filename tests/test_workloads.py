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
from mpmath import mp, mpf

from pilerace import reference
from pilerace.cli import build_parser
from pilerace.numeric import pilinear_eval

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


def test_backed_digits_of_an_exact_answer_reads_no_value():
    # the win_within check passes an mpf value with a zero bound
    with mp.workdps(60):
        assert WORKLOADS.backed_digits(mpf(1) / 3, 0) == 30


def test_backed_digits_of_a_simulated_rate_takes_floats():
    # the monte_carlo check passes the rate and 5 standard errors as floats
    assert WORKLOADS.backed_digits(0.25, 2.0**-12) == 2  # 0.25 / 2**-11 = 512
    assert WORKLOADS.backed_digits(0.25, 0.0) == 30


def test_pilinear_eval_prints_as_decimals_in_mpmath():
    # the oracle builder prints the value and the bound with mp.nstr
    approx = pilinear_eval(reference.TARGET_TABLE_PM1[(2, 3)], 60)
    for x in (approx.value, approx.error_bound):
        shown = mp.nstr(x, 5)  # "num/den" for a plain Fraction
        assert float(shown) == pytest.approx(float(x), rel=1e-4), shown
