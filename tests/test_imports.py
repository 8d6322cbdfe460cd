"""numpy is loaded only where the simulator runs, mpmath only where a
summed series under negative drift needs exp and log, and a CLI process
starts with a pinned set of pilerace modules.

Each check that a module stays unloaded runs in a fresh interpreter,
because the test process itself has long since imported numpy and mpmath.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from brute_force import enumerate_first_passage

import pilerace
from pilerace.passage import GameSpec, MoveSet, build_passage_table

_SRC = str(Path(pilerace.__file__).resolve().parents[1])

# main() on every command that reproduces the paper's tables, quietly
_EXACT_COMMANDS = """
import contextlib, io, sys
from pilerace.cli import main
assert "numpy" not in sys.modules, "import pilerace.cli"
for argv in [
    ["pn", "--moves=-1,2", "--n=1"],
    ["pmn", "--moves=-1,2", "--n1=1", "--n2=2"],
    ["within", "--moves=-1,1", "--n=1", "--k=50"],
    ["passage", "--moves=-1,2", "--n=3", "--max-k=20"],
    ["table", "case_minus1_2"],
    ["verify", "identities"],
]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
print("ok")
"""

# main() on each command of the benchmark's cli_short workload, and on the
# other series and table commands that decide or sum without negative drift
_NO_MPMATH_COMMANDS = """
import contextlib, io, sys
from pilerace.cli import main
assert "mpmath" not in sys.modules, "import pilerace.cli"
for argv in [
    ["pn", "--moves=-1,2", "--n=1"],
    ["pn", "--moves=-1,2", "--n=3"],
    ["pn", "--moves=-1,2", "--n=10"],
    ["within", "--moves=-1,2", "--n=3", "--k=200"],
    ["within", "--moves=-1,2", "--n=10", "--k=500"],
    ["within", "--moves=-1,1", "--n=1", "--k=100"],
    ["passage", "--moves=-1,1", "--n=3", "--max-k=40"],
    ["passage", "--moves=-1,2", "--n=4", "--max-k=30"],
    ["table", "case_minus1_2"],
    ["verify", "identities"],
    ["verify", "oracles"],
    ["verify", "recurrence"],
    ["pmn", "--moves=-1,2", "--n1=1", "--n2=2"],
    ["duration", "--moves=-1,2", "--n=1"],
    ["table", "t_values"],
]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--json"]) == 0, argv
    assert "mpmath" not in sys.modules, argv
print("ok")
"""

# a negative-drift sum imports mpmath for Lundberg's bound, and answers
_NEGATIVE_DRIFT = """
import contextlib, io, json, sys
from pilerace.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["pn", "--moves=-2,1", "--n=1", "--json"])
print(code, "mpmath" in sys.modules, json.loads(out.getvalue())["results"]["direct"]["display"])
"""

_SIMULATE = """
import sys
from pilerace.cli import main
code = main(["simulate", "--moves=-1,2", "--n1=2", "--n2=2", "--trials=2000", "--json"])
print(code, "numpy" in sys.modules)
"""


# the pilerace modules behind every CLI process's start-up; one that a
# single command needs is imported by that command
_CLI_MODULES = """
import sys
import pilerace.cli
print(" ".join(sorted(name for name in sys.modules if name.split(".")[0] == "pilerace")))
print("mpmath" in sys.modules, "numpy" in sys.modules)
"""


def _child(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": _SRC}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exact_commands_never_load_numpy():
    assert _child(_EXACT_COMMANDS) == "ok\n"


def test_cli_start_up_loads_only_its_modules():
    modules, heavy = _child(_CLI_MODULES).splitlines()
    assert modules.split() == [
        "pilerace", "pilerace.cli", "pilerace.closedforms", "pilerace.numeric",
        "pilerace.passage", "pilerace.reference", "pilerace.series",
    ]
    assert heavy == "False False"  # neither mpmath nor numpy


def test_commands_without_negative_drift_never_load_mpmath():
    assert _child(_NO_MPMATH_COMMANDS) == "ok\n"


def test_negative_drift_loads_mpmath_on_demand():
    assert _child(_NEGATIVE_DRIFT) == "0 True 0.29971615217\n"


def test_simulate_loads_numpy_and_reports():
    *record, last = _child(_SIMULATE).splitlines()
    assert last == "0 True"
    report = json.loads("\n".join(record))
    assert report["command"] == "simulate"
    assert report["inputs"]["trials"] == 2000


def test_star_import_binds_all_names():
    namespace: dict = {}
    exec("from pilerace import *", namespace)
    assert set(pilerace.__all__) <= namespace.keys()
    from pilerace import simulate

    for name in ("SimConfig", "SimReport", "run_simulation"):
        assert namespace[name] is getattr(simulate, name)


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        pilerace.no_such_name


def test_enumerator_matches_the_dp():
    moves = MoveSet(-1, 2)
    table = build_passage_table(GameSpec(moves, 3), 12)
    r = enumerate_first_passage(moves, 3, 12)
    assert r == list(table.r)
    assert all(type(x) is Fraction for x in r)
