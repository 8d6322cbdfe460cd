"""numpy is loaded only where the simulator runs, no module of the
package imports mpmath, and a CLI process starts with a pinned set of
pilerace modules.

mpmath's absence is read from the source, so that an import on a path
no command runs is caught too.  Each check that a module stays unloaded
runs in a fresh interpreter, because the test process itself has long
since imported numpy and mpmath.
"""

import ast
import json
import os
import re
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

# main() on each command of the benchmark's cli_short workload, on the
# other series, table and verify commands that decide or sum without
# negative drift, and on the simulator
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
    ["simulate", "--moves=-1,2", "--n1=2", "--n2=2", "--trials=2000"],
]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--json"]) == 0, argv
    assert "mpmath" not in sys.modules, argv
print("ok")
"""

# main() on negative-drift sums, whose tail bound is Lundberg's on an
# integer base; prints {-2,1} n=1
_NEGATIVE_DRIFT = """
import contextlib, io, json, sys
from pilerace.cli import main
for argv in [
    ["pn", "--moves=-2,1", "--n=1"],
    ["pn", "--moves=-3,2", "--n=1"],
    ["pmn", "--moves=-3,2", "--n1=3", "--n2=2"],
]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--json"]) == 0, argv
    assert "mpmath" not in sys.modules, argv
    if argv[:2] == ["pn", "--moves=-2,1"]:
        display = json.loads(out.getvalue())["results"]["direct"]["display"]
print(display)
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


def test_no_module_imports_mpmath():
    # every import statement, at any depth: in a function body, under a
    # condition or in a try block
    for path in sorted(Path(pilerace.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            assert not [name for name in names if name.split(".")[0] == "mpmath"], (
                f"{path.name}:{node.lineno} imports mpmath")


def test_no_digit_count_prints_an_integer():
    # len(str(...)) prints the whole integer to count its digits, which is
    # slow and past 4,300 digits an error; numeric.floor_log10 counts them
    def calls(tree, name):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == name]

    for path in sorted(Path(pilerace.__file__).parent.glob("*.py")):
        for node in calls(ast.parse(path.read_text(), str(path)), "len"):
            assert not [arg for arg in node.args if calls(arg, "str")], (
                f"{path.name}:{node.lineno} counts digits with len(str(...))")


def test_commands_without_negative_drift_never_load_mpmath():
    assert _child(_NO_MPMATH_COMMANDS) == "ok\n"


def test_negative_drift_sums_never_load_mpmath():
    assert _child(_NEGATIVE_DRIFT) == "0.29971615217\n"


def test_numpy_is_the_only_run_time_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return [re.match(r"[\w.-]+", req).group() for req in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    assert "mpmath" in names(project["optional-dependencies"]["test"])


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
