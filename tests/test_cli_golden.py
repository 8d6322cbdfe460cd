"""The CLI's ``--json`` output, byte for byte, against frozen records.

``tests/data/cli_golden.json`` holds stdout and the exit code of
``main([..., "--json"])`` for each command below.  The commands cover
every series path: positive, negative and zero drift, equal and distinct
targets, tight tolerances, the exact ``within`` and ``passage`` tables,
the reference tables and the verification suites.  A change that must
not move any printed number has to leave every record as it is.

``PYTHONPATH=src python tests/test_cli_golden.py`` prints the key of each
record whose output differs, followed by a unified diff of its stdout and
exit code, and exits 1 if any does; it writes nothing.
After an intended change of output, rewrite the records with
``PYTHONPATH=src python tests/test_cli_golden.py --rewrite``.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import sys
from pathlib import Path

import pytest

from pilerace.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

COMMANDS = [
    ("pn", "--moves=-1,2", "--n=1"),
    ("pn", "--moves=-1,2", "--n=10"),
    ("pn", "--moves=-2,1", "--n=1"),
    ("pn", "--moves=-3,2", "--n=1"),
    ("pn", "--moves=-1,1", "--n=2"),
    ("pn", "--moves=1,2", "--n=5"),
    ("pmn", "--moves=-3,4", "--n1=2", "--n2=3", "--tol=1e-15"),
    ("pmn", "--moves=-2,3", "--n1=2", "--n2=3", "--tol=1e-20"),
    ("pmn", "--moves=-1,1", "--n1=3", "--n2=2"),
    ("duration", "--moves=-1,2", "--n=3"),
    ("duration", "--moves=-2,3", "--n=2", "--tol=1e-12"),
    ("duration", "--moves=-1,1", "--n=2"),
    ("within", "--moves=-1,2", "--n=1", "--k=60"),
    ("within", "--moves=-1,1", "--n=2", "--k=200"),
    ("within", "--moves=-3,4", "--n=2", "--k=100"),
    ("passage", "--moves=-1,2", "--n=1", "--max-k=20"),
    ("passage", "--moves=-3,4", "--n=2", "--max-k=60"),
    ("table", "case_minus1_2"),
    ("table", "case_minus1_2", "--tol=1e-12"),
    ("table", "t_values"),
    ("table", "table1"),
    ("verify", "identities"),
    ("verify", "oracles"),
    ("verify", "recurrence"),
    ("verify", "residuals"),
]


def run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--json"])
    return {"stdout": out.getvalue(), "exit_code": code}


def _key(argv) -> str:
    return " ".join(argv)


def _lines(record: dict | None) -> list[str]:
    """A record as lines to diff: its stdout, then its exit code."""
    if record is None:
        return []
    return [*record["stdout"].splitlines(keepends=True), f"exit code: {record['exit_code']}\n"]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_records_match_the_command_list(golden):
    assert list(golden) == [_key(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_output_is_unchanged(golden, argv):
    assert run(argv) == golden[_key(argv)]


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--rewrite"]):
        sys.exit(f"usage: {sys.argv[0]} [--rewrite]")
    records = {_key(argv): run(argv) for argv in COMMANDS}
    if sys.argv[1:]:
        GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
        sys.exit(0)
    frozen = json.loads(GOLDEN.read_text())
    changed = [key for key in {**records, **frozen} if records.get(key) != frozen.get(key)]
    for key in changed:
        print(key)
        sys.stdout.writelines(
            difflib.unified_diff(_lines(frozen.get(key)), _lines(records.get(key)), "golden", "now"))
    sys.exit(1 if changed else 0)
