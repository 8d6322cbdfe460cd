import csv
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest
from mpmath import mp, mpf
from test_cli_golden import COMMANDS

import pilerace
from pilerace.cli import main, render_human
from pilerace.passage import MoveSet
from pilerace.reference import TARGET_TABLE_PM1
from pilerace.series import TailPolicy, win_prob_targets


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_flag_refused(capsys, argv, message):
    """argparse refuses ``argv`` with exit code 1, printing ``message`` last."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == message


class TestPn:
    def test_unit_step(self, capsys):
        code, out = run_cli(capsys, "pn", "--moves=-1,1", "--n=1", "--tol=1e-8")
        assert code == 0
        assert "0.3633802" in out
        # at equal K the squared-passage sum repeats direct's value
        assert "direct" in out
        assert "squares" not in out and "agreement_delta" not in out

    def test_deterministic_race(self, capsys):
        code, out = run_cli(capsys, "pn", "--moves=1,1", "--n=5")
        assert code == 0
        assert "display: 0" in out

    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "pn", "--moves=-1,2", "--n=1", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "pn"
        assert record["results"]["direct"]["verdict"] == "converged"
        assert record["results"]["direct"]["display"].startswith("0.33891390")

    def test_tight_tolerance_shows_the_digits_it_backs(self, capsys):
        # one rounding at the tolerance's precision: eval_error no longer
        # grows with the 1,070 terms, and the display follows --digits
        code, out = run_cli(capsys, "pn", "--moves=-1,2", "--n=1", "--tol=1e-60",
                            "--digits=60", "--json")
        assert code == 0
        res = json.loads(out)["results"]["direct"]
        assert res["verdict"] == "converged"
        with mp.workdps(80):
            assert mpf(res["tail_estimate"]) + mpf(res["eval_error"]) <= mpf("1e-60")
        shown = res["display"].removeprefix("0.")
        assert len(shown) >= 55
        # the paper's generating-function route gives 0.33891390869471156724405181216...
        assert shown.startswith("3389139086947115672440518121")

    @pytest.mark.parametrize(
        "command, targets",
        [("pn", ("--n=1",)), ("pmn", ("--n1=1", "--n2=2")), ("duration", ("--n=3",))],
        ids=["pn", "pmn", "duration"],
    )
    def test_nonconvergence_exit_code(self, capsys, command, targets):
        # every series command stops at the cap and says so
        code, out = run_cli(capsys, command, "--moves=-1,2", *targets,
                            "--max-k=16", "--tol=1e-12")
        assert code == 2
        assert "inconclusive" in out

    def test_large_zero_drift_target_is_exact(self, capsys):
        code, out = run_cli(capsys, "pn", "--moves=-1,1", "--n=100", "--json")
        assert code == 0
        res = json.loads(out)["results"]["direct"]
        assert (res["verdict"], res["method"], res["truncation_k"]) == ("converged", "exact", 0)
        assert res["display"] == "0.49998408291338454"

    def test_huge_negative_span_needs_no_huge_integer(self):
        # {-10**12, 1} leaves at most one cell above Lundberg's sink, so the
        # Horner factor e**(theta (b - a)), about 10**12 bits, is never built
        src = str(Path(pilerace.__file__).resolve().parents[1])
        limit = 1536 * 2**20

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "pilerace.cli", "pn", "--moves=-1000000000000,1", "--n=1",
             "--json"],
            capture_output=True, timeout=10, env={**os.environ, "PYTHONPATH": src},
            preexec_fn=cap_memory,
        )
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout)["results"]["direct"]
        assert (res["value"], res["verdict"]) == ("0.25", "converged")

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["pn", "--n=1"])  # missing --moves
        assert exc.value.code == 1

    def test_bad_value_exit_code(self, capsys):
        assert_flag_refused(capsys, ["pn", "--moves=-1,1", "--n=-2"],
                            "pilerace pn: error: argument --n: must be at least 0, got -2")

    @pytest.mark.parametrize("moves", ["1,2,3", "1.5,2"])
    def test_bad_moves_are_refused_with_the_reason(self, capsys, moves):
        assert_flag_refused(
            capsys, ["pn", f"--moves={moves}", "--n=1"],
            "pilerace pn: error: argument --moves: expected two comma-separated integers, "
            f"got '{moves}'")

    @pytest.mark.parametrize("digits", ["0", "-3"])
    def test_digits_below_one_is_a_usage_error(self, capsys, digits):
        assert_flag_refused(
            capsys, ["pn", "--moves=-1,2", "--n=1", f"--digits={digits}"],
            f"pilerace pn: error: argument --digits: must be at least 1, got {digits}")

    @staticmethod
    def _assert_tolerance_refused(capsys, tol: str) -> None:
        assert_flag_refused(
            capsys, ["pn", "--moves=-1,2", "--n=1", f"--tol={tol}"],
            "pilerace pn: error: argument --tol: must be positive and finite as a double, "
            f"got '{tol}', which reads as {float(tol)!r}")

    @pytest.mark.parametrize("tol", ["inf", "1e400", "nan"])
    def test_tolerance_that_is_not_finite_is_a_usage_error(self, capsys, tol):
        # an infinite tolerance would stop the sum at k = 1 and call it converged
        self._assert_tolerance_refused(capsys, tol)

    @pytest.mark.parametrize("tol", ["1e-400", "0", "-1"])
    def test_tolerance_that_is_not_positive_is_a_usage_error(self, capsys, tol):
        # 1e-400 underflows to 0.0: the message names the text as typed
        self._assert_tolerance_refused(capsys, tol)

    def test_max_k_below_16_is_refused_under_its_name(self, capsys):
        assert_flag_refused(capsys, ["pn", "--moves=-1,2", "--n=1", "--max-k=15"],
                            "pilerace pn: error: argument --max-k: must be at least 16, got 15")


class TestPmn:
    def test_table_cell(self, capsys):
        code, out = run_cli(capsys, "pmn", "--moves=-1,1", "--n1=3", "--n2=2", "--tol=1e-8")
        assert code == 0
        assert "0.63380" in out

    def test_zero_drift_cell_at_tol_1e_12(self, capsys):
        code, out = run_cli(capsys, "pmn", "--moves=-1,1", "--n1=3", "--n2=2",
                            "--tol=1e-12", "--json")
        assert code == 0
        res = json.loads(out)["results"]["p"]
        assert res["verdict"] == "converged"
        with mp.workdps(60):
            err = abs(mpf(res["value"]) - TARGET_TABLE_PM1[3, 2].approx(50).value)
            assert err <= mpf(res["tail_estimate"]) + mpf(res["eval_error"])

    def test_printed_value_is_within_the_bound(self, capsys):
        # a bound near 1e-31 needs more than 24 printed digits
        code, out = run_cli(capsys, "pmn", "--moves=-2,3", "--n1=2", "--n2=3",
                            "--tol=1e-30", "--json")
        assert code == 0
        res = win_prob_targets(2, 3, MoveSet(-2, 3), TailPolicy(tolerance=1e-30))
        with mp.workdps(60):
            err = abs(mpf(json.loads(out)["results"]["p"]["value"]) - res.value)
            assert err <= res.error_bound()

    @pytest.mark.parametrize("argv", [("pn", "--n=1"), ("pmn", "--n1=1", "--n2=2")],
                             ids=["pn", "pmn"])
    def test_unreachable_targets_leave_no_winner(self, capsys, argv):
        # moves {-2,-1} never arrive, so the race is never decided
        code, out = run_cli(capsys, argv[0], "--moves=-2,-1", *argv[1:], "--json")
        assert code == 0
        (res,) = json.loads(out)["results"].values()
        assert (res["value"], res["no_winner"], res["verdict"]) == ("0.0", "1.0", "converged")


class TestWithin:
    def test_exact_value(self, capsys):
        code, out = run_cli(capsys, "within", "--moves=-1,1", "--n=1", "--k=9")
        assert code == 0
        assert "21877/65536" in out

    @pytest.mark.parametrize("moves, n", [("-2,-1", 3), ("2,3", 4)])
    def test_zero_is_written_over_one(self, capsys, moves, n):
        # {-2,-1} never reaches n; on {2,3} both walks arrive together
        code, out = run_cli(capsys, "within", f"--moves={moves}", f"--n={n}", "--k=8")
        assert code == 0
        assert "exact: 0/1\ndecimal: 0\n" in out


class TestFlagBounds:
    """Each numeric flag refuses an out-of-range or unreadable value under
    its own name, before the library sees it."""

    REFUSED = {
        "within --moves=-1,2 --n=1 --k=-1": "--k: must be at least 1, got -1",
        "within --moves=-1,2 --n=0 --k=3": "--n: must be at least 1, got 0",
        "passage --moves=-1,2 --n=1 --max-k=0": "--max-k: must be at least 1, got 0",
        "passage --moves=-1,2 --n=0": "--n: must be at least 1, got 0",
        "duration --moves=-1,2 --n=-1": "--n: must be at least 0, got -1",
        "pn --moves=-1,2 --n=1 --tol=abc": "--tol: not a number: 'abc'",
        "pmn --moves=-1,2 --n1=0 --n2=1": "--n1: must be at least 1, got 0",
        "pmn --moves=-1,2 --n1=1 --n2=0": "--n2: must be at least 1, got 0",
        "simulate --moves=-1,2 --n1=0 --n2=1": "--n1: must be at least 1, got 0",
        "simulate --moves=-1,2 --n1=1 --n2=0": "--n2: must be at least 1, got 0",
        "simulate --moves=-1,2 --n1=1 --n2=1 --seed=-1": "--seed: must be at least 0, got -1",
        f"simulate --moves=-1,2 --n1=1 --n2=1 --seed={2**64}":
            f"--seed: must be below {2**64}, got {2**64}",
    }

    @pytest.mark.parametrize("argv", list(REFUSED))
    def test_refused_under_its_name(self, capsys, argv):
        command = argv.split()[0]
        assert_flag_refused(capsys, argv.split(),
                            f"pilerace {command}: error: argument {self.REFUSED[argv]}")

    @pytest.mark.parametrize("command", ["pn", "duration"])
    def test_zero_target_still_answers(self, capsys, command):
        code, out = run_cli(capsys, command, "--moves=-1,2", "--n=0", "--json")
        assert code == 0
        assert json.loads(out)["inputs"]["n"] == 0


class TestDuration:
    def test_diverged_is_a_valid_answer(self, capsys):
        code, out = run_cli(capsys, "duration", "--moves=-1,1", "--n=1")
        assert code == 0
        assert "diverged" in out

    def test_diverged_at_a_small_cap(self, capsys):
        # decided by the drift, so the cap cannot make it inconclusive
        code, out = run_cli(capsys, "duration", "--moves=-1,1", "--n=1", "--max-k=64")
        assert code == 0
        assert "diverged" in out

    def test_converged(self, capsys):
        code, out = run_cli(capsys, "duration", "--moves=-1,2", "--n=1")
        assert code == 0
        assert "1.4788859" in out


class TestTable:
    def test_t_values(self, capsys):
        code, out = run_cli(capsys, "table", "t_values", "--tol=1e-7")
        assert code == 0
        assert "-1 + 4/pi" in out
        assert "(172144/15)/pi" in out

    def test_case_minus12(self, capsys):
        code, out = run_cli(capsys, "table", "case_minus1_2", "--tol=1e-7")
        assert code == 0
        assert "0.33891390869471156" in out  # reference column

    def test_tight_tolerance_p_keeps_the_sum_digits(self, capsys):
        # p = (1 - sum r**2) / 2 is formed exactly, so at 1e-60 its 58
        # shown digits are those of the direct sum q * r
        code, out = run_cli(capsys, "table", "case_minus1_2", "--tol=1e-60", "--digits=60",
                            "--json")
        assert code == 0
        p = json.loads(out)["results"]["rows"][0]["p"]
        code, out = run_cli(capsys, "pn", "--moves=-1,2", "--n=1", "--tol=1e-60", "--digits=60",
                            "--json")
        direct = json.loads(out)["results"]["direct"]["display"]
        assert len(p) >= 57 and p[:-1] == direct[:len(p) - 1]

    def test_unbacked_zero_prints_no_digit(self, capsys):
        # r(100, k) = 0 for k <= 16: the n = 100 sum is 0 with an unknown tail
        code, out = run_cli(capsys, "table", "case_minus1_2", "--max-k=16", "--json")
        assert code == 2
        row = json.loads(out)["results"]["rows"][-1]
        assert (row["n"], row["sum_squares"], row["p"]) == (100, "?", "?")

    def test_csv_export(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, _ = run_cli(capsys, "table", "t_values", "--tol=1e-6", f"--csv={path}")
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("n,exact_form")

    def test_unwritable_csv_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "t.csv"
        code = main(["table", "t_values", "--tol=1e-6", f"--csv={path}"])
        assert code == 1
        assert capsys.readouterr().err.startswith("pilerace: error: ")


class TestPassage:
    def test_human_output(self, capsys):
        code, out = run_cli(capsys, "passage", "--moves=-1,2", "--n=1", "--max-k=6")
        assert code == 0
        assert "1/2" in out and "1/16" in out
        assert "reachability" in out

    def test_csv(self, capsys, tmp_path):
        path = tmp_path / "rq.csv"
        code, _ = run_cli(capsys, "passage", "--moves=-1,1", "--n=1", "--max-k=8",
                          f"--csv={path}")
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,r,q,r_decimal,q_decimal"
        assert len(lines) == 10
        assert lines[1] == "0,,1/1,,1"
        assert lines[2] == "1,1/2,1/2,0.5,0.5"

    def test_unwritable_csv_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "rq.csv"
        code = main(["passage", "--moves=-1,1", "--n=1", "--max-k=8", f"--csv={path}"])
        assert code == 1
        assert capsys.readouterr().err.startswith("pilerace: error: ")

    def test_huge_max_k_builds_only_the_rows_shown(self):
        # without --csv only k <= 20 is printed, so only k <= 20 is built
        src = str(Path(pilerace.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "pilerace.cli", "passage", "--moves=-1,2", "--n=3",
             "--max-k=100000000", "--json"],
            capture_output=True, timeout=2, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        results = json.loads(proc.stdout)["results"]
        assert len(results["rows"]) == 21
        assert results["note"] == "showing k <= 20 of 100000000; use --csv for the full table"


@pytest.mark.parametrize("argv", [("pn", "--moves=-1,2", "--n=1"), ("pn", "--moves=-2,-1", "--n=3"),
                                  ("table", "case_minus1_2")], ids=["pn", "pn-negative", "table"])
def test_huge_digits_cost_nothing_past_the_backed_digits(argv):
    # --digits only caps the display: no step raises 10 to it
    src = str(Path(pilerace.__file__).resolve().parents[1])

    def run(digits):
        proc = subprocess.run(
            [sys.executable, "-m", "pilerace.cli", *argv, f"--digits={digits}"],
            capture_output=True, timeout=10, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert run(1_000_000_000) == run(17)


@pytest.mark.parametrize(
    "argv, shown, written",
    [(("passage", "--moves=-3,4", "--n=2", "--max-k=60"), 21, 61), (("table", "t_values"), 6, 6)],
    ids=["passage", "table"],
)
def test_csv_rows_equal_json_rows(capsys, tmp_path, argv, shown, written):
    path = tmp_path / "rows.csv"
    code, out = run_cli(capsys, *argv, f"--csv={path}", "--json")
    assert code == 0
    json_rows = json.loads(out)["results"]["rows"]
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        csv_rows = list(reader)
    assert reader.fieldnames == list(json_rows[0])
    assert (len(json_rows), len(csv_rows)) == (shown, written)
    assert csv_rows[:shown] == [{k: str(v) for k, v in row.items()} for row in json_rows]


class TestSimulate:
    def test_runs_and_reports(self, capsys):
        code, out = run_cli(capsys, "simulate", "--moves=-1,1", "--n1=1", "--n2=1",
                            "--trials=20000", "--seed=5")
        assert code == 0
        assert "p2_win_rate" in out

    def test_byte_identical_across_runs(self, capsys):
        args = ("simulate", "--moves=-1,2", "--n1=1", "--n2=2",
                "--trials=30000", "--seed=12", "--json")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_trials_below_one_is_refused_under_its_name(self, capsys):
        assert_flag_refused(
            capsys, ["simulate", "--moves=-1,2", "--n1=1", "--n2=1", "--trials=0"],
            "pilerace simulate: error: argument --trials: must be at least 1, got 0")

    def test_horizon_below_one_is_refused_under_its_name(self, capsys):
        assert_flag_refused(
            capsys, ["simulate", "--moves=-1,2", "--n1=1", "--n2=1", "--horizon=-3"],
            "pilerace simulate: error: argument --horizon: must be at least 1, got -3")

    def test_piles_beyond_64_bits_are_a_usage_error(self, capsys):
        code = main(["simulate", "--moves=-4611686018427387904,4611686018427387904",
                     "--n1=1", "--n2=1", "--trials=10"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("pilerace: error:")
        assert len(err.splitlines()) == 1


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        assert "all_ok: True" in out

    def test_zero_drift_residuals_have_margin(self, capsys):
        code, out = run_cli(capsys, "verify", "residuals", "--json")
        assert code == 0
        checks = [c for c in json.loads(out)["results"]["checks"] if "moves=-1,1 " in c["check"]]
        assert len(checks) == 9
        for c in checks:
            assert float(c["residual"]) <= float(c["bound"]) / 4, c["check"]

    @pytest.mark.parametrize("argv", [("--digits=5",), ("--tol=1e-8",),
                                      ("residuals", "--max-k=100")], ids=" ".join)
    def test_digits_is_a_usage_error(self, capsys, argv):
        # verify prints no value and runs every suite at the engine's
        # defaults, so it takes none of the series flags
        assert_flag_refused(capsys, ["verify", *argv],
                            f"pilerace: error: unrecognized arguments: {argv[-1]}")

    def test_single_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "recurrence")
        assert code == 0
        assert "recurrence" in out

    def test_suites_fail_on_a_wrong_engine(self, capsys, monkeypatch):
        def patch_everywhere(name, fake):
            real = getattr(pilerace.series, name)
            for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "pilerace"]:
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, fake)

        def late_cut(spec, horizon=None):
            # the lattice DP with its cut one cell too high from move 40 on;
            # it runs past the horizon, which only saves work
            a, b, n = spec.moves.a, spec.moves.b, spec.n
            cells, survived = [1], 1
            for k in count(1):
                cells = [x + y for x, y in zip(cells + [0], [0] + cells)]
                cut = max(-(-(n - a * k) // (b - a)), 0) + (k >= 40)
                win = sum(cells[cut:])
                del cells[cut:]
                survived = 2 * survived - win
                yield k, win, survived, cells
                if survived == 0:
                    return

        exact_sum = pilerace.series.unit_step_sum

        def skewed(n2, n1=None):
            # the exact zero-drift sums with T(4) off by 1e-30
            form = exact_sum(n2, n1)
            return form + Fraction(1, 10**30) if (n2, n1) == (4, None) else form

        with monkeypatch.context():
            patch_everywhere("iter_passage", late_cut)
            assert run_cli(capsys, "verify", "identities")[0] == 2
        with monkeypatch.context():
            patch_everywhere("unit_step_sum", skewed)
            assert run_cli(capsys, "verify", "recurrence")[0] == 2


class TestOutputRecord:
    SIMULATE = ("simulate", "--moves=-1,2", "--n1=1", "--n2=2", "--trials=2000")

    @pytest.mark.parametrize("argv", [*COMMANDS, SIMULATE], ids=" ".join)
    def test_json_round_trip_reproduces_human_rendering(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--json")
        human_code, human = run_cli(capsys, *argv)
        # the human table is rendered from exactly the dict --json prints
        assert human == render_human(json.loads(out)) + "\n"
        assert human_code == code

    def test_deterministic_output(self, capsys):
        args = ("pmn", "--moves=-1,1", "--n1=1", "--n2=2", "--tol=1e-7", "--json")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2


def test_closed_stdout_exits_quietly():
    # the reader of a pipe leaves before any output, as `| head` may
    src = str(Path(pilerace.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "pilerace.cli", "passage", "--moves=-1,2", "--n=1",
         "--max-k=20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
