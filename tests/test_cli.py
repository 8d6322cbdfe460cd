import json

import pytest
from mpmath import mp, mpf

from pilerace.cli import OutputRecord, main
from pilerace.reference import TARGET_TABLE_PM1


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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

    def test_nonconvergence_exit_code(self, capsys):
        code, out = run_cli(capsys, "pn", "--moves=-1,1", "--n=1",
                            "--max-k=64", "--tol=1e-12")
        assert code == 2
        assert "inconclusive" in out

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["pn", "--n=1"])  # missing --moves
        assert exc.value.code == 1

    def test_bad_value_exit_code(self, capsys):
        code = main(["pn", "--moves=-1,1", "--n=-2"])
        assert code == 1

    @pytest.mark.parametrize("digits", ["0", "-3"])
    def test_digits_below_one_is_a_usage_error(self, capsys, digits):
        code = main(["pn", "--moves=-1,2", "--n=1", f"--digits={digits}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"pilerace: error: --digits must be >= 1, got {digits}\n"


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
        with mp.workdps(40):
            err = abs(mpf(res["value"]) - TARGET_TABLE_PM1[3, 2].approx(30).value)
            assert err <= mpf(res["tail_estimate"]) + mpf(res["eval_error"])


class TestWithin:
    def test_exact_value(self, capsys):
        code, out = run_cli(capsys, "within", "--moves=-1,1", "--n=1", "--k=9")
        assert code == 0
        assert "21877/65536" in out


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

    def test_unwritable_csv_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "rq.csv"
        code = main(["passage", "--moves=-1,1", "--n=1", "--max-k=8", f"--csv={path}"])
        assert code == 1
        assert capsys.readouterr().err.startswith("pilerace: error: ")


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


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out = run_cli(capsys, "verify", "--tol=1e-8")
        assert code == 0
        assert "all_ok: True" in out

    @pytest.mark.xfail(
        strict=True,
        reason="positive-drift tail under-reports: {-1,2} (3,3) errs by 5.09e-8 "
        "against a bound of 4.89e-8 at tol 1e-7",
    )
    def test_residuals_at_tol_1e_7(self, capsys):
        code, out = run_cli(capsys, "verify", "residuals", "--tol=1e-7")
        assert code == 0

    def test_zero_drift_residuals_have_margin(self, capsys):
        code, out = run_cli(capsys, "verify", "residuals", "--json")
        assert code == 0
        checks = [c for c in json.loads(out)["results"]["checks"] if "moves=-1,1 " in c["check"]]
        assert len(checks) == 9
        for c in checks:
            assert float(c["residual"]) <= float(c["bound"]) / 4, c["check"]

    def test_single_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "recurrence")
        assert code == 0
        assert "recurrence" in out


class TestOutputRecord:
    def test_json_round_trip_reproduces_human_rendering(self, capsys):
        code, out = run_cli(capsys, "pn", "--moves=-1,2", "--n=2", "--json")
        assert code == 0
        _, human = run_cli(capsys, "pn", "--moves=-1,2", "--n=2")
        # the human table is rendered from exactly the dict --json prints
        assert human == OutputRecord(**json.loads(out)).render_human() + "\n"

    def test_deterministic_output(self, capsys):
        args = ("pmn", "--moves=-1,1", "--n1=1", "--n2=2", "--tol=1e-7", "--json")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2
