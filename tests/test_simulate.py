import math

import pytest

from pilerace.passage import MoveSet
from pilerace.simulate import SimConfig, SimReport, run_simulation


def counts(report: SimReport):
    return (report.p1_wins, report.p2_wins, report.censored, report.duration_sum,
            report.duration_sumsq)


class TestDeterminism:
    def test_same_config_same_report(self):
        cfg = SimConfig(MoveSet(-1, 1), 1, 1, trials=30_000, seed=42)
        assert counts(run_simulation(cfg)) == counts(run_simulation(cfg))

    def test_batch_partition_irrelevant(self):
        cfg = SimConfig(MoveSet(-1, 2), 1, 2, trials=25_000, seed=7)
        whole = counts(run_simulation(cfg, batch_size=25_000))
        assert whole == counts(run_simulation(cfg, batch_size=999))
        assert whole == counts(run_simulation(cfg, batch_size=4_096))

    def test_seed_changes_outcome(self):
        cfg1 = SimConfig(MoveSet(-1, 1), 1, 1, trials=20_000, seed=1)
        cfg2 = SimConfig(MoveSet(-1, 1), 1, 1, trials=20_000, seed=2)
        assert counts(run_simulation(cfg1)) != counts(run_simulation(cfg2))


class TestAccounting:
    def test_counts_add_up(self):
        cfg = SimConfig(MoveSet(-1, 1), 2, 2, trials=50_000, seed=3)
        rep = run_simulation(cfg)
        assert rep.p1_wins + rep.p2_wins + rep.censored == cfg.trials
        assert math.isclose(rep.p1_win_rate + rep.p2_win_rate + rep.censored_rate, 1.0)

    def test_standard_error_formula(self):
        cfg = SimConfig(MoveSet(-1, 1), 1, 1, trials=10_000, seed=9)
        rep = run_simulation(cfg)
        p = rep.p2_win_rate
        assert math.isclose(
            rep.standard_errors()["p2_win_rate"], math.sqrt(p * (1 - p) / cfg.trials)
        )

    def test_report_validation(self):
        cfg = SimConfig(MoveSet(-1, 1), 1, 1, trials=10, seed=0)
        with pytest.raises(ValueError):
            SimReport(cfg, p1_wins=5, p2_wins=4, censored=2, duration_sum=0, duration_sumsq=0)


class TestGameSemantics:
    def test_deterministic_race_first_mover_wins(self):
        rep = run_simulation(SimConfig(MoveSet(1, 1), 3, 3, trials=2_000, seed=11))
        assert rep.p1_win_rate == 1.0
        assert rep.p2_win_rate == 0.0
        assert rep.mean_duration_uncensored == 3.0

    def test_second_player_easier_target_still_loses_ties(self):
        # identical targets, deterministic moves: A always reaches first
        rep = run_simulation(SimConfig(MoveSet(2, 2), 4, 4, trials=500, seed=13))
        assert rep.p1_win_rate == 1.0

    def test_agreement_with_exact_value(self):
        # 5-sigma guard band keeps this stable across any seed choice
        from pilerace.series import win_prob_direct
        from pilerace.passage import GameSpec

        exact = float(win_prob_direct(GameSpec(MoveSet(-1, 1), 1)).value)
        rep = run_simulation(SimConfig(MoveSet(-1, 1), 1, 1, trials=1_000_000, seed=2024))
        se = rep.standard_errors()["p2_win_rate"]
        assert abs(rep.p2_win_rate - exact) < 5 * se

    def test_asymmetric_agreement(self):
        from pilerace.series import win_prob_targets

        exact = float(win_prob_targets(1, 2, MoveSet(-1, 2)).value)
        rep = run_simulation(SimConfig(MoveSet(-1, 2), 1, 2, trials=1_000_000, seed=31))
        se = rep.standard_errors()["p2_win_rate"]
        assert abs(rep.p2_win_rate - exact) < 5 * se


class TestCensoring:
    def test_short_horizon_censors(self):
        cfg = SimConfig(MoveSet(-1, 1), 4, 4, trials=5_000, seed=17, max_moves_per_game=8)
        rep = run_simulation(cfg)
        assert rep.censored > 0
        assert rep.config.horizon == 8

    def test_default_horizon_by_drift(self):
        assert SimConfig(MoveSet(-1, 1), 1, 1, trials=1, seed=0).horizon == 1_000_000
        assert SimConfig(MoveSet(-1, 2), 1, 1, trials=1, seed=0).horizon == 10_000

    def test_doubling_horizon_moves_rate_less_than_censored_mass(self):
        base = SimConfig(MoveSet(-1, 1), 1, 1, trials=200_000, seed=23,
                         max_moves_per_game=64)
        doubled = SimConfig(MoveSet(-1, 1), 1, 1, trials=200_000, seed=23,
                            max_moves_per_game=128)
        r1 = run_simulation(base)
        r2 = run_simulation(doubled)
        assert abs(r2.p2_win_rate - r1.p2_win_rate) < 2 * r1.censored_rate

    def test_all_censored_has_no_duration(self):
        cfg = SimConfig(MoveSet(-1, 1), 50, 50, trials=100, seed=29, max_moves_per_game=3)
        rep = run_simulation(cfg)
        assert rep.censored == 100
        assert rep.mean_duration_uncensored is None


class TestValidation:
    def test_bad_targets(self):
        with pytest.raises(ValueError):
            SimConfig(MoveSet(-1, 1), 0, 1, trials=1, seed=0)

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            SimConfig(MoveSet(-1, 1), 1, 1, trials=0, seed=0)

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            SimConfig(MoveSet(-1, 1), 1, 1, trials=1, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(MoveSet(-1, 1), 1, 1, trials=1, seed=2**64)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("moves", (-1, 2)),
            ("n1", 1.5),
            ("n2", True),
            ("trials", 10.5),
            ("seed", 0.0),
            ("max_moves_per_game", 10.0),
        ],
    )
    def test_field_types(self, field, value):
        fields = dict(moves=MoveSet(-1, 2), n1=1, n2=1, trials=10, seed=0,
                      max_moves_per_game=None)
        fields[field] = value
        with pytest.raises(TypeError):
            SimConfig(**fields)

    def test_json_fields(self):
        rep = run_simulation(SimConfig(MoveSet(-1, 1), 1, 1, trials=1_000, seed=1))
        d = rep.to_json_dict()
        assert d["trials"] == 1_000
        assert d["p1_wins"] + d["p2_wins"] + d["censored"] == 1_000
        assert "standard_errors" in d
