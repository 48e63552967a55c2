"""Smoke tests for the registered experiments (tiny parameters).

Each experiment is exercised with minimal sizes so the full EXPERIMENTS.md
pipeline stays runnable; the benchmarks run the same code at the reported
scales.
"""


from repro.analysis.statistics import format_table
from repro.experiments import get_experiment


def run_experiment(name, **params):
    """Rows of one registered experiment at the given parameters."""
    return get_experiment(name).run(params=params)


class TestFeasibilityE1:
    def test_rows_report_correctness_for_every_cell(self):
        rows = run_experiment("E1", ns=(12,), trials=1, max_windows=2000,
                              seed=5)
        assert rows
        assert all(row["agreement_ok"] for row in rows)
        assert all(row["validity_ok"] for row in rows)
        assert all(row["terminated"] for row in rows)
        workloads = {row["workload"] for row in rows}
        adversaries = {row["adversary"] for row in rows}
        assert "split" in workloads and "unanimous-0" in workloads
        assert "adaptive-resetting" in adversaries

    def test_rows_render_as_a_table(self):
        rows = run_experiment("E1", ns=(12,), trials=1, max_windows=2000,
                              seed=5)
        text = format_table(rows)
        assert "adversary" in text


class TestExponentialRoundsE2:
    def test_split_inputs_much_slower_than_unanimous(self):
        rows = run_experiment("E2", ns=(12, 18), trials=2, seed=5)
        data_rows = [row for row in rows if row["experiment"] == "E2"]
        assert len(data_rows) == 2
        for row in data_rows:
            assert row["mean_windows"] > row["unanimous_mean_windows"]
        # Growth between the two sizes.
        assert data_rows[1]["mean_windows"] > data_rows[0]["mean_windows"]

    def test_fit_row_present_with_positive_growth(self):
        rows = run_experiment("E2", ns=(12, 18), trials=2, seed=5)
        fit_rows = [row for row in rows if row["experiment"] == "E2-fit"]
        assert len(fit_rows) == 1
        assert fit_rows[0]["fit_growth_rate_per_processor"] > 0


class TestLowerBoundE3:
    def test_machinery_checks_pass(self):
        rows = run_experiment("E3", ns=(8,), samples=3,
                              separation_trials=4, seed=5)
        assert len(rows) == 1
        row = rows[0]
        assert row["separation_holds"]
        assert 0 < row["tau"] < 1
        assert 0 <= row["hybrid_best_worst_probability"] <= 1


class TestCrashForgetfulE4:
    def test_chain_lengths_grow_with_n(self):
        rows = run_experiment("E4", ns=(9, 13), trials=2, seed=5)
        data_rows = [row for row in rows if row["experiment"] == "E4"]
        assert len(data_rows) == 2
        assert all(row["forgetful"] and row["fully_communicative"]
                   for row in data_rows)
        assert data_rows[1]["mean_message_chain"] >= \
            data_rows[0]["mean_message_chain"]


class TestCommitteeE5:
    def test_adaptive_adversary_defeats_committee_election(self):
        rows = run_experiment("E5", ns=(32,), trials=15, seed=5)
        assert len(rows) == 1
        row = rows[0]
        assert row["adaptive_failure_rate"] >= 0.9
        assert row["nonadaptive_failure_rate"] < row["adaptive_failure_rate"]
        assert row["committee_rounds"] < row["adaptive_safe_expected_windows"]


class TestBaselinesE6:
    def test_all_baseline_cells_are_correct(self):
        rows = run_experiment("E6", ben_or_ns=(9,), bracha_ns=(7,),
                              trials=1, seed=5)
        assert rows
        assert all(row["agreement_ok"] for row in rows)
        assert all(row["validity_ok"] for row in rows)
        assert all(row["terminated"] for row in rows)
        assert {row["protocol"] for row in rows} == {"ben-or", "bracha"}


class TestThresholdAblationE7:
    def test_valid_configs_safe_and_some_invalid_config_misbehaves(self):
        rows = run_experiment("E7", n=18, trials=2, max_windows=1200, seed=5)
        valid_rows = [row for row in rows if row["constraints_ok"]]
        invalid_rows = [row for row in rows if not row["constraints_ok"]]
        assert valid_rows and invalid_rows
        # Theorem 4: valid thresholds never violate agreement or validity.
        assert all(row["agreement_ok"] and row["validity_ok"]
                   for row in valid_rows)
        # At least one constraint violation shows up as an agreement break
        # or as non-termination within the window budget.
        assert any((not row["agreement_ok"]) or row["decided_runs"] == 0
                   for row in invalid_rows)


class TestConstantsE8:
    def test_constants_and_talagrand_rows(self):
        rows = run_experiment("E8", cs=(0.1,), ns=(50, 100), seed=5)
        curve_rows = [row for row in rows if row["experiment"] == "E8"]
        talagrand_rows = [row for row in rows
                          if row["experiment"] == "E8-talagrand"]
        assert len(curve_rows) == 2
        assert all(row["success_probability"] >= 0.5 for row in curve_rows)
        assert curve_rows[1]["predicted_windows"] > \
            curve_rows[0]["predicted_windows"]
        assert talagrand_rows
        assert all(row["inequality_holds"] for row in talagrand_rows)
