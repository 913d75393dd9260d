"""Experiment-registry tests."""

import pytest

from repro.analysis.experiments import (
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.apps.registry import get_case_study
from repro.errors import ExperimentError
from repro.hwsim.system import RCSystemSim

EXPECTED_IDS = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "table9", "table10", "fig1", "fig2", "fig3", "goalseek-md",
    "alpha-microbenchmark",
]


class TestRegistry:
    def test_every_table_and_figure_covered(self):
        assert list_experiments() == EXPECTED_IDS

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("table99")

    def test_experiments_carry_descriptions(self):
        for experiment_id in list_experiments():
            experiment = get_experiment(experiment_id)
            assert experiment.title
            assert experiment.description


class TestIndividualExperiments:
    def test_table1_schema(self):
        result = run_experiment("table1")
        assert result.all_within
        assert "elements_in" in result.text

    @pytest.mark.parametrize("experiment_id", ["table2", "table5", "table8"])
    def test_input_tables_round_trip(self, experiment_id):
        result = run_experiment(experiment_id)
        assert result.data["round_trip"] is True
        assert "Dataset Parameters" in result.text

    @pytest.mark.parametrize("experiment_id", ["table4", "table7", "table10"])
    def test_resource_tables_fit(self, experiment_id):
        result = run_experiment(experiment_id)
        assert result.data["fits"] is True
        assert result.all_within

    def test_table10_limited_by_dsps(self):
        result = run_experiment("table10")
        assert result.data["limiting"] == "dsp"

    def test_fig1_both_branches(self):
        result = run_experiment("fig1")
        assert result.data["pass_verdict"] == "proceed"
        assert result.data["fail_verdict"] == "insufficient throughput"

    def test_fig2_three_scenarios(self):
        result = run_experiment("fig2")
        assert len(result.data) == 3
        assert "single buffered" in result.text

    def test_fig3_architecture(self):
        result = run_experiment("fig3")
        assert result.data["ideal_ops_per_cycle"] == 24

    def test_goalseek_md(self):
        result = run_experiment("goalseek-md")
        assert result.all_within
        assert 45 < result.data["required"] < 50

    def test_alpha_microbenchmark(self):
        result = run_experiment("alpha-microbenchmark")
        assert result.all_within
        assert result.data["alpha_write"] == pytest.approx(0.37, rel=1e-6)

    def test_render_contains_title(self):
        result = run_experiment("fig3")
        assert "fig3" in result.render()


class TestPerformanceExperimentSimulation:
    def test_table6_simulates_once(self, monkeypatch):
        runs = []
        original = RCSystemSim.run

        def counting_run(self):
            runs.append(self)
            return original(self)

        monkeypatch.setattr(RCSystemSim, "run", counting_run)
        result = run_experiment("table6")
        assert len(runs) == 1
        monkeypatch.undo()
        # Byte-identical to the table built around a fresh simulation.
        fresh = get_case_study("pdf2d").performance_table_with_actual()
        assert result.text == fresh.render()
