"""Smoke tests for the experiment registry (reduced workloads)."""

import pytest

from repro.analysis.experiments import (experiment_analytic,
                                        experiment_baseline_fits,
                                        experiment_faithfulness,
                                        experiment_fig4, experiment_fig5,
                                        experiment_fig6, experiment_fig8,
                                        experiment_table1)
from repro.api import experiment_names
from repro.core.parameters import PAPER_TABLE_I
from repro.units import PS


class TestRegistry:
    def test_all_figures_and_tables_present(self):
        assert {"fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
                "table1", "analytic", "runtime", "library",
                "faithfulness"} <= set(experiment_names())


class TestLibraryExperiment:
    def test_accuracy_audit_under_acceptance(self):
        from repro.analysis.experiments import experiment_library
        from repro.library import CharacterizationJob

        jobs = (CharacterizationJob("nor2_paper", PAPER_TABLE_I),
                CharacterizationJob("nand2_paper", PAPER_TABLE_I,
                                    gate="nand2"))
        result = experiment_library(jobs=jobs)
        assert len(result.library) == 2
        assert all(a.max_error <= 0.1 * PS for a in result.accuracies)
        assert "Library characterization" in result.text
        assert result.cells_per_second > 0.0


class TestFig4:
    def test_trajectories(self):
        result = experiment_fig4(points=6)
        assert result.times.shape == (6,)
        assert len(result.trajectories) == 8  # VN and VO of 4 systems
        assert "Fig. 4" in result.text

    def test_initial_values_follow_paper(self):
        result = experiment_fig4(points=4)
        vdd = PAPER_TABLE_I.vdd
        assert result.trajectories["VN(0, 0)"][0] == pytest.approx(0.0)
        assert result.trajectories["VO(0, 1)"][0] == pytest.approx(vdd)
        assert result.trajectories["VN(1, 1)"][0] == pytest.approx(
            vdd / 2)

    def test_system_11_output_steepest(self):
        """Fig. 4's observation: (1,1) discharges much faster."""
        result = experiment_fig4(points=10, t_stop=60 * PS)
        vo_11 = result.trajectories["VO(1, 1)"]
        vo_01 = result.trajectories["VO(0, 1)"]
        assert vo_11[3] < vo_01[3]


class TestCurveExperiments:
    def test_fig5_model_only(self):
        result = experiment_fig5(deltas=[d * PS for d in (-30, 0, 30)])
        assert len(result.curves) == 1
        assert "Fig. 5" in result.text

    def test_fig5_with_characterization(self, characterization_cache):
        result = experiment_fig5(
            characterization=characterization_cache,
            deltas=[d * PS for d in (-30, 0, 30)])
        assert len(result.curves) == 2

    def test_fig6_three_vn_curves(self):
        result = experiment_fig6(deltas=[d * PS for d in (-40, 0, 40)])
        assert len(result.curves) == 3
        # X = GND curve is the slowest for Δ <= 0.
        ground, half, vdd = result.curves
        assert ground.delays[0] >= vdd.delays[0]

    def test_fig8_with_and_without(self):
        result = experiment_fig8(deltas=[d * PS for d in (-30, 0, 30)])
        with_dmin, without = result.curves
        # The pure delay shifts the whole curve up by 18 ps.
        for d1, d2 in zip(with_dmin.delays, without.delays):
            assert d1 - d2 == pytest.approx(18 * PS, rel=1e-9)


class TestTable1:
    def test_text_mentions_18ps(self):
        result = experiment_table1()
        assert "18.00 ps" in result.text
        assert result.fit.max_error < 0.25 * PS


class TestAnalytic:
    def test_all_rows_accurate(self):
        result = experiment_analytic()
        for _name, approx, exact in result.rows:
            assert approx == pytest.approx(exact, abs=0.05 * PS)


class TestAblations:
    def test_baseline_fits(self, characterization_cache):
        result = experiment_baseline_fits(characterization_cache)
        names = [tag for tag, _err in result.rows]
        assert any("hybrid" in name for name in names)
        assert any("finite-point" in name for name in names)
        errors = {tag: err for tag, err in result.rows}
        assert all(err >= 0.0 for err in errors.values())

    def test_faithfulness_experiment(self):
        result = experiment_faithfulness(
            widths=[w * PS for w in (100, 40, 25, 10)])
        assert len(result.rows) == 4
        widths = [w for _tag, w in result.rows]
        assert widths == sorted(widths, reverse=True)
