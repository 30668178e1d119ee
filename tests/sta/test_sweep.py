"""Vectorized corner sweeps: parity with the scalar loop."""

import math

import numpy as np
import pytest

from repro.core.parameters import PAPER_TABLE_I
from repro.errors import ParameterError
from repro.sta import (TableArcModel, TimingNode, analyze,
                       build_timing_graph, nor_tree, single_nor,
                       sweep_corners, sweep_corners_scalar)
from repro.units import PS


@pytest.fixture(scope="module")
def tree_graph():
    return build_timing_graph(nor_tree())


def _max_difference(left, right):
    worst = 0.0
    for node, values in left.arrivals.items():
        other = right.arrivals[node]
        finite = np.isfinite(values) & np.isfinite(other)
        assert np.array_equal(np.isfinite(values), np.isfinite(other))
        if finite.any():
            worst = max(worst, float(np.max(np.abs(
                values[finite] - other[finite]))))
    return worst


class TestParity:
    def test_arrival_scenarios(self, tree_graph):
        rng = np.random.default_rng(7)
        corners = 64
        arrivals = {
            "a": rng.uniform(0.0, 40.0 * PS, corners),
            "b": rng.uniform(0.0, 40.0 * PS, corners),
            "c": 5.0 * PS,
            "d": (rng.uniform(0.0, 20.0 * PS, corners),
                  rng.uniform(0.0, 20.0 * PS, corners)),
        }
        fast = sweep_corners(tree_graph, arrivals=arrivals)
        slow = sweep_corners_scalar(tree_graph, arrivals=arrivals)
        assert fast.corners == slow.corners == corners
        assert _max_difference(fast, slow) <= 1e-18

    def test_parameter_corners(self, tree_graph):
        scales = (0.8, 1.0, 1.25, 1.5)
        params = [PAPER_TABLE_I.replace(r3=PAPER_TABLE_I.r3 * s,
                                        co=PAPER_TABLE_I.co * s)
                  for s in scales]
        corners = [params[i % len(params)] for i in range(32)]
        fast = sweep_corners(tree_graph, params=corners)
        slow = sweep_corners_scalar(tree_graph, params=corners)
        assert _max_difference(fast, slow) <= 1e-18

    def test_joint_axes(self, tree_graph):
        rng = np.random.default_rng(3)
        corners = 24
        params = [PAPER_TABLE_I,
                  PAPER_TABLE_I.replace(r4=1.3 * PAPER_TABLE_I.r4)]
        axis = [params[i % 2] for i in range(corners)]
        arrivals = {"b": rng.uniform(0.0, 30.0 * PS, corners)}
        fast = sweep_corners(tree_graph, params=axis,
                             arrivals=arrivals)
        slow = sweep_corners_scalar(tree_graph, params=axis,
                                    arrivals=arrivals)
        assert _max_difference(fast, slow) <= 1e-18

    def test_single_corner_matches_analyze(self, tree_graph):
        arrivals = {"a": 0.0, "b": 8.0 * PS}
        sweep = sweep_corners(tree_graph, arrivals=arrivals)
        assert sweep.corners == 1
        scalar = analyze(tree_graph, arrivals=arrivals, top_paths=0)
        for node, value in scalar.arrivals.items():
            swept = float(sweep.arrivals[node][0])
            if math.isfinite(value):
                assert swept == pytest.approx(value, abs=1e-18)
            else:
                assert swept == value


class TestTableArcsInSweeps:
    def test_non_retargetable_arcs_ignore_params_axis(self):
        """Table/fixed arcs keep their characterized delays; the
        params axis only re-targets engine arcs."""
        from repro.library import (CharacterizationJob,
                                   characterize_gate)
        table = characterize_gate(
            CharacterizationJob("nor2_t", PAPER_TABLE_I, "nor2"))
        graph = build_timing_graph(
            single_nor(), models={"g0": TableArcModel(table)})
        slow_params = PAPER_TABLE_I.replace(r3=2.0 * PAPER_TABLE_I.r3)
        with_axis = sweep_corners(graph, params=[slow_params] * 4)
        without = sweep_corners(
            graph, arrivals={"a": np.zeros(4)})
        assert _max_difference(with_axis, without) == 0.0


class TestResultHelpers:
    def test_worst_arrival_and_slack(self, tree_graph):
        offsets = np.array([0.0, 10.0 * PS, 20.0 * PS])
        required = 150.0 * PS
        sweep = sweep_corners(tree_graph, arrivals={"b": offsets},
                              required=required)
        worst = sweep.worst_arrival()
        assert worst.shape == (3,)
        assert np.all(np.isfinite(worst))
        # Arrivals are monotone in the offset for this circuit.
        assert worst[0] <= worst[1] <= worst[2]
        slack = sweep.worst_slack()
        np.testing.assert_allclose(slack, required - worst, atol=0.0)

    def test_summary_statistics(self, tree_graph):
        sweep = sweep_corners(
            tree_graph,
            arrivals={"a": np.linspace(0.0, 30.0 * PS, 16)})
        stats = sweep.summary()
        assert stats["min"] <= stats["mean"] <= stats["p95"] \
            <= stats["max"]

    def test_unconstrained_slack(self, tree_graph):
        sweep = sweep_corners(tree_graph,
                              arrivals={"a": np.zeros(2)})
        assert np.all(np.isposinf(sweep.worst_slack()))

    def test_min_mode_worst_is_earliest(self, tree_graph):
        offsets = np.array([0.0, 10.0 * PS])
        late = sweep_corners(tree_graph, arrivals={"b": offsets},
                             mode="max", required=150.0 * PS)
        early = sweep_corners(tree_graph, arrivals={"b": offsets},
                              mode="min", required=50.0 * PS)
        assert np.all(early.worst_arrival()
                      <= late.worst_arrival() + 1e-18)
        # Hold-signed: arrivals beyond the earliest-allowed bound
        # give positive slack.
        np.testing.assert_allclose(
            early.worst_slack(),
            early.worst_arrival() - 50.0 * PS, atol=0.0)


class TestValidation:
    def test_mismatched_axes(self, tree_graph):
        with pytest.raises(ParameterError, match="broadcast"):
            sweep_corners(tree_graph,
                          params=[PAPER_TABLE_I] * 3,
                          arrivals={"a": np.zeros(5)})

    def test_unknown_arrival_signal(self, tree_graph):
        with pytest.raises(ParameterError, match="non-input"):
            sweep_corners(tree_graph, arrivals={"zz": 0.0})

    def test_empty_params_axis(self, tree_graph):
        with pytest.raises(ParameterError, match="empty"):
            sweep_corners(tree_graph, params=[])

    @pytest.mark.parametrize("sweep", [sweep_corners,
                                       sweep_corners_scalar])
    def test_nan_required(self, tree_graph, sweep):
        with pytest.raises(ParameterError, match="NaN"):
            sweep(tree_graph, arrivals={"a": np.zeros(3)},
                  required=math.nan)
