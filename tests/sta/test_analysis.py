"""Arrival propagation, slack, and critical-path extraction."""

import math

import numpy as np
import pytest

from repro.core.hybrid_model import HybridNorModel
from repro.core.parameters import PAPER_TABLE_I
from repro.errors import ParameterError
from repro.sta import (FixedArcModel, TimingNode, WireArcModel,
                       analyze, build_timing_graph, nor_tree,
                       single_nor, sta_circuit, sweep_corners,
                       sweep_corners_scalar)
from repro.units import PS

INF = math.inf


@pytest.fixture(scope="module")
def nor_graph():
    return build_timing_graph(single_nor())


@pytest.fixture(scope="module")
def tree_graph():
    return build_timing_graph(nor_tree())


@pytest.fixture(scope="module")
def model():
    return HybridNorModel(PAPER_TABLE_I)


class TestSingleNor:
    def test_falling_matches_model(self, nor_graph, model):
        t_a, t_b = 100.0 * PS, 110.0 * PS
        result = analyze(nor_graph,
                         arrivals={"a": (t_a, -INF),
                                   "b": (t_b, -INF)})
        expected = min(t_a, t_b) + model.delay_falling(t_b - t_a)
        assert result.arrivals[TimingNode("y", "fall")] \
            == pytest.approx(expected, abs=1e-18)

    def test_rising_matches_model(self, nor_graph, model):
        t_a, t_b = 100.0 * PS, 104.0 * PS
        result = analyze(nor_graph,
                         arrivals={"a": (INF, t_a),
                                   "b": (INF, t_b)})
        expected = max(t_a, t_b) + model.delay_rising(t_b - t_a)
        assert result.arrivals[TimingNode("y", "rise")] \
            == pytest.approx(expected, abs=1e-18)

    def test_delta_sign_convention(self, nor_graph, model):
        """Δ = t_B − t_A: swapping arrival order changes the delay."""
        early_a = analyze(nor_graph, arrivals={"a": (0.0, -INF),
                                               "b": (30.0 * PS, -INF)})
        early_b = analyze(nor_graph, arrivals={"a": (30.0 * PS, -INF),
                                               "b": (0.0, -INF)})
        fall = TimingNode("y", "fall")
        assert early_a.arrivals[fall] == pytest.approx(
            model.delay_falling(30.0 * PS), abs=1e-18)
        assert early_b.arrivals[fall] == pytest.approx(
            model.delay_falling(-30.0 * PS), abs=1e-18)

    def test_constant_sibling_is_the_sis_edge(self, nor_graph, model):
        """A never-rising sibling puts the arc on δ(+∞)."""
        t_a = 50.0 * PS
        result = analyze(nor_graph,
                         arrivals={"a": (t_a, -INF),
                                   "b": (INF, -INF)})
        expected = t_a + model.delay_falling(INF)
        assert result.arrivals[TimingNode("y", "fall")] \
            == pytest.approx(expected, abs=1e-18)

    def test_never_switching_inputs_never_switch_output(self,
                                                        nor_graph):
        result = analyze(nor_graph, arrivals={"a": (INF, -INF),
                                              "b": (INF, -INF)})
        assert result.arrivals[TimingNode("y", "fall")] == INF
        # Falls long ago (inputs rose long ago is false — they never
        # rose; the rise side fell long ago).
        assert result.arrivals[TimingNode("y", "rise")] == -INF


class TestTree:
    def test_default_arrivals(self, tree_graph, model):
        result = analyze(tree_graph)
        inner = model.delay_falling(0.0)
        outer = model.delay_rising(0.0)
        assert result.arrivals[TimingNode("y", "rise")] \
            == pytest.approx(inner + outer, abs=1e-18)

    def test_staggered_arrivals_condition_every_level(self, tree_graph,
                                                      model):
        arrivals = {"a": 0.0, "b": 8.0 * PS, "c": 12.0 * PS,
                    "d": 20.0 * PS}
        result = analyze(tree_graph, arrivals=arrivals)
        n1_fall = model.delay_falling(8.0 * PS)
        n2_fall = 12.0 * PS + model.delay_falling(8.0 * PS)
        assert result.arrivals[TimingNode("n1", "fall")] \
            == pytest.approx(n1_fall, abs=1e-18)
        assert result.arrivals[TimingNode("n2", "fall")] \
            == pytest.approx(n2_fall, abs=1e-18)
        delta = n2_fall - n1_fall
        expected = max(n1_fall, n2_fall) + model.delay_rising(delta)
        assert result.arrivals[TimingNode("y", "rise")] \
            == pytest.approx(expected, abs=1e-18)

    def test_min_mode_bounds_max_mode(self, tree_graph):
        arrivals = {"a": (0.0, 5.0 * PS), "b": (3.0 * PS, 9.0 * PS),
                    "c": (1.0 * PS, 2.0 * PS), "d": (4.0 * PS, 0.0)}
        late = analyze(tree_graph, arrivals=arrivals, mode="max")
        early = analyze(tree_graph, arrivals=arrivals, mode="min")
        for node, value in late.arrivals.items():
            assert early.arrivals[node] <= value + 1e-18


class TestRequiredAndSlack:
    def test_endpoint_slack(self, tree_graph):
        required = 200.0 * PS
        result = analyze(tree_graph, required=required)
        rise = TimingNode("y", "rise")
        assert result.slacks[rise] == pytest.approx(
            required - result.arrivals[rise], abs=1e-18)
        assert result.worst_slack == pytest.approx(
            required - max(result.arrivals[n]
                           for n in result.endpoint_nodes()),
            abs=1e-18)

    def test_slack_propagates_to_inputs(self, tree_graph):
        result = analyze(tree_graph, required=200.0 * PS)
        # Along the critical path the slack is constant; inputs on it
        # carry the worst slack.
        path = result.critical_path
        assert path is not None
        assert result.slacks[path.source] == pytest.approx(
            result.worst_slack, abs=1e-18)

    def test_per_endpoint_required(self, tree_graph):
        result = analyze(tree_graph, required={"y": 150.0 * PS})
        assert math.isfinite(result.worst_slack)

    def test_unconstrained_slack_is_inf(self, tree_graph):
        result = analyze(tree_graph)
        assert result.worst_slack == INF

    def test_required_rejects_non_endpoint(self, tree_graph):
        with pytest.raises(ParameterError, match="non-endpoint"):
            analyze(tree_graph, required={"n1": 100.0 * PS})

    @pytest.mark.parametrize("required", [math.nan, {"y": math.nan}])
    def test_required_rejects_nan(self, tree_graph, required):
        """NaN would otherwise report every slack as unconstrained."""
        for mode in ("max", "min"):
            with pytest.raises(ParameterError, match="NaN"):
                analyze(tree_graph, required=required, mode=mode)

    @pytest.mark.parametrize("spec", [math.nan, (0.0, math.nan)])
    def test_arrival_rejects_nan(self, tree_graph, spec):
        """A NaN input arrival used to end in a SimulationError that
        blamed the ±inf arrival conventions."""
        for mode in ("max", "min"):
            with pytest.raises(ParameterError, match="'b'.*NaN"):
                analyze(tree_graph, arrivals={"b": spec}, mode=mode)

    @pytest.mark.parametrize("sweep", [sweep_corners,
                                       sweep_corners_scalar])
    def test_sweep_arrival_rejects_nan(self, tree_graph, sweep):
        """A NaN corner used to come back as NaN arrivals."""
        for mode in ("max", "min"):
            with pytest.raises(ParameterError, match="'a'.*NaN"):
                sweep(tree_graph, arrivals={"a": [0.0, math.nan, 5 * PS]},
                      mode=mode)

    def test_min_mode_slack_is_hold_signed(self, nor_graph, model):
        """min mode: required is the *earliest allowed* arrival, so
        slack = arrival − required (positive = met)."""
        arrivals = {"a": (100.0 * PS, -INF), "b": (110.0 * PS, -INF)}
        earliest = min(100.0 * PS, 110.0 * PS) \
            + model.delay_falling(10.0 * PS)
        met = analyze(nor_graph, arrivals=arrivals,
                      required=earliest - 10.0 * PS, mode="min")
        fall = TimingNode("y", "fall")
        assert met.slacks[fall] == pytest.approx(10.0 * PS,
                                                 abs=1e-16)
        assert met.worst_slack > 0.0
        violated = analyze(nor_graph, arrivals=arrivals,
                           required=earliest + 5.0 * PS, mode="min")
        assert violated.slacks[fall] == pytest.approx(-5.0 * PS,
                                                      abs=1e-16)
        assert violated.critical_path.slack == pytest.approx(
            -5.0 * PS, abs=1e-16)


class TestPaths:
    def test_ranked_descending(self, tree_graph):
        result = analyze(tree_graph,
                         arrivals={"a": 0.0, "b": 8.0 * PS,
                                   "c": 12.0 * PS, "d": 20.0 * PS},
                         top_paths=8)
        arrivals = [path.arrival for path in result.paths]
        assert arrivals == sorted(arrivals, reverse=True)
        assert len(result.paths) == 8

    def test_critical_path_reaches_endpoint_arrival(self, tree_graph):
        result = analyze(tree_graph,
                         arrivals={"a": 0.0, "b": 8.0 * PS,
                                   "c": 12.0 * PS, "d": 20.0 * PS})
        path = result.critical_path
        worst = max(result.arrivals[node]
                    for node in result.endpoint_nodes())
        assert path.arrival == pytest.approx(worst, abs=1e-18)
        assert path.steps[-1].arrival == pytest.approx(path.arrival,
                                                       abs=1e-18)

    def test_steps_are_contiguous(self, tree_graph):
        result = analyze(tree_graph, top_paths=5)
        for path in result.paths:
            assert path.steps[0].arc.source == path.source
            for first, second in zip(path.steps, path.steps[1:]):
                assert first.arc.target == second.arc.source
            assert path.steps[-1].arc.target == path.endpoint

    def test_mis_steps_record_delta_and_delay(self, tree_graph, model):
        result = analyze(tree_graph,
                         arrivals={"a": 0.0, "b": 8.0 * PS,
                                   "c": 0.0, "d": 0.0})
        step = result.critical_path.steps[0]
        assert step.arc.is_mis
        assert abs(step.delta) in (0.0, 8.0 * PS)
        assert step.delay == pytest.approx(
            model.delay_falling(step.delta), abs=1e-18)

    def test_top_zero_skips_extraction(self, tree_graph):
        assert analyze(tree_graph, top_paths=0).paths == ()

    def test_describe_renders(self, tree_graph):
        result = analyze(tree_graph, required=200.0 * PS)
        text = result.critical_path.describe()
        assert "Δ" in text
        assert "slack" in text


class TestValidation:
    def test_unknown_arrival_signal(self, nor_graph):
        with pytest.raises(ParameterError, match="non-input"):
            analyze(nor_graph, arrivals={"zz": 0.0})

    def test_non_tuple_pair_spec_rejected(self, nor_graph):
        """Lists are not (rise, fall) pairs — in sweeps they mean a
        corner axis, so analyze rejects them instead of silently
        diverging from sweep_corners."""
        with pytest.raises(ParameterError, match="tuple"):
            analyze(nor_graph, arrivals={"a": [0.0, 5.0 * PS]})

    def test_bad_mode(self, nor_graph):
        with pytest.raises(ParameterError, match="mode"):
            analyze(nor_graph, mode="typ")

    def test_to_dict_is_strict_json(self, tree_graph):
        """Unconstrained (±inf) times serialize as null, never as
        the non-RFC 'Infinity' token."""
        import json
        result = analyze(tree_graph, required=200.0 * PS)
        rendered = json.dumps(result.to_dict(), allow_nan=False)
        assert "Infinity" not in rendered
        payload = json.loads(rendered)
        assert payload["mode"] == "max"
        assert payload["endpoints"] == ["y"]
        assert len(payload["paths"]) == len(result.paths)
        assert payload["paths"][0]["steps"]
        # Unconstrained run: every non-finite slot must be null.
        free = analyze(tree_graph)
        json.dumps(free.to_dict(), allow_nan=False)


class TestDeltaIndependentOverrides:
    """A Δ-independent model overriding an MIS instance adds its
    constant delay to the referenced input arrival, whatever the
    gate width (2-pin arcs see Δ per lane, NOR3 arcs a Δ-vector)."""

    MODELS = {"fixed": (FixedArcModel(9.0 * PS, 7.0 * PS),
                        9.0 * PS, 7.0 * PS),
              "wire": (WireArcModel(5.0 * PS), 5.0 * PS, 5.0 * PS)}

    @pytest.mark.parametrize("circuit", ["nor2", "nor3"])
    @pytest.mark.parametrize("kind", ["fixed", "wire"])
    def test_analyze(self, circuit, kind):
        model, rise, fall = self.MODELS[kind]
        graph = build_timing_graph(sta_circuit(circuit),
                                   models={"g0": model})
        t_in = 10.0 * PS
        result = analyze(graph, arrivals={signal: t_in
                                          for signal in graph.inputs})
        assert result.arrivals[TimingNode("y", "fall")] == \
            pytest.approx(t_in + fall, abs=1e-18)
        assert result.arrivals[TimingNode("y", "rise")] == \
            pytest.approx(t_in + rise, abs=1e-18)
        assert result.arrivals[TimingNode("y", "fall")] == \
            pytest.approx((17.0 if kind == "fixed" else 15.0) * PS,
                          abs=1e-18)

    @pytest.mark.parametrize("circuit", ["nor2", "nor3"])
    @pytest.mark.parametrize("kind", ["fixed", "wire"])
    def test_sweep_corners(self, circuit, kind):
        model, rise, fall = self.MODELS[kind]
        graph = build_timing_graph(sta_circuit(circuit),
                                   models={"g0": model})
        corners = [10.0 * PS, 20.0 * PS]
        sweep = sweep_corners(graph, arrivals={signal: corners
                                               for signal
                                               in graph.inputs})
        t_in = np.asarray(corners)
        np.testing.assert_allclose(
            sweep.arrivals[TimingNode("y", "fall")], t_in + fall,
            rtol=0.0, atol=1e-18)
        np.testing.assert_allclose(
            sweep.arrivals[TimingNode("y", "rise")], t_in + rise,
            rtol=0.0, atol=1e-18)
        if kind == "fixed":
            np.testing.assert_allclose(
                sweep.arrivals[TimingNode("y", "rise")],
                [19.0 * PS, 29.0 * PS], rtol=0.0, atol=1e-18)
