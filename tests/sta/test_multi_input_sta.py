"""n-input STA arcs: Δ-vector conditioning, per-sibling ±inf, corner
sweeps, and the ISSUE-4 cross-validation acceptance."""

import math

import numpy as np
import pytest

from repro.core import PAPER_TABLE_I
from repro.core.multi_input import paper_generalized
from repro.errors import ParameterError
from repro.library import CharacterizationJob, characterize_gate
from repro.sta import (EngineArcModel, TableArcModel, TimingNode,
                       analyze, build_timing_graph, demo_corners,
                       sta_circuit, sweep_corners,
                       sweep_corners_scalar)
from repro.timing.channels import TableDelayChannel
from repro.timing.circuit import TimingCircuit
from repro.timing.simulator import simulate
from repro.timing.trace import DigitalTrace
from repro.units import PS

#: ISSUE-4 acceptance: STA vs full event simulation on NOR3 circuits.
CROSS_TOL = 0.1 * PS


@pytest.fixture(scope="module")
def p3():
    return paper_generalized(3)


def _cross_validate(circuit, arrivals, traces):
    """Compare every simulated transition against its STA arrival."""
    graph = build_timing_graph(circuit)
    result = analyze(graph, arrivals=arrivals, top_paths=1)
    simulated = simulate(circuit, traces)
    checked = 0
    for signal in graph.signal_order:
        for time, value in simulated[signal].transitions:
            node = TimingNode(signal,
                              "rise" if value == 1 else "fall")
            assert result.arrivals[node] == pytest.approx(
                time, abs=CROSS_TOL)
            checked += 1
    assert checked > 0
    return result


class TestCrossValidation:
    def test_nor3_falling(self):
        t0 = 100 * PS
        circuit = sta_circuit("nor3")
        _cross_validate(
            circuit,
            {"a": (t0, -math.inf), "b": (t0 + 9 * PS, -math.inf),
             "c": (t0 + 21 * PS, -math.inf)},
            {"a": DigitalTrace(0, [(t0, 1)]),
             "b": DigitalTrace(0, [(t0 + 9 * PS, 1)]),
             "c": DigitalTrace(0, [(t0 + 21 * PS, 1)])})

    def test_nor3_rising(self):
        t0 = 100 * PS
        circuit = sta_circuit("nor3")
        result = _cross_validate(
            circuit,
            {"a": (math.inf, t0), "b": (math.inf, t0 + 6 * PS),
             "c": (math.inf, t0 + 13 * PS)},
            {"a": DigitalTrace(1, [(t0, 0)]),
             "b": DigitalTrace(1, [(t0 + 6 * PS, 0)]),
             "c": DigitalTrace(1, [(t0 + 13 * PS, 0)])})
        # The critical path carries the full Δ-vector breakdown.
        step = result.critical_path.steps[-1]
        assert isinstance(step.delta, tuple)
        assert len(step.delta) == 2

    def test_nor3_mixed_circuit(self):
        t0 = 100 * PS
        circuit = sta_circuit("nor3_mixed")
        _cross_validate(
            circuit,
            {"a": (t0, -math.inf), "b": (t0 + 9 * PS, -math.inf),
             "c": (t0 + 21 * PS, -math.inf),
             "d": (t0 + 3 * PS, -math.inf)},
            {"a": DigitalTrace(0, [(t0, 1)]),
             "b": DigitalTrace(0, [(t0 + 9 * PS, 1)]),
             "c": DigitalTrace(0, [(t0 + 21 * PS, 1)]),
             "d": DigitalTrace(0, [(t0 + 3 * PS, 1)])})

    def test_sibling_never_switches(self):
        t0 = 100 * PS
        circuit = sta_circuit("nor3")
        result = _cross_validate(
            circuit,
            {"a": (t0, -math.inf), "b": (t0 + 9 * PS, -math.inf),
             "c": (math.inf, math.inf)},
            {"a": DigitalTrace(0, [(t0, 1)]),
             "b": DigitalTrace(0, [(t0 + 9 * PS, 1)]),
             "c": DigitalTrace(0, [])})
        # c never falls, so the output can never rise.
        assert result.arrivals[TimingNode("y", "rise")] == math.inf


class TestGraphStructure:
    def test_nor3_arcs(self, p3):
        graph = build_timing_graph(sta_circuit("nor3"))
        mis = [arc for arc in graph.arcs if arc.is_mis]
        assert len(mis) == 6  # 3 pins x 2 output transitions
        for arc in mis:
            assert len(arc.siblings) == 2
            assert len(arc.pin_nodes) == 3
        groups = {}
        for arc in mis:
            groups.setdefault(arc.target, []).append(arc)
        assert sorted(len(group) for group in groups.values()) == [3, 3]

    def test_two_input_arcs_unchanged(self):
        graph = build_timing_graph(sta_circuit("nor2"))
        for arc in graph.arcs:
            assert len(arc.siblings) == 1
            assert len(arc.pin_nodes) == 2

    def test_engine_arc_gate_param_consistency(self, p3):
        with pytest.raises(ParameterError):
            EngineArcModel(PAPER_TABLE_I, "nor3")
        with pytest.raises(ParameterError):
            EngineArcModel(p3, "nor2")
        model = EngineArcModel(p3, "nor3")
        with pytest.raises(ParameterError):
            model.delays("falling", np.zeros(3))
        grid = np.zeros((2, 2))
        assert model.delays("falling", grid).shape == (2,)

    def test_corner_widening(self, p3):
        """2-input corner sets re-target n-input arcs through the
        paper_generalized extrapolation."""
        model = EngineArcModel(p3, "nor3")
        corner = PAPER_TABLE_I.replace(r3=50e3)
        widened = model.delays("falling", np.zeros((1, 2)),
                               params=corner)
        direct = EngineArcModel(paper_generalized(3, corner),
                                "nor3").delays("falling",
                                               np.zeros((1, 2)))
        assert widened == pytest.approx(direct, abs=0.0)


class TestCornerSweeps:
    def test_vectorized_matches_scalar(self):
        graph = build_timing_graph(sta_circuit("nor3_mixed"))
        params, arrivals = demo_corners(48, ["b", "d"], seed=5)
        fast = sweep_corners(graph, params=params, arrivals=arrivals)
        slow = sweep_corners_scalar(graph, params=params,
                                    arrivals=arrivals)
        worst = 0.0
        for node, values in fast.arrivals.items():
            other = slow.arrivals[node]
            finite = np.isfinite(values) & np.isfinite(other)
            if finite.any():
                worst = max(worst, float(np.max(np.abs(
                    values[finite] - other[finite]))))
        assert worst <= 1e-15

    def test_one_n_input_set_broadcasts(self, p3):
        """One GeneralizedNorParameters corner broadcasts like one
        NorGateParameters corner; a 2-input arc rejects it typed."""
        graph = build_timing_graph(sta_circuit("nor3"))
        arrivals = {"b": np.linspace(0.0, 40 * PS, 8)}
        sweep = sweep_corners(graph, params=p3, arrivals=arrivals)
        baseline = sweep_corners(graph, arrivals=arrivals)
        for node, values in baseline.arrivals.items():
            assert sweep.arrivals[node].tobytes() == values.tobytes()
        with pytest.raises(ParameterError):
            sweep_corners(build_timing_graph(sta_circuit("nor3_mixed")),
                          params=p3)

    def test_arrival_axis_only(self):
        graph = build_timing_graph(sta_circuit("nor3"))
        sweep = sweep_corners(
            graph, arrivals={"b": np.linspace(0.0, 40 * PS, 16)})
        node = TimingNode("y", "fall")
        assert sweep.arrivals[node].shape == (16,)
        assert np.all(np.isfinite(sweep.arrivals[node]))


class TestTableArcs:
    @pytest.fixture(scope="class")
    def nor3_table(self, p3):
        axis = tuple(np.linspace(-80 * PS, 80 * PS, 41))
        return characterize_gate(
            CharacterizationJob("nor3_t", p3, "nor3", deltas=axis))

    def test_table_graph_tracks_engine_graph(self, nor3_table):
        circuit = TimingCircuit(["a", "b", "c"])
        circuit.add_mis_gate("g0", ["a", "b", "c"], "y",
                             TableDelayChannel(nor3_table))
        graph = build_timing_graph(circuit)
        assert all(isinstance(arc.model, TableArcModel)
                   for arc in graph.arcs)
        arrivals = {"a": (0.0, -math.inf), "b": (7 * PS, -math.inf),
                    "c": (13 * PS, -math.inf)}
        table_result = analyze(graph, arrivals=arrivals)
        engine_result = analyze(
            build_timing_graph(sta_circuit("nor3")),
            arrivals=arrivals)
        node = TimingNode("y", "fall")
        assert table_result.arrivals[node] == pytest.approx(
            engine_result.arrivals[node], abs=2.0 * PS)

    def test_vector_table_arc_entry_points(self, nor3_table, p3):
        model = TableArcModel(nor3_table)
        assert model.num_inputs == 3
        with pytest.raises(ParameterError):
            model.delays("falling", np.zeros(4))
        grid = np.zeros((3, 2))
        expected = nor3_table.falling.delays_at(grid)
        assert np.array_equal(model.delays("falling", grid),
                              expected)
        with pytest.raises(ParameterError):
            model.delays("falling", grid,
                           params=paper_generalized(3,
                                                    PAPER_TABLE_I
                                                    .replace(
                                                        r1=1e3)))
