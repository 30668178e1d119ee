"""Wire arcs through the whole timing stack.

``TimingCircuit.add_wire`` must produce instances that (a) lower into
Δ-independent STA arcs, (b) behave as pure-delay identity buffers in
both simulators, and (c) sweep array-natively with exact
vectorized-vs-scalar parity.
"""

import numpy as np
import pytest

from repro.core.parameters import PAPER_TABLE_I
from repro.errors import NetlistError, ParameterError
from repro.sta import (TimingNode, WireArcModel, analyze,
                       build_timing_graph, nor_chain_wire,
                       nor_tree_wire, sta_circuit, sweep_corners,
                       sweep_corners_scalar)
from repro.timing import (DigitalTrace, TimingCircuit, WireInstance,
                          simulate, simulate_events)
from repro.units import PS
from repro.wire import WireTree

#: STA arrivals and simulated transition times must agree to solver
#: tolerance — wires are linear shifts, so no model gap exists.
SIM_TOL = 1e-3 * PS


class TestAddWire:
    def test_single_sink(self):
        circuit = TimingCircuit(["a"])
        instances = circuit.add_wire("w0", "a", WireTree.line(3), "m")
        assert [inst.name for inst in instances] == ["w0"]
        assert instances[0].output == "m"
        assert instances[0].delay > 0.0

    def test_multi_sink_names_and_order(self):
        circuit = TimingCircuit(["a"])
        tree = WireTree.fanout(branches=2)
        instances = circuit.add_wire("w0", "a", tree, ("m1", "m2"))
        assert [inst.name for inst in instances] == ["w0.b1_2",
                                                     "w0.b2_2"]

    def test_mapping_outputs(self):
        circuit = TimingCircuit(["a"])
        tree = WireTree.fanout(branches=2)
        instances = circuit.add_wire(
            "w0", "a", tree, {"b2_2": "m2", "b1_2": "m1"})
        assert [inst.output for inst in instances] == ["m1", "m2"]

    def test_mapping_must_cover_sinks(self):
        circuit = TimingCircuit(["a"])
        tree = WireTree.fanout(branches=2)
        with pytest.raises(NetlistError, match="exactly the"):
            circuit.add_wire("w0", "a", tree, {"b1_2": "m1"})
        with pytest.raises(NetlistError, match="exactly the"):
            circuit.add_wire("w0", "a", tree,
                             {"b1_2": "m1", "b2_2": "m2",
                              "zz": "m3"})

    def test_sequence_length_mismatch(self):
        circuit = TimingCircuit(["a"])
        with pytest.raises(NetlistError, match="output signal"):
            circuit.add_wire("w0", "a", WireTree.line(2),
                             ("m1", "m2"))

    def test_negative_slew_derate_rejected(self):
        circuit = TimingCircuit(["a"])
        with pytest.raises(NetlistError, match="slew_derate"):
            circuit.add_wire("w0", "a", WireTree.line(2), "m",
                             slew_derate=-0.1)

    def test_slew_derate_adds_penalty(self):
        base = TimingCircuit(["a"]).add_wire(
            "w0", "a", WireTree.line(3), "m")[0]
        derated = TimingCircuit(["a"]).add_wire(
            "w0", "a", WireTree.line(3), "m", slew_derate=0.5)[0]
        assert derated.delay == pytest.approx(
            base.delay + 0.5 * base.slew)

    def test_wire_is_identity_function(self):
        instance = TimingCircuit(["a"]).add_wire(
            "w0", "a", WireTree.line(2), "m")[0]
        assert isinstance(instance, WireInstance)
        assert instance.function(0) == 0
        assert instance.function(1) == 1


class TestWireArcModel:
    def test_delay_is_delta_independent(self):
        model = WireArcModel(4.8 * PS, slew=9.0 * PS, sink="n3")
        deltas = np.array([-10.0, 0.0, 25.0]) * PS
        for direction in ("falling", "rising"):
            out = model.delays(direction, deltas)
            assert np.all(out == 4.8 * PS)

    def test_delta_vector_shape(self):
        model = WireArcModel(1.0 * PS)
        out = model.delays("falling", np.zeros((5, 2)))
        assert out.shape == (5,)

    def test_not_retargetable(self):
        assert WireArcModel(1.0 * PS).retargetable is False

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            WireArcModel(-1.0 * PS)
        with pytest.raises(ParameterError):
            WireArcModel(float("nan"))
        with pytest.raises(ParameterError):
            WireArcModel(1.0 * PS, slew=-1.0)
        with pytest.raises(ParameterError):
            WireArcModel(1.0 * PS).delays("sideways", [0.0])

    def test_from_instance(self):
        instance = TimingCircuit(["a"]).add_wire(
            "w0", "a", WireTree.line(2), "m")[0]
        model = WireArcModel.from_instance(instance)
        assert model.delay == instance.delay
        assert model.sink == instance.sink


class TestGraphLowering:
    def test_wire_arcs_are_positive_unate(self):
        graph = build_timing_graph(sta_circuit("chain_wire"))
        wire_arcs = [arc for arc in graph.arcs
                     if isinstance(arc.model, WireArcModel)]
        assert len(wire_arcs) == 2  # rise + fall of the one wire
        for arc in wire_arcs:
            assert arc.source.transition == arc.target.transition

    def test_path_report_shows_wire(self):
        graph = build_timing_graph(sta_circuit("chain_wire"))
        result = analyze(graph)
        from repro.sta import render_report
        assert "[wire]" in render_report(result)


class TestSimulationAgreement:
    @pytest.mark.parametrize("name", ["chain_wire", "tree_wire"])
    def test_sta_matches_both_simulators(self, name):
        circuit = sta_circuit(name)
        t0 = 100.0 * PS
        traces = {signal: DigitalTrace(0, [(t0, 1)])
                  for signal in circuit.inputs}
        arrivals = {signal: (t0, t0) for signal in circuit.inputs}
        graph = build_timing_graph(circuit)
        result = analyze(graph, arrivals=arrivals)
        traced = simulate(circuit, traces)
        evented = simulate_events(circuit, traces, 2e-9)
        endpoints = [s for s in ("y", "y1", "y2")
                     if s in circuit.signals]
        for signal in endpoints:
            for sim in (traced, evented):
                trace = sim[signal]
                assert trace.transitions, signal
                t_sim, value = trace.transitions[0]
                transition = "rise" if value == 1 else "fall"
                arrival = result.arrivals[TimingNode(signal,
                                                     transition)]
                assert abs(arrival - t_sim) < SIM_TOL


class TestWireSweeps:
    @pytest.mark.parametrize("name", ["chain_wire", "tree_wire"])
    def test_vectorized_scalar_parity(self, name):
        graph = build_timing_graph(sta_circuit(name))
        slow = PAPER_TABLE_I.replace(r3=PAPER_TABLE_I.r3 * 1.2,
                                     r4=PAPER_TABLE_I.r4 * 1.2)
        params = [PAPER_TABLE_I, slow, PAPER_TABLE_I, slow]
        arrivals = {graph.inputs[0]: np.arange(4.0) * 5.0 * PS}
        fast = sweep_corners(graph, params=params, arrivals=arrivals)
        slow_ref = sweep_corners_scalar(graph, params=params,
                                        arrivals=arrivals)
        for node, values in fast.arrivals.items():
            assert np.array_equal(values, slow_ref.arrivals[node])

    def test_per_instance_parity_and_effect(self):
        graph = build_timing_graph(sta_circuit("chain_wire"))
        slow = PAPER_TABLE_I.replace(
            r1=PAPER_TABLE_I.r1 * 1.4, r2=PAPER_TABLE_I.r2 * 1.4,
            r3=PAPER_TABLE_I.r3 * 1.4, r4=PAPER_TABLE_I.r4 * 1.4)
        params = {"g0": [PAPER_TABLE_I, slow], "g1": slow}
        fast = sweep_corners(graph, params=params)
        ref = sweep_corners_scalar(graph, params=params)
        for node, values in fast.arrivals.items():
            assert np.array_equal(values, ref.arrivals[node])
        # Varying g0 alone must move the endpoint across corners.
        worst = fast.worst_arrival()
        assert worst[0] != worst[1]

    def test_per_instance_unknown_instance_rejected(self):
        graph = build_timing_graph(sta_circuit("chain_wire"))
        with pytest.raises(ParameterError, match="unknown instance"):
            sweep_corners(graph, params={"zz": PAPER_TABLE_I})

    def test_wire_arcs_ignore_corner_params(self):
        # Wire delays are parameter-independent: sweeping gate
        # corners must leave the wire arc contribution unchanged.
        graph = build_timing_graph(sta_circuit("chain_wire"))
        base = sweep_corners(graph)
        swept = sweep_corners(graph, params=[PAPER_TABLE_I])
        o1_rise = TimingNode("o1", "rise")
        m1_rise = TimingNode("m1", "rise")
        wire_delay_base = (base.arrivals[m1_rise]
                           - base.arrivals[o1_rise])
        wire_delay_swept = (swept.arrivals[m1_rise]
                            - swept.arrivals[o1_rise])
        assert np.allclose(wire_delay_base, wire_delay_swept)
