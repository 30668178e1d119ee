"""Timing-graph lowering: arc structure, unateness, overrides."""

import pytest

from repro.core.multi_input import paper_generalized
from repro.core.parameters import PAPER_TABLE_I
from repro.errors import NetlistError
from repro.library import CharacterizationJob, characterize_gate
from repro.sta import (EngineArcModel, FixedArcModel, TimingNode, analyze,
                       build_timing_graph, input_unateness, nor_chain,
                       nor_tree, single_nor, sta_circuit)
from repro.timing import (PureDelayChannel, TableDelayChannel,
                          TimingCircuit)
from repro.timing.channels import GeneralizedNorChannel, HybridNorChannel
from repro.units import PS


class TestHybridLowering:
    def test_single_nor_structure(self):
        graph = build_timing_graph(single_nor())
        # 2 transitions x 2 pins = 4 MIS arcs.
        assert len(graph.arcs) == 4
        assert all(arc.is_mis for arc in graph.arcs)
        assert graph.endpoints == ("y",)
        assert graph.signal_order == ["y"]

    def test_references_follow_the_paper(self):
        graph = build_timing_graph(single_nor())
        by_target = {}
        for arc in graph.arcs:
            by_target.setdefault(arc.target.transition, set()).add(
                arc.reference)
        # NOR: falling output through the parallel nMOS pair is
        # referenced to the earlier input; rising through the series
        # stack to the later one.
        assert by_target["fall"] == {"earlier"}
        assert by_target["rise"] == {"later"}

    def test_negative_unate_transitions(self):
        graph = build_timing_graph(single_nor())
        for arc in graph.arcs:
            assert arc.source.transition != arc.target.transition

    def test_tied_inputs_deduplicate(self):
        graph = build_timing_graph(nor_chain(stages=2))
        # One arc per output transition per stage.
        assert len(graph.arcs) == 4
        assert all(arc.siblings == (arc.source,) for arc in graph.arcs)

    def test_tree_topology(self):
        graph = build_timing_graph(nor_tree())
        assert len(graph.arcs) == 12
        assert graph.endpoints == ("y",)
        order = graph.signal_order
        assert order.index("n1") < order.index("y")
        assert order.index("n2") < order.index("y")

    def test_mis_groups_share_pin_nodes(self):
        graph = build_timing_graph(nor_tree())
        groups = {}
        for arc in graph.arcs:
            groups.setdefault((arc.instance, arc.target), []).append(arc)
        assert len(groups) == 6  # 3 gates x 2 transitions
        for group in groups.values():
            assert len(group) == 2
            assert all(arc.pin_nodes == group[0].pin_nodes
                       for arc in group)
            assert [arc.source for arc in group] == \
                list(group[0].pin_nodes)

    def test_override_width_must_match(self):
        three = EngineArcModel(paper_generalized(3), "nor3")
        with pytest.raises(NetlistError, match="3-input"):
            build_timing_graph(single_nor(), models={"g0": three})
        two = EngineArcModel(PAPER_TABLE_I, "nor2")
        with pytest.raises(NetlistError, match="2-input"):
            build_timing_graph(sta_circuit("nor3"), models={"g0": two})


class TestTableLowering:
    @pytest.fixture(scope="class")
    def nand_table(self):
        return characterize_gate(
            CharacterizationJob("nand2_t", PAPER_TABLE_I, "nand2"))

    def test_nand_table_references_are_mirrored(self, nand_table):
        circuit = TimingCircuit(["a", "b"])
        circuit.add_mis_gate("g0", ("a", "b"), "y",
                             TableDelayChannel(nand_table))
        graph = build_timing_graph(circuit)
        by_target = {}
        for arc in graph.arcs:
            by_target.setdefault(arc.target.transition, set()).add(
                arc.reference)
        # NAND rises through the parallel pMOS pair (earlier) and
        # falls through the series nMOS stack (later).
        assert by_target["rise"] == {"earlier"}
        assert by_target["fall"] == {"later"}
        assert all(arc.model.name == "table" for arc in graph.arcs)

    def test_mis_gate_rejects_single_input_channel(self):
        circuit = TimingCircuit(["a", "b"])
        with pytest.raises(NetlistError):
            circuit.add_mis_gate("g0", ("a", "b"), "y",
                                 PureDelayChannel(5.0 * PS))


class TestGeneralizedLowering:
    """A 2-input generalized NOR lowers to the paper's closed form."""

    @staticmethod
    def _circuit(channel_of):
        circuit = TimingCircuit(["a", "b", "c"])
        circuit.add_mis_gate("g0", ("a", "b"), "n", channel_of())
        circuit.add_mis_gate("g1", ("n", "c"), "y", channel_of())
        return circuit

    def test_same_arrivals_as_hybrid(self):
        arrivals = {"a": (0.0, 0.0), "b": (7.0 * PS, 12.0 * PS),
                    "c": (40.0 * PS, 35.0 * PS)}
        generalized = build_timing_graph(self._circuit(
            lambda: GeneralizedNorChannel(paper_generalized(2))))
        hybrid = build_timing_graph(self._circuit(
            lambda: HybridNorChannel(PAPER_TABLE_I)))
        assert all(arc.model.gate == "nor2"
                   and arc.model.params == PAPER_TABLE_I
                   for arc in generalized.arcs)
        assert analyze(generalized, arrivals).arrivals == \
            analyze(hybrid, arrivals).arrivals


class TestGenericGates:
    def test_inverter_is_negative_unate(self):
        circuit = TimingCircuit(["a"])
        circuit.add_gate("i0", "inv", ["a"], "y",
                         PureDelayChannel(5.0 * PS))
        graph = build_timing_graph(circuit)
        assert len(graph.arcs) == 2
        for arc in graph.arcs:
            assert not arc.is_mis
            assert arc.source.transition != arc.target.transition

    def test_and_is_positive_unate(self):
        circuit = TimingCircuit(["a", "b"])
        circuit.add_gate("g0", "and", ["a", "b"], "y",
                         PureDelayChannel(5.0 * PS))
        graph = build_timing_graph(circuit)
        assert len(graph.arcs) == 4
        for arc in graph.arcs:
            assert arc.source.transition == arc.target.transition

    def test_xor_is_binate(self):
        circuit = TimingCircuit(["a", "b"])
        circuit.add_gate("g0", "xor", ["a", "b"], "y",
                         PureDelayChannel(5.0 * PS))
        graph = build_timing_graph(circuit)
        # 2 inputs x 2 senses x 2 output transitions.
        assert len(graph.arcs) == 8

    def test_unateness_probe(self):
        import repro.timing.gates as gates
        assert input_unateness(gates.GATE_FUNCTIONS["and"], 2, 0) \
            == {"positive"}
        assert input_unateness(gates.GATE_FUNCTIONS["nor"], 2, 1) \
            == {"negative"}
        assert input_unateness(gates.GATE_FUNCTIONS["xor"], 2, 0) \
            == {"positive", "negative"}

    def test_mixed_circuit(self):
        circuit = TimingCircuit(["a", "b"])
        circuit.add_hybrid_nor("g0", "a", "b", "n1",
                               HybridNorChannel(PAPER_TABLE_I))
        circuit.add_gate("i0", "inv", ["n1"], "y",
                         PureDelayChannel(5.0 * PS))
        graph = build_timing_graph(circuit)
        kinds = {arc.model.name for arc in graph.arcs}
        assert kinds == {"engine", "fixed"}
        assert graph.endpoints == ("y",)


class TestOverridesAndErrors:
    def test_unknown_override_rejected(self):
        with pytest.raises(NetlistError, match="unknown instance"):
            build_timing_graph(single_nor(),
                               models={"nope": FixedArcModel(0.0, 0.0)})

    def test_override_replaces_model(self):
        override = FixedArcModel(9.0 * PS, 9.0 * PS)
        graph = build_timing_graph(single_nor(),
                                   models={"g0": override})
        assert all(arc.model is override for arc in graph.arcs)

    def test_unknown_circuit_name(self):
        with pytest.raises(ValueError, match="available"):
            sta_circuit("not-a-circuit")

    def test_nodes_enumeration(self):
        graph = build_timing_graph(single_nor())
        nodes = graph.nodes()
        assert TimingNode("a", "rise") in nodes
        assert TimingNode("y", "fall") in nodes
        assert len(nodes) == 6
