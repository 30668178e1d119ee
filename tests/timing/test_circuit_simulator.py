"""Tests for repro.timing.circuit and repro.timing.simulator."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import PAPER_TABLE_I
from repro.errors import NetlistError
from repro.sta.circuits import STA_CIRCUITS, sta_circuit
from repro.timing.channels import (HybridNorChannel,
                                   InertialDelayChannel,
                                   PureDelayChannel)
from repro.timing.circuit import TimingCircuit
from repro.timing.simulator import simulate, simulate_single_channel
from repro.timing.trace import DigitalTrace
from repro.units import PS

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
REPO_DIR = str(Path(__file__).resolve().parents[2])


class TestCircuitConstruction:
    def test_duplicate_inputs_rejected(self):
        with pytest.raises(NetlistError):
            TimingCircuit(["a", "a"])

    def test_multiple_drivers_rejected(self):
        circuit = TimingCircuit(["a"])
        circuit.add_gate("g1", "inv", ["a"], "y",
                         PureDelayChannel(1 * PS))
        with pytest.raises(NetlistError):
            circuit.add_gate("g2", "buf", ["a"], "y",
                             PureDelayChannel(1 * PS))

    def test_driving_an_input_rejected(self):
        circuit = TimingCircuit(["a", "b"])
        with pytest.raises(NetlistError):
            circuit.add_gate("g1", "inv", ["a"], "b",
                             PureDelayChannel(1 * PS))

    def test_duplicate_instance_name_rejected(self):
        circuit = TimingCircuit(["a"])
        circuit.add_gate("g1", "inv", ["a"], "x",
                         PureDelayChannel(1 * PS))
        with pytest.raises(NetlistError):
            circuit.add_gate("g1", "inv", ["x"], "y",
                             PureDelayChannel(1 * PS))

    def test_signals_listing(self):
        circuit = TimingCircuit(["a"])
        circuit.add_gate("g1", "inv", ["a"], "x",
                         PureDelayChannel(1 * PS))
        assert circuit.signals == ["a", "x"]

    def test_undriven_signal_detected(self):
        circuit = TimingCircuit(["a"])
        circuit.add_gate("g1", "and", ["a", "ghost"], "y",
                         PureDelayChannel(1 * PS))
        with pytest.raises(NetlistError):
            circuit.topological_order()

    def test_loop_detected(self):
        circuit = TimingCircuit(["a"])
        circuit.add_gate("g1", "and", ["a", "y2"], "y1",
                         PureDelayChannel(1 * PS))
        circuit.add_gate("g2", "buf", ["y1"], "y2",
                         PureDelayChannel(1 * PS))
        with pytest.raises(NetlistError):
            circuit.topological_order()

    def test_topological_order(self):
        circuit = TimingCircuit(["a"])
        circuit.add_gate("late", "inv", ["mid"], "out",
                         PureDelayChannel(1 * PS))
        circuit.add_gate("early", "inv", ["a"], "mid",
                         PureDelayChannel(1 * PS))
        order = [inst.name for inst in circuit.topological_order()]
        assert order == ["early", "late"]


def _names(circuit: TimingCircuit) -> list:
    return [inst.name for inst in circuit.topological_order()]


def _networkx_order(nx, circuit: TimingCircuit) -> list:
    """The order networkx's topological sort gives the netlist's
    driver -> consumer graph."""
    graph = nx.DiGraph()
    graph.add_nodes_from(inst.name for inst in circuit.instances)
    driver = {inst.output: inst.name for inst in circuit.instances}
    for inst in circuit.instances:
        for signal in inst.inputs:
            if signal in driver:
                graph.add_edge(driver[signal], inst.name)
    return list(nx.topological_sort(graph))


class TestTopologicalOrder:
    """The stdlib sort keeps networkx's order: endpoints and
    path-ranking ties in ``repro sta --json`` follow it."""

    def test_import_does_not_load_networkx(self):
        script = ("import sys\nimport repro\n"
                  "assert 'networkx' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        subprocess.run([sys.executable, "-c", script], env=env,
                       check=True, timeout=120)

    def test_generations_in_insertion_order(self):
        circuit = TimingCircuit(["a", "b"])
        for name, inputs, output in (("g3", ["y1", "y2"], "z"),
                                     ("g1", ["a"], "y1"),
                                     ("g2", ["b", "b"], "y2"),
                                     ("g4", ["y1", "y1", "z"], "w"),
                                     ("g0", ["a", "b"], "y0")):
            circuit.add_gate(name, "and", inputs, output,
                             PureDelayChannel(1 * PS))
        assert _names(circuit) == ["g1", "g2", "g0", "g3", "g4"]

    def test_self_loop_detected(self):
        circuit = TimingCircuit(["a"])
        circuit.add_gate("g1", "and", ["a", "y"], "y",
                         PureDelayChannel(1 * PS))
        with pytest.raises(NetlistError, match="loop"):
            circuit.topological_order()

    @pytest.mark.parametrize("name", sorted(STA_CIRCUITS))
    def test_builtin_circuits_match_networkx(self, name):
        nx = pytest.importorskip("networkx")
        circuit = sta_circuit(name, PAPER_TABLE_I)
        assert _names(circuit) == _networkx_order(nx, circuit)

    @pytest.mark.parametrize("seed, gates", [(0, 50), (1, 137),
                                             (2, 249)])
    def test_generated_netlists_match_networkx(self, seed, gates,
                                               monkeypatch):
        nx = pytest.importorskip("networkx")
        monkeypatch.syspath_prepend(REPO_DIR)
        from perfbench.netgen import generate_netlist
        circuit = generate_netlist(seed, gates).circuit
        assert _names(circuit) == _networkx_order(nx, circuit)


class TestSimulation:
    def test_inverter_chain_delays_accumulate(self):
        circuit = TimingCircuit(["a"])
        circuit.add_gate("g1", "inv", ["a"], "x",
                         PureDelayChannel(5 * PS))
        circuit.add_gate("g2", "inv", ["x"], "y",
                         PureDelayChannel(7 * PS))
        traces = simulate(circuit, {
            "a": DigitalTrace.from_edges(0, [100 * PS])})
        assert traces["x"].transitions == [(105 * PS, 0)]
        assert traces["y"].transitions == [(112 * PS, 1)]
        assert traces["y"].initial == 0

    def test_missing_input_trace(self):
        circuit = TimingCircuit(["a", "b"])
        with pytest.raises(NetlistError):
            simulate(circuit, {"a": DigitalTrace.constant(0)})

    def test_extra_trace_rejected(self):
        circuit = TimingCircuit(["a"])
        with pytest.raises(NetlistError):
            simulate(circuit, {"a": DigitalTrace.constant(0),
                               "zz": DigitalTrace.constant(0)})

    def test_hand_computed_nor_inv_circuit(self):
        """NOR feeding an inverter, all pure delays."""
        circuit = TimingCircuit(["a", "b"])
        circuit.add_gate("nor", "nor", ["a", "b"], "n1",
                         PureDelayChannel(10 * PS))
        circuit.add_gate("inv", "inv", ["n1"], "out",
                         PureDelayChannel(5 * PS))
        traces = simulate(circuit, {
            "a": DigitalTrace.from_edges(0, [100 * PS]),
            "b": DigitalTrace.from_edges(0, [300 * PS, 400 * PS]),
        })
        # n1: falls 10 ps after a rises; stays low (a stays high).
        assert traces["n1"].values == (0,)
        assert traces["n1"].times == pytest.approx((110 * PS,))
        assert traces["out"].values == (1,)
        assert traces["out"].times == pytest.approx((115 * PS,))

    def test_inertial_channel_filters_in_circuit(self):
        circuit = TimingCircuit(["a"])
        circuit.add_gate("buf", "buf", ["a"], "y",
                         InertialDelayChannel(50 * PS))
        traces = simulate(circuit, {
            "a": DigitalTrace.from_edges(0, [100 * PS, 120 * PS])})
        assert len(traces["y"]) == 0

    def test_hybrid_instance_in_circuit(self):
        circuit = TimingCircuit(["a", "b"])
        channel = HybridNorChannel(PAPER_TABLE_I)
        circuit.add_hybrid_nor("nor", "a", "b", "y", channel)
        circuit.add_gate("inv", "inv", ["y"], "z",
                         PureDelayChannel(5 * PS))
        traces = simulate(circuit, {
            "a": DigitalTrace.from_edges(0, [100 * PS]),
            "b": DigitalTrace.constant(0)})
        direct = channel.simulate(
            DigitalTrace.from_edges(0, [100 * PS]),
            DigitalTrace.constant(0))
        assert traces["y"] == direct
        assert traces["z"].times[0] == pytest.approx(
            direct.times[0] + 5 * PS)

    def test_inputs_passed_through_unchanged(self):
        circuit = TimingCircuit(["a"])
        circuit.add_gate("g", "buf", ["a"], "y",
                         PureDelayChannel(1 * PS))
        trace = DigitalTrace.from_edges(0, [10 * PS])
        traces = simulate(circuit, {"a": trace})
        assert traces["a"] is trace

    def test_simulate_single_channel_helper(self):
        channel = PureDelayChannel(3 * PS)
        trace = DigitalTrace.from_edges(0, [10 * PS])
        out = simulate_single_channel(channel, trace)
        assert out.times[0] == pytest.approx(13 * PS)
