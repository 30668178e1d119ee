"""STA vs full event simulation — the subsystem's acceptance gate.

For single-switching scenarios on the paper's NOR circuits the
MIS-conditioned STA arrivals must coincide with the event-driven
hybrid-automaton simulation; the ISSUE acceptance bound is 0.1 ps
(observed agreement is at root-search tolerance, ≪ 1 fs).
"""

import math

import pytest

from repro.analysis.experiments import experiment_sta, sta_scenarios
from repro.core.parameters import PAPER_TABLE_I
from repro.library import CharacterizationJob, characterize_gate
from repro.sta import TimingNode, analyze, build_timing_graph, sta_circuit
from repro.timing import (DigitalTrace, TableDelayChannel,
                          TimingCircuit, simulate)
from repro.units import PS

#: ISSUE acceptance bound for STA-vs-simulation agreement.
AGREEMENT_TOL = 0.1 * PS


class TestExperimentSta:
    @pytest.fixture(scope="class")
    def result(self):
        return experiment_sta()

    def test_acceptance_bound(self, result):
        assert result.max_error <= AGREEMENT_TOL

    def test_covers_all_circuits(self, result):
        circuits = {check.circuit for check in result.checks}
        assert circuits == {"nor2", "chain", "tree", "nor3",
                            "nor3_mixed"}

    def test_covers_both_directions(self, result):
        nodes = " ".join(check.node for check in result.checks)
        assert "↑" in nodes and "↓" in nodes

    def test_rendering(self, result):
        assert "STA arrivals vs full event simulation" in result.text
        assert "acceptance" in result.text

    def test_scenarios_are_single_switching(self):
        for _name, _arrivals, traces in sta_scenarios():
            for trace in traces.values():
                assert len(trace.transitions) <= 1

    def test_engine_choice_is_equivalent(self):
        reference = experiment_sta(engine="reference")
        assert reference.max_error <= AGREEMENT_TOL

    def test_hybrid_circuits_run_the_event_simulator(self, monkeypatch):
        """Circuits built only from the paper's two-input hybrid NOR
        are checked against the event-driven simulator; only the
        n-input scenarios fall back to the feed-forward engine."""
        from repro.timing import event_simulator

        def signature(circuit):
            return (tuple(circuit.inputs),
                    tuple(instance.name for instance in circuit.instances))

        seen = []
        real = event_simulator.simulate_events

        def spy(circuit, *args, **kwargs):
            seen.append(signature(circuit))
            return real(circuit, *args, **kwargs)

        monkeypatch.setattr(event_simulator, "simulate_events", spy)
        experiment_sta()
        assert set(seen) == {signature(sta_circuit(name))
                             for name in ("nor2", "chain", "tree")}


class TestTableBackedCrossValidation:
    def test_table_circuit_matches_table_simulation(self):
        """A NOR->NAND table circuit: STA arrivals equal the
        TableDelayChannel event scheduling exactly."""
        nor_table = characterize_gate(
            CharacterizationJob("nor2_t", PAPER_TABLE_I, "nor2"))
        nand_table = characterize_gate(
            CharacterizationJob("nand2_t", PAPER_TABLE_I, "nand2"))
        circuit = TimingCircuit(["a", "b", "c"])
        circuit.add_mis_gate("g0", ("a", "b"), "n1",
                             TableDelayChannel(nor_table))
        circuit.add_mis_gate("g1", ("n1", "c"), "y",
                             TableDelayChannel(nand_table))
        graph = build_timing_graph(circuit)

        t0 = 100.0 * PS
        inf = math.inf
        result = analyze(graph,
                         arrivals={"a": (t0, -inf),
                                   "b": (t0 + 7.0 * PS, -inf),
                                   "c": (-inf, inf)})
        traces = {"a": DigitalTrace(0, [(t0, 1)]),
                  "b": DigitalTrace(0, [(t0 + 7.0 * PS, 1)]),
                  "c": DigitalTrace(1, [])}
        simulated = simulate(circuit, traces)
        for signal in ("n1", "y"):
            for time, value in simulated[signal].transitions:
                node = TimingNode(signal,
                                  "rise" if value == 1 else "fall")
                assert result.arrivals[node] == pytest.approx(
                    time, abs=1e-15)
