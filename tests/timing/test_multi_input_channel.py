"""n-input MIS channels and circuit instances."""

import numpy as np
import pytest

from repro.core import PAPER_TABLE_I
from repro.core.multi_input import (GeneralizedNorParameters,
                                    generalized_model,
                                    paper_generalized)
from repro.errors import NetlistError, SimulationError, TraceError
from repro.library import CharacterizationJob, characterize_gate
from repro.timing.channels import (GeneralizedNorChannel,
                                   HybridNorChannel,
                                   TableDelayChannel)
from repro.timing.circuit import MultiInputInstance, TimingCircuit
from repro.timing.event_simulator import simulate_events
from repro.timing.simulator import simulate
from repro.timing.trace import DigitalTrace
from repro.units import PS


@pytest.fixture(scope="module")
def p3():
    return paper_generalized(3)


@pytest.fixture(scope="module")
def channel3(p3):
    return GeneralizedNorChannel(p3)


@pytest.fixture(scope="module")
def nor3_table(p3):
    axis = tuple(np.linspace(-80 * PS, 80 * PS, 41))
    return characterize_gate(
        CharacterizationJob("nor3_t", p3, "nor3", deltas=axis))


class TestGeneralizedNorChannel:
    def test_two_input_matches_hybrid_channel(self):
        narrow = GeneralizedNorParameters.from_two_input(
            PAPER_TABLE_I)
        general = GeneralizedNorChannel(narrow)
        hybrid = HybridNorChannel(PAPER_TABLE_I)
        a = DigitalTrace(0, [(100 * PS, 1), (700 * PS, 0)])
        b = DigitalTrace(0, [(112 * PS, 1), (800 * PS, 0)])
        out_general = general.simulate(a, b)
        out_hybrid = hybrid.simulate(a, b)
        assert out_general.initial == out_hybrid.initial
        assert len(out_general.transitions) == \
            len(out_hybrid.transitions)
        for (tg, vg), (th, vh) in zip(out_general.transitions,
                                      out_hybrid.transitions):
            assert vg == vh
            assert tg == pytest.approx(th, abs=1e-5 * PS)

    def test_matches_model_crossings(self, channel3, p3):
        events = [[(100 * PS, 1)], [(109 * PS, 1)], [(125 * PS, 1)]]
        traces = [DigitalTrace(0, e) for e in events]
        out = channel3.simulate(*traces)
        exact = generalized_model(p3).output_crossings_for_inputs(
            events, initial_inputs=[0, 0, 0])
        assert out.transitions == exact

    def test_initial_output(self, channel3):
        assert channel3.initial_output(0, 0, 0) == 1
        assert channel3.initial_output(0, 1, 0) == 0
        with pytest.raises(TraceError):
            channel3.initial_output(0, 0)

    def test_trace_count_checked(self, channel3):
        with pytest.raises(TraceError):
            channel3.simulate(DigitalTrace(0, []),
                              DigitalTrace(0, []))

    def test_negative_events_rejected(self, channel3):
        with pytest.raises(TraceError):
            channel3.simulate(DigitalTrace(0, [(-1 * PS, 1)]),
                              DigitalTrace(0, []),
                              DigitalTrace(0, []))

    def test_inputs_property(self, channel3):
        assert channel3.inputs == 3


class TestNInputTableChannel:
    def test_tracks_exact_channel(self, channel3, nor3_table):
        table_channel = TableDelayChannel(nor3_table)
        assert table_channel.inputs == 3
        traces = (DigitalTrace(0, [(100 * PS, 1)]),
                  DigitalTrace(0, [(108 * PS, 1)]),
                  DigitalTrace(0, [(115 * PS, 1)]))
        exact = channel3.simulate(*traces)
        replay = table_channel.simulate(*traces)
        assert [v for _, v in replay.transitions] == \
            [v for _, v in exact.transitions]
        # Agreement to the table's interpolation error (coarse grid).
        for (tr, _), (te, _) in zip(replay.transitions,
                                    exact.transitions):
            assert tr == pytest.approx(te, abs=2.0 * PS)

    def test_mis_rescheduling_uses_vector_lookup(self, nor3_table,
                                                 p3):
        """Two controlling inputs inside the pending window: the
        rescheduled crossing reads the Δ-vector interior, not an SIS
        edge."""
        table_channel = TableDelayChannel(nor3_table)
        traces = (DigitalTrace(0, [(100 * PS, 1)]),
                  DigitalTrace(0, [(104 * PS, 1)]),
                  DigitalTrace(0, []))
        out = table_channel.simulate(*traces)
        assert len(out.transitions) == 1
        t, value = out.transitions[0]
        assert value == 0
        expected = 100 * PS + nor3_table.delay_falling(
            [4 * PS, np.inf], clamp=True)
        assert t == pytest.approx(expected, abs=1e-18)

    def test_series_rising_vector(self, channel3, nor3_table):
        table_channel = TableDelayChannel(nor3_table)
        traces = (DigitalTrace(1, [(100 * PS, 0)]),
                  DigitalTrace(1, [(104 * PS, 0)]),
                  DigitalTrace(1, [(112 * PS, 0)]))
        out = table_channel.simulate(*traces)
        exact = channel3.simulate(*traces)
        assert [v for _, v in out.transitions] == [1]
        assert out.transitions[0][0] == pytest.approx(
            exact.transitions[0][0], abs=2.0 * PS)

    def test_trace_count_checked(self, nor3_table):
        with pytest.raises(TraceError):
            TableDelayChannel(nor3_table).simulate(
                DigitalTrace(0, []), DigitalTrace(0, []))


class TestCircuitInstances:
    def test_n_input_form_builds_multi_instance(self, channel3):
        circuit = TimingCircuit(["a", "b", "c"])
        instance = circuit.add_mis_gate("g0", ["a", "b", "c"], "y",
                                        channel3)
        assert isinstance(instance, MultiInputInstance)
        assert instance.inputs == ("a", "b", "c")

    def test_n_input_form_accepts_keywords(self, channel3):
        circuit = TimingCircuit(["a", "b", "c"])
        kw = circuit.add_mis_gate("g0", ["a", "b", "c"], output="y",
                                  channel=channel3)
        mixed = circuit.add_mis_gate("g1", ["a", "b", "c"], "z",
                                     channel=channel3)
        assert isinstance(kw, MultiInputInstance)
        assert (kw.output, mixed.output) == ("y", "z")
        with pytest.raises(TypeError):
            circuit.add_mis_gate("g2", ["a", "b", "c"],
                                 channel=channel3)

    def test_two_input_gate_is_multi_input(self):
        circuit = TimingCircuit(["a", "b"])
        channel = HybridNorChannel(PAPER_TABLE_I)
        instance = circuit.add_mis_gate("g0", ("a", "b"), "y", channel)
        wrapped = circuit.add_hybrid_nor("g1", "a", "b", "z", channel)
        for built in (instance, wrapped):
            assert isinstance(built, MultiInputInstance)
            assert built.inputs == ("a", "b")

    def test_bare_string_inputs_rejected(self):
        circuit = TimingCircuit(["a", "b"])
        with pytest.raises(NetlistError, match="sequence"):
            circuit.add_mis_gate("g0", "ab", "y",
                                 HybridNorChannel(PAPER_TABLE_I))

    def test_channel_width_mismatch_rejected(self, channel3):
        circuit = TimingCircuit(["a", "b"])
        with pytest.raises(NetlistError):
            circuit.add_hybrid_nor("g0", "a", "b", "y", channel3)
        with pytest.raises(NetlistError):
            circuit.add_mis_gate("g1", ["a", "b"], "y", channel3)

    def test_non_mis_channel_rejected(self):
        circuit = TimingCircuit(["a", "b", "c"])
        with pytest.raises(NetlistError):
            circuit.add_mis_gate("g0", ["a", "b", "c"], "y", object())

    def test_feed_forward_simulation(self, channel3, p3):
        circuit = TimingCircuit(["a", "b", "c"])
        circuit.add_mis_gate("g0", ["a", "b", "c"], "y", channel3)
        traces = {"a": DigitalTrace(0, [(100 * PS, 1)]),
                  "b": DigitalTrace(0, [(110 * PS, 1)]),
                  "c": DigitalTrace(0, [(130 * PS, 1)])}
        out = simulate(circuit, traces)["y"]
        exact = generalized_model(p3).output_crossings_for_inputs(
            [[(100 * PS, 1)], [(110 * PS, 1)], [(130 * PS, 1)]],
            initial_inputs=[0, 0, 0])
        assert out.transitions == exact

    def test_event_simulator_rejects_cleanly(self, channel3):
        circuit = TimingCircuit(["a", "b", "c"])
        circuit.add_mis_gate("g0", ["a", "b", "c"], "y", channel3)
        traces = {"a": DigitalTrace(0, []), "b": DigitalTrace(0, []),
                  "c": DigitalTrace(0, [])}
        with pytest.raises(SimulationError):
            simulate_events(circuit, traces, t_stop=1000 * PS)

    def test_event_simulator_rejects_two_input_generalized(self):
        """Only the hybrid NOR channel runs the incremental automaton;
        a 2-input generalized channel also carries ``params`` but is
        still served by the feed-forward simulator only."""
        narrow = GeneralizedNorParameters.from_two_input(PAPER_TABLE_I)
        circuit = TimingCircuit(["a", "b"])
        circuit.add_mis_gate("g0", ("a", "b"), "y",
                             GeneralizedNorChannel(narrow))
        traces = {"a": DigitalTrace(0, []), "b": DigitalTrace(0, [])}
        with pytest.raises(SimulationError, match="feed-forward"):
            simulate_events(circuit, traces, t_stop=1000 * PS)
