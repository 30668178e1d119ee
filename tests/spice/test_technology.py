"""Tests for repro.spice.technology — cells and cards."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.spice.dc import dc_operating_point
from repro.spice.measure import (crossing_after, gate_delay, slew_time)
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit
from repro.spice.technology import (BULK65, FINFET15, build_gate,
                                    build_inverter_chain, stamp_gate)
from repro.spice.transient import TransientOptions, transient_analysis
from repro.spice.waveforms import Dc, EdgeTrain
from repro.units import FF, PS


class TestCards:
    def test_finfet15_supply(self):
        assert FINFET15.vdd == pytest.approx(0.8)
        assert FINFET15.vth == pytest.approx(0.4)

    def test_bulk65_supply(self):
        assert BULK65.vdd == pytest.approx(1.2)

    def test_polarity_assignment(self):
        assert FINFET15.nmos.polarity == "n"
        assert FINFET15.pmos.polarity == "p"


class TestNor2Structure:
    def test_nodes(self):
        circuit = build_gate(FINFET15, "nor", (0.0, 0.0))
        assert set(circuit.node_names) == {"vdd", "a", "b", "n", "o"}

    def test_validates(self):
        build_gate(FINFET15, "nor", (0.0, 0.0)).validate()

    def test_four_transistors(self):
        from repro.spice.devices import Mosfet
        circuit = build_gate(FINFET15, "nor", (0.0, 0.0))
        fets = circuit.devices_of_type(Mosfet)
        assert len(fets) == 4
        polarities = sorted(f.model.polarity for f in fets)
        assert polarities == ["n", "n", "p", "p"]

    def test_negative_load_rejected(self):
        with pytest.raises(ParameterError):
            build_gate(FINFET15, "nor", (0.0, 0.0), output_load=-1 * FF)

    @pytest.mark.parametrize("a,b,expected_high", [
        (0.0, 0.0, True),
        (0.8, 0.0, False),
        (0.0, 0.8, False),
        (0.8, 0.8, False),
    ])
    def test_dc_truth_table(self, a, b, expected_high):
        """The NOR2 cell implements NOR at DC."""
        circuit = build_gate(FINFET15, "nor", (Dc(a), Dc(b)))
        system = MnaSystem(circuit)
        x = dc_operating_point(system)
        vo = system.voltages(x)["o"]
        if expected_high:
            assert vo > 0.75 * FINFET15.vdd
        else:
            assert vo < 0.25 * FINFET15.vdd

    def test_internal_node_charged_when_a_low(self):
        circuit = build_gate(FINFET15, "nor", (Dc(0.0), Dc(0.8)))
        system = MnaSystem(circuit)
        x = dc_operating_point(system)
        assert system.voltages(x)["n"] > 0.75 * FINFET15.vdd


class TestNor2Dynamics:
    def test_output_falls_when_one_input_rises(self):
        tech = FINFET15
        wave = EdgeTrain([(200 * PS, 1)], tech.vdd,
                         tech.input_edge_time)
        circuit = build_gate(tech, "nor", (wave, Dc(0.0)))
        result = transient_analysis(circuit, 500 * PS,
                                    TransientOptions(v_scale=tech.vdd))
        delay = gate_delay(result, "a", "o", tech.vth, edge_out=-1)
        assert 20 * PS < delay < 60 * PS

    def test_parallel_inputs_faster(self):
        """The structural origin of the falling MIS speed-up."""
        tech = FINFET15

        def falling_delay(drive_both: bool) -> float:
            wave = EdgeTrain([(200 * PS, 1)], tech.vdd,
                             tech.input_edge_time)
            wave_b = wave if drive_both else Dc(0.0)
            circuit = build_gate(tech, "nor", (wave, wave_b))
            result = transient_analysis(
                circuit, 500 * PS, TransientOptions(v_scale=tech.vdd))
            return crossing_after(result, "o", tech.vth, 100 * PS,
                                  -1) - 200 * PS

        assert falling_delay(True) < falling_delay(False)

    def test_bulk65_slower_than_finfet15(self):
        def sis_delay(tech):
            wave = EdgeTrain([(500 * PS, 1)], tech.vdd,
                             tech.input_edge_time)
            circuit = build_gate(tech, "nor", (wave, Dc(0.0)))
            result = transient_analysis(
                circuit, 1500 * PS, TransientOptions(v_scale=tech.vdd))
            return crossing_after(result, "o", tech.vth, 100 * PS,
                                  -1) - 500 * PS

        assert sis_delay(BULK65) > 1.8 * sis_delay(FINFET15)


class TestWideCells:
    """One stamp for every width: NOR3/NAND3 stacks and their logic."""

    def test_nor3_stack_from_the_rail(self):
        from repro.spice.devices import Mosfet
        circuit = build_gate(FINFET15, "nor", (0.0, 0.0, 0.0))
        assert set(circuit.node_names) == {"vdd", "a", "b", "c", "n1",
                                           "n2", "o"}
        fets = circuit.devices_of_type(Mosfet)
        stack = [(f.source, f.gate, f.drain) for f in fets[:3]]
        assert stack == [("vdd", "a", "n1"), ("n1", "b", "n2"),
                         ("n2", "c", "o")]
        assert all(f.model.polarity == "p" for f in fets[:3])
        assert [(f.gate, f.source) for f in fets[3:]] == [
            ("a", "0"), ("b", "0"), ("c", "0")]

    def test_nand4_internal_nodes(self):
        circuit = build_gate(FINFET15, "nand", (0.0,) * 4)
        assert {"m1", "m2", "m3"} <= set(circuit.node_names)

    @pytest.mark.parametrize("gate", ["nor", "nand"])
    def test_dc_truth_table_three_inputs(self, gate):
        vdd = FINFET15.vdd
        for bits in range(8):
            levels = [(bits >> k) & 1 for k in range(3)]
            circuit = build_gate(FINFET15, gate,
                                 [Dc(vdd * level) for level in levels])
            system = MnaSystem(circuit)
            vo = system.voltages(dc_operating_point(system))["o"]
            high = not any(levels) if gate == "nor" else not all(levels)
            assert (vo > 0.75 * vdd) if high else (vo < 0.25 * vdd)

    def test_prefix_names_internal_nodes(self):
        circuit = Circuit("shared")
        stamp_gate(circuit, FINFET15, "nor", ["a", "b", "c"], "y",
                   prefix="g1_")
        assert {"g1_n1", "g1_n2"} <= set(circuit.node_names)

    @pytest.mark.parametrize("gate,inputs", [("xor", ["a", "b"]),
                                             ("nor", [])])
    def test_stamp_validation(self, gate, inputs):
        with pytest.raises(ParameterError):
            stamp_gate(Circuit("bad"), FINFET15, gate, inputs, "o")


class TestInverters:
    def test_inverter_nodes(self):
        circuit = build_gate(FINFET15, "nor", (0.0,))
        assert set(circuit.node_names) == {"vdd", "a", "o"}

    def test_chain_structure(self):
        circuit = build_inverter_chain(FINFET15, 0.0, stages=3)
        assert set(circuit.node_names) == {"vdd", "a", "s1", "s2", "s3"}

    def test_chain_needs_stage(self):
        with pytest.raises(ParameterError):
            build_inverter_chain(FINFET15, 0.0, stages=0)

    def test_chain_propagates_and_alternates(self):
        tech = FINFET15
        wave = EdgeTrain([(200 * PS, 1)], tech.vdd,
                         tech.input_edge_time)
        circuit = build_inverter_chain(tech, wave, stages=2)
        result = transient_analysis(circuit, 600 * PS,
                                    TransientOptions(v_scale=tech.vdd))
        fall = crossing_after(result, "s1", tech.vth, 150 * PS, -1)
        rise = crossing_after(result, "s2", tech.vth, 150 * PS, +1)
        assert rise > fall > 200 * PS


class TestMeasureHelpers:
    @pytest.fixture(scope="class")
    def inverter_result(self):
        tech = FINFET15
        wave = EdgeTrain([(200 * PS, 1), (600 * PS, 0)], tech.vdd,
                         tech.input_edge_time)
        circuit = build_gate(tech, "nor", (wave,))
        return transient_analysis(circuit, 1000 * PS,
                                  TransientOptions(v_scale=tech.vdd))

    def test_crossing_after_raises_when_absent(self, inverter_result):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            crossing_after(inverter_result, "o", 0.4, 900 * PS, -1)

    def test_gate_delay_with_explicit_reference(self, inverter_result):
        d1 = gate_delay(inverter_result, "a", "o", 0.4, edge_out=-1)
        d2 = gate_delay(inverter_result, "a", "o", 0.4, edge_out=-1,
                        t_in=200 * PS)
        assert d1 == pytest.approx(d2, abs=0.5 * PS)

    def test_slew_time_positive(self, inverter_result):
        slew = slew_time(inverter_result, "o", 0.1 * 0.8, 0.9 * 0.8,
                         after=500 * PS, rising=True)
        assert slew > 0.0

    def test_slew_requires_order(self, inverter_result):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            slew_time(inverter_result, "o", 0.6, 0.2)
