"""Tests for repro.spice.dc and repro.spice.transient."""

import math

import numpy as np
import pytest

from repro.errors import ParameterError, SimulationError
from repro.spice.dc import dc_operating_point
from repro.spice.mna import MnaSystem
from repro.spice.netlist import Circuit
from repro.spice.technology import FINFET15, build_gate
from repro.spice.transient import (TransientOptions, transient_analysis)
from repro.spice.waveforms import Dc, EdgeTrain, Pwl
from repro.units import PS


def rc_circuit(r=1e3, c=1e-12, v=1.0, wave=None) -> Circuit:
    circuit = Circuit("rc")
    circuit.voltage_source("V1", "in", "0", wave if wave is not None
                           else v)
    circuit.resistor("R1", "in", "out", r)
    circuit.capacitor("C1", "out", "0", c)
    return circuit


class TestDcOperatingPoint:
    def test_divider(self):
        circuit = Circuit("divider")
        circuit.voltage_source("Vin", "in", "0", 1.0)
        circuit.resistor("R1", "in", "mid", 1e3)
        circuit.resistor("R2", "mid", "0", 3e3)
        system = MnaSystem(circuit)
        x = dc_operating_point(system)
        assert system.voltages(x)["mid"] == pytest.approx(0.75,
                                                          abs=1e-6)

    def test_branch_current(self):
        circuit = Circuit("loop")
        circuit.voltage_source("V1", "a", "0", 2.0)
        circuit.resistor("R1", "a", "0", 1e3)
        system = MnaSystem(circuit)
        x = dc_operating_point(system)
        # Source current flows out of + terminal: -2 mA through branch.
        assert x[system.n] == pytest.approx(-2e-3, rel=1e-6)

    def test_inverter_logic_levels(self):
        tech = FINFET15
        for vin, expected in ((0.0, tech.vdd), (tech.vdd, 0.0)):
            circuit = build_gate(tech, "nor", (Dc(vin),))
            system = MnaSystem(circuit)
            x = dc_operating_point(system)
            assert system.voltages(x)["o"] == pytest.approx(expected,
                                                            abs=1e-3)

    def test_inverter_vtc_monotone(self):
        tech = FINFET15
        outputs = []
        for vin in np.linspace(0.0, tech.vdd, 9):
            circuit = build_gate(tech, "nor", (Dc(float(vin)),))
            system = MnaSystem(circuit)
            x = dc_operating_point(system)
            outputs.append(system.voltages(x)["o"])
        assert all(o2 <= o1 + 1e-6 for o1, o2 in zip(outputs,
                                                     outputs[1:]))

    def test_diode_connected_nmos(self):
        """Hand-checkable nonlinear DC solution."""
        from repro.spice.devices import MosfetModel
        model = MosfetModel(polarity="n", vt=0.3, k=200e-6, lam=0.0)
        circuit = Circuit("diode")
        circuit.voltage_source("V1", "top", "0", 0.8)
        circuit.resistor("R1", "top", "d", 10e3)
        circuit.mosfet("M1", "d", "d", "0", model)
        system = MnaSystem(circuit)
        x = dc_operating_point(system)
        vd = system.voltages(x)["d"]
        # KCL: (0.8 - vd)/10k = 0.5*k*(vd-0.3)^2
        residual = (0.8 - vd) / 10e3 - 0.5 * 200e-6 * (vd - 0.3) ** 2
        assert residual == pytest.approx(0.0, abs=1e-9)
        assert 0.3 < vd < 0.8


class TestTransientRc:
    def test_charging_matches_analytic(self):
        """RC step response vs 1 - e^{-t/RC}."""
        r, c = 1e3, 1e-12
        wave = Pwl([(0.0, 0.0), (1e-15, 1.0)])
        circuit = rc_circuit(r=r, c=c, wave=wave)
        options = TransientOptions(dt_initial=1e-15, dt_max=2e-11,
                                   reltol=1e-4, v_scale=1.0)
        result = transient_analysis(circuit, 5e-9, options)
        tau = r * c
        for t in (0.5e-9, 1e-9, 2e-9, 4e-9):
            expected = 1.0 - math.exp(-t / tau)
            assert result.value_at("out", t) == pytest.approx(
                expected, abs=2e-3)

    def test_dc_start_is_settled(self):
        result = transient_analysis(rc_circuit(v=1.0), 1e-10,
                                    TransientOptions())
        assert result.value_at("out", 0.0) == pytest.approx(1.0,
                                                            abs=1e-6)
        assert result.value_at("out", 1e-10) == pytest.approx(1.0,
                                                              abs=1e-6)

    def test_be_more_dissipative_than_trap(self):
        """Backward Euler under-shoots the exact exponential; trap is
        closer."""
        r, c = 1e3, 1e-12
        wave = Pwl([(0.0, 0.0), (1e-15, 1.0)])
        tau = r * c

        def max_error(method):
            options = TransientOptions(dt_initial=5e-12, dt_max=5e-12,
                                       reltol=1.0,  # fixed steps
                                       method=method, v_scale=1.0)
            result = transient_analysis(rc_circuit(r=r, c=c, wave=wave),
                                        5e-9, options)
            errors = []
            for t in np.linspace(0.1e-9, 4e-9, 20):
                exact = 1.0 - math.exp(-t / tau)
                errors.append(abs(result.value_at("out", t) - exact))
            return max(errors)

        assert max_error("trap") < max_error("be")

    def test_crossing_extraction(self):
        r, c = 1e3, 1e-12
        wave = Pwl([(0.0, 0.0), (1e-15, 1.0)])
        result = transient_analysis(rc_circuit(r=r, c=c, wave=wave),
                                    5e-9, TransientOptions())
        crossings = result.crossings("out", 0.5, direction=+1)
        assert len(crossings) == 1
        assert crossings[0] == pytest.approx(math.log(2.0) * r * c,
                                             rel=1e-3)

    def test_crossing_direction_filter(self):
        wave = Pwl([(0.0, 0.0), (1e-15, 1.0), (2.5e-9, 1.0),
                    (2.5e-9 + 1e-15, 0.0)])
        result = transient_analysis(rc_circuit(wave=wave), 6e-9,
                                    TransientOptions())
        ups = result.crossings("out", 0.5, direction=+1)
        downs = result.crossings("out", 0.5, direction=-1)
        assert len(ups) == 1
        assert len(downs) == 1
        assert ups[0] < downs[0]

    def test_breakpoints_are_hit(self):
        """A step in the middle of the run lands exactly on a sample."""
        wave = Pwl([(1e-9, 0.0), (1e-9 + 1e-15, 1.0)])
        result = transient_analysis(rc_circuit(wave=wave), 2e-9,
                                    TransientOptions())
        assert np.any(np.isclose(result.times, 1e-9, atol=1e-16))

    def test_statistics_present(self):
        result = transient_analysis(rc_circuit(), 1e-10,
                                    TransientOptions())
        assert result.statistics["steps"] > 0
        assert "newton_failures" in result.statistics

    def test_store_every(self):
        options_full = TransientOptions()
        options_thin = TransientOptions(store_every=4)
        full = transient_analysis(rc_circuit(), 1e-10, options_full)
        thin = transient_analysis(rc_circuit(), 1e-10, options_thin)
        assert len(thin.times) < len(full.times)
        assert thin.times[-1] == pytest.approx(full.times[-1])

    def test_invalid_options(self):
        with pytest.raises(SimulationError):
            TransientOptions(method="rk4")
        with pytest.raises(SimulationError):
            TransientOptions(dt_initial=1e-9, dt_max=1e-12)

    @pytest.mark.parametrize("t_stop", [math.inf, -math.inf, math.nan])
    def test_non_finite_stop_rejected(self, t_stop):
        """An infinite window used to step forever, one solution per
        ``dt_max``; NaN ended in a Newton failure."""
        with pytest.raises(ParameterError):
            transient_analysis(rc_circuit(), t_stop)


class TestTransientEdgeTrain:
    def test_inverter_responds_to_edge(self):
        tech = FINFET15
        wave = EdgeTrain([(100 * PS, 1)], tech.vdd,
                         tech.input_edge_time)
        circuit = build_gate(tech, "nor", (wave,))
        result = transient_analysis(circuit, 300 * PS,
                                    TransientOptions(v_scale=tech.vdd))
        assert result.value_at("o", 0.0) == pytest.approx(tech.vdd,
                                                          abs=1e-3)
        assert result.value_at("o", 300 * PS) == pytest.approx(
            0.0, abs=5e-3)
        crossings = result.crossings("o", tech.vth, direction=-1)
        assert len(crossings) == 1
        assert crossings[0] > 100 * PS
