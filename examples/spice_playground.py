"""Direct use of the analog substrate: inverters, VTC, waveforms.

Demonstrates the MNA simulator underneath the characterization
pipeline: DC operating points, a DC-swept inverter transfer curve, and
a transient run of a four-stage inverter chain.

Run:  python examples/spice_playground.py
"""

import numpy as np

from repro.analysis.reporting import ascii_table
from repro.spice import (FINFET15, Circuit, Dc, EdgeTrain, MnaSystem,
                         TransientOptions, build_gate,
                         build_inverter_chain, dc_operating_point,
                         transient_analysis)
from repro.units import PS, to_ps


def voltage_divider() -> None:
    circuit = Circuit("divider")
    circuit.voltage_source("Vin", "in", "0", 1.0)
    circuit.resistor("R1", "in", "mid", 1e3)
    circuit.resistor("R2", "mid", "0", 3e3)
    system = MnaSystem(circuit)
    solution = dc_operating_point(system)
    voltages = system.voltages(solution)
    print(f"DC divider: V(mid) = {voltages['mid']:.3f} V "
          "(expected 0.750 V)\n")


def inverter_vtc() -> None:
    tech = FINFET15
    rows = []
    for vin in np.linspace(0.0, tech.vdd, 9):
        circuit = build_gate(tech, "nor", (Dc(float(vin)),))
        system = MnaSystem(circuit)
        solution = dc_operating_point(system)
        vout = system.voltages(solution)["o"]
        rows.append([f"{vin:.2f}", f"{vout:.3f}"])
    print(ascii_table(["Vin [V]", "Vout [V]"], rows,
                      title="Inverter DC transfer curve (15 nm card)"))
    print()


def inverter_chain_transient() -> None:
    tech = FINFET15
    wave = EdgeTrain([(200 * PS, 1), (800 * PS, 0)], tech.vdd,
                     tech.input_edge_time)
    circuit = build_inverter_chain(tech, wave, stages=4)
    result = transient_analysis(circuit, 1200 * PS,
                                TransientOptions(v_scale=tech.vdd))
    print("Inverter chain: threshold crossings per stage")
    rows = []
    for stage in range(1, 5):
        node = f"s{stage}"
        crossings = result.crossings(node, tech.vth)
        rows.append([node, ", ".join(f"{to_ps(t):.1f}"
                                     for t in crossings)])
    print(ascii_table(["node", "Vth crossings [ps]"], rows))
    stats = result.statistics
    print(f"\n({stats['steps']:.0f} accepted steps, "
          f"{stats['rejected']:.0f} rejected)")


def main() -> None:
    voltage_divider()
    inverter_vtc()
    inverter_chain_transient()


if __name__ == "__main__":
    main()
