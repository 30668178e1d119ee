"""Technology cards and standard-cell builders.

The paper's golden reference is a Spectre simulation of a NOR2 cell from
the Nangate 15 nm FreePDK15 FinFET library (VDD = 0.8 V), with parasitics
extracted from a placed-and-routed layout; a 65 nm bulk library
(VDD = 1.2 V) is used as a cross-check.  Neither library is public in a
form usable here, so this module defines *synthetic* technology cards
whose NOR2 reproduces the paper's delay landscape:

* SIS delays of a few tens of ps (15 nm card) with
  ``δ↑(∞) < δ↑(−∞)`` and ``δ↓(0) ≪ δ↓(±∞)``;
* the falling-output MIS *speed-up* from the parallel nMOS pair;
* the rising-output MIS *slow-down* peak near ``Δ = 0`` caused by
  input-to-N gate-overlap coupling (the effect the paper's ideal-switch
  model cannot capture);
* local falling-delay maxima at medium ``|Δ|`` from input-to-output
  coupling.

The structural sources of these effects (stack topology, internal node,
Miller caps) are modeled exactly; only absolute numbers are tuned, which
is all the reproduction needs.
"""

from __future__ import annotations

import dataclasses

from ..errors import ParameterError
from ..units import FF, PS
from .devices import MosfetModel
from .netlist import Circuit
from .waveforms import Waveform

__all__ = ["TechnologyCard", "FINFET15", "BULK65",
           "build_nor2", "build_nand2", "build_inverter",
           "build_inverter_chain"]


@dataclasses.dataclass(frozen=True)
class TechnologyCard:
    """Everything needed to instantiate cells of one technology.

    Attributes:
        name: card identifier.
        vdd: supply voltage, volts.
        nmos: NMOS model card (per unit-width device).
        pmos: PMOS model card (per unit-width device).
        input_edge_time: 0-to-100 % input transition time, seconds.
        cn_extra: extra wiring parasitic at the NOR's internal node N.
        output_load: default load capacitance at cell outputs, farads.
    """

    name: str
    vdd: float
    nmos: MosfetModel
    pmos: MosfetModel
    input_edge_time: float
    cn_extra: float
    output_load: float

    @property
    def vth(self) -> float:
        """Logic threshold ``VDD/2`` used for all digitization."""
        return self.vdd / 2.0


#: Synthetic 15 nm-class FinFET card (paper's primary technology).
#:
#: Calibrated against the paper's Fig. 2 landscape:
#: δ↓ ≈ 38.0 / 26.6 / 39.4 ps (paper ≈ 38 / 28 / 39.5, MIS speed-up
#: −30 % vs −28 %); δ↑ ≈ 56.3 / peak 59.5 / 53.7 ps with the correct
#: ordering δ↑(−∞) > δ↑(∞) and a slow-down peak near Δ = 0.
FINFET15 = TechnologyCard(
    name="finfet15",
    vdd=0.8,
    nmos=MosfetModel(polarity="n", vt=0.38, k=330e-6, lam=0.08,
                     cgs=0.045 * FF, cgd=0.030 * FF, cdb=0.050 * FF),
    pmos=MosfetModel(polarity="p", vt=0.37, k=365e-6, lam=0.08,
                     cgs=0.010 * FF, cgd=0.008 * FF, cdb=0.045 * FF),
    input_edge_time=60.0 * PS,
    cn_extra=0.025 * FF,
    output_load=1.50 * FF,
)

#: Synthetic 65 nm-class bulk card (paper's footnote-2 cross-check).
#: Same structure, ~4x slower, VDD = 1.2 V.
BULK65 = TechnologyCard(
    name="bulk65",
    vdd=1.2,
    nmos=MosfetModel(polarity="n", vt=0.55, k=300e-6, lam=0.06,
                     cgs=0.18 * FF, cgd=0.12 * FF, cdb=0.20 * FF),
    pmos=MosfetModel(polarity="p", vt=0.54, k=340e-6, lam=0.06,
                     cgs=0.04 * FF, cgd=0.032 * FF, cdb=0.18 * FF),
    input_edge_time=180.0 * PS,
    cn_extra=0.10 * FF,
    output_load=5.0 * FF,
)


def build_nor2(tech: TechnologyCard, wave_a: Waveform | float,
               wave_b: Waveform | float,
               output_load: float | None = None,
               name: str = "nor2") -> Circuit:
    """Transistor-level NOR2 driven by the given input waveforms.

    The topology matches the paper's Fig. 1: series pMOS ``T1`` (gate A,
    VDD side) and ``T2`` (gate B) with internal node ``n``; parallel
    nMOS ``T3`` (gate A) and ``T4`` (gate B); explicit parasitic
    capacitance at ``n`` and load at ``o``; gate-overlap (Miller) and
    junction capacitances per device.

    Nodes: ``vdd, a, b, n, o`` (+ ground).
    """
    if output_load is None:
        output_load = tech.output_load
    if output_load < 0.0:
        raise ParameterError("output_load must be non-negative")

    nmos, pmos = tech.nmos, tech.pmos
    circuit = Circuit(name)
    circuit.voltage_source("Vdd", "vdd", "0", tech.vdd)
    circuit.voltage_source("Va", "a", "0", wave_a)
    circuit.voltage_source("Vb", "b", "0", wave_b)

    circuit.mosfet("T1", drain="n", gate="a", source="vdd", model=pmos)
    circuit.mosfet("T2", drain="o", gate="b", source="n", model=pmos)
    circuit.mosfet("T3", drain="o", gate="a", source="0", model=nmos)
    circuit.mosfet("T4", drain="o", gate="b", source="0", model=nmos)

    # Gate-overlap coupling capacitances (the Charlie-effect carriers).
    circuit.capacitor("Cgd1", "a", "n", pmos.cgd)
    circuit.capacitor("Cgs2", "b", "n", pmos.cgs)
    circuit.capacitor("Cgd2", "b", "o", pmos.cgd)
    circuit.capacitor("Cgd3", "a", "o", nmos.cgd)
    circuit.capacitor("Cgd4", "b", "o", nmos.cgd)
    # Junction capacitances (to the respective bulk rails).
    circuit.capacitor("Cdb1", "n", "vdd", pmos.cdb)
    circuit.capacitor("Csb2", "n", "vdd", pmos.cdb)
    circuit.capacitor("Cdb2", "o", "vdd", pmos.cdb)
    circuit.capacitor("Cdb3", "o", "0", nmos.cdb)
    circuit.capacitor("Cdb4", "o", "0", nmos.cdb)
    # Wiring parasitics and output load.
    circuit.capacitor("Cn", "n", "0", tech.cn_extra)
    circuit.capacitor("Co", "o", "0", output_load)
    return circuit


def build_nand2(tech: TechnologyCard, wave_a: Waveform | float,
                wave_b: Waveform | float,
                output_load: float | None = None,
                name: str = "nand2") -> Circuit:
    """Transistor-level NAND2 — the NOR's CMOS mirror dual.

    Series nMOS stack with internal node ``m`` (gate A on the rail
    side, matching the NOR's T1 convention), parallel pMOS pair, and
    the mirrored set of coupling/junction capacitances.

    Nodes: ``vdd, a, b, m, o`` (+ ground).
    """
    if output_load is None:
        output_load = tech.output_load
    if output_load < 0.0:
        raise ParameterError("output_load must be non-negative")

    nmos, pmos = tech.nmos, tech.pmos
    circuit = Circuit(name)
    circuit.voltage_source("Vdd", "vdd", "0", tech.vdd)
    circuit.voltage_source("Va", "a", "0", wave_a)
    circuit.voltage_source("Vb", "b", "0", wave_b)

    circuit.mosfet("N1", drain="m", gate="a", source="0", model=nmos)
    circuit.mosfet("N2", drain="o", gate="b", source="m", model=nmos)
    circuit.mosfet("P3", drain="o", gate="a", source="vdd", model=pmos)
    circuit.mosfet("P4", drain="o", gate="b", source="vdd", model=pmos)

    circuit.capacitor("Cgd1", "a", "m", nmos.cgd)
    circuit.capacitor("Cgs2", "b", "m", nmos.cgs)
    circuit.capacitor("Cgd2", "b", "o", nmos.cgd)
    circuit.capacitor("Cgd3", "a", "o", pmos.cgd)
    circuit.capacitor("Cgd4", "b", "o", pmos.cgd)
    circuit.capacitor("Cdb1", "m", "0", nmos.cdb)
    circuit.capacitor("Csb2", "m", "0", nmos.cdb)
    circuit.capacitor("Cdb2", "o", "0", nmos.cdb)
    circuit.capacitor("Cdb3", "o", "vdd", pmos.cdb)
    circuit.capacitor("Cdb4", "o", "vdd", pmos.cdb)
    circuit.capacitor("Cm", "m", "0", tech.cn_extra)
    circuit.capacitor("Co", "o", "0", output_load)
    return circuit


def build_inverter(tech: TechnologyCard, wave_in: Waveform | float,
                   output_load: float | None = None,
                   name: str = "inverter") -> Circuit:
    """A CMOS inverter (used by examples and simulator tests).

    Nodes: ``vdd, a, o`` (+ ground).
    """
    if output_load is None:
        output_load = tech.output_load
    circuit = Circuit(name)
    circuit.voltage_source("Vdd", "vdd", "0", tech.vdd)
    circuit.voltage_source("Va", "a", "0", wave_in)
    circuit.mosfet("Mp", drain="o", gate="a", source="vdd",
                   model=tech.pmos)
    circuit.mosfet("Mn", drain="o", gate="a", source="0",
                   model=tech.nmos)
    circuit.capacitor("Cgdp", "a", "o", tech.pmos.cgd)
    circuit.capacitor("Cgdn", "a", "o", tech.nmos.cgd)
    circuit.capacitor("Cdbp", "o", "vdd", tech.pmos.cdb)
    circuit.capacitor("Cdbn", "o", "0", tech.nmos.cdb)
    circuit.capacitor("Co", "o", "0", output_load)
    return circuit


def build_inverter_chain(tech: TechnologyCard, wave_in: Waveform | float,
                         stages: int = 4,
                         output_load: float | None = None,
                         name: str = "inverter_chain") -> Circuit:
    """A chain of identical inverters (single-input benchmark circuit).

    Nodes: ``vdd, a, s1 .. s<stages>`` where ``s<stages>`` is the output.
    """
    if stages < 1:
        raise ParameterError("stages must be >= 1")
    if output_load is None:
        output_load = tech.output_load
    circuit = Circuit(name)
    circuit.voltage_source("Vdd", "vdd", "0", tech.vdd)
    circuit.voltage_source("Va", "a", "0", wave_in)
    node_in = "a"
    for i in range(1, stages + 1):
        node_out = f"s{i}"
        circuit.mosfet(f"Mp{i}", drain=node_out, gate=node_in,
                       source="vdd", model=tech.pmos)
        circuit.mosfet(f"Mn{i}", drain=node_out, gate=node_in,
                       source="0", model=tech.nmos)
        circuit.capacitor(f"Cgdp{i}", node_in, node_out, tech.pmos.cgd)
        circuit.capacitor(f"Cgdn{i}", node_in, node_out, tech.nmos.cgd)
        circuit.capacitor(f"Cdbp{i}", node_out, "vdd", tech.pmos.cdb)
        circuit.capacitor(f"Cdbn{i}", node_out, "0", tech.nmos.cdb)
        load = output_load if i == stages else 0.3 * FF
        circuit.capacitor(f"Cl{i}", node_out, "0", load)
        node_in = node_out
    return circuit
