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
from collections.abc import Sequence

from ..errors import ParameterError
from ..units import FF, PS
from .devices import MosfetModel
from .netlist import Circuit
from .waveforms import Waveform

__all__ = ["TechnologyCard", "FINFET15", "BULK65", "stamp_gate",
           "build_gate", "build_inverter_chain"]


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


def stamp_gate(circuit: Circuit, tech: TechnologyCard, gate: str,
               inputs: Sequence[str], output: str, prefix: str = "",
               output_load: float | None = None) -> None:
    """Stamp one static CMOS NOR or NAND cell of any width.

    The paper's Fig. 1 topology, derived from the gate kind: a series
    stack from its rail to *output* (pMOS from ``vdd`` for a NOR, nMOS
    from ground for a NAND), input 0 nearest the rail and one internal
    node per further stage, plus one parallel device per input to the
    other rail.  Each device gets gate-overlap capacitors to its
    non-rail terminals and junction capacitors to its rail; internal
    nodes get ``cn_extra``, *output* the load.  A one-input cell is the
    inverter.  Internal nodes are ``<prefix>n`` (NOR2) / ``<prefix>m``
    (NAND2), else ``<prefix>n1 ..`` / ``<prefix>m1 ..``.  The cell
    shares the circuit's rails, so several cells compose.
    """
    if gate not in ("nor", "nand"):
        raise ParameterError(f"gate must be 'nor' or 'nand', got {gate!r}")
    if not inputs:
        raise ParameterError("a cell needs at least one input")
    if output_load is None:
        output_load = tech.output_load
    if output_load < 0.0:
        raise ParameterError("output_load must be non-negative")
    if gate == "nor":
        series, parallel, rail, other_rail = tech.pmos, tech.nmos, "vdd", "0"
    else:
        series, parallel, rail, other_rail = tech.nmos, tech.pmos, "0", "vdd"
    letter = "n" if gate == "nor" else "m"
    width = len(inputs)
    internal = ([f"{prefix}{letter}"] if width == 2 else
                [f"{prefix}{letter}{k}" for k in range(1, width)])
    stack = [rail, *internal, output]
    # The stamping order fixes the summation order of the MNA matrices;
    # tests/spice/data/cell_netlists.json pins it.
    for k, node in enumerate(inputs, 1):
        circuit.mosfet(f"{prefix}S{k}", drain=stack[k], gate=node,
                       source=stack[k - 1], model=series)
    for k, node in enumerate(inputs, 1):
        circuit.mosfet(f"{prefix}P{k}", drain=output, gate=node,
                       source=other_rail, model=parallel)
    # Gate-overlap coupling capacitances (the Charlie-effect carriers).
    for k, node in enumerate(inputs, 1):
        if k > 1:
            circuit.capacitor(f"{prefix}CgsS{k}", node, stack[k - 1],
                              series.cgs)
        circuit.capacitor(f"{prefix}CgdS{k}", node, stack[k], series.cgd)
    for k, node in enumerate(inputs, 1):
        circuit.capacitor(f"{prefix}CgdP{k}", node, output, parallel.cgd)
    # Junction capacitances (to the respective bulk rails).
    for k in range(1, width + 1):
        if k > 1:
            circuit.capacitor(f"{prefix}CsbS{k}", stack[k - 1], rail,
                              series.cdb)
        circuit.capacitor(f"{prefix}CdbS{k}", stack[k], rail, series.cdb)
    for k in range(1, width + 1):
        circuit.capacitor(f"{prefix}CdbP{k}", output, other_rail,
                          parallel.cdb)
    # Wiring parasitics and output load.
    for k, node in enumerate(internal, 1):
        circuit.capacitor(f"{prefix}Cw{k}", node, "0", tech.cn_extra)
    circuit.capacitor(f"{prefix}Co", output, "0", output_load)


def build_gate(tech: TechnologyCard, gate: str,
               waves: Sequence[Waveform | float],
               output_load: float | None = None,
               name: str | None = None) -> Circuit:
    """A :func:`stamp_gate` cell driven by one waveform per input.

    Input ``k`` is node ``a``, ``b``, ``c``, ... in order; the output
    is ``o``.  ``build_gate(tech, "nor", (wave_a, wave_b))`` is the
    paper's NOR2, ``build_gate(tech, "nor", (wave,))`` the inverter.

    Nodes: ``vdd``, the inputs, the internal stack nodes and ``o``
    (+ ground).
    """
    inputs = [chr(ord("a") + k) for k in range(len(waves))]
    circuit = Circuit(name or f"{gate}{len(waves)}")
    circuit.voltage_source("Vdd", "vdd", "0", tech.vdd)
    for node, wave in zip(inputs, waves):
        circuit.voltage_source(f"V{node}", node, "0", wave)
    stamp_gate(circuit, tech, gate, inputs, "o", output_load=output_load)
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
    circuit = Circuit(name)
    circuit.voltage_source("Vdd", "vdd", "0", tech.vdd)
    circuit.voltage_source("Va", "a", "0", wave_in)
    nodes = ["a", *(f"s{i}" for i in range(1, stages + 1))]
    for i in range(1, stages + 1):
        stamp_gate(circuit, tech, "nor", [nodes[i - 1]], nodes[i],
                   prefix=f"x{i}_",
                   output_load=output_load if i == stages else 0.3 * FF)
    return circuit
