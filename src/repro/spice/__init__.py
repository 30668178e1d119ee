"""Analog golden-reference substrate: a small MNA transient simulator.

Replaces the paper's Spectre + Nangate FreePDK15 stack (see
``docs/architecture.md``).  Public surface: netlist construction
(:class:`Circuit` + device classes), technology cards and cell
builders, and the DC/transient analyses.
"""

from .devices import Capacitor, Mosfet, MosfetModel, Resistor, VoltageSource
from .dc import dc_operating_point
from .measure import crossing_after, gate_delay, slew_time
from .mna import MnaSystem
from .netlist import Circuit
from .technology import (
    BULK65,
    FINFET15,
    TechnologyCard,
    build_inverter,
    build_inverter_chain,
    build_nand2,
    build_nor2,
)
from .transient import TransientOptions, TransientResult, transient_analysis
from .waveforms import Dc, EdgeTrain, Pwl, Waveform

__all__ = [
    "BULK65",
    "Capacitor",
    "Circuit",
    "Dc",
    "EdgeTrain",
    "FINFET15",
    "MnaSystem",
    "Mosfet",
    "MosfetModel",
    "Pwl",
    "Resistor",
    "TechnologyCard",
    "TransientOptions",
    "TransientResult",
    "VoltageSource",
    "Waveform",
    "build_inverter",
    "build_inverter_chain",
    "build_nand2",
    "build_nor2",
    "crossing_after",
    "dc_operating_point",
    "gate_delay",
    "slew_time",
    "transient_analysis",
]
