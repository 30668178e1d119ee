"""Analog golden-reference substrate: a small MNA transient simulator.

Replaces the paper's Spectre + Nangate FreePDK15 stack (see
``docs/architecture.md``).  Public surface: netlist construction
(:class:`Circuit` + device classes), technology cards, the one cell
stamp (:func:`stamp_gate`) and its builders, and the DC/transient
analyses.
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
    build_gate,
    build_inverter_chain,
    stamp_gate,
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
    "build_gate",
    "build_inverter_chain",
    "crossing_after",
    "dc_operating_point",
    "gate_delay",
    "slew_time",
    "stamp_gate",
    "transient_analysis",
]
