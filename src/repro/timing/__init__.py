"""Digital timing framework (the Involution Tool substitute).

Traces, digitization, deviation-area metrics, delay channels, random
trace generation and the topological timing simulator — see
``docs/architecture.md`` for the mapping to the paper's toolchain.

The runtime/accuracy experiments that exercise these channels are
reachable through the session facade
(:class:`repro.api.Session` running ``ExperimentRequest("runtime")``
/ ``ExperimentRequest("fig7")``) as well as directly.
"""

from .channels import (
    Channel,
    ExpChannel,
    HybridNorChannel,
    InertialDelayChannel,
    MisChannel,
    PureDelayChannel,
    SingleInputChannel,
    SumExpChannel,
    TableDelayChannel,
    WaveformChannel,
)
from .circuit import (GateInstance, MultiInputInstance,
                      TimingCircuit, WireInstance)
from .digitize import digitize, digitize_result
from .event_simulator import EventDrivenSimulator, simulate_events
from .events import Event, EventQueue
from .power import (PowerReport, dynamic_energy, glitch_count,
                    power_report, transition_count,
                    transition_count_error)
from .gates import GATE_FUNCTIONS, gate_function, zero_time_gate
from .metrics import AccuracyReport, deviation_area, normalized_deviation
from .simulator import simulate, simulate_single_channel
from .trace import DigitalTrace
from .tracegen import PAPER_CONFIGS, WaveformConfig, generate_traces

__all__ = [
    "AccuracyReport",
    "Channel",
    "DigitalTrace",
    "Event",
    "EventDrivenSimulator",
    "EventQueue",
    "ExpChannel",
    "GATE_FUNCTIONS",
    "GateInstance",
    "HybridNorChannel",
    "InertialDelayChannel",
    "MisChannel",
    "MultiInputInstance",
    "PAPER_CONFIGS",
    "PowerReport",
    "PureDelayChannel",
    "SingleInputChannel",
    "SumExpChannel",
    "TableDelayChannel",
    "TimingCircuit",
    "WaveformChannel",
    "WaveformConfig",
    "WireInstance",
    "deviation_area",
    "digitize",
    "digitize_result",
    "gate_function",
    "generate_traces",
    "dynamic_energy",
    "glitch_count",
    "normalized_deviation",
    "power_report",
    "simulate",
    "simulate_events",
    "transition_count",
    "transition_count_error",
    "simulate_single_channel",
    "zero_time_gate",
]
