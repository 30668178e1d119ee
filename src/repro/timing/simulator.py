"""Digital timing simulation (the Involution Tool's core loop).

For feed-forward circuits the exact simulation is a topological sweep:
compute each gate's zero-time output trace from its (already computed)
input traces, then push it through the gate's delay channel.  Fused
MIS instances transform their input traces directly.

This mirrors what the Involution Tool does inside QuestaSim, minus the
VHDL/FLI plumbing.
"""

from __future__ import annotations

from ..errors import NetlistError
from .channels.base import SingleInputChannel
from .circuit import MultiInputInstance, TimingCircuit
from .gates import zero_time_gate
from .trace import DigitalTrace

__all__ = ["simulate", "simulate_single_channel"]


def simulate(circuit: TimingCircuit,
             input_traces: dict[str, DigitalTrace]
             ) -> dict[str, DigitalTrace]:
    """Simulate a timing circuit.

    Args:
        circuit: the gate/channel netlist.
        input_traces: one :class:`DigitalTrace` per primary input.

    Returns:
        A mapping signal name -> trace for *all* signals (inputs
        included).
    """
    missing = [name for name in circuit.inputs if name not in input_traces]
    if missing:
        raise NetlistError(f"missing input traces for {missing}")
    extra = [name for name in input_traces if name not in circuit.inputs]
    if extra:
        raise NetlistError(f"traces given for non-input signals {extra}")

    traces: dict[str, DigitalTrace] = dict(input_traces)
    for instance in circuit.topological_order():
        if isinstance(instance, MultiInputInstance):
            traces[instance.output] = instance.channel.simulate(
                *(traces[name] for name in instance.inputs))
        else:
            gate_out = zero_time_gate(
                instance.function,
                [traces[name] for name in instance.inputs])
            traces[instance.output] = instance.channel.apply(gate_out)
    return traces


def simulate_single_channel(channel: SingleInputChannel,
                            trace: DigitalTrace) -> DigitalTrace:
    """Convenience wrapper: one channel, one trace."""
    return channel.apply(trace)
