"""Gate-level timing circuits.

A :class:`TimingCircuit` is a feed-forward netlist of zero-time boolean
gates, each followed by a delay channel (the involution-model circuit
structure), plus fused multi-input (MIS) elements — the paper's hybrid
NOR, its n-input generalization, or a characterized-table replay —
which fuse gate and channel into one element.

Feed-forward is all the paper's evaluation needs (a single NOR gate in
Section VI; inverter chains and trees in the Involution Tool paper), and
it admits an exact topological-order simulation — every signal's full
trace is computed before its consumers run (:mod:`.simulator`).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping, Sequence

from ..errors import NetlistError
from ..wire.model import WireTiming, reduce_tree
from ..wire.tree import WireTree
from .channels.base import MisChannel, SingleInputChannel
from .channels.hybrid import HybridNorChannel
from .channels.pure import PureDelayChannel
from .gates import gate_function

__all__ = ["GateInstance", "MultiInputInstance", "WireInstance",
           "TimingCircuit"]


@dataclasses.dataclass(frozen=True)
class GateInstance:
    """A zero-time gate plus its output channel."""

    name: str
    function: Callable[..., int]
    inputs: tuple[str, ...]
    output: str
    channel: SingleInputChannel


@dataclasses.dataclass(frozen=True)
class MultiInputInstance:
    """A fused MIS element of any width (gate and channel in one).

    The :class:`~repro.timing.channels.MisChannel` consumes all input
    traces directly: the paper's two-input hybrid ODE NOR
    (:class:`HybridNorChannel`), the exact eigen-solved n-input
    automaton (:class:`GeneralizedNorChannel`), or a
    characterized-table replay (:class:`TableDelayChannel`, NOR or
    NAND conventions per its table).
    """

    name: str
    inputs: tuple[str, ...]
    output: str
    channel: MisChannel


@dataclasses.dataclass(frozen=True)
class WireInstance:
    """One sink of an RC wire tree as a circuit element.

    A wire is logically an identity buffer with a direction-symmetric
    delay (linear RC): the element forwards its input trace shifted
    by the reduced-order wire delay of its sink.  A multi-sink tree
    becomes one :class:`WireInstance` per sink, all sharing the same
    :class:`~repro.wire.tree.WireTree` (see
    :meth:`TimingCircuit.add_wire`).

    Attributes
    ----------
    name : str
        Instance name (``<wire>.<sink>`` for multi-sink trees).
    inputs : tuple of str
        The single driving signal (the tree root's net).
    output : str
        The signal this sink drives.
    sink : str
        Sink node name inside the tree.
    tree : WireTree
        The shared RC tree.
    delay_model : str
        Reduced-order model the delay came from (``"elmore"`` or
        ``"two_pole"``).
    delay : float
        Effective arc/channel delay, seconds (slew derate included).
    slew : float
        10–90 % step-response slew at the sink, seconds.
    channel : PureDelayChannel
        Symmetric pure-delay channel used by the event/trace
        simulators, carrying exactly :attr:`delay`.
    """

    name: str
    inputs: tuple[str, ...]
    output: str
    sink: str
    tree: WireTree
    delay_model: str
    delay: float
    slew: float
    channel: PureDelayChannel

    @property
    def function(self) -> Callable[..., int]:
        """Identity boolean function (wires don't invert)."""
        return _wire_identity


def _wire_identity(value: int) -> int:
    return value


class TimingCircuit:
    """A feed-forward circuit of channels and gates.

    Args:
        inputs: names of the primary input signals.
    """

    def __init__(self, inputs: Sequence[str]):
        self.inputs: tuple[str, ...] = tuple(inputs)
        if len(set(self.inputs)) != len(self.inputs):
            raise NetlistError("duplicate primary input names")
        self.instances: list[GateInstance | MultiInputInstance
                             | WireInstance] = []
        self._drivers: dict[str, GateInstance | MultiInputInstance
                            | WireInstance] = {}

    # ------------------------------------------------------------------

    def _register(self, instance) -> None:
        if instance.output in self._drivers or \
                instance.output in self.inputs:
            raise NetlistError(f"signal {instance.output!r} has multiple "
                               "drivers")
        if any(inst.name == instance.name for inst in self.instances):
            raise NetlistError(f"duplicate instance name "
                               f"{instance.name!r}")
        self.instances.append(instance)
        self._drivers[instance.output] = instance

    def add_gate(self, name: str, gate: str | Callable[..., int],
                 inputs: Sequence[str], output: str,
                 channel: SingleInputChannel) -> GateInstance:
        """Add a zero-time gate followed by a single-input channel."""
        function = gate_function(gate) if isinstance(gate, str) else gate
        instance = GateInstance(name=name, function=function,
                                inputs=tuple(inputs), output=output,
                                channel=channel)
        self._register(instance)
        return instance

    def add_mis_gate(self, name: str, inputs: Sequence[str],
                     output: str, channel) -> MultiInputInstance:
        """Add a fused MIS element (hybrid, generalized or table).

        ``circuit.add_mis_gate("g0", ("a", "b", "c"), "y", channel)``;
        the channel's input count must match the signals.

        Raises:
            NetlistError: if *inputs* is a bare string or names fewer
                than two signals, the channel is not a MIS channel
                type, or its input count does not match the signals.
        """
        if isinstance(inputs, str):
            raise NetlistError(
                f"MIS gate {name!r}: inputs must be a sequence of "
                f"signal names, got the string {inputs!r}")
        inputs = tuple(inputs)
        if not isinstance(channel, MisChannel):
            raise NetlistError(
                f"MIS gate {name!r} needs a MisChannel, got "
                f"{type(channel).__name__}")
        if len(inputs) < 2 or any(not isinstance(s, str)
                                  for s in inputs):
            raise NetlistError(
                f"MIS gate {name!r} needs at least two input signal "
                "names")
        if channel.inputs != len(inputs):
            raise NetlistError(
                f"MIS gate {name!r}: channel expects {channel.inputs} "
                f"inputs, got {len(inputs)} signals")
        instance = MultiInputInstance(name=name, inputs=inputs,
                                      output=output, channel=channel)
        self._register(instance)
        return instance

    def add_hybrid_nor(self, name: str, input_a: str, input_b: str,
                       output: str,
                       channel: HybridNorChannel) -> MultiInputInstance:
        """Add a two-input hybrid NOR element."""
        return self.add_mis_gate(name, (input_a, input_b), output,
                                 channel)

    def add_wire(self, name: str, input_signal: str, tree: WireTree,
                 outputs: "str | Sequence[str] | Mapping[str, str]",
                 delay_model: str = "elmore",
                 slew_derate: float = 0.0,
                 ) -> list[WireInstance]:
        """Attach an RC wire tree between *input_signal* and sinks.

        The tree is reduced once (:func:`repro.wire.model.reduce_tree`)
        and becomes one :class:`WireInstance` per sink — the STA graph
        grows a wire arc per sink, and the event/trace simulators see
        a pure-delay identity buffer, so both stay in exact agreement.

        Parameters
        ----------
        name : str
            Wire name; multi-sink instances are ``<name>.<sink>``.
        input_signal : str
            The signal driving the tree root (the gate output net).
            Remember to build the *driving* gate with
            :func:`repro.wire.loaded_params` so it prices the wire's
            capacitance.
        tree : WireTree
            The RC tree.
        outputs : str, sequence, or mapping
            Signal name(s) the sinks drive: a single name (one-sink
            trees), a sequence aligned with ``tree.sinks``, or a
            mapping ``{sink: signal}`` covering every sink.
        delay_model : str, optional
            ``"elmore"`` (default — the slow-edge crossing shift,
            exact in the regime gate-driven wires sit in) or
            ``"two_pole"`` (the step-response 50 % crossing).
        slew_derate : float, optional
            Fraction of the sink slew added to the arc delay as a
            first-order receiver-degradation penalty (default 0).

        Returns
        -------
        list of WireInstance
            The created instances, in ``tree.sinks`` order.
        """
        if isinstance(outputs, str):
            outputs = (outputs,)
        if isinstance(outputs, Mapping):
            missing = set(tree.sinks) - set(outputs)
            extra = set(outputs) - set(tree.sinks)
            if missing or extra:
                raise NetlistError(
                    f"wire {name!r}: outputs must map exactly the "
                    f"sinks {tree.sinks}; missing {sorted(missing)}, "
                    f"unknown {sorted(extra)}")
            signal_for = dict(outputs)
        else:
            outputs = tuple(outputs)
            if len(outputs) != len(tree.sinks):
                raise NetlistError(
                    f"wire {name!r}: {len(tree.sinks)} sink(s) but "
                    f"{len(outputs)} output signal(s)")
            signal_for = dict(zip(tree.sinks, outputs))
        if not slew_derate >= 0.0:
            raise NetlistError(
                f"wire {name!r}: slew_derate must be non-negative")
        timing: WireTiming = reduce_tree(tree, model=delay_model)
        instances = []
        for sink_timing in timing.sinks:
            sink = sink_timing.sink
            delay = sink_timing.delay + slew_derate * sink_timing.slew
            instance = WireInstance(
                name=name if len(tree.sinks) == 1
                else f"{name}.{sink}",
                inputs=(input_signal,),
                output=signal_for[sink],
                sink=sink,
                tree=tree,
                delay_model=delay_model,
                delay=delay,
                slew=sink_timing.slew,
                channel=PureDelayChannel(delay, label=f"wire:{sink}"))
            self._register(instance)
            instances.append(instance)
        return instances

    # ------------------------------------------------------------------

    @property
    def signals(self) -> list[str]:
        """All signal names (inputs + gate outputs)."""
        return list(self.inputs) + [inst.output for inst in self.instances]

    def topological_order(self) -> list:
        """Instances sorted so that drivers precede consumers.

        Kahn's sort by generations: first the instances with no
        driven input, in insertion order; then each generation's
        consumers, in the order their first input edge was added,
        once the last of their distinct drivers is placed.

        Raises:
            NetlistError: on combinational loops or undriven signals.
        """
        by_output = {inst.output: inst for inst in self.instances}
        known = set(self.inputs) | set(by_output)
        consumers: dict[str, list] = {inst.name: []
                                      for inst in self.instances}
        pending: dict[str, int] = {}
        for instance in self.instances:
            drivers = []
            for signal in instance.inputs:
                if signal not in known:
                    raise NetlistError(
                        f"signal {signal!r} used by {instance.name!r} "
                        "has no driver")
                driver = by_output.get(signal)
                if driver is not None and driver.name not in drivers:
                    drivers.append(driver.name)
            for name in drivers:
                consumers[name].append(instance)
            pending[instance.name] = len(drivers)
        generation = [inst for inst in self.instances
                      if not pending[inst.name]]
        order: list = []
        while generation:
            order.extend(generation)
            ready = []
            for instance in generation:
                for consumer in consumers[instance.name]:
                    pending[consumer.name] -= 1
                    if not pending[consumer.name]:
                        ready.append(consumer)
            generation = ready
        if len(order) != len(self.instances):
            raise NetlistError("combinational loop in timing circuit")
        return order
