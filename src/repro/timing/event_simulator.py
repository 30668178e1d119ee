"""Discrete-event timing simulation (feedback-capable engine).

The topological engine of :mod:`repro.timing.simulator` computes whole
traces gate by gate — exact and fast, but restricted to feed-forward
circuits.  This module provides the general engine: a classic
discrete-event loop with cancellable scheduled transitions, equivalent
to what the Involution Tool runs inside QuestaSim.  It handles

* arbitrary circuit graphs, including feedback (SR latches built from
  two cross-coupled hybrid NOR channels, ring oscillators, ...);
* the same channel semantics as the trace-transform engine — the
  equivalence on feed-forward circuits is part of the test-suite;
* the hybrid NOR channel as a true hybrid automaton: the continuous
  state ``(V_N, V_O)`` advances between (δ_min-deferred) mode-switch
  events, and scheduled output crossings are cancelled and recomputed
  whenever a new switch arrives first.
"""

from __future__ import annotations

import math

from ..core.modes import Mode
from ..core.solutions import ModeSolution, solve_mode
from ..core.trajectory import all_crossings
from ..errors import SimulationError
from .channels.base import SingleInputChannel
from .channels.hybrid import HybridNorChannel
from .circuit import GateInstance, MultiInputInstance, TimingCircuit
from .events import EventQueue
from .trace import DigitalTrace

__all__ = ["EventDrivenSimulator", "simulate_events"]

#: Default cap on fired events per run (guards against oscillators
#: driven far beyond their period count).
DEFAULT_MAX_EVENTS = 1_000_000


class _SignalState:
    """Current value and recorded transition history of one signal."""

    __slots__ = ("value", "history", "consumers")

    def __init__(self, value: int):
        self.value = int(value)
        self.history: list[tuple[float, int]] = []
        self.consumers: list[object] = []


class _ChannelRuntime:
    """Incremental (event-by-event) execution of a single-input channel.

    Reimplements exactly the scheduling semantics of
    :meth:`SingleInputChannel.apply`, but with future output transitions
    as cancellable events.
    """

    def __init__(self, simulator: "EventDrivenSimulator",
                 instance: GateInstance):
        self.simulator = simulator
        self.instance = instance
        self.channel: SingleInputChannel = instance.channel
        self.gate_value: int | None = None
        #: pending (time, value, event) output transitions.
        self.pending: list[tuple[float, int, object]] = []
        self.last_output_time = -math.inf
        self.drop_next = False

    def initialize(self, value: int) -> None:
        self.gate_value = value

    def on_gate_value(self, time: float, value: int) -> None:
        """The zero-time gate output switched to *value* at *time*."""
        if value == self.gate_value:
            return
        self.gate_value = value
        if self.drop_next:
            self.drop_next = False
            return
        last_time = (self.pending[-1][0] if self.pending
                     else self.last_output_time)
        history = time - last_time
        delay = self.channel.delay(value, history)
        if delay is None:
            if self.pending:
                _t, _v, event = self.pending.pop()
                event.cancel()
            else:  # pragma: no cover - unreachable for sane channels
                self.drop_next = True
            return
        candidate = time + delay
        if self.pending and self.channel.cancels(candidate, time,
                                                 self.pending[-1][0]):
            _t, _v, event = self.pending.pop()
            event.cancel()
            return
        event = self.simulator.queue.schedule(
            candidate,
            lambda t, v=value: self._fire(t, v))
        self.pending.append((candidate, value, event))

    def _fire(self, time: float, value: int) -> None:
        # Events fire in time order and cancellation always removes the
        # newest pending entry, so the firing event is pending[0].
        if self.pending:
            self.pending.pop(0)
        self.last_output_time = time
        self.simulator.set_signal(self.instance.output, time, value)


class _HybridRuntime:
    """Incremental hybrid automaton for a two-input NOR instance."""

    def __init__(self, simulator: "EventDrivenSimulator",
                 instance: MultiInputInstance):
        self.simulator = simulator
        self.instance = instance
        self.input_a, self.input_b = instance.inputs
        self.params = instance.channel.params
        self.inputs: dict[str, int] = {}
        self.mode: Mode | None = None
        self.solution: ModeSolution | None = None
        self.segment_start = 0.0
        self.crossing_events: list[object] = []

    def initialize(self, a_value: int, b_value: int) -> None:
        self.inputs = {self.input_a: a_value, self.input_b: b_value}
        self.mode = Mode.from_inputs(a_value, b_value)
        self.solution = solve_mode(self.mode, self.params,
                                   *self.mode.resting_state(
                                       self.params.vdd))
        self.segment_start = 0.0

    def on_input(self, signal: str, time: float, value: int) -> None:
        """Input transition: defer the mode switch by δ_min."""
        self.inputs[signal] = value
        new_mode = Mode.from_inputs(self.inputs[self.input_a],
                                    self.inputs[self.input_b])
        self.simulator.queue.schedule(
            time + self.params.delta_min,
            lambda t, m=new_mode: self._switch(t, m))

    def _switch(self, time: float, new_mode: Mode) -> None:
        if new_mode is self.mode:
            return
        state = self.solution.state_at(time - self.segment_start)
        self.mode = new_mode
        self.solution = solve_mode(new_mode, self.params, *state)
        self.segment_start = time
        self._reschedule_crossings(time)

    def _reschedule_crossings(self, time: float) -> None:
        for event in self.crossing_events:
            event.cancel()
        self.crossing_events = []
        vo = self.solution.vo
        derivative = vo.derivative()
        for local_t in all_crossings(vo, self.params.vth, 0.0, None):
            global_t = self.segment_start + local_t
            if global_t <= time:
                continue
            value = 1 if derivative(local_t) > 0 else 0
            event = self.simulator.queue.schedule(
                global_t, lambda t, v=value: self._cross(t, v))
            self.crossing_events.append(event)

    def _cross(self, time: float, value: int) -> None:
        self.simulator.set_signal(self.instance.output, time, value)


class EventDrivenSimulator:
    """Discrete-event simulation of a :class:`TimingCircuit`.

    Args:
        circuit: the netlist; feedback loops are allowed.
        initial_values: optional initial logic values for signals that
            cannot be derived feed-forward (latch outputs etc.).  The
            remaining signals are initialized by fixpoint relaxation of
            the zero-time gate functions.
    """

    def __init__(self, circuit: TimingCircuit,
                 initial_values: dict[str, int] | None = None):
        self.circuit = circuit
        self.queue = EventQueue()
        self.signals: dict[str, _SignalState] = {}
        self._initial_overrides = dict(initial_values or {})
        self._runtimes: list[_ChannelRuntime | _HybridRuntime] = []

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------

    def _relaxed_initial_values(
            self, input_traces: dict[str, DigitalTrace]
    ) -> dict[str, int]:
        values: dict[str, int] = {name: trace.initial
                                  for name, trace in
                                  input_traces.items()}
        values.update(self._initial_overrides)
        for name in self.circuit.signals:
            values.setdefault(name, 0)
        # Fixpoint relaxation of the zero-time logic.
        for _ in range(3 * max(1, len(self.circuit.instances))):
            changed = False
            for instance in self.circuit.instances:
                if instance.output in self._initial_overrides:
                    continue
                if isinstance(instance, MultiInputInstance):
                    new = instance.channel.initial_output(
                        *(values[s] for s in instance.inputs))
                else:
                    new = instance.function(
                        *(values[s] for s in instance.inputs))
                if new != values[instance.output]:
                    values[instance.output] = new
                    changed = True
            if not changed:
                break
        return values

    def _build(self, input_traces: dict[str, DigitalTrace]) -> None:
        values = self._relaxed_initial_values(input_traces)
        for name in self.circuit.signals:
            self.signals[name] = _SignalState(values[name])

        bootstrap: list[tuple[_ChannelRuntime, int]] = []
        for instance in self.circuit.instances:
            if isinstance(instance, MultiInputInstance):
                if not isinstance(instance.channel, HybridNorChannel):
                    raise SimulationError(
                        f"instance {instance.name!r}: the event-driven "
                        "engine runs the paper's two-input hybrid ODE "
                        "automaton; n-input and table-backed MIS gates "
                        "are served by the feed-forward simulator "
                        "(repro.timing.simulator.simulate)")
                runtime = _HybridRuntime(self, instance)
                runtime.initialize(*(values[s] for s in instance.inputs))
                runtime._reschedule_crossings(0.0)
                for signal in instance.inputs:
                    self.signals[signal].consumers.append(
                        (runtime, signal))
            else:
                runtime = _ChannelRuntime(self, instance)
                # Anchor the channel at the *signal* value; if the
                # zero-time logic disagrees (unresolved feedback, e.g.
                # a ring oscillator), a bootstrap transition at t = 0
                # starts the dynamics.
                runtime.initialize(values[instance.output])
                zero_time = instance.function(
                    *(values[s] for s in instance.inputs))
                if zero_time != values[instance.output]:
                    bootstrap.append((runtime, zero_time))
                for signal in instance.inputs:
                    self.signals[signal].consumers.append(
                        (runtime, signal))
            self._runtimes.append(runtime)
        for runtime, zero_time in bootstrap:
            runtime.on_gate_value(0.0, zero_time)

        # Bootstrap events: primary input transitions.
        for name, trace in input_traces.items():
            for time, value in trace.transitions:
                self.queue.schedule(
                    time,
                    lambda t, n=name, v=value: self.set_signal(n, t, v))

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------

    def set_signal(self, name: str, time: float, value: int) -> None:
        """Apply a signal transition and notify consumers."""
        state = self.signals[name]
        if value == state.value:
            return
        state.value = value
        state.history.append((time, value))
        for runtime, signal in state.consumers:
            if isinstance(runtime, _HybridRuntime):
                runtime.on_input(signal, time, value)
            else:
                inputs = [self.signals[s].value
                          for s in runtime.instance.inputs]
                runtime.on_gate_value(
                    time, runtime.instance.function(*inputs))

    def run(self, input_traces: dict[str, DigitalTrace],
            t_stop: float,
            max_events: int = DEFAULT_MAX_EVENTS
            ) -> dict[str, DigitalTrace]:
        """Simulate until *t_stop* and return all signal traces."""
        missing = [name for name in self.circuit.inputs
                   if name not in input_traces]
        if missing:
            raise SimulationError(f"missing input traces for {missing}")
        self._build(input_traces)
        self.queue.run_until(t_stop, max_events=max_events)
        out: dict[str, DigitalTrace] = {}
        for name, state in self.signals.items():
            initial = (state.history[0][1] ^ 1 if state.history
                       else state.value)
            out[name] = DigitalTrace(initial, state.history)
        return out


def simulate_events(circuit: TimingCircuit,
                    input_traces: dict[str, DigitalTrace],
                    t_stop: float,
                    initial_values: dict[str, int] | None = None,
                    max_events: int = DEFAULT_MAX_EVENTS
                    ) -> dict[str, DigitalTrace]:
    """One-shot convenience wrapper around :class:`EventDrivenSimulator`."""
    simulator = EventDrivenSimulator(circuit,
                                     initial_values=initial_values)
    return simulator.run(input_traces, t_stop, max_events=max_events)
