"""Delay-channel interface and single-history scheduling semantics.

In the involution delay model (IDM) a circuit is zero-time boolean gates
plus *channels*: single-input single-output delay elements characterized
by a delay function ``δ(T)`` whose argument ``T`` is the
*previous-output-to-input delay* — the time from the channel's last
output transition to the current input transition.  (The paper's
reference [3] proves a dependence of this kind is necessary for
faithfulness.)

Scheduling semantics (matching the Involution Tool): every input
transition at time ``t`` produces a candidate output transition at
``t + δ(T)``.  If the candidate does not occur strictly after the last
still-pending output transition, the two *annihilate* (both are
removed) — this is how too-short pulses vanish.  Inertial channels use a
stricter trigger (input reversal before the pending output fired),
implemented by overriding :meth:`SingleInputChannel.cancels`.

:class:`SingleInputChannel.apply` runs these semantics over a whole
:class:`~repro.timing.trace.DigitalTrace` — the workloads of this study
are feed-forward, so traces can be transformed channel by channel in
topological order (see :mod:`repro.timing.simulator`).

:class:`MisChannel` is the other kind: a fused multi-input gate that
consumes all its input traces at once and *is* the gate — the paper's
hybrid NOR, its n-input generalization and the characterized-table
replay.
"""

from __future__ import annotations

import math

from ...errors import TraceError
from ...library.tables import gate_kind
from ..trace import DigitalTrace

__all__ = ["Channel", "MisChannel", "SingleInputChannel"]


class Channel:
    """Marker base class for all delay channels."""

    label: str = "channel"


class SingleInputChannel(Channel):
    """A channel with one input and one output.

    Subclasses implement :meth:`delay`; the scheduling/cancellation
    machinery lives here.
    """

    # ------------------------------------------------------------------
    # to be provided by subclasses
    # ------------------------------------------------------------------

    def delay(self, value: int, history: float) -> float | None:
        """Input-to-output delay for a transition *to* ``value``.

        Args:
            value: target logic value of the transition (0 or 1).
            history: previous-output-to-input delay ``T`` (``math.inf``
                when the output has been stable forever).

        Returns:
            The delay in seconds, or ``None`` if the transition cannot
            produce an output crossing at all (involution argument out
            of domain) — the caller then annihilates it against the
            pending output transition.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # scheduling semantics
    # ------------------------------------------------------------------

    def cancels(self, candidate_time: float, input_time: float,
                pending_time: float) -> bool:
        """Does the new candidate annihilate with the last pending event?

        The IDM rule: annihilate when the candidate would not occur
        strictly after the pending transition.
        """
        return candidate_time <= pending_time

    def apply(self, trace: DigitalTrace) -> DigitalTrace:
        """Transform an input trace into the channel's output trace."""
        out: list[tuple[float, int]] = []
        dropped_unpaired = False

        for t, value in trace.transitions:
            if dropped_unpaired:
                # The previous candidate vanished without a partner; this
                # transition restores parity by vanishing with it.
                dropped_unpaired = False
                continue
            last_time = out[-1][0] if out else -math.inf
            history = t - last_time
            delay = self.delay(value, history)
            if delay is None:
                if out:
                    out.pop()
                else:  # pragma: no cover - unreachable for sane δ
                    dropped_unpaired = True
                continue
            candidate = t + delay
            if out and self.cancels(candidate, t, out[-1][0]):
                out.pop()
                continue
            if out and out[-1][1] == value:  # pragma: no cover - guard
                raise TraceError("channel produced non-alternating output")
            out.append((candidate, value))
        return DigitalTrace(trace.initial, out)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label!r})"


class MisChannel(Channel):
    """A fused multi-input gate: one channel consumes every input
    trace, so it models the boolean gate and its MIS-aware delays.

    *gate* (``"nor2"``, ``"nand2"`` or ``"nor<n>"``) fixes the width
    and the boolean function through
    :func:`repro.library.gate_kind`; subclasses implement
    :meth:`_crossings`.
    """

    def __init__(self, gate: str, label: str):
        self.gate = gate
        self.kind = gate_kind(gate)
        #: Number of gate inputs.
        self.inputs = self.kind.inputs
        self.label = label

    def _crossings(self, traces: tuple[DigitalTrace, ...],
                   t_max: float | None) -> list[tuple[float, int]]:
        """Candidate output crossings ``(time, value)`` in time order,
        none after *t_max* (when given)."""
        raise NotImplementedError

    def initial_output(self, *values: int) -> int:
        """Steady-state output for the initial input values."""
        if len(values) != self.inputs:
            raise TraceError(
                f"{self.label}: expected {self.inputs} initial values, "
                f"got {len(values)}")
        return self.kind.output(values)

    def simulate(self, *traces: DigitalTrace,
                 t_max: float | None = None) -> DigitalTrace:
        """Output trace of the gate: of the candidate crossings up to
        *t_max* (default: until settled), the ones that change the
        output, starting from the steady state of the initial inputs.

        Raises
        ------
        TraceError
            On a wrong trace count or events at negative times.
        """
        if len(traces) != self.inputs:
            raise TraceError(
                f"{self.label}: expected {self.inputs} input traces, "
                f"got {len(traces)}")
        if any(trace.times and trace.times[0] < 0.0 for trace in traces):
            raise TraceError(f"{self.label}: expects events at t >= 0")
        initial = self.initial_output(*(trace.initial
                                        for trace in traces))
        cleaned: list[tuple[float, int]] = []
        value = initial
        for t, v in self._crossings(traces, t_max):
            if v != value:
                cleaned.append((t, v))
                value = v
        return DigitalTrace(initial, cleaned)
