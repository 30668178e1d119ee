"""Event-driven gate channel backed by a characterized delay table.

:class:`TableDelayChannel` is the consumer side of the library
subsystem (:mod:`repro.library`): instead of integrating the hybrid
ODE automaton per event like
:class:`~repro.timing.channels.hybrid.HybridNorChannel`, it replays a
characterized :class:`~repro.library.tables.GateDelayTable` — exactly
how standard-cell flows consume NLDM-style libraries, with the
input-separation axis ``Δ`` added.

Scheduling semantics
--------------------
Every transition of the gate's boolean output value schedules a
candidate output crossing from a table lookup:

* the **parallel-network** transition (NOR falling / NAND rising) is
  triggered by a *single* controlling input.  It is first scheduled
  with the SIS edge value ``δ(±∞)``; if the other input also switches
  to its controlling value before the pending crossing fires, the
  candidate is *rescheduled* with the true MIS separation — the
  event-driven equivalent of reading the interior of the MIS curve;
* the **series-network** transition (NOR rising / NAND falling) needs
  both inputs, so the triggering (last) input knows the separation
  immediately and one lookup suffices.

Cancellation is *inertial*: a transition whose trigger arrives while
the previous output transition is still pending annihilates with it —
the continuous output never reached the threshold, so the pulse
vanishes, mirroring the ODE channel's short-pulse filtration (a pure
table lookup has no output-history axis, so the involution rule of
:mod:`repro.timing.channels.base` is not expressible here).  Delay
references follow the paper's conventions: parallel transitions are
referenced to the *earlier* controlling input, series transitions to
the *later* one.

The channel's accuracy is the table's: for well-separated events it
matches the closed-form model to the interpolation error (< 0.1 ps
with default grids); dense glitch trains keep the qualitative
cancellation behaviour but not the continuous-state memory of the
ODE channel.
"""

from __future__ import annotations

import math

from ...core.multi_input import sibling_offsets
from ...errors import TraceError
from ...library.tables import GateDelayTable, mis_gate_inputs
from ..trace import DigitalTrace
from .base import Channel

__all__ = ["TableDelayChannel"]


class TableDelayChannel(Channel):
    """n-input NOR / 2-input NAND channel driven by table lookups.

    Parameters
    ----------
    table : GateDelayTable
        Characterized delay surfaces; ``table.gate`` selects the
        boolean function (``"nor2"``, ``"nand2"``, or ``"nor<n>"``)
        and the delay conventions.  Every width replays with full
        Δ-vector MIS rescheduling.
    state : float, optional
        Internal-node voltage in volts used for state-dependent
        surface lookups (default 0.0 for NOR — the paper's GND worst
        case; for NAND the mirrored worst case is ``VDD``, applied
        automatically when *state* is ``None``).  Surfaces with a
        one-point state grid (n-input tables record their
        characterized chain state) read that one row.
    label : str, optional
        Reporting label (defaults to the table's cell name).
    """

    def __init__(self, table: GateDelayTable,
                 state: float | None = None, label: str = ""):
        self.table = table
        if state is None:
            state = table.params.vdd if table.gate == "nand2" else 0.0
        self.state = float(state)
        self.label = label or table.cell
        # Boolean function and which transition is parallel-driven.
        if table.gate == "nand2":
            self._function = lambda *values: int(not all(values))
            #: input value that activates the parallel network
            self._controlling = 0
            #: output value reached through the parallel network
            self._parallel_target = 1
        else:
            self._function = lambda *values: int(not any(values))
            self._controlling = 1
            self._parallel_target = 0

    @property
    def inputs(self) -> int:
        """Number of gate inputs the channel consumes."""
        return mis_gate_inputs(self.table.gate)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def _parallel_delay(self, delta) -> float:
        """Delay of the single-controlling-input transition.

        Clamped lookups by design: the channel deliberately reads
        the SIS plateau edges for separations beyond the
        characterized grids.
        """
        if self.table.gate == "nand2":
            return self.table.delay_rising(delta, self.state,
                                           clamp=True)
        return self.table.delay_falling(delta, self.state,
                                        clamp=True)

    def _series_delay(self, delta) -> float:
        """Delay of the all-inputs-required transition (clamped)."""
        if self.table.gate == "nand2":
            return self.table.delay_falling(delta, self.state,
                                            clamp=True)
        return self.table.delay_rising(delta, self.state,
                                       clamp=True)

    def _parallel_candidate(self, times: list[float]) -> float:
        """Output-crossing candidate of a parallel-driven transition.

        *times* holds, per input, when it last turned controlling
        (``+inf`` for inputs that are not controlling) — referenced
        to the *earliest* controlling input per the paper's
        convention.
        """
        reference = min(times)
        return reference + self._parallel_delay(
            sibling_offsets(times, reference))

    def _series_candidate(self, released: list[float]) -> float:
        """Output-crossing candidate of a series-driven transition.

        *released* holds, per input, when it last left its
        controlling value (``−inf`` for "released long ago / never
        was controlling") — the trigger is the *latest* release.
        """
        reference = max(released)
        return reference + self._series_delay(
            sibling_offsets(released, reference))

    def initial_output(self, *values: int) -> int:
        """Steady-state output for the initial input values."""
        if len(values) != self.inputs:
            raise TraceError(
                f"{self.label}: expected {self.inputs} initial "
                f"values, got {len(values)}")
        return self._function(*values)

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------

    def simulate(self, *traces: DigitalTrace,
                 t_max: float | None = None) -> DigitalTrace:
        """Output trace of the gate for the given input traces.

        Parameters
        ----------
        *traces : DigitalTrace
            One input trace per gate input; events must sit at
            ``t >= 0``.
        t_max : float, optional
            Drop output transitions after this time.

        Returns
        -------
        DigitalTrace
            The digitized gate output.

        Raises
        ------
        TraceError
            On a wrong trace count or events at negative times.
        """
        n = self.inputs
        if len(traces) != n:
            raise TraceError(
                f"{self.label}: expected {n} input traces, got "
                f"{len(traces)}")
        for trace in traces:
            if trace.times and trace.times[0] < 0.0:
                raise TraceError("table channel expects events at "
                                 "t >= 0")
        values = [trace.initial for trace in traces]
        initial = self._function(*values)

        merged = sorted(
            (t, index, v)
            for index, trace in enumerate(traces)
            for t, v in trace.transitions)
        # Time each input last switched *to* its controlling value;
        # -inf means "has been controlling forever" (SIS edge).
        controlling_since = [
            -math.inf if value == self._controlling else math.nan
            for value in values]
        # Time each input last *left* its controlling value; -inf
        # means "never was controlling" or "never released" — either
        # way the separation is the SIS edge.
        was_controlling = [value == self._controlling
                           for value in values]
        released_at = [-math.inf] * n

        out: list[tuple[float, int]] = []
        #: True while out[-1] is a parallel-driven candidate that may
        #: still be rescheduled by further controlling inputs.
        pending_parallel = False

        def controlling_times() -> list[float]:
            """Per-input controlling onsets (+inf: not controlling)."""
            return [controlling_since[i]
                    if values[i] == self._controlling else math.inf
                    for i in range(n)]

        def cancel_or_append(t_event: float, candidate: float,
                             value: int) -> bool:
            """Inertial rule; returns True if the candidate survived.

            A new transition whose trigger arrives while the previous
            output transition is still pending annihilates with it —
            the continuous output never crossed the threshold, so the
            pulse vanishes (matching the ODE channel's filtration).
            """
            if out and (out[-1][0] > t_event
                        or candidate <= out[-1][0]):
                out.pop()
                return False
            out.append((candidate, value))
            return True

        for t, which, value in merged:
            values[which] = value
            if value == self._controlling:
                controlling_since[which] = t
                was_controlling[which] = True
            elif was_controlling[which]:
                released_at[which] = t
            current = out[-1][1] if out else initial
            target = self._function(*values)

            if target == current:
                if (pending_parallel and value == self._controlling
                        and out and out[-1][0] > t):
                    # A further controlling input arrived while the
                    # parallel transition is still pending:
                    # reschedule with the true MIS separations.
                    candidate = self._parallel_candidate(
                        controlling_times())
                    out.pop()
                    pending_parallel = cancel_or_append(t, candidate,
                                                        current)
                continue

            if target == self._parallel_target:
                # Parallel-driven transition: this input alone flips
                # the output; the siblings are (still)
                # non-controlling.
                candidate = self._parallel_candidate(
                    controlling_times())
                pending_parallel = cancel_or_append(t, candidate,
                                                    target)
            else:
                # Series-driven transition: every input is
                # non-controlling now, and this event is the latest
                # release by construction.
                cancel_or_append(
                    t, self._series_candidate(list(released_at)),
                    target)
                pending_parallel = False

        if t_max is not None:
            out = [(t, v) for t, v in out if t <= t_max]

        # Defensive: alternation must hold after annihilations.
        cleaned: list[tuple[float, int]] = []
        current = initial
        for t, v in out:
            if v == current:  # pragma: no cover - defensive guard
                continue
            cleaned.append((t, v))
            current = v
        return DigitalTrace(initial, cleaned)

    def __repr__(self) -> str:
        return (f"TableDelayChannel({self.table.cell!r}, "
                f"gate={self.table.gate!r})")
