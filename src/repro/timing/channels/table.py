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
from ...library.tables import GateDelayTable
from .base import MisChannel

__all__ = ["TableDelayChannel"]


class TableDelayChannel(MisChannel):
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
        super().__init__(table.gate, label or table.cell)
        self.table = table
        if state is None:
            state = self.kind.worst_state(table.params.vdd)
        self.state = float(state)

    def _crossings(self, traces, t_max):
        n = self.inputs
        function = self.kind.output
        controlling = self.kind.controlling
        # The parallel network pulls the output to the complement of
        # the controlling value, the series stack to the value itself.
        parallel_value = 1 - controlling
        # Clamped lookups by design: the channel reads the SIS plateau
        # edges for separations beyond the characterized grids.
        parallel = getattr(self.table, self.kind.parallel)
        series = getattr(self.table, self.kind.series)
        state = self.state
        values = [trace.initial for trace in traces]
        initial = function(values)

        merged = sorted(
            (t, index, v)
            for index, trace in enumerate(traces)
            for t, v in trace.transitions)
        # Time each input last switched *to* its controlling value;
        # -inf means "has been controlling forever" (SIS edge).
        controlling_since = [
            -math.inf if value == controlling else math.nan
            for value in values]
        # Time each input last *left* its controlling value; -inf
        # means "never was controlling" or "never released" — either
        # way the separation is the SIS edge.
        was_controlling = [value == controlling for value in values]
        released_at = [-math.inf] * n

        out: list[tuple[float, int]] = []
        #: True while out[-1] is a parallel-driven candidate that may
        #: still be rescheduled by further controlling inputs.
        pending_parallel = False

        def parallel_candidate() -> float:
            """Crossing of a parallel-driven transition, referenced to
            the *earliest* controlling input (+inf: not controlling)."""
            times = [controlling_since[i] if values[i] == controlling
                     else math.inf for i in range(n)]
            reference = min(times)
            return reference + parallel.delay_at(
                sibling_offsets(times, reference), state, clamp=True)

        def series_candidate() -> float:
            """Crossing of a series-driven transition: the trigger is
            the *latest* release (−inf: released long ago or never
            controlling)."""
            reference = max(released_at)
            return reference + series.delay_at(
                sibling_offsets(released_at, reference), state,
                clamp=True)

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
            if value == controlling:
                controlling_since[which] = t
                was_controlling[which] = True
            elif was_controlling[which]:
                released_at[which] = t
            current = out[-1][1] if out else initial
            target = function(values)

            if target == current:
                if (pending_parallel and value == controlling
                        and out and out[-1][0] > t):
                    # A further controlling input arrived while the
                    # parallel transition is still pending:
                    # reschedule with the true MIS separations.
                    candidate = parallel_candidate()
                    out.pop()
                    pending_parallel = cancel_or_append(t, candidate,
                                                        current)
                continue

            if target == parallel_value:
                # Parallel-driven transition: this input alone flips
                # the output; the siblings are (still)
                # non-controlling.
                pending_parallel = cancel_or_append(
                    t, parallel_candidate(), target)
            else:
                # Series-driven transition: every input is
                # non-controlling now, and this event is the latest
                # release by construction.
                cancel_or_append(t, series_candidate(), target)
                pending_parallel = False

        if t_max is not None:
            out = [(t, v) for t, v in out if t <= t_max]
        return out

    def __repr__(self) -> str:
        return (f"TableDelayChannel({self.table.cell!r}, "
                f"gate={self.table.gate!r})")
