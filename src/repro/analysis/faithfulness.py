"""Faithfulness probes (paper Section VII, future work).

The paper closes by asking whether the multi-input hybrid channel is
*continuous* with respect to a suitable trace metric — the property that
makes a delay model faithful in the sense of the IDM literature (only
continuous channels solve short-pulse filtration faithfully).

Two numerical probes are provided:

* :func:`short_pulse_filtration` — feed input pulses of shrinking width
  and record the output pulse width.  A continuous channel's output
  width decays *continuously* to zero; an inertial channel exhibits the
  characteristic discontinuity (constant-width output until the cutoff,
  then nothing).
* :func:`perturbation_sensitivity` — perturb one input transition time
  by ``ε`` and measure the largest induced output-transition shift; the
  ratio bounds a local modulus of continuity.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

from ..errors import ParameterError
from ..timing.trace import DigitalTrace
from ..units import PS

__all__ = [
    "PulseResponse",
    "short_pulse_filtration",
    "perturbation_sensitivity",
]

#: A two-input delay model as a trace transformer.
TraceModel = Callable[[DigitalTrace, DigitalTrace], DigitalTrace]

#: Rising edge of every short-pulse-filtration input pulse, seconds.
_PULSE_START = 500.0 * PS


@dataclasses.dataclass(frozen=True)
class PulseResponse:
    """Output pulse produced by one input pulse width.

    Attributes:
        input_width: width of the stimulating input pulse, seconds.
        output_width: width of the produced output pulse (0 if none).
        transitions: number of output transitions observed.
    """

    input_width: float
    output_width: float
    transitions: int


def short_pulse_filtration(model: TraceModel,
                           widths: Sequence[float]
                           ) -> list[PulseResponse]:
    """Short-pulse filtration behaviour of a two-input NOR model.

    Input A carries a positive pulse of the given width from 500 ps on
    (B stays 0), so the NOR output should answer with a negative
    pulse.  Returns one
    :class:`PulseResponse` per width.
    """
    responses: list[PulseResponse] = []
    for width in widths:
        if width <= 0.0:
            raise ParameterError("pulse widths must be positive")
        trace_a = DigitalTrace.from_edges(
            0, [_PULSE_START, _PULSE_START + width])
        trace_b = DigitalTrace.constant(0)
        out = model(trace_a, trace_b)
        if len(out.times) >= 2:
            output_width = out.times[1] - out.times[0]
        else:
            output_width = 0.0
        responses.append(PulseResponse(input_width=float(width),
                                       output_width=float(output_width),
                                       transitions=len(out.times)))
    return responses


def perturbation_sensitivity(model: TraceModel,
                             trace_a: DigitalTrace,
                             trace_b: DigitalTrace,
                             epsilon: float = 0.1 * PS,
                             transition_index: int = 0) -> float:
    """Largest output-time shift per unit input-time shift.

    Perturbs one transition of input A by ``±epsilon`` and compares the
    produced output transition times pairwise.  Returns the worst
    observed ratio ``|Δt_out| / ε`` (``inf`` if the output transition
    *count* changes — a discontinuity).
    """
    if not trace_a.times:
        raise ParameterError("trace_a needs at least one transition")
    if not 0 <= transition_index < len(trace_a.times):
        raise ParameterError("transition_index out of range")

    def perturbed(sign: float) -> DigitalTrace:
        transitions = trace_a.transitions
        t, v = transitions[transition_index]
        transitions[transition_index] = (t + sign * epsilon, v)
        return DigitalTrace(trace_a.initial, transitions)

    base = model(trace_a, trace_b)
    worst = 0.0
    for sign in (+1.0, -1.0):
        shifted = model(perturbed(sign), trace_b)
        if len(shifted.times) != len(base.times):
            return float("inf")
        for t_base, t_new in zip(base.times, shifted.times):
            worst = max(worst, abs(t_new - t_base) / epsilon)
    return worst
