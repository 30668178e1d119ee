"""The paper's two-input hybrid NOR channel.

Unlike the single-input channels, the hybrid channel *is* the gate: it
consumes both input traces and produces the output trace by running the
four-mode ODE automaton of :class:`repro.core.hybrid_model.HybridNorModel`
forward through the (δ_min-deferred) input events.  Glitch behaviour
needs no explicit cancellation rules — a pulse that is too short simply
never drives the continuous output voltage across ``Vth``.

This is what the paper integrated into the Involution Tool through the
QuestaSim FLI → C → Python bridge; here it is a native channel.
"""

from __future__ import annotations

from ...core.hybrid_model import HybridNorModel
from ...core.parameters import NorGateParameters
from .base import MisChannel

__all__ = ["HybridNorChannel"]


class HybridNorChannel(MisChannel):
    """MIS-aware NOR gate channel based on the hybrid ODE model.

    The continuous state starts at the equilibrium of the initial
    input combination; for the (1,1) start this means ``V_N = 0``,
    the paper's worst-case choice.

    Args:
        params: electrical parameters (``δ_min`` included; use
            ``params.without_delta_min()`` for the paper's
            "HM without δ_min" variant).
        label: reporting label.
    """

    def __init__(self, params: NorGateParameters, label: str = "hybrid"):
        super().__init__("nor2", label)
        self.params = params
        self.model = HybridNorModel(params)

    def _crossings(self, traces, t_max):
        trace_a, trace_b = traces
        return self.model.output_crossings_for_inputs(
            trace_a.transitions, trace_b.transitions, t_max=t_max,
            a_initial=trace_a.initial, b_initial=trace_b.initial)
