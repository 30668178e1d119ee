"""Event-driven channel for the generalized n-input NOR model.

:class:`GeneralizedNorChannel` is the n-input sibling of
:class:`~repro.timing.channels.hybrid.HybridNorChannel`: a fused MIS
element that consumes all n input traces directly and produces the
digitized output of the exact eigen-solved hybrid automaton of
:class:`~repro.core.multi_input.GeneralizedNorModel`.  For ``n = 2``
it reproduces the paper's closed-form channel to solver precision
(the test-suite asserts it), and it is the event-simulation ground
truth the n-input STA arcs of :mod:`repro.sta` cross-validate
against.

The channel runs under the feed-forward trace-transform simulator
(:func:`repro.timing.simulator.simulate`); the incremental
discrete-event engine keeps its scope at the paper's two-input
automaton and rejects n-input instances cleanly.
"""

from __future__ import annotations

from ...core.multi_input import (GeneralizedNorParameters,
                                 generalized_model)
from .base import MisChannel

__all__ = ["GeneralizedNorChannel"]


class GeneralizedNorChannel(MisChannel):
    """MIS-aware n-input NOR channel over the generalized hybrid model.

    Parameters
    ----------
    params : GeneralizedNorParameters
        Electrical parameters of the n-input gate (``δ_min``
        included).
    label : str, optional
        Reporting label.
    """

    def __init__(self, params: GeneralizedNorParameters,
                 label: str = "generalized-nor"):
        super().__init__(f"nor{params.num_inputs}", label)
        self.params = params
        self.model = generalized_model(params)

    def _crossings(self, traces, t_max):
        return self.model.output_crossings_for_inputs(
            [trace.transitions for trace in traces],
            initial_inputs=[trace.initial for trace in traces],
            t_max=t_max)

    def __repr__(self) -> str:
        return (f"GeneralizedNorChannel(n={self.params.num_inputs}, "
                f"label={self.label!r})")
