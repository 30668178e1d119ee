"""RC interconnect: wire trees, reduced-order delay, SPICE lowering.

The wire subsystem makes the timing stack interconnect-aware, the
step toward the group's sequel paper (*A Hybrid Delay Model for
Interconnected Multi-Input Gates*, arXiv 2403.10540):

* :mod:`repro.wire.tree` — :class:`WireSegment`/:class:`WireTree`
  topology with exact first/second transfer moments;
* :mod:`repro.wire.model` — analytic Elmore and two-pole
  moment-matched delay/slew models, with array-native uniform
  corner scaling (:func:`scaled_delays`);
* :mod:`repro.wire.coupling` — effective driver load
  (:func:`loaded_params`) and receiver slew degradation;
* :mod:`repro.wire.spice` — lowering into R/C netlist devices
  (:func:`lower_wire`) and the wired benchmark circuits used for
  transient cross-validation.

Wires enter static timing through
:meth:`repro.timing.TimingCircuit.add_wire` and the ``chain_wire`` /
``tree_wire`` circuits of :mod:`repro.sta.circuits`; the workflow
surface is ``repro wire`` / :class:`repro.api.WireRequest`.
"""

from .coupling import degraded_slew, effective_load, loaded_params
from .model import (WIRE_MODELS, SinkTiming, WireTiming, reduce_tree,
                    scaled_delays, two_pole_step_crossings)
from .spice import (WiredCircuit, lower_wire, nor2_input_capacitance,
                    wired_nor_chain, wired_nor_tree)
from .tree import WireSegment, WireTree

__all__ = [
    "WireSegment",
    "WireTree",
    "SinkTiming",
    "WireTiming",
    "WIRE_MODELS",
    "reduce_tree",
    "scaled_delays",
    "two_pole_step_crossings",
    "effective_load",
    "loaded_params",
    "degraded_slew",
    "WiredCircuit",
    "lower_wire",
    "nor2_input_capacitance",
    "wired_nor_chain",
    "wired_nor_tree",
]
