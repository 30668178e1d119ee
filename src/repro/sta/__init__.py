"""MIS-aware static timing analysis over :mod:`repro.timing` netlists.

The consumer the delay models exist for: given a circuit, *what is
the critical path, what is the slack, and how do they move across
parameter corners?*  The subsystem lowers a
:class:`~repro.timing.TimingCircuit` into a pin-to-pin
:class:`TimingGraph`, conditions every multi-input arc on the
sibling-input arrival offset ``Δ`` exactly as the paper's two-input
model prescribes, and answers at three speeds:

* :func:`analyze` — one scalar analysis: forward arrival
  propagation (min/max, rise/fall split), required-time
  back-propagation against endpoint constraints, per-node slack and
  ranked critical paths with a per-arc ``(Δ, δ)`` breakdown;
* :func:`sweep_corners` — the same graph evaluated across whole
  arrays of parameter corners and input-arrival scenarios in one
  batched pass through the :mod:`repro.engine` backends;
* arc models (:mod:`repro.sta.arcs`) — direct hybrid-model
  evaluation, characterized :class:`~repro.library.GateDelayTable`
  lookup, or fixed fallbacks, mixed freely per instance.

Quickstart::

    from repro.sta import build_timing_graph, analyze, sta_circuit
    graph = build_timing_graph(sta_circuit("tree"))
    result = analyze(graph, arrivals={"a": 0.0, "b": 10e-12})
    print(result.critical_path.describe())

The CLI front-end is ``repro sta``; the cross-validation against
full event simulation is ``repro.analysis.experiments.experiment_sta``.
"""

from .analysis import (PathStep, StaResult, TimingPath, analyze,
                       input_arrival_nodes)
from .arcs import (ArcDelayModel, EngineArcModel, FixedArcModel,
                   TableArcModel, WireArcModel)
from .circuits import (STA_CIRCUITS, demo_corners, demo_wire_fanout,
                       demo_wire_line, nor3_mixed, nor_chain,
                       nor_chain_wire, nor_tree, nor_tree_wire,
                       single_nor, single_nor3, sta_circuit)
from .graph import (TimingArc, TimingGraph, TimingNode,
                    build_timing_graph, input_unateness)
from .report import render_report, render_sweep_summary, sta_payload
from .sweep import (CornerSweepResult, sweep_corners,
                    sweep_corners_scalar)

__all__ = [
    "ArcDelayModel",
    "CornerSweepResult",
    "EngineArcModel",
    "FixedArcModel",
    "PathStep",
    "STA_CIRCUITS",
    "StaResult",
    "TableArcModel",
    "TimingArc",
    "TimingGraph",
    "TimingNode",
    "TimingPath",
    "WireArcModel",
    "analyze",
    "build_timing_graph",
    "demo_corners",
    "demo_wire_fanout",
    "demo_wire_line",
    "input_arrival_nodes",
    "input_unateness",
    "nor3_mixed",
    "nor_chain",
    "nor_chain_wire",
    "nor_tree",
    "nor_tree_wire",
    "render_report",
    "render_sweep_summary",
    "single_nor",
    "single_nor3",
    "sta_circuit",
    "sta_payload",
    "sweep_corners",
    "sweep_corners_scalar",
]
