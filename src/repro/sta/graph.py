"""Lowering a :class:`~repro.timing.TimingCircuit` into timing arcs.

Static timing analysis does not walk gates — it walks a *timing
graph*: one node per ``(signal, transition)`` and one arc per
input-pin-to-output-pin delay dependency.  This module builds that
graph from the same netlists the event simulators consume, so a
circuit is described once and analyzed both ways.

Arc construction per instance kind:

* :class:`~repro.timing.circuit.MultiInputInstance` (the fused MIS
  element, any width) — one **MIS arc** per distinct pin and output
  transition: output-falling fed by the rising inputs through the
  parallel nMOS network (referenced to the *earlier* input) and
  output-rising fed by the falling inputs through the series pMOS
  stack (referenced to the *later* input); NAND swaps which
  transition is the parallel one, per the mirror duality.  Each arc
  carries the full ordered ``pin_nodes`` tuple, so the analyzer
  conditions the group's delay on the sibling arrival offsets — a
  scalar ``Δ`` for two pins, an (n−1)-dimensional Δ-vector for wider
  gates — in one batched model call.  Delays come from an
  :class:`~repro.sta.arcs.EngineArcModel` (hybrid and generalized
  channels) or a :class:`~repro.sta.arcs.TableArcModel` reading the
  characterized library surfaces (table channels), unless overridden.
* :class:`~repro.timing.circuit.WireInstance` (one sink of an RC
  wire tree) — a positive-unate, direction-symmetric arc pair
  (rise→rise, fall→fall) carrying the reduced-order interconnect
  delay as a :class:`~repro.sta.arcs.WireArcModel`.
* any other :class:`GateInstance` — one arc per input transition
  sensitization, derived from the boolean function's unateness
  (binate functions like XOR get both polarities), with the
  single-input channel's stable-history delays as a
  :class:`~repro.sta.arcs.FixedArcModel`.

The graph also carries its :class:`LevelPlan`, built once with it: the
nodes as rows of one arrival array, the driven signals cut into
topological levels, and each level's arc evaluations grouped so that
the analyzer makes one delay call per level and arc kind.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from ..core.multi_input import GeneralizedNorParameters
from ..errors import NetlistError
from ..library.tables import gate_kind
from ..timing.circuit import (GateInstance, MultiInputInstance,
                              TimingCircuit, WireInstance)
from .arcs import (ArcDelayModel, EngineArcModel, FixedArcModel,
                   TableArcModel, WireArcModel, arc_batch, batch_key)

__all__ = ["LevelPlan", "TimingNode", "TimingArc", "TimingGraph",
           "build_timing_graph", "input_unateness"]

#: Output transitions, in node order.
TRANSITIONS = ("rise", "fall")

#: Map node transition -> delay-model direction.
DIRECTION = {"rise": "rising", "fall": "falling"}


class TimingNode(NamedTuple):
    """One ``(signal, transition)`` point of the timing graph.

    Attributes
    ----------
    signal : str
        Signal name from the circuit.
    transition : str
        ``"rise"`` or ``"fall"``.
    """

    signal: str
    transition: str

    def __str__(self) -> str:
        arrow = "↑" if self.transition == "rise" else "↓"
        return f"{self.signal}{arrow}"


@dataclasses.dataclass(frozen=True)
class TimingArc:
    """A pin-to-pin timing dependency.

    Parameters
    ----------
    instance : str
        Name of the circuit instance the arc crosses.
    source : TimingNode
        Input-pin transition the arc is traced through.
    target : TimingNode
        Output-pin transition the arc drives.
    model : ArcDelayModel
        Delay model evaluated for the arc.
    siblings : tuple of TimingNode
        The partner inputs' transitions for MIS arcs, in pin order
        with the source pin removed (empty for single-input arcs).
    pin_nodes : tuple of TimingNode
        For MIS arcs: *all* input transitions of the MIS group in
        pin order (the source included) — the Δ-vector the delay is
        conditioned on is built from their arrivals relative to pin
        0.  Empty for single-input arcs.
    reference : str
        Which input the arc delay is referenced to: ``"earlier"``
        (parallel network), ``"later"`` (series network) or
        ``"input"`` (single-input arcs).
    """

    instance: str
    source: TimingNode
    target: TimingNode
    model: ArcDelayModel
    siblings: tuple[TimingNode, ...] = ()
    pin_nodes: tuple[TimingNode, ...] = ()
    reference: str = "input"

    @property
    def is_mis(self) -> bool:
        """Whether the arc carries a sibling-conditioned MIS delay."""
        return bool(self.siblings)

    def __str__(self) -> str:
        return (f"{self.source} -> {self.target} "
                f"[{self.instance}/{self.model.name}]")


def input_unateness(function, arity: int, index: int) -> set[str]:
    """Sensitization polarities of one input of a boolean function.

    Enumerates all assignments of the other inputs and records whether
    toggling input *index* can raise (``"positive"``) and/or lower
    (``"negative"``) the output.

    Parameters
    ----------
    function : callable
        Boolean function of *arity* 0/1 arguments returning 0/1.
    arity : int
        Number of inputs.
    index : int
        Input position probed.

    Returns
    -------
    set of str
        Subset of ``{"positive", "negative"}``; empty when the output
        never depends on the input.
    """
    senses: set[str] = set()
    for assignment in range(2 ** (arity - 1)):
        values = []
        bit = 0
        for position in range(arity):
            if position == index:
                values.append(0)
            else:
                values.append((assignment >> bit) & 1)
                bit += 1
        low = function(*values)
        values[index] = 1
        high = function(*values)
        if high > low:
            senses.add("positive")
        elif high < low:
            senses.add("negative")
    return senses


class TimingGraph:
    """The lowered circuit: nodes, arcs, and topological structure.

    Built by :func:`build_timing_graph`; read by
    :func:`repro.sta.analysis.analyze` and the corner sweeps of
    :mod:`repro.sta.sweep`.

    Parameters
    ----------
    circuit : TimingCircuit
        The source netlist (kept for provenance).
    arcs : list of TimingArc
        All timing arcs.
    signal_order : list of str
        Driven signals in topological (driver-before-consumer) order.
    """

    def __init__(self, circuit: TimingCircuit,
                 arcs: list[TimingArc],
                 signal_order: list[str]):
        self.circuit = circuit
        self.arcs = list(arcs)
        self.signal_order = list(signal_order)
        consumed = {signal
                    for instance in circuit.instances
                    for signal in instance.inputs}
        self.endpoints: tuple[str, ...] = tuple(
            signal for signal in signal_order if signal not in consumed)
        self.plan = LevelPlan(self)

    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary input signal names."""
        return self.circuit.inputs

    def nodes(self) -> list[TimingNode]:
        """All graph nodes, inputs first, in topological order."""
        out = [TimingNode(signal, transition)
               for signal in self.inputs
               for transition in TRANSITIONS]
        out += [TimingNode(signal, transition)
                for signal in self.signal_order
                for transition in TRANSITIONS]
        return out

    def describe(self) -> str:
        """One-line structural summary (used by the CLI report)."""
        mis = sum(1 for arc in self.arcs if arc.is_mis)
        return (f"{len(self.signal_order)} driven signals, "
                f"{len(self.arcs)} arcs ({mis} MIS-conditioned), "
                f"endpoints: {', '.join(self.endpoints)}")


@dataclasses.dataclass(frozen=True)
class PlanGroup:
    """Arc evaluations of one level that share one delay call.

    An *evaluation* is one MIS gate output transition (all its arcs
    share one Δ, delay and crossing) or one single-input arc.
    """

    #: Evaluator from :func:`repro.sta.arcs.arc_batch`.
    batch: object
    #: ``"earlier"`` / ``"later"`` for MIS evaluations, else ``"input"``.
    reference: str
    #: Node rows of each evaluation's input pins, ``(size, width)``.
    pins: np.ndarray
    #: Node row each evaluation drives, ``(size,)``.
    targets: np.ndarray
    #: Plan-wide index of the group's first evaluation.
    first: int

    @property
    def size(self) -> int:
        """Number of evaluations."""
        return len(self.targets)


@dataclasses.dataclass(frozen=True)
class PlanLevel:
    """One topological level: its groups and how their candidates
    reduce into the level's target rows."""

    groups: tuple[PlanGroup, ...]
    #: Evaluation range ``[first, stop)`` of the level.
    first: int
    stop: int
    #: Level evaluations sorted by target row (relative to *first*).
    order: np.ndarray
    #: ``reduceat`` offsets into *order*, one per target row.
    starts: np.ndarray
    #: The target row of each offset.
    targets: np.ndarray
    #: Arcs driving this level's targets.
    arcs: np.ndarray


class LevelPlan:
    """Topological levels of a timing graph over flat index arrays.

    Row ``i`` of an arrival array is ``nodes[i]``: the primary-input
    nodes first, then the driven nodes in topological order (the
    order of :meth:`TimingGraph.nodes`).  A signal's level is one
    more than the deepest input of the instance driving it, so a
    level reads only rows written by earlier levels.  Within a
    level, evaluations are grouped by arc-model batch key, direction,
    gate width and reference; each group is one delay call.

    Parameters
    ----------
    graph : TimingGraph
        The graph to plan (its arcs and signal order).
    """

    def __init__(self, graph: "TimingGraph"):
        self.nodes: tuple[TimingNode, ...] = tuple(graph.nodes())
        self.rows = {node: row for row, node in enumerate(self.nodes)}
        self.inputs = 2 * len(graph.inputs)
        depth = dict.fromkeys(graph.inputs, 0)
        inputs_of = {instance.output: instance.inputs
                     for instance in graph.circuit.instances}
        for signal in graph.signal_order:
            depth[signal] = 1 + max((depth[name]
                                     for name in inputs_of[signal]),
                                    default=0)
        # One evaluation unit per MIS output transition (its arcs share
        # one Δ, delay and crossing) and one per other arc, keyed by
        # (depth, batch key, direction, width, reference).
        units: list[tuple] = []
        unit_of: dict[int, int] = {}
        arc_unit, source, target = [], [], []
        for index, arc in enumerate(graph.arcs):
            mis = arc.is_mis
            row = self.rows[arc.target]
            # One instance drives a target, so its row names the unit.
            shared = row if mis else -1 - index
            unit = unit_of.get(shared)
            if unit is None:
                pins = arc.pin_nodes if mis else (arc.source,)
                key = (depth[arc.target.signal],
                       batch_key(arc.model, arc.instance),
                       DIRECTION[arc.target.transition], len(pins),
                       arc.reference if mis else "input")
                unit = unit_of[shared] = len(units)
                units.append((key, arc, pins))
            arc_unit.append(unit)
            source.append(self.rows[arc.source])
            target.append(row)
        members: dict[tuple, list[int]] = {}
        for unit, (key, _arc, _pins) in enumerate(units):
            members.setdefault(key, []).append(unit)
        depths = sorted({key[0] for key in members})
        level_of = {value: level for level, value in enumerate(depths)}
        arc_level = np.array([level_of[units[unit][0][0]]
                              for unit in arc_unit], dtype=np.intp)
        evaluation_of = np.empty(len(units), dtype=np.intp)
        self.levels: list[PlanLevel] = []
        first = 0
        for level, level_depth in enumerate(depths):
            start, groups = first, []
            for key, indices in members.items():
                if key[0] != level_depth:
                    continue
                evaluation_of[indices] = np.arange(first,
                                                   first + len(indices))
                arcs = [units[unit][1] for unit in indices]
                groups.append(PlanGroup(
                    batch=arc_batch([arc.model for arc in arcs],
                                    [arc.instance for arc in arcs],
                                    key[2]),
                    reference=key[4],
                    pins=np.array([[self.rows[node]
                                    for node in units[unit][2]]
                                   for unit in indices], dtype=np.intp),
                    targets=np.array([self.rows[arc.target]
                                      for arc in arcs], dtype=np.intp),
                    first=first))
                first += len(indices)
            targets = np.concatenate([group.targets for group in groups])
            order = np.argsort(targets, kind="stable")
            ordered = targets[order]
            starts = np.flatnonzero(np.r_[True,
                                          ordered[1:] != ordered[:-1]])
            self.levels.append(PlanLevel(
                groups=tuple(groups), first=start, stop=first,
                order=order, starts=starts, targets=ordered[starts],
                arcs=np.flatnonzero(arc_level == level)))
        #: Number of evaluations over all levels.
        self.evaluations = first
        #: Every group in plan order, and the group of each evaluation.
        self.groups = tuple(group for level in self.levels
                            for group in level.groups)
        self.eval_group = np.repeat(np.arange(len(self.groups)),
                                    [group.size for group in self.groups])
        #: Per arc (in ``graph.arcs`` order): source row, target row
        #: and the evaluation whose candidate it shares.
        self.arc_source = np.array(source, dtype=np.intp)
        self.arc_target = np.array(target, dtype=np.intp)
        self.arc_eval = evaluation_of[np.array(arc_unit, dtype=np.intp)]
        #: Fan-in in CSR form: the arcs into row ``r`` are
        #: ``fanin[fanin_start[r]:fanin_start[r + 1]]``, in
        #: ``graph.arcs`` order.
        self.fanin = np.argsort(self.arc_target, kind="stable")
        self.fanin_start = np.searchsorted(
            self.arc_target[self.fanin], np.arange(len(self.nodes) + 1))

    def engine_groups(self) -> int:
        """Number of engine-backed groups: the engine calls of one
        propagation in which every group has a lane to evaluate."""
        return sum(group.batch.kind == "engine" for group in self.groups)


def _mis_model(channel, engine) -> ArcDelayModel:
    """The default arc model of a fused MIS element's channel: the
    table it replays, or its parameter set through the engine (an
    ``n = 2`` generalized set as the paper's closed form)."""
    table = getattr(channel, "table", None)
    if table is not None:
        return TableArcModel(table, state=channel.state)
    params = channel.params
    if channel.inputs == 2 and isinstance(params,
                                          GeneralizedNorParameters):
        params = params.to_two_input()
    return EngineArcModel(params, channel.gate, engine=engine)


def _mis_arcs(instance: MultiInputInstance,
              model: ArcDelayModel) -> list[TimingArc]:
    """The MIS arcs of one fused NOR/NAND element (any width)."""
    width = getattr(model, "num_inputs", len(instance.inputs))
    if width != len(instance.inputs):
        raise NetlistError(
            f"instance {instance.name!r} has {len(instance.inputs)} "
            f"inputs; its arc model {model!r} times {width}-input "
            "gates")
    # Negative-unate both ways: rising inputs drive the falling
    # output and vice versa.  The output transition through the
    # parallel network is referenced to the earlier input, the one
    # through the series stack to the later.
    parallel = gate_kind(getattr(model, "gate", "nor2")).parallel
    arcs = []
    for target_transition in TRANSITIONS:
        source_transition = ("fall" if target_transition == "rise"
                             else "rise")
        reference = ("earlier"
                     if DIRECTION[target_transition] == parallel
                     else "later")
        target = TimingNode(instance.output, target_transition)
        pin_nodes = tuple(TimingNode(signal, source_transition)
                          for signal in instance.inputs)
        seen: set[str] = set()
        for index, signal in enumerate(instance.inputs):
            if signal in seen:
                # Tied inputs: one arc per distinct signal suffices
                # (Δ = 0 between tied pins by construction).
                continue
            seen.add(signal)
            siblings = tuple(node for position, node
                             in enumerate(pin_nodes)
                             if position != index)
            arcs.append(TimingArc(
                instance=instance.name,
                source=TimingNode(signal, source_transition),
                target=target,
                model=model,
                siblings=siblings,
                pin_nodes=pin_nodes,
                reference=reference,
            ))
    return arcs


def _single_input_arcs(instance: GateInstance,
                       model: ArcDelayModel) -> list[TimingArc]:
    """Unateness-derived arcs of a generic gate + channel instance."""
    arcs = []
    arity = len(instance.inputs)
    for index, signal in enumerate(instance.inputs):
        senses = input_unateness(instance.function, arity, index)
        for sense in senses:
            for target_transition in TRANSITIONS:
                if sense == "positive":
                    source_transition = target_transition
                else:
                    source_transition = ("fall"
                                         if target_transition == "rise"
                                         else "rise")
                arcs.append(TimingArc(
                    instance=instance.name,
                    source=TimingNode(signal, source_transition),
                    target=TimingNode(instance.output,
                                      target_transition),
                    model=model,
                ))
    return arcs


def _wire_arcs(instance: WireInstance,
               model: ArcDelayModel) -> list[TimingArc]:
    """The positive-unate arc pair of one wire sink.

    Linear RC interconnect never inverts: a rise propagates as a
    rise and a fall as a fall, with the same (Δ-independent) delay.
    """
    signal = instance.inputs[0]
    return [TimingArc(
        instance=instance.name,
        source=TimingNode(signal, transition),
        target=TimingNode(instance.output, transition),
        model=model,
    ) for transition in TRANSITIONS]


def build_timing_graph(circuit: TimingCircuit,
                       models: dict[str, ArcDelayModel] | None = None,
                       engine=None) -> TimingGraph:
    """Lower a circuit into a :class:`TimingGraph`.

    Parameters
    ----------
    circuit : TimingCircuit
        Feed-forward netlist (combinational loops are rejected by the
        underlying topological sort).
    models : dict of str to ArcDelayModel, optional
        Per-instance delay-model overrides, keyed by instance name —
        e.g. swap a hybrid instance's direct evaluation for a
        :class:`~repro.sta.arcs.TableArcModel` read from a library.
    engine : str or DelayEngine, optional
        Evaluation backend for the default
        :class:`~repro.sta.arcs.EngineArcModel` arcs.

    Returns
    -------
    TimingGraph
        The lowered graph.

    Raises
    ------
    NetlistError
        If an override names an unknown instance or times a MIS gate
        of another width, or a gate's boolean output depends on none
        of its inputs.
    """
    models = dict(models or {})
    unknown = set(models) - {inst.name for inst in circuit.instances}
    if unknown:
        raise NetlistError(
            f"arc-model overrides for unknown instance(s): "
            f"{sorted(unknown)}")

    arcs: list[TimingArc] = []
    for instance in circuit.topological_order():
        override = models.get(instance.name)
        if isinstance(instance, MultiInputInstance):
            model = override or _mis_model(instance.channel, engine)
            arcs.extend(_mis_arcs(instance, model))
        elif isinstance(instance, WireInstance):
            model = override or WireArcModel.from_instance(instance)
            arcs.extend(_wire_arcs(instance, model))
        else:
            gate_arcs = _single_input_arcs(
                instance,
                override or FixedArcModel.from_channel(
                    instance.channel))
            if not gate_arcs:
                raise NetlistError(
                    f"gate {instance.name!r} output does not depend "
                    "on any input — cannot build timing arcs")
            arcs.extend(gate_arcs)

    order = [inst.output for inst in circuit.topological_order()]
    return TimingGraph(circuit, arcs, order)
