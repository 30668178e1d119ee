"""Arrival propagation, slack, and critical-path extraction.

The analyzer walks a :class:`~repro.sta.graph.TimingGraph` in
topological order and computes, per ``(signal, transition)`` node,
the worst-case (``max``) or best-case (``min``) arrival time, with
every MIS arc conditioned on the *sibling-input arrival offset*
``Δ = t_B − t_A`` exactly as the paper's two-input model prescribes:

* a **parallel-network** transition (NOR fall / NAND rise) crosses at
  ``min(t_A, t_B) + δ(Δ)`` — referenced to the *earlier* input;
* a **series-network** transition (NOR rise / NAND fall) crosses at
  ``max(t_A, t_B) + δ(Δ)`` — referenced to the *later* input.

Arrival conventions: ``+inf`` means *never switches* and ``−inf``
means *switched long ago* — both flow through the MIS arithmetic
naturally (a sibling that never rises puts the arc on its SIS
plateau ``δ(±∞)``), so constant side-inputs need no special casing.

Required times back-propagate from endpoint constraints and give
per-node slack; ranked critical paths fall out of a best-first
backward search over the per-arc candidates.

The propagation core is *levelized and array-native*: arrivals live in
one ``(nodes, corners)`` array whose rows follow the graph's
:class:`~repro.sta.graph.LevelPlan`, and each topological level makes
one batched delay-model call per group of arcs that share an arc-model
kind, direction and gate width — for every instance of the group and
every corner lane at once, whatever parameter set each lane carries.
This is what :mod:`repro.sta.sweep` exploits: a 1000-corner sweep
costs a few engine calls per level, not one per gate, let alone one
per gate and corner.  Required times back-propagate over the same
index arrays in reverse level order, and the per-arc records of
:func:`analyze` are a post-pass over the arrays
(``through = candidate − arrival(source)``).
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math

import numpy as np

from ..core.multi_input import sibling_offsets
from ..errors import ParameterError, SimulationError
from ..obs.trace import span
from .graph import (TRANSITIONS, LevelPlan, PlanGroup, TimingArc,
                    TimingGraph, TimingNode)

__all__ = ["analyze", "StaResult", "TimingPath", "PathStep",
           "input_arrival_nodes"]

#: Cap on heap expansions during top-K path extraction.
_MAX_PATH_EXPANSIONS = 100_000


# ----------------------------------------------------------------------
# arrival specification
# ----------------------------------------------------------------------

def input_arrival_nodes(graph: TimingGraph,
                        arrivals=None) -> dict[TimingNode, float]:
    """Resolve an input-arrival spec into per-node times.

    Parameters
    ----------
    graph : TimingGraph
        The graph whose primary inputs are being constrained.
    arrivals : mapping, optional
        ``{signal: spec}`` where *spec* is either a single number
        (both transitions) or a ``(rise, fall)`` *tuple* — the same
        rule :func:`repro.sta.sweep.sweep_corners` applies, where
        non-tuple sequences mean a corner axis instead.  Missing
        signals default to ``(0.0, 0.0)``; use ``math.inf`` for a
        transition that never happens and ``-math.inf`` for one that
        happened long ago (a settled constant).

    Returns
    -------
    dict of TimingNode to float
        Arrival time per primary-input node.

    Raises
    ------
    ParameterError
        If *arrivals* names a signal that is not a primary input,
        or a spec is neither a number nor a 2-tuple.
    """
    arrivals = dict(arrivals or {})
    unknown = set(arrivals) - set(graph.inputs)
    if unknown:
        raise ParameterError(
            f"arrivals given for non-input signal(s): "
            f"{sorted(unknown)}; inputs are {list(graph.inputs)}")
    out: dict[TimingNode, float] = {}
    for signal in graph.inputs:
        spec = arrivals.get(signal, 0.0)
        if isinstance(spec, (int, float)):
            rise = fall = float(spec)
        elif isinstance(spec, tuple) and len(spec) == 2:
            rise, fall = (float(spec[0]), float(spec[1]))
        else:
            raise ParameterError(
                f"arrival spec for {signal!r} must be a number or a "
                f"(rise, fall) tuple, got {spec!r}")
        out[TimingNode(signal, "rise")] = rise
        out[TimingNode(signal, "fall")] = fall
    return out


# ----------------------------------------------------------------------
# the levelized propagation core
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _Records:
    """Per-arc evaluation records of one propagation, as arrays over
    the arcs (``graph.arcs`` order) and corners."""

    plan: LevelPlan
    through: np.ndarray     # candidate − arrival(source)
    delay: np.ndarray       # model delay (NaN where not evaluated)
    deltas: list            # Δ of each plan group, in plan order

    def delta(self, arc: int):
        """The conditioning Δ of one arc (corner 0) — a float for
        scalar-Δ arcs, a tuple of sibling offsets for Δ-vector arcs."""
        evaluation = self.plan.arc_eval[arc]
        group = self.plan.eval_group[evaluation]
        value = self.deltas[group][
            evaluation - self.plan.groups[group].first, 0]
        if np.ndim(value):
            return tuple(float(v) for v in value)
        return float(value)


def _evaluate(group: PlanGroup, arrival: np.ndarray, corner_params,
              corners: int):
    """Δ, delay and output-crossing candidate of one plan group.

    Returns arrays of shape ``(evaluations, corners)`` (Δ-vector
    groups: Δ of ``(evaluations, corners, n−1)``).  NaN lanes (no
    crossing to condition on) are left out of the delay call and
    keep a NaN delay.
    """
    times = arrival[group.pins]
    if group.reference == "input":
        reference = times[:, 0]
        delta = lookup = np.zeros_like(reference)
    else:
        if group.reference == "earlier":
            reference = times.min(axis=1)
        else:
            reference = times.max(axis=1)
        finite = np.isfinite(reference)
        if times.shape[1] == 2:
            with np.errstate(invalid="ignore"):
                delta = times[:, 1] - times[:, 0]
            lookup = np.where(finite, delta, math.nan)
        else:
            # Per-sibling ±inf encodings: offsets are clipped around
            # the (finite) reference far past the settling region, so
            # never/long-ago siblings land on the SIS plateaus.
            anchor = np.where(finite, reference, 0.0)
            offsets = sibling_offsets(np.moveaxis(times, 1, 0), anchor)
            delta = lookup = np.where(finite[..., None], offsets,
                                      math.nan)
    lanes = lookup.reshape((group.size * corners,) + lookup.shape[2:])
    nan = np.isnan(lanes)
    valid = ~(nan.any(axis=1) if nan.ndim == 2 else nan)
    delay = np.full(valid.shape, math.nan)
    if valid.any():
        delay[valid] = group.batch.delays(lanes[valid], valid,
                                          corner_params, corners)
    delay = delay.reshape(group.size, corners)
    if group.reference == "input":
        return delta, delay, reference + delay
    return delta, delay, np.where(finite,
                                  reference + np.nan_to_num(delay),
                                  reference)


def _propagate(graph: TimingGraph,
               input_arrivals: dict[TimingNode, np.ndarray],
               mode: str,
               corner_params=None,
               keep_records: bool = False):
    """Forward arrival propagation over the corner axis, level by level.

    *input_arrivals* maps every primary-input node to an array over
    the corners; this is the one place input arrivals enter the
    arrival array, so a NaN among them is rejected here.
    ``corner_params`` is ``None`` (every arc on its own parameters),
    one parameter set, a sample block with one set per corner, or a
    mapping ``{instance name: set or block}``.  Returns the ``(nodes,
    corners)`` arrival array in plan row order, and the per-arc
    :class:`_Records` if *keep_records* (else ``None``).
    """
    if mode not in ("max", "min"):
        raise ParameterError(f"mode must be 'max' or 'min', got "
                             f"{mode!r}")
    plan = graph.plan
    inputs = np.array([input_arrivals[node]
                       for node in plan.nodes[:plan.inputs]], dtype=float)
    bad = np.isnan(inputs).any(axis=1)
    if bad.any():
        signal = plan.nodes[int(np.argmax(bad))].signal
        raise ParameterError(
            f"arrival of input {signal!r} must not be NaN")
    corners = inputs.shape[1]
    arrival = np.full((len(plan.nodes), corners), math.inf)
    arrival[:plan.inputs] = inputs
    candidate = np.empty((plan.evaluations, corners))
    delays = np.empty_like(candidate) if keep_records else None
    deltas: list = []
    with span("sta.propagate", levels=len(plan.levels), corners=corners,
              mode=mode):
        for index, level in enumerate(plan.levels):
            with span("sta.level", level=index,
                      groups=len(level.groups),
                      lanes=(level.stop - level.first) * corners):
                for group in level.groups:
                    delta, delay, rows = _evaluate(
                        group, arrival, corner_params, corners)
                    stop = group.first + group.size
                    candidate[group.first:stop] = rows
                    if keep_records:
                        delays[group.first:stop] = delay
                        deltas.append(delta)
                block = candidate[level.first:level.stop][level.order]
                if mode == "max":
                    # +inf candidates mean "this cause never fires" —
                    # they must not masquerade as a late arrival.  If
                    # *every* cause never fires, the node never
                    # switches (+inf).
                    never = np.isposinf(block)
                    value = np.maximum.reduceat(
                        np.where(never, -math.inf, block), level.starts)
                    value = np.where(
                        np.logical_and.reduceat(never, level.starts),
                        math.inf, value)
                else:
                    value = np.minimum.reduceat(block, level.starts)
                arrival[level.targets] = value
    if not keep_records:
        return arrival, None
    with np.errstate(invalid="ignore"):
        through = candidate[plan.arc_eval] - arrival[plan.arc_source]
    return arrival, _Records(plan=plan, through=through,
                             delay=delays[plan.arc_eval], deltas=deltas)


# ----------------------------------------------------------------------
# result containers
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class PathStep:
    """One arc traversal of a reported timing path.

    Parameters
    ----------
    arc : TimingArc
        The traversed arc.
    delta : float or tuple of float
        Sibling-input separation ``Δ`` the arc delay was conditioned
        on, seconds (0 for single-input arcs); Δ-vector arcs report
        the full tuple of sibling offsets relative to pin 0.
    delay : float
        The model delay ``δ(Δ)`` in seconds.
    arrival : float
        Path arrival time at the arc's target node, seconds.
    """

    arc: TimingArc
    delta: float | tuple[float, ...]
    delay: float
    arrival: float


@dataclasses.dataclass(frozen=True)
class TimingPath:
    """One ranked source-to-endpoint path.

    Parameters
    ----------
    endpoint : TimingNode
        The endpoint node the path terminates at.
    arrival : float
        Path arrival time at the endpoint, seconds.
    slack : float
        Signed slack of this path against the endpoint requirement
        (positive = met; see :class:`StaResult`), seconds; ``inf``
        when unconstrained.
    source : TimingNode
        The primary-input node the path starts at.
    steps : tuple of PathStep
        Arc traversals in source-to-endpoint order.
    """

    endpoint: TimingNode
    arrival: float
    slack: float
    source: TimingNode
    steps: tuple[PathStep, ...]

    def describe(self) -> str:
        """Multi-line human-readable rendering of the path."""
        from ..units import to_ps
        slack = ("unconstrained" if math.isinf(self.slack)
                 else f"slack {to_ps(self.slack):+.2f} ps")
        lines = [f"path to {self.endpoint}: arrival "
                 f"{to_ps(self.arrival):.2f} ps, {slack}",
                 f"  start {self.source}"]
        for step in self.steps:
            if not step.arc.is_mis:
                mis = ""
            elif isinstance(step.delta, tuple):
                rendered = ", ".join(f"{to_ps(v):+.2f}"
                                     for v in step.delta)
                mis = f", Δ = ({rendered}) ps"
            else:
                mis = f", Δ = {to_ps(step.delta):+.2f} ps"
            lines.append(
                f"  -> {step.arc.target}  via {step.arc.instance} "
                f"[{step.arc.model.name}]  δ = "
                f"{to_ps(step.delay):.2f} ps{mis}  @ "
                f"{to_ps(step.arrival):.2f} ps")
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class StaResult:
    """Outcome of one static timing analysis.

    Parameters
    ----------
    graph : TimingGraph
        The analyzed graph.
    mode : str
        ``"max"`` (late/setup) or ``"min"`` (early) analysis.
    arrivals : dict of TimingNode to float
        Arrival time per node, seconds (``±inf`` per the
        never/long-ago conventions).
    required : dict of TimingNode to float
        Required arrival time per node (``+inf`` where
        unconstrained in ``max`` mode, ``-inf`` in ``min`` mode).
    slacks : dict of TimingNode to float
        Signed slack per node — positive always means the
        constraint is met (``required − arrival`` in ``max`` mode,
        ``arrival − required`` in ``min`` mode; ``inf`` where
        unconstrained).
    paths : tuple of TimingPath
        Ranked critical paths (worst first).
    """

    graph: TimingGraph
    mode: str
    arrivals: dict[TimingNode, float]
    required: dict[TimingNode, float]
    slacks: dict[TimingNode, float]
    paths: tuple[TimingPath, ...]

    def endpoint_nodes(self) -> list[TimingNode]:
        """Endpoint nodes with a finite arrival."""
        return [TimingNode(signal, transition)
                for signal in self.graph.endpoints
                for transition in ("rise", "fall")
                if math.isfinite(self.arrivals[
                    TimingNode(signal, transition)])]

    @property
    def worst_slack(self) -> float:
        """The smallest endpoint slack, seconds."""
        slacks = [self.slacks[node] for node in self.endpoint_nodes()]
        return min(slacks) if slacks else math.inf

    @property
    def critical_path(self) -> TimingPath | None:
        """The worst (first-ranked) path, or ``None`` if none exist."""
        return self.paths[0] if self.paths else None

    def to_dict(self) -> dict:
        """Plain-JSON representation (seconds throughout).

        Non-finite times (never / long-ago arrivals, unconstrained
        required times and slacks, SIS-edge ``±inf`` separations)
        serialize as ``null`` so the payload stays RFC-8259 valid
        for strict parsers.
        """
        def time(value):
            if isinstance(value, tuple):
                return [time(v) for v in value]
            return float(value) if math.isfinite(value) else None

        def times(mapping):
            return {str(node): time(value)
                    for node, value in sorted(mapping.items())}
        return {
            "mode": self.mode,
            "endpoints": list(self.graph.endpoints),
            "arrivals_s": times(self.arrivals),
            "required_s": times(self.required),
            "slacks_s": times(self.slacks),
            "worst_slack_s": time(self.worst_slack),
            "paths": [
                {
                    "endpoint": str(path.endpoint),
                    "source": str(path.source),
                    "arrival_s": time(path.arrival),
                    "slack_s": time(path.slack),
                    "steps": [
                        {
                            "instance": step.arc.instance,
                            "from": str(step.arc.source),
                            "to": str(step.arc.target),
                            "model": step.arc.model.name,
                            "delta_s": time(step.delta),
                            "delay_s": time(step.delay),
                            "arrival_s": time(step.arrival),
                        }
                        for step in path.steps
                    ],
                }
                for path in self.paths
            ],
        }


# ----------------------------------------------------------------------
# required times and paths
# ----------------------------------------------------------------------

def _required_times(graph: TimingGraph, records: _Records, required,
                    mode: str) -> np.ndarray:
    """Back-propagate endpoint required times against the arcs, level
    by level in reverse order; one value per plan row.

    ``max`` mode is the setup view — the endpoint must arrive *no
    later than* the requirement, so required times tighten downward
    (``min``) on the way back.  ``min`` mode is the hold view — the
    endpoint must arrive *no earlier than* the requirement, so they
    tighten upward (``max``) and unconstrained nodes sit at ``-inf``.
    """
    if required is None:
        constraint: dict[str, float] = {}
    elif isinstance(required, (int, float)):
        constraint = {signal: float(required)
                      for signal in graph.endpoints}
    else:
        unknown = set(required) - set(graph.endpoints)
        if unknown:
            raise ParameterError(
                f"required times given for non-endpoint signal(s): "
                f"{sorted(unknown)}; endpoints are "
                f"{list(graph.endpoints)}")
        constraint = {signal: float(value)
                      for signal, value in required.items()}
    if any(math.isnan(value) for value in constraint.values()):
        raise ParameterError("required time must not be NaN")
    plan = graph.plan
    req = np.full(len(plan.nodes),
                  math.inf if mode == "max" else -math.inf)
    for signal, value in constraint.items():
        for transition in TRANSITIONS:
            req[plan.rows[TimingNode(signal, transition)]] = value
    tighten = np.minimum if mode == "max" else np.maximum
    through = records.through[:, 0]
    for level in reversed(plan.levels):
        arcs = level.arcs[np.isfinite(through[level.arcs])]
        tighten.at(req, plan.arc_source[arcs],
                   req[plan.arc_target[arcs]] - through[arcs])
    return req


def _slack(arrival: float, required: float, mode: str) -> float:
    """Signed slack: positive always means the constraint is met.

    ``max`` mode: ``required − arrival`` (must be no later).
    ``min`` mode: ``arrival − required`` (must be no earlier).
    """
    if not (math.isfinite(required) and math.isfinite(arrival)):
        return math.inf
    return (required - arrival if mode == "max"
            else arrival - required)


def _extract_paths(graph: TimingGraph, arrivals: list[float],
                   records: _Records, required: list[float],
                   top: int, mode: str) -> tuple[TimingPath, ...]:
    """Best-first backward enumeration of the worst *top* paths.

    *arrivals* and *required* are per plan row.  A partial path
    (backward from an endpoint) is scored with ``arrival(frontier) +
    Σ through`` — an exact bound on any completion, because
    ``arrival(target)`` is the max (min mode: min) of
    ``arrival(source) + through`` over incoming arcs — so complete
    paths pop off the heap in true criticality order.
    """
    plan = graph.plan
    through = records.through[:, 0].tolist()
    sign = -1.0 if mode == "max" else 1.0
    counter = itertools.count()
    heap: list = []
    for signal in graph.endpoints:
        for transition in TRANSITIONS:
            row = plan.rows[TimingNode(signal, transition)]
            if math.isfinite(arrivals[row]):
                heapq.heappush(heap, (sign * arrivals[row],
                                      next(counter), row, (), 0.0))
    paths: list[TimingPath] = []
    expansions = 0
    while heap and len(paths) < top \
            and expansions < _MAX_PATH_EXPANSIONS:
        expansions += 1
        keyed, _tie, frontier, chain, suffix = heapq.heappop(heap)
        score = sign * keyed
        incoming = plan.fanin[plan.fanin_start[frontier]:
                              plan.fanin_start[frontier + 1]].tolist()
        if not incoming:
            # Reached a primary input: the path is complete.  The
            # chain is stored endpoint-first; unwind it forward.
            endpoint = plan.arc_target[chain[0]] if chain else frontier
            steps: list[PathStep] = []
            t = arrivals[frontier]
            for arc in reversed(chain):
                t = t + through[arc]
                steps.append(PathStep(
                    arc=graph.arcs[arc], delta=records.delta(arc),
                    delay=float(records.delay[arc, 0]), arrival=t))
            slack = _slack(score, required[endpoint], mode)
            paths.append(TimingPath(endpoint=plan.nodes[endpoint],
                                    arrival=score, slack=slack,
                                    source=plan.nodes[frontier],
                                    steps=tuple(steps)))
            continue
        for arc in incoming:
            source_arrival = arrivals[plan.arc_source[arc]]
            if not (math.isfinite(through[arc])
                    and math.isfinite(source_arrival)):
                continue
            new_suffix = suffix + through[arc]
            heapq.heappush(heap, (
                sign * (source_arrival + new_suffix),
                next(counter), int(plan.arc_source[arc]),
                chain + (arc,), new_suffix))
    return tuple(paths)


# ----------------------------------------------------------------------
# the public entry point
# ----------------------------------------------------------------------

def analyze(graph: TimingGraph, arrivals=None, required=None,
            mode: str = "max", top_paths: int = 3) -> StaResult:
    """Run a static timing analysis over a timing graph.

    Parameters
    ----------
    graph : TimingGraph
        Lowered circuit (:func:`repro.sta.graph.build_timing_graph`).
    arrivals : mapping, optional
        Input arrival spec — see :func:`input_arrival_nodes`.
    required : float or mapping, optional
        Required arrival time at the endpoints: one number for all,
        or ``{signal: time}``.  In ``max`` mode it is the *latest
        allowed* arrival (setup view); in ``min`` mode the *earliest
        allowed* (hold view).  ``None`` leaves slacks unconstrained
        (``inf``).
    mode : str, optional
        ``"max"`` (default) for latest arrivals — the setup/critical
        view; ``"min"`` for earliest arrivals.
    top_paths : int, optional
        Number of ranked critical paths to extract (default 3;
        0 skips extraction).

    Returns
    -------
    StaResult
        Arrivals, required times, slacks, and ranked paths.

    Raises
    ------
    SimulationError
        If an arc delay model produced a NaN arrival.
    ParameterError
        If an input arrival or a required time is NaN.
    """
    inputs = {node: np.array([value]) for node, value
              in input_arrival_nodes(graph, arrivals).items()}
    arrival, records = _propagate(graph, inputs, mode,
                                  keep_records=True)
    column = arrival[:, 0]
    nodes = graph.plan.nodes
    if np.isnan(column).any():
        raise SimulationError(
            f"arrival at {nodes[int(np.argmax(np.isnan(column)))]} is "
            "NaN — an arc delay model returned NaN")
    req = _required_times(graph, records, required, mode)
    with np.errstate(invalid="ignore"):
        margin = req - column if mode == "max" else column - req
    slacks = np.where(np.isfinite(req) & np.isfinite(column), margin,
                      math.inf)
    arrival_list, req_list = column.tolist(), req.tolist()
    paths = (_extract_paths(graph, arrival_list, records, req_list,
                            top_paths, mode)
             if top_paths > 0 else ())
    return StaResult(graph=graph, mode=mode,
                     arrivals=dict(zip(nodes, arrival_list)),
                     required=dict(zip(nodes, req_list)),
                     slacks=dict(zip(nodes, slacks.tolist())),
                     paths=paths)
