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
backward search over the recorded per-arc candidates.

The propagation core is *array-native*: arrivals are NumPy arrays
over a corner axis, and each arc costs one batched delay-model call
for all corners, whatever parameter set each corner lane carries —
this is what :mod:`repro.sta.sweep` exploits to make a 1000-corner
sweep one engine call per arc instead of a thousand scalar analyses.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math

import numpy as np

from ..core.multi_input import sibling_offsets
from ..errors import ParameterError, SimulationError
from .graph import DIRECTION, TimingArc, TimingGraph, TimingNode

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
# the array-native propagation core
# ----------------------------------------------------------------------

@dataclasses.dataclass
class _ArcRecord:
    """Per-arc evaluation record (arrays over the corner axis)."""

    arc: TimingArc
    delta: np.ndarray       # sibling separation(s) fed to the model:
                            # (corners,) scalar-Δ, (corners, n−1)
                            # Δ-vector arcs
    delay: np.ndarray       # model delay (NaN where not evaluated)
    candidate: np.ndarray   # arc's output-crossing candidate time
    through: np.ndarray     # candidate − arrival(source)


def _record_delta(record: _ArcRecord, corner: int = 0):
    """The conditioning Δ of one corner lane — a float for scalar-Δ
    arcs, a tuple of sibling offsets for Δ-vector arcs."""
    value = record.delta[corner]
    if np.ndim(value):
        return tuple(float(v) for v in value)
    return float(value)


def _grouped_delays(arc: TimingArc, deltas: np.ndarray,
                    corner_params) -> np.ndarray:
    """Evaluate an arc's delay model over the corner lanes, in one call.

    *deltas* is the scalar separation per lane (2-input and
    single-input arcs) or a ``(lanes, n−1)`` Δ-vector matrix
    (n-input arcs); the model's one ``delays`` entry point takes
    either.  ``corner_params`` is ``None`` (no re-targeting), one
    parameter set, a sample block with one set per lane, or a mapping
    ``{instance name: set or block}`` that re-targets each arc with
    its own instance's corners.  NaN lanes (no crossing to condition
    on) are left NaN.
    """
    direction = DIRECTION[arc.target.transition]
    nan = np.isnan(deltas)
    valid = ~(nan.any(axis=1) if nan.ndim == 2 else nan)
    delays = np.full(valid.shape, math.nan)
    params = (corner_params.get(arc.instance)
              if isinstance(corner_params, dict) else corner_params)
    if not arc.model.retargetable:
        params = None
    elif isinstance(params, np.ndarray):
        params = params[valid]
    if valid.any():
        delays[valid] = arc.model.delays(direction, deltas[valid],
                                         params=params)
    return delays


def _propagate(graph: TimingGraph,
               input_arrivals: dict[TimingNode, np.ndarray],
               mode: str,
               corner_params=None,
               keep_records: bool = True):
    """Forward arrival propagation over the corner axis.

    Returns ``(arrivals, records)`` where *arrivals* maps every node
    to an array over corners and *records* maps target nodes to their
    incoming :class:`_ArcRecord` lists (empty when *keep_records* is
    false).
    """
    if mode not in ("max", "min"):
        raise ParameterError(f"mode must be 'max' or 'min', got "
                             f"{mode!r}")
    arrival: dict[TimingNode, np.ndarray] = dict(input_arrivals)
    shape = next(iter(arrival.values())).shape
    records: dict[TimingNode, list[_ArcRecord]] = {}

    for signal in graph.signal_order:
        for transition in ("rise", "fall"):
            node = TimingNode(signal, transition)
            arcs = graph.incoming(node)
            if not arcs:
                # The gate function cannot produce this transition.
                arrival[node] = np.full(shape, math.inf)
                continue
            node_records: list[_ArcRecord] = []
            candidates: list[np.ndarray] = []
            # MIS pairs share one joint (Δ, δ, crossing) evaluation.
            pair_cache: dict[tuple[str, TimingNode], tuple] = {}
            for arc in arcs:
                t_source = arrival[arc.source]
                if arc.is_mis:
                    key = (arc.instance, arc.target)
                    if key not in pair_cache:
                        times = np.stack([arrival[pin_node]
                                          for pin_node
                                          in arc.pin_nodes])
                        if arc.reference == "earlier":
                            reference = times.min(axis=0)
                        else:
                            reference = times.max(axis=0)
                        finite = np.isfinite(reference)
                        if len(arc.pin_nodes) == 2:
                            with np.errstate(invalid="ignore"):
                                delta = times[1] - times[0]
                            lookup = np.where(finite, delta,
                                              math.nan)
                        else:
                            # Per-sibling ±inf encodings: offsets
                            # are clipped around the (finite)
                            # reference far past the settling
                            # region, so never/long-ago siblings
                            # land on the SIS plateaus.
                            anchor = np.where(finite, reference,
                                              0.0)
                            offsets = sibling_offsets(times, anchor)
                            delta = np.where(finite[:, None],
                                             offsets, math.nan)
                            lookup = delta
                        delay = _grouped_delays(arc, lookup,
                                                corner_params)
                        candidate = np.where(
                            finite,
                            reference + np.nan_to_num(delay),
                            reference)
                        pair_cache[key] = (delta, delay, candidate)
                    delta, delay, candidate = pair_cache[key]
                else:
                    delta = np.zeros(shape)
                    delay = _grouped_delays(arc, delta,
                                            corner_params)
                    candidate = t_source + delay
                candidates.append(candidate)
                if keep_records:
                    with np.errstate(invalid="ignore"):
                        through = candidate - t_source
                    node_records.append(_ArcRecord(
                        arc=arc, delta=delta, delay=delay,
                        candidate=candidate, through=through))
            stacked = np.stack(candidates)
            if mode == "max":
                # +inf candidates mean "this cause never fires" — they
                # must not masquerade as a late arrival.  If *every*
                # cause never fires, the node never switches (+inf).
                masked = np.where(np.isposinf(stacked), -math.inf,
                                  stacked)
                value = np.where(np.isposinf(stacked).all(axis=0),
                                 math.inf, masked.max(axis=0))
            else:
                value = stacked.min(axis=0)
            arrival[node] = value
            if keep_records:
                records[node] = node_records
    return arrival, records


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

def _required_times(graph: TimingGraph,
                    arrivals: dict[TimingNode, float],
                    records: dict[TimingNode, list[_ArcRecord]],
                    required, mode: str) -> dict[TimingNode, float]:
    """Back-propagate endpoint required times against the arcs.

    ``max`` mode is the setup view — the endpoint must arrive *no
    later than* the requirement, so required times tighten downward
    (``min``) on the way back.  ``min`` mode is the hold view — the
    endpoint must arrive *no earlier than* the requirement, so they
    tighten upward (``max``) and unconstrained nodes sit at ``-inf``.
    """
    unconstrained = math.inf if mode == "max" else -math.inf
    tighten = min if mode == "max" else max
    req: dict[TimingNode, float] = {node: unconstrained
                                    for node in arrivals}
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
    for signal, value in constraint.items():
        for transition in ("rise", "fall"):
            req[TimingNode(signal, transition)] = value
    for signal in reversed(graph.signal_order):
        for transition in ("rise", "fall"):
            node = TimingNode(signal, transition)
            for record in records.get(node, []):
                through = float(record.through[0])
                if not math.isfinite(through):
                    continue
                source = record.arc.source
                req[source] = tighten(req[source],
                                      req[node] - through)
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


def _extract_paths(graph: TimingGraph,
                   arrivals: dict[TimingNode, float],
                   records: dict[TimingNode, list[_ArcRecord]],
                   required: dict[TimingNode, float],
                   top: int, mode: str) -> tuple[TimingPath, ...]:
    """Best-first backward enumeration of the worst *top* paths.

    A partial path (backward from an endpoint) is scored with
    ``arrival(frontier) + Σ through`` — an exact bound on any
    completion, because ``arrival(target)`` is the max (min mode:
    min) of ``arrival(source) + through`` over incoming arcs — so
    complete paths pop off the heap in true criticality order.
    """
    sign = -1.0 if mode == "max" else 1.0
    counter = itertools.count()
    heap: list = []
    for signal in graph.endpoints:
        for transition in ("rise", "fall"):
            node = TimingNode(signal, transition)
            if math.isfinite(arrivals[node]):
                heapq.heappush(heap, (sign * arrivals[node],
                                      next(counter), node, (), 0.0))
    paths: list[TimingPath] = []
    expansions = 0
    while heap and len(paths) < top \
            and expansions < _MAX_PATH_EXPANSIONS:
        expansions += 1
        keyed, _tie, frontier, chain, suffix = heapq.heappop(heap)
        score = sign * keyed
        incoming = records.get(frontier)
        if not incoming:
            # Reached a primary input: the path is complete.  The
            # chain is stored endpoint-first; unwind it forward.
            endpoint = chain[0].arc.target if chain else frontier
            steps: list[PathStep] = []
            t = arrivals[frontier]
            for record in reversed(chain):
                t = t + float(record.through[0])
                steps.append(PathStep(
                    arc=record.arc,
                    delta=_record_delta(record),
                    delay=float(record.delay[0]),
                    arrival=t))
            slack = _slack(score, required[endpoint], mode)
            paths.append(TimingPath(endpoint=endpoint, arrival=score,
                                    slack=slack, source=frontier,
                                    steps=tuple(steps)))
            continue
        for record in incoming:
            through = float(record.through[0])
            source_arrival = arrivals[record.arc.source]
            if not (math.isfinite(through)
                    and math.isfinite(source_arrival)):
                continue
            new_suffix = suffix + through
            heapq.heappush(heap, (
                sign * (source_arrival + new_suffix),
                next(counter), record.arc.source,
                chain + (record,), new_suffix))
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
        If the propagation produced a NaN arrival (malformed ±inf
        input-arrival combination).
    ParameterError
        If a required time is NaN.
    """
    node_arrivals = input_arrival_nodes(graph, arrivals)
    arrays = {node: np.asarray([value], dtype=float)
              for node, value in node_arrivals.items()}
    arrival_arrays, records = _propagate(graph, arrays, mode)
    arrival = {node: float(value[0])
               for node, value in arrival_arrays.items()}
    for node, value in arrival.items():
        if math.isnan(value):
            raise SimulationError(
                f"arrival at {node} is NaN — check the ±inf input "
                "arrival combination")
    req = _required_times(graph, arrival, records, required, mode)
    slacks = {node: _slack(arrival[node], req[node], mode)
              for node in arrival}
    paths = (_extract_paths(graph, arrival, records, req, top_paths,
                            mode)
             if top_paths > 0 else ())
    return StaResult(graph=graph, mode=mode, arrivals=arrival,
                     required=req, slacks=slacks, paths=paths)
