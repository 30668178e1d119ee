"""Vectorized corner sweeps: one batched pass, thousands of corners.

A *corner* is one point of a design-space grid: an electrical
parameter set for the MIS cells (process/voltage variants, Monte-Carlo
samples) together with an input-arrival scenario.  The scalar way to
sweep corners is to re-run :func:`repro.sta.analysis.analyze` per
corner — and every run pays the per-call overhead of its one-point
engine evaluations.

:func:`sweep_corners` instead propagates *arrays* of arrival times
through the timing graph's level plan: every node's arrival is a row
of one ``(nodes, corners)`` array, every MIS group computes its Δ
vectors in one subtraction, and each level fetches the delays of each
arc kind with **one batched engine call** for all its instances and
corners, whatever parameter set each lane carries (a shared corner
axis is tiled once per instance; a per-instance axis gives each
instance its own block).  A 1000-corner sweep of an N-gate circuit
thus costs a few engine calls per level instead of ``N × 1000`` — the
speedup over the scalar loop is recorded in ``BENCH_sta.json`` by
``benchmarks/bench_sta.py`` (acceptance: ≥ 10×), and absolute seconds
per gate-corner on generated netlists in ``BENCH_sta_scale.json`` by
``benchmarks/bench_sta_scale.py``.

:func:`sweep_corners_scalar` is the reference per-corner loop, kept
for parity tests and as the benchmark baseline.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..core.multi_input import (GeneralizedNorParameters,
                                block_from_parameters, parameters_at)
from ..core.parameters import NorGateParameters
from ..errors import ParameterError
from .analysis import _propagate
from .graph import TimingGraph, TimingNode

__all__ = ["CornerSweepResult", "sweep_corners",
           "sweep_corners_scalar"]


def _resolve_corner_axes(graph: TimingGraph, params, arrivals,
                         required):
    """Broadcast the params / arrival axes to one corner count.

    Returns ``(count, corner_params, node_arrays)`` where
    *corner_params* is ``None``, one parameter set shared by every
    corner, a sample block with one set per corner, or — for
    per-instance variation — a dict of such sets and blocks keyed by
    instance name, and *node_arrays* maps every input node to a
    ``(count,)`` arrival array.  A NaN *required* is rejected.
    """
    if required is not None and math.isnan(required):
        raise ParameterError("required time must not be NaN")
    count: int | None = None

    def merge(n: int, what: str) -> None:
        nonlocal count
        if count is None or count == 1:
            count = n if count is None else max(count, n)
        elif n not in (1, count):
            raise ParameterError(
                f"{what} axis has {n} corners, but another axis has "
                f"{count}; axes must broadcast")

    def as_axis(spec, what: str):
        # One set broadcasts; a sequence packs into a sample block
        # once, so every arc indexes the same per-lane records.
        if isinstance(spec, (NorGateParameters,
                             GeneralizedNorParameters)):
            return spec
        if not isinstance(spec, np.ndarray):
            spec = list(spec)
        if not len(spec):
            raise ParameterError(f"{what} axis must not be empty")
        spec = block_from_parameters(spec)
        if spec.ndim != 1:
            raise ParameterError(f"{what} axis must be 1-D over corners")
        merge(spec.shape[0], what)
        return spec

    corner_params = None
    if isinstance(params, dict):
        instances = {inst.name for inst in graph.circuit.instances}
        unknown = set(params) - instances
        if unknown:
            raise ParameterError(
                f"per-instance params given for unknown instance(s): "
                f"{sorted(unknown)}; instances are "
                f"{sorted(instances)}")
        corner_params = {name: as_axis(spec, f"params[{name}]")
                         for name, spec in params.items()}
    elif params is not None:
        corner_params = as_axis(params, "params")

    arrivals = dict(arrivals or {})
    unknown = set(arrivals) - set(graph.inputs)
    if unknown:
        raise ParameterError(
            f"arrivals given for non-input signal(s): "
            f"{sorted(unknown)}; inputs are {list(graph.inputs)}")
    per_node: dict[TimingNode, np.ndarray] = {}
    for signal in graph.inputs:
        spec = arrivals.get(signal, 0.0)
        # Same rule as input_arrival_nodes: a *tuple* of two is a
        # (rise, fall) pair; any other sequence is a corner axis
        # shared by both transitions.
        if isinstance(spec, tuple):
            if len(spec) != 2:
                raise ParameterError(
                    f"arrival spec for {signal!r}: a tuple must be "
                    f"a (rise, fall) pair, got {len(spec)} entries")
            rise, fall = spec
        else:
            rise = fall = spec
        for transition, values in (("rise", rise), ("fall", fall)):
            array = np.atleast_1d(np.asarray(values, dtype=float))
            if array.ndim != 1:
                raise ParameterError(
                    f"arrival spec for {signal!r} must be scalar or "
                    "1-D over corners")
            if array.size > 1:
                merge(array.size, f"arrival[{signal}]")
            per_node[TimingNode(signal, transition)] = array

    count = count or 1
    node_arrays = {node: (np.broadcast_to(array, (count,)).astype(float)
                          if array.size == 1 else array)
                   for node, array in per_node.items()}
    for node, array in node_arrays.items():
        if array.shape != (count,):
            raise ParameterError(
                f"arrival axis for {node} has {array.shape[0]} "
                f"corners, expected {count}")

    def broadcast(axis):
        if isinstance(axis, np.ndarray) and axis.shape[0] == 1:
            return np.broadcast_to(axis, (count,))
        return axis

    if isinstance(corner_params, dict):
        corner_params = {name: broadcast(axis)
                         for name, axis in corner_params.items()}
    else:
        corner_params = broadcast(corner_params)
    return count, corner_params, node_arrays


def _corner_set(axis, corner: int):
    """The one parameter set of a corner lane (``None`` and shared
    sets pass through)."""
    if not isinstance(axis, np.ndarray):
        return axis
    return parameters_at(axis, corner)


@dataclasses.dataclass(frozen=True)
class CornerSweepResult:
    """Per-corner arrivals and slacks of one vectorized sweep.

    Parameters
    ----------
    graph : TimingGraph
        The swept graph.
    mode : str
        ``"max"`` or ``"min"`` analysis.
    corners : int
        Number of corners on the sweep axis.
    arrivals : dict of TimingNode to numpy.ndarray
        Arrival-time vector (seconds) per node, shape ``(corners,)``.
    required : float or None
        The scalar endpoint requirement the slacks are against
        (``None`` when unconstrained).
    """

    graph: TimingGraph
    mode: str
    corners: int
    arrivals: dict[TimingNode, np.ndarray]
    required: float | None = None

    def endpoint_arrivals(self) -> dict[TimingNode, np.ndarray]:
        """Arrival vectors of the endpoint nodes only."""
        return {TimingNode(signal, transition):
                self.arrivals[TimingNode(signal, transition)]
                for signal in self.graph.endpoints
                for transition in ("rise", "fall")}

    def worst_arrival(self) -> np.ndarray:
        """Per-corner worst finite endpoint arrival, seconds.

        "Worst" follows the analysis mode: the latest arrival in
        ``max`` mode, the earliest in ``min`` mode.  Corners where
        no endpoint transition occurs report NaN.
        """
        stacked = np.stack(list(self.endpoint_arrivals().values()))
        if self.mode == "max":
            masked = np.where(np.isfinite(stacked), stacked,
                              -math.inf)
            worst = masked.max(axis=0)
        else:
            masked = np.where(np.isfinite(stacked), stacked,
                              math.inf)
            worst = masked.min(axis=0)
        return np.where(np.isfinite(worst), worst, math.nan)

    def worst_slack(self) -> np.ndarray:
        """Per-corner worst endpoint slack (``inf`` unconstrained).

        Positive always means the requirement is met:
        ``required − arrival`` in ``max`` mode (latest allowed),
        ``arrival − required`` in ``min`` mode (earliest allowed).
        """
        if self.required is None:
            return np.full(self.corners, math.inf)
        if self.mode == "max":
            return self.required - self.worst_arrival()
        return self.worst_arrival() - self.required

    def summary(self) -> dict[str, float]:
        """Distribution statistics of the worst endpoint arrival.

        Returns
        -------
        dict of str to float
            ``min`` / ``mean`` / ``p95`` / ``max`` of the per-corner
            worst arrival, in seconds.
        """
        worst = self.worst_arrival()
        finite = worst[np.isfinite(worst)]
        if finite.size == 0:
            nan = math.nan
            return {"min": nan, "mean": nan, "p95": nan, "max": nan}
        return {
            "min": float(finite.min()),
            "mean": float(finite.mean()),
            "p95": float(np.percentile(finite, 95.0)),
            "max": float(finite.max()),
        }


def sweep_corners(graph: TimingGraph, params=None, arrivals=None,
                  mode: str = "max",
                  required: float | None = None) -> CornerSweepResult:
    """Evaluate the whole graph across a corner axis in one pass.

    Parameters
    ----------
    graph : TimingGraph
        Lowered circuit.  Re-targetable (engine-backed) arcs are
        re-evaluated at every corner's parameter set; table/fixed
        arcs keep their characterized delays.
    params : parameter set, sequence, sample block, or mapping, optional
        The parameter-corner axis: one set per corner, as a sequence
        of :class:`NorGateParameters` (or of n-input
        :class:`~repro.core.multi_input.GeneralizedNorParameters`)
        or a sample block; a single set broadcasts.  A mapping
        ``{instance name: axis}`` re-targets each listed instance
        with its *own* axis — independent per-instance process
        variation (unlisted instances keep their built-in
        parameters).  ``None`` keeps every arc on its built-in
        parameters.
    arrivals : mapping, optional
        Input-arrival scenarios: ``{signal: spec}`` where *spec* is
        a scalar, a ``(rise, fall)`` *tuple* (whose entries may
        themselves be scalars or corner arrays), or a non-tuple 1-D
        array over corners shared by both transitions (scalars
        broadcast) — tuples always mean the transition pair, exactly
        as in :func:`repro.sta.analysis.analyze`.
    mode : str, optional
        ``"max"`` (default) or ``"min"``.
    required : float, optional
        Endpoint requirement used by
        :meth:`CornerSweepResult.worst_slack`.

    Returns
    -------
    CornerSweepResult
        Per-corner arrival vectors for every node.

    Raises
    ------
    ParameterError
        If the corner axes do not broadcast to one length,
        *required* is NaN, or a corner set does not fit an arc's
        gate (an n-input set on a 2-input arc).
    """
    count, corner_params, node_arrays = _resolve_corner_axes(
        graph, params, arrivals, required)
    arrival, _records = _propagate(graph, node_arrays, mode,
                                   corner_params=corner_params)
    return CornerSweepResult(
        graph=graph, mode=mode, corners=count,
        arrivals=dict(zip(graph.plan.nodes, arrival)), required=required)


def sweep_corners_scalar(graph: TimingGraph, params=None,
                         arrivals=None, mode: str = "max",
                         required: float | None = None
                         ) -> CornerSweepResult:
    """Reference per-corner loop (one :func:`analyze` per corner).

    Same signature and result type as :func:`sweep_corners`; kept as
    the parity baseline and the benchmark's scalar contender.  Note
    that parameter corners require every re-targetable arc to be
    rebuilt per corner, which this loop emulates by passing the
    corner's parameter set through the arc models' ``params``
    override.
    """
    count, corner_params, node_arrays = _resolve_corner_axes(
        graph, params, arrivals, required)
    columns = []
    for corner in range(count):
        spec = {node: array[corner:corner + 1]
                for node, array in node_arrays.items()}
        if isinstance(corner_params, dict):
            lane_params = {name: _corner_set(axis, corner)
                           for name, axis in corner_params.items()}
        else:
            lane_params = _corner_set(corner_params, corner)
        arrival, _records = _propagate(graph, spec, mode,
                                       corner_params=lane_params)
        columns.append(arrival[:, 0])
    return CornerSweepResult(
        graph=graph, mode=mode, corners=count,
        arrivals=dict(zip(graph.plan.nodes, np.stack(columns, axis=1))),
        required=required)
