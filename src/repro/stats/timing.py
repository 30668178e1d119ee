"""Statistical STA: Monte-Carlo timing distributions and yield.

:func:`repro.sta.sweep_corners` already propagates *arrays* of
arrivals through a timing graph with one corner axis — statistical
STA is that same call with the corner axis filled by seeded draws: a
parameter set per corner (drawn from a
:class:`~repro.stats.distributions.ParameterDistribution`) and,
optionally, normally-jittered input arrivals.  The per-corner worst
slack then *is* the slack distribution, and timing yield is the
fraction of corners meeting the requirement.

Slacks and arrivals are snapped to the determinism grid
(:func:`repro.stats.montecarlo.quantize`) before the yield
comparison and the moment reductions, so identical seeds give
byte-identical yields across processes and engine backends — the
same contract as the Monte-Carlo delay path.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ParameterError
from ..obs.trace import span as _span
from .montecarlo import _counter, quantize

__all__ = ["TimingYield", "timing_yield"]


@dataclasses.dataclass(frozen=True)
class TimingYield:
    """Monte-Carlo timing distribution of one circuit.

    Produced by :func:`timing_yield`; all arrays are quantized to
    the determinism grid.

    Parameters
    ----------
    samples : int
        Monte-Carlo corner count.
    required : float or None
        Endpoint requirement in seconds (``None`` = unconstrained,
        yield 1.0 by definition).
    yield_fraction : float
        Fraction of corners with non-negative worst slack.
    worst_arrival : numpy.ndarray
        Per-corner worst endpoint arrival, seconds, shape
        ``(samples,)``.
    worst_slack : numpy.ndarray
        Per-corner worst endpoint slack, seconds (``+inf`` when
        unconstrained).
    """

    samples: int
    required: "float | None"
    yield_fraction: float
    worst_arrival: np.ndarray
    worst_slack: np.ndarray

    def arrival_stats(self) -> dict:
        """``mean`` / ``std`` / ``min`` / ``max`` of the worst
        arrival, seconds (ddof = 1)."""
        finite = self.worst_arrival[np.isfinite(self.worst_arrival)]
        if finite.size == 0:
            nan = float("nan")
            return {"mean": nan, "std": nan, "min": nan, "max": nan}
        std = float(finite.std(ddof=1)) if finite.size > 1 else 0.0
        return {"mean": float(finite.mean()), "std": std,
                "min": float(finite.min()),
                "max": float(finite.max())}


def timing_yield(graph, distribution, *, samples: int,
                 seed: int = 0, required: "float | None" = None,
                 arrivals=None, arrival_sigma: float = 0.0,
                 mode: str = "max", per_instance: bool = False,
                 scalar: bool = False) -> TimingYield:
    """Monte-Carlo arrival/slack distribution and timing yield.

    Draws one parameter set per corner from *distribution* (plus
    optional Gaussian input-arrival jitter) and sweeps the whole
    corner axis through :func:`repro.sta.sweep_corners` in one
    array-native pass.

    Parameters
    ----------
    graph : TimingGraph
        The lowered circuit (e.g. ``session.timing_graph("tree")``).
    distribution : ParameterDistribution
        Per-corner parameter distribution.
    samples : int
        Monte-Carlo corner count (>= 1).
    seed : int, optional
        Draw seed (default 0).  Parameter draws consume
        ``seed`` itself; arrival jitter uses the derived stream
        ``[seed, 1]`` so the two are independent but jointly
        reproducible.
    required : float, optional
        Endpoint requirement in seconds; ``None`` (default) reports
        an unconstrained distribution with yield 1.0.
    arrivals : mapping, optional
        Nominal input arrivals ``{signal: seconds}`` (default: all
        zero).  Unknown signals are rejected by the sweep.
    arrival_sigma : float, optional
        Absolute σ of Gaussian jitter added to every input arrival,
        seconds (default 0.0, deterministic arrivals).
    mode : str, optional
        ``"max"`` (default) or ``"min"`` analysis.
    per_instance : bool, optional
        Draw an *independent* parameter sample per circuit instance
        (local/uncorrelated process variation) instead of one shared
        sample per corner (fully correlated, the default).  Instance
        *k* of *n* consumes rows ``[k·samples, (k+1)·samples)`` of a
        single ``samples × n`` block drawn with *seed*, so results
        stay byte-identical across backends and are stable under
        `scalar=True`.
    scalar : bool, optional
        Use the per-corner reference loop
        (:func:`repro.sta.sweep_corners_scalar`) instead of the
        vectorized sweep — the parity/benchmark baseline (default
        False).

    Returns
    -------
    TimingYield
        Quantized distribution and yield; byte-identical for
        identical seeds across processes and backends.
    """
    from ..sta import sweep_corners, sweep_corners_scalar

    if samples < 1:
        raise ParameterError(
            f"need at least one sample, got {samples}")
    if not (np.isfinite(arrival_sigma) and arrival_sigma >= 0.0):
        raise ParameterError(
            f"arrival_sigma must be finite and >= 0, got "
            f"{arrival_sigma}")
    if per_instance:
        names = [inst.name for inst in graph.circuit.instances]
        params_axis = None
        if names:
            block = distribution.sample_block(
                samples * len(names), seed)
            params_axis = {name: block[k * samples:(k + 1) * samples]
                           for k, name in enumerate(names)}
    else:
        params_axis = distribution.sample_block(samples, seed)

    base = dict(arrivals or {})
    spec: dict = {}
    if arrival_sigma > 0.0:
        rng = np.random.default_rng([int(seed), 1])
        for signal in graph.inputs:
            jitter = arrival_sigma * rng.standard_normal(samples)
            spec[signal] = float(base.get(signal, 0.0)) + jitter
    else:
        spec = base

    sweep_fn = sweep_corners_scalar if scalar else sweep_corners
    with _span("stats.sta", samples=int(samples), mode=mode,
               per_instance=bool(per_instance),
               scalar=bool(scalar)):
        sweep = sweep_fn(graph, params=params_axis, arrivals=spec,
                         mode=mode, required=required)
    _counter("yield").inc(int(samples))
    worst = quantize(sweep.worst_arrival())
    slack = quantize(sweep.worst_slack())
    return TimingYield(
        samples=int(samples), required=required,
        yield_fraction=float(np.mean(slack >= 0.0)),
        worst_arrival=worst, worst_slack=slack)
