"""Vectorized Monte-Carlo delay sampling over parameter blocks.

The hot path is one engine call per direction, at every gate width:
N sampled parameter sets × M Δ-points go to the engine as one sample
block with one set per lane — the 2-input block kernels of
:mod:`repro.engine.blocks` for ``nor2``, the n-input kernel's
parameter axis (:class:`~repro.core.multi_input.CompiledNorKernel`)
for ``nor3`` / ``nor4`` — so Monte-Carlo throughput is the kernel's
throughput, benchmarked against the honest per-sample scalar loop by
``benchmarks/bench_stats.py`` (acceptance: ≥ 50×).

Determinism
-----------
Raw delays are snapped to the canonical grid :data:`QUANT_STEP`
(0.1 fs) before *any* reduction.  Backend-to-backend differences in
the lockstep Newton refinement sit at ~1e-24 s — eight orders of
magnitude below the grid — so the quantized sample matrix, and
therefore every moment, percentile and histogram derived from it, is
byte-identical across the ``reference`` / ``vectorized`` engines and
across processes.  The grid costs ~1e-5 relative accuracy on
picosecond delays, far below the 1 % tolerances of the statistical
acceptance criteria.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.multi_input import paper_generalized
from ..engine.base import delays_for_direction, get_engine
from ..errors import ParameterError
from ..library.tables import gate_width
from ..obs import metrics as _metrics
from ..obs.trace import span as _span

__all__ = ["QUANT_STEP", "DelaySummary", "monte_carlo", "quantize",
           "sample_delays"]

#: Canonical quantization grid for raw delay samples, seconds.
#: Engine/backends agree to ~1e-24 s; snapping to 1e-16 s makes the
#: reduced statistics byte-identical across backends while perturbing
#: picosecond-scale delays by only ~1e-5 relative.
QUANT_STEP = 1e-16


def quantize(values, step: float = QUANT_STEP) -> np.ndarray:
    """Snap delay values to the canonical determinism grid.

    Parameters
    ----------
    values : array_like of float
        Delays (or slacks) in seconds; ``±inf`` passes through.
    step : float, optional
        Grid pitch in seconds (default :data:`QUANT_STEP`).

    Returns
    -------
    numpy.ndarray
        ``round(values / step) * step``, same shape.
    """
    return np.round(np.asarray(values, dtype=float) / step) * step


def _delta_grid(deltas) -> np.ndarray:
    """Validate a statistics Δ grid: a scalar or a non-empty 1-D
    array of separations in seconds, no NaN.

    Raises
    ------
    ParameterError
        On any other shape, an empty grid, or a NaN separation.
    """
    d = np.atleast_1d(np.asarray(deltas, dtype=float))
    if d.ndim != 1:
        raise ParameterError(
            f"deltas must be a scalar or 1-D, got shape {d.shape}")
    if d.size == 0:
        raise ParameterError("at least one Δ is required")
    if np.isnan(d).any():
        raise ParameterError("input separations must not be NaN")
    return d


def _counter(method: str):
    counter = _COUNTERS.get(method)
    if counter is None:
        counter = _metrics.registry().counter(
            "repro_stats_samples_total",
            "statistical delay samples drawn, by method",
            labels={"method": method})
        _COUNTERS[method] = counter
    return counter


_COUNTERS: dict = {}


def evaluate_block(engine, gate: str, direction: str,
                   block: np.ndarray, deltas: np.ndarray,
                   vn_init: float) -> np.ndarray:
    """Raw (unquantized) delays of a sample block at per-row Δ.

    The shared evaluation seam of Monte-Carlo sampling and the
    collocation surrogate's design evaluation: one engine call per
    direction evaluates the block.  A ``nor2`` block goes to the
    closed form as it is; for a wider gate every record is widened
    via :func:`repro.core.multi_input.paper_generalized`, and every Δ
    becomes the Δ-vector with every later input at that same offset.

    Parameters
    ----------
    engine : DelayEngine
        Resolved backend.
    gate : str
        ``"nor2"``, ``"nor3"`` or ``"nor4"``.
    direction : str
        ``"falling"`` or ``"rising"``.
    block : numpy.ndarray
        Sample block, dtype :data:`repro.engine.blocks.BLOCK_DTYPE`.
    deltas : numpy.ndarray
        Separations in seconds, shape ``(N, M)``.
    vn_init : float
        Rising-direction internal-node voltage, volts.

    Returns
    -------
    numpy.ndarray
        Raw delays, shape ``(N, M)``.
    """
    width = gate_width(gate)
    if width == 2:
        return delays_for_direction(engine, direction, block, deltas,
                                    vn_init)
    rows = np.repeat(np.asarray(deltas, dtype=float)[..., None],
                     width - 1, axis=-1)
    return delays_for_direction(
        engine, direction, paper_generalized(width, block), rows,
        vn_init)


def sample_delays(distribution, deltas, *, samples: int,
                  direction: str = "falling", seed: int = 0,
                  gate: str = "nor2", vn_init: float = 0.0,
                  engine=None) -> np.ndarray:
    """Draw the quantized Monte-Carlo delay sample matrix.

    Parameters
    ----------
    distribution : ParameterDistribution
        The parameter distribution to sample.
    deltas : array_like of float
        Input separations in seconds, shape ``(M,)`` (each sampled
        parameter set is evaluated at every Δ); ``±inf`` allowed.
    samples : int
        Sample count N.
    direction : str, optional
        ``"falling"`` (default) or ``"rising"``.
    seed : int, optional
        Draw seed (default 0); identical seeds give byte-identical
        matrices across processes and backends.
    gate : str, optional
        ``"nor2"`` (default, block-kernel path), ``"nor3"`` or
        ``"nor4"``.
    vn_init : float, optional
        Rising-direction internal-node voltage, volts (default 0.0).
    engine : str or DelayEngine, optional
        Backend name or instance (default: the session default).

    Returns
    -------
    numpy.ndarray
        Quantized delays, shape ``(N, M)``, ``δ_min`` included.
    """
    engine = get_engine(engine)
    d = _delta_grid(deltas)
    block = distribution.sample_block(samples, seed)
    grid = np.broadcast_to(d, (block.shape[0], d.shape[0]))
    with _span("stats.mc", samples=int(samples),
               points=int(d.shape[0]), direction=direction,
               gate=gate, engine=engine.name):
        raw = evaluate_block(engine, gate, direction, block, grid,
                             float(vn_init))
    _counter("mc").inc(int(samples))
    return quantize(raw)


@dataclasses.dataclass(frozen=True)
class DelaySummary:
    """Reduced statistics of a delay sample matrix.

    One row of statistics per Δ-point; produced by
    :func:`monte_carlo` and by
    :meth:`repro.stats.surrogate.DelaySurrogate.summarize` so both
    methods render and serialize identically.

    Parameters
    ----------
    method : str
        ``"mc"`` or ``"surrogate"``.
    samples : int
        Samples behind the statistics (model-evaluation count — the
        design size — for the surrogate).
    deltas : numpy.ndarray
        The Δ grid, seconds, shape ``(M,)``.
    mean, std, minimum, maximum : numpy.ndarray
        Per-Δ moments/extremes of the quantized samples, seconds,
        shape ``(M,)`` (``std`` uses ddof = 1).
    percentile_levels : numpy.ndarray
        Requested percentile levels in percent, shape ``(L,)``.
    percentile_values : numpy.ndarray
        Per-level, per-Δ percentiles, seconds, shape ``(L, M)``.
    histogram_edges : numpy.ndarray or None
        Per-Δ bin edges, shape ``(M, bins + 1)`` (``None`` when no
        histogram was requested).
    histogram_counts : numpy.ndarray or None
        Per-Δ bin counts, shape ``(M, bins)``.
    """

    method: str
    samples: int
    deltas: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    percentile_levels: np.ndarray
    percentile_values: np.ndarray
    histogram_edges: "np.ndarray | None" = None
    histogram_counts: "np.ndarray | None" = None


def summarize(delays: np.ndarray, deltas, *, method: str,
              percentiles=(1.0, 50.0, 99.0),
              bins: int = 0) -> DelaySummary:
    """Reduce a quantized sample matrix to per-Δ statistics.

    The reduction runs single-threaded over the full matrix in fixed
    order, so identical (quantized) samples give byte-identical
    summaries regardless of which backend produced them.

    Parameters
    ----------
    delays : numpy.ndarray
        Quantized delays, shape ``(N, M)``.
    deltas : array_like of float
        The Δ grid, seconds, shape ``(M,)``.
    method : str
        Recorded as :attr:`DelaySummary.method`.
    percentiles : sequence of float, optional
        Percentile levels in percent (default ``(1, 50, 99)``).
    bins : int, optional
        Histogram bin count per Δ; 0 (default) disables histograms.

    Returns
    -------
    DelaySummary
        The reduced statistics.
    """
    # Canonical C layout: numpy's pairwise-summation order follows
    # the memory strides, so a loop-built (F-ordered) matrix would
    # otherwise reduce to last-ulp-different moments than the
    # block-kernel one even when byte-identical element-wise.
    delays = np.ascontiguousarray(delays, dtype=float)
    d = np.atleast_1d(np.asarray(deltas, dtype=float))
    levels = np.atleast_1d(np.asarray(percentiles, dtype=float))
    if np.any(~np.isfinite(levels)) or np.any(levels < 0.0) \
            or np.any(levels > 100.0):
        raise ParameterError(
            "percentile levels must lie in [0, 100]")
    if bins < 0:
        raise ParameterError(f"bins must be >= 0, got {bins}")
    n = delays.shape[0]
    std = (delays.std(axis=0, ddof=1) if n > 1
           else np.zeros(delays.shape[1]))
    edges = counts = None
    if bins:
        finite = np.isfinite(delays)
        edges = np.empty((delays.shape[1], bins + 1))
        counts = np.empty((delays.shape[1], bins))
        for j in range(delays.shape[1]):
            column = delays[finite[:, j], j]
            counts[j], edges[j] = np.histogram(column, bins=bins)
    return DelaySummary(
        method=method, samples=n, deltas=d,
        mean=delays.mean(axis=0), std=std,
        minimum=delays.min(axis=0), maximum=delays.max(axis=0),
        percentile_levels=levels,
        percentile_values=np.percentile(delays, levels, axis=0),
        histogram_edges=edges, histogram_counts=counts)


def monte_carlo(distribution, deltas, *, samples: int,
                direction: str = "falling", seed: int = 0,
                gate: str = "nor2", vn_init: float = 0.0,
                engine=None, percentiles=(1.0, 50.0, 99.0),
                bins: int = 0) -> DelaySummary:
    """Monte-Carlo delay statistics in one vectorized pass.

    :func:`sample_delays` followed by :func:`summarize` — the
    canonical statistical-delay entry point behind ``repro stats``
    and the ``StatsRequest`` handler.

    Parameters
    ----------
    distribution : ParameterDistribution
        The parameter distribution to sample.
    deltas : array_like of float
        Input separations in seconds, shape ``(M,)``.
    samples : int
        Sample count N.
    direction, seed, gate, vn_init, engine
        As in :func:`sample_delays`.
    percentiles, bins
        As in :func:`summarize`.

    Returns
    -------
    DelaySummary
        Per-Δ statistics over the quantized samples; byte-identical
        for identical seeds across processes and backends.
    """
    matrix = sample_delays(distribution, deltas, samples=samples,
                           direction=direction, seed=seed, gate=gate,
                           vn_init=vn_init, engine=engine)
    return summarize(matrix, deltas, method="mc",
                     percentiles=percentiles, bins=bins)
