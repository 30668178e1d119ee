"""Probabilistic-collocation (polynomial-chaos) delay surrogate.

Monte-Carlo needs thousands of model evaluations to pin down moments;
the collocation approach of arXiv 0710.4634 needs dozens: fit a
low-order polynomial in the *standard-normal* variables ``z`` of the
parameter distribution on deterministic Gauss-Hermite nodes, then
read moments off the coefficients analytically.

The surrogate is a total-degree-``p`` probabilists'-Hermite
expansion

    delay(z) ≈ Σ_α c_α · ∏ᵢ He_{αᵢ}(zᵢ),   Σᵢ αᵢ ≤ p

fitted by least squares on the classic PCM design: candidate points
are the tensor grid of the roots of He_{p+1} (the next-order
Gauss-Hermite nodes — ``0, ±√3`` for p = 2; ``±0.742, ±2.334`` for
p = 3), of which ``1.5 × basis-size`` rows are kept by a greedy
volume-maximizing (rank-revealing-QR-style) sweep with density
tie-breaking, so the regression is overdetermined, well-conditioned
and fully deterministic.  For the full 6-parameter distribution at
the default p = 3 that is 126 model evaluations — ≤ 1/20 of a
10k-sample MC, the measured acceptance of
``benchmarks/bench_stats.py``.  Because the Hermite basis is
orthogonal under the standard normal, the mean is ``c₀`` and the
variance ``Σ_{α≠0} c_α² ∏ αᵢ!`` — no sampling involved; percentiles,
histograms and MC-comparable summaries come from reseeded
polynomial resampling, which costs matrix products, not engine
calls, and shares the distribution's seeded generator so a
same-seed Monte-Carlo comparison cancels the sampling noise.

A fit's time goes into the design, which depends only on
``(dimension, degree)``: it is built once per process and shared
read-only by every later fit, which then costs one transform, one
engine call, one basis and one least-squares solve.  Design delays
are quantized before the solve
(:func:`repro.stats.montecarlo.quantize`), so the fitted
coefficients are byte-identical across engine backends.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from ..engine.base import get_engine
from ..errors import ParameterError
from ..obs.trace import span as _span
from .montecarlo import (DelaySummary, _counter, _delta_grid,
                         evaluate_block, quantize, summarize)

__all__ = ["DelaySurrogate", "fit_surrogate"]


def _multi_indices(k: int, degree: int) -> "list[tuple[int, ...]]":
    """All Hermite multi-indices of total degree ≤ *degree*.

    Ordered by (total degree, lexicographic) so the constant term is
    always column 0 and the column order is reproducible.
    """
    indices: list[tuple[int, ...]] = []

    def extend(prefix: tuple, remaining: int, budget: int) -> None:
        if remaining == 0:
            indices.append(prefix)
            return
        for d in range(budget + 1):
            extend(prefix + (d,), remaining - 1, budget - d)

    extend((), k, degree)
    indices.sort(key=lambda alpha: (sum(alpha), alpha))
    return indices


def _hermite_columns(z: np.ndarray, degree: int) -> np.ndarray:
    """Probabilists' Hermite values He₀..He_degree per axis.

    Returns shape ``(degree + 1, n, k)`` via the recurrence
    ``He_{d+1} = z·He_d − d·He_{d−1}``.
    """
    table = np.empty((degree + 1,) + z.shape)
    table[0] = 1.0
    if degree >= 1:
        table[1] = z
    for d in range(1, degree):
        table[d + 1] = z * table[d] - d * table[d - 1]
    return table


def _basis(z: np.ndarray, degree: int) -> np.ndarray:
    """Total-degree Hermite basis matrix of z rows.

    Columns follow :func:`_multi_indices`; entry ``(r, α)`` is
    ``∏ᵢ He_{αᵢ}(z[r, i])``.
    """
    k = z.shape[1]
    hermite = _hermite_columns(np.asarray(z, dtype=float), degree)
    columns = [np.prod([hermite[d][:, i]
                        for i, d in enumerate(alpha)], axis=0)
               for alpha in _multi_indices(k, degree)]
    return np.stack(columns, axis=1)


def _variance_norms(k: int, degree: int) -> np.ndarray:
    """E[basis²] per non-constant column under the standard normal
    (``∏ αᵢ!`` for the probabilists' Hermite products)."""
    return np.asarray([
        math.prod(math.factorial(d) for d in alpha)
        for alpha in _multi_indices(k, degree)[1:]])


#: Regression oversampling: the design keeps this times basis-size
#: rows (126 points for the 6-parameter degree-3 default).
_OVERSAMPLE = 1.5


@functools.cache
def _design(k: int, degree: int) -> np.ndarray:
    """The deterministic PCM collocation design in z-space.

    Candidates are the tensor grid of the ``degree + 1`` roots of
    He_{degree+1} (the next-order Gauss-Hermite nodes), sorted by
    increasing distance from the origin (densest first, ties broken
    lexicographically).  Selecting purely by density leaves the
    regression rank-deficient *and* ill-balanced — the densest
    shells repeat few coordinate patterns — so rows are picked by a
    greedy volume-maximizing rule instead (the rank-revealing-QR
    pivot order): repeatedly take the candidate whose basis row has
    the largest residual norm against the span of the rows already
    chosen, until ``_OVERSAMPLE × basis-size`` rows are kept.
    ``argmax`` ties resolve to the lowest index, i.e. the densest
    candidate, so the design is fully deterministic.

    Memoized for the life of the process (at most 30 entries:
    dimension ≤ 6, degree 1–5) and returned read-only.
    """
    nodes = np.polynomial.hermite_e.hermegauss(degree + 1)[0]
    # The roots are symmetric around 0 up to rounding; antisymmetrize
    # so the design is exactly sign-symmetric (the middle node of an
    # odd count becomes exactly 0).
    nodes = 0.5 * (nodes - nodes[::-1])
    basis_size = len(_multi_indices(k, degree))
    grids = np.meshgrid(*([nodes] * k), indexing="ij")
    candidates = np.stack([g.ravel() for g in grids], axis=1)
    weight = np.sum(candidates ** 2, axis=1)
    order = np.lexsort(
        tuple(candidates[:, i] for i in range(k - 1, -1, -1))
        + (weight,))
    candidates = candidates[order]
    residuals = _basis(candidates, degree)

    budget = min(int(_OVERSAMPLE * basis_size), candidates.shape[0])
    selected: list = []
    for _ in range(budget):
        norms = np.linalg.norm(residuals, axis=1)
        if selected:
            norms[selected] = -1.0
        index = int(np.argmax(norms))
        if norms[index] <= 1e-12:
            # Span exhausted (budget above candidate-space rank):
            # top up with the densest unselected candidates.
            chosen = set(selected)
            for rest in range(candidates.shape[0]):
                if len(selected) >= budget:
                    break
                if rest not in chosen:
                    selected.append(rest)
            break
        selected.append(index)
        direction = residuals[index] / norms[index]
        residuals = residuals - np.outer(
            residuals @ direction, direction)
    design = candidates[np.sort(np.asarray(selected))]
    design.setflags(write=False)
    return design


@dataclasses.dataclass(frozen=True)
class DelaySurrogate:
    """A fitted total-degree Hermite delay surrogate.

    Produced by :func:`fit_surrogate`; all attributes are
    deterministic functions of the fit inputs (coefficients are
    solved from quantized design delays, so they do not depend on
    the engine backend).

    Parameters
    ----------
    distribution : ParameterDistribution
        The distribution the surrogate was fitted against.
    deltas : numpy.ndarray
        The Δ grid, seconds, shape ``(M,)``.
    direction : str
        ``"falling"`` or ``"rising"``.
    gate : str
        ``"nor2"``, ``"nor3"`` or ``"nor4"``.
    vn_init : float
        Rising-direction internal-node voltage, volts.
    degree : int
        Total polynomial degree of the expansion.
    coefficients : numpy.ndarray
        Hermite coefficients, shape ``(B, M)`` in
        :func:`_multi_indices` column order.
    design_points : int
        Model evaluations the fit consumed (the surrogate's whole
        engine cost).
    """

    distribution: object
    deltas: np.ndarray
    direction: str
    gate: str
    vn_init: float
    degree: int
    coefficients: np.ndarray
    design_points: int

    def mean(self) -> np.ndarray:
        """Per-Δ surrogate mean delay, seconds (analytic: ``c₀``)."""
        return self.coefficients[0].copy()

    def std(self) -> np.ndarray:
        """Per-Δ surrogate delay σ, seconds (analytic from the
        orthogonal-basis coefficients)."""
        norms = _variance_norms(self.distribution.dimension,
                                self.degree)
        var = np.einsum("b,bm->m", norms, self.coefficients[1:] ** 2)
        return np.sqrt(var)

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        """Resample the polynomial at seeded standard-normal draws.

        Costs two matrix products — no engine evaluations — which is
        what makes surrogate percentiles/histograms ~free.

        Parameters
        ----------
        n : int
            Resample count.
        seed : int, optional
            PCG64 seed (default 0).

        Returns
        -------
        numpy.ndarray
            Quantized surrogate delays, shape ``(n, M)``.
        """
        z = self.distribution.draw_normals(n, seed)
        return quantize(_basis(z, self.degree) @ self.coefficients)

    def summarize(self, *, samples: int = 4096, seed: int = 0,
                  percentiles=(1.0, 50.0, 99.0),
                  bins: int = 0) -> DelaySummary:
        """Reduce the surrogate to the Monte-Carlo summary shape.

        Every statistic — moments, extremes, percentiles,
        histograms — is reduced over :meth:`sample`-d polynomial
        draws, *samples* of them, engine-free.  Because
        :meth:`sample` reuses the distribution's seeded generator,
        ``surrogate.summarize(samples=n, seed=s)`` predicts exactly
        what ``monte_carlo(..., samples=n, seed=s)`` would report,
        with the shared sampling noise cancelling out of the
        comparison: the residual difference is pure polynomial
        approximation error.  (:meth:`mean` / :meth:`std` remain
        available for the analytic, sample-free moments.)

        Parameters
        ----------
        samples : int, optional
            Polynomial resample count (default 4096).
        seed : int, optional
            Resample seed (default 0).
        percentiles, bins
            As in :func:`repro.stats.montecarlo.summarize`.

        Returns
        -------
        DelaySummary
            With ``method = "surrogate"`` and ``samples`` set to
            :attr:`design_points` — the number of *model*
            evaluations behind the statistics.
        """
        resampled = summarize(self.sample(samples, seed), self.deltas,
                              method="surrogate",
                              percentiles=percentiles, bins=bins)
        return dataclasses.replace(resampled,
                                   samples=self.design_points)


def fit_surrogate(distribution, deltas, *,
                  direction: str = "falling", gate: str = "nor2",
                  vn_init: float = 0.0, degree: int = 3,
                  engine=None) -> DelaySurrogate:
    """Fit the collocation surrogate of a distribution.

    Evaluates the hybrid model on the deterministic Gauss-Hermite
    design through the block kernels (one engine call for ``nor2``),
    quantizes, and solves the least-squares Hermite fit for every Δ
    column at once.  The design is built on the first fit of each
    ``(dimension, degree)`` in a process and reused after that.

    Parameters
    ----------
    distribution : ParameterDistribution
        The parameter distribution to fit against.
    deltas : array_like of float
        Input separations in seconds, shape ``(M,)``; ``±inf``
        allowed.
    direction : str, optional
        ``"falling"`` (default) or ``"rising"``.
    gate : str, optional
        ``"nor2"`` (default), ``"nor3"`` or ``"nor4"``.
    vn_init : float, optional
        Rising-direction internal-node voltage, volts (default 0.0).
    degree : int, optional
        Total polynomial degree of the expansion, 1–5 (default 3 —
        enough to track the branch-boundary curvature of the delay
        surfaces to well under 1 % in σ).
    engine : str or DelayEngine, optional
        Backend for the design evaluation; the fitted coefficients
        do not depend on the choice (quantized design delays).

    Returns
    -------
    DelaySurrogate
        The fitted surrogate; ``design_points`` model evaluations
        were spent.
    """
    d = _delta_grid(deltas)
    if direction not in ("falling", "rising"):
        raise ParameterError(
            f"direction must be 'falling' or 'rising', got "
            f"{direction!r}")

    degree = int(degree)
    if not 1 <= degree <= 5:
        raise ParameterError(
            f"degree must lie in [1, 5], got {degree}")
    design = _design(distribution.dimension, degree)

    engine = get_engine(engine)
    with _span("stats.surrogate", design=int(design.shape[0]),
               points=int(d.shape[0]), direction=direction,
               gate=gate, engine=engine.name):
        block = distribution.transform(design)
        grid = np.broadcast_to(d, (design.shape[0], d.shape[0]))
        values = quantize(evaluate_block(engine, gate, direction,
                                         block, grid,
                                         float(vn_init)))
        coefficients, _, _, _ = np.linalg.lstsq(
            _basis(design, degree), values, rcond=None)
    _counter("surrogate").inc(int(design.shape[0]))
    return DelaySurrogate(
        distribution=distribution, deltas=d, direction=direction,
        gate=gate, vn_init=float(vn_init), degree=degree,
        coefficients=coefficients, design_points=design.shape[0])
