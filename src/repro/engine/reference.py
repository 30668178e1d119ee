"""The scalar reference backend.

Wraps today's exact per-Δ code path — one
:class:`~repro.core.trajectory.PiecewiseTrajectory` plus Brent root
search per separation — behind the array protocol of
:mod:`repro.engine.base`.  It is the parity baseline every other
backend is tested against, and the honest cost model of the unbatched
computation in the throughput benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..core.hybrid_model import HybridNorModel
from ..core.multi_input import (GeneralizedNorParameters,
                                generalized_model, lane_sets, offset_rows,
                                parameter_width, parameters_at)
from ..core.parameters import (NorGateParameters, check_node_voltage,
                               finite_voltage)
from .base import traced_entry_point
from .blocks import block_delays_loop

__all__ = ["ReferenceEngine"]


def _rows(params, deltas, internal_init=None):
    """Per Δ-vector row: the scalar model of its parameter set and its
    absolute input times (offsets clipped to the settling region);
    plus the leading shape the delays reshape to.

    A rising call's *internal_init* is checked once, against every
    set's VDD, in the vectorized engine's order: after the lanes match
    the rows, before the offsets are read.
    """
    if isinstance(params, GeneralizedNorParameters):
        sets = [params]
        index = np.zeros(np.shape(deltas)[:-1], dtype=np.intp)
    else:
        block, index = lane_sets(params, deltas)
        sets = [parameters_at(block, i) for i in range(block.shape[0])]
    if internal_init is not None:
        check_node_voltage(finite_voltage(internal_init, "internal_init"),
                           [p.vdd for p in sets])
    models = [generalized_model(p) for p in sets]
    flat, shape = offset_rows(parameter_width(params), deltas)
    index = index.reshape(-1)
    out = []
    for row, i in zip(flat, index):
        settle = models[i].settle_time()
        times = np.concatenate([[0.0], np.clip(row, -settle, settle)])
        out.append((models[i], times - times.min()))
    return out, shape


class ReferenceEngine:
    """Scalar per-Δ evaluation through the exact trajectory solver."""

    name = "reference"

    @traced_entry_point("engine.delays", "falling")
    def delays_falling(self, params: NorGateParameters,
                       deltas) -> np.ndarray:
        """Falling MIS delays ``δ↓_M(Δ)``, one exact root search per Δ.

        Parameters
        ----------
        params : NorGateParameters
            Electrical parameter set (SI units).
        deltas : array_like of float
            Input separations in seconds; ``±inf`` allowed.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*.
        """
        model = HybridNorModel(params)
        d = np.asarray(deltas, dtype=float)
        out = np.array([model.delay_falling(float(x))
                        for x in np.ravel(d)])
        return out.reshape(d.shape)

    @traced_entry_point("engine.delays", "rising")
    def delays_rising(self, params: NorGateParameters, deltas,
                      vn_init: float = 0.0) -> np.ndarray:
        """Rising MIS delays ``δ↑_M(Δ)``, one exact root search per Δ.

        Parameters
        ----------
        params : NorGateParameters
            Electrical parameter set (SI units).
        deltas : array_like of float
            Input separations in seconds; ``±inf`` allowed.
        vn_init : float, optional
            Mode-(1,1) internal-node voltage in volts (default 0.0).

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*.
        """
        model = HybridNorModel(params)
        d = np.asarray(deltas, dtype=float)
        # Checked once, so an empty Δ array is rejected too.
        vn_init = finite_voltage(float(vn_init), "vn_init")
        check_node_voltage(vn_init, params.vdd)
        out = np.array([model.delay_rising(float(x), vn_init)
                        for x in np.ravel(d)])
        return out.reshape(d.shape)

    @traced_entry_point("engine.delays_block", "falling")
    def delays_falling_block(self, block, deltas) -> np.ndarray:
        """Falling MIS delays for a parameter sample block, one
        scalar sweep per record.

        The per-sample loop
        (:func:`repro.engine.blocks.block_delays_loop`) — the honest
        scalar baseline of the Monte-Carlo throughput benchmark.

        Parameters
        ----------
        block : numpy.ndarray
            Sample block of dtype
            :data:`repro.engine.blocks.BLOCK_DTYPE`, shape ``(N,)``.
        deltas : array_like of float
            Input separations in seconds, shape ``(N,)`` or
            ``(N, M)``; ``±inf`` allowed, NaN rejected.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*.
        """
        return block_delays_loop(self, "falling", block, deltas)

    @traced_entry_point("engine.delays_block", "rising")
    def delays_rising_block(self, block, deltas,
                            vn_init=0.0) -> np.ndarray:
        """Rising MIS delays for a parameter sample block, one scalar
        sweep per record.

        Parameters
        ----------
        block : numpy.ndarray
            Sample block of dtype
            :data:`repro.engine.blocks.BLOCK_DTYPE`, shape ``(N,)``.
        deltas : array_like of float
            Input separations in seconds, shape ``(N,)`` or
            ``(N, M)``; ``±inf`` allowed, NaN rejected.
        vn_init : float or array_like of float, optional
            Mode-(1,1) internal-node voltage in volts, shared by the
            block or one per record (default 0.0, the GND worst case).

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*.
        """
        return block_delays_loop(self, "rising", block, deltas,
                                 vn_init)

    @traced_entry_point("engine.delays_n", "falling")
    def delays_falling_n(self, params: GeneralizedNorParameters,
                         deltas) -> np.ndarray:
        """Falling n-input MIS delays, one scalar eigen-solve per row.

        The per-Δ-vector loop over
        :meth:`~repro.core.multi_input.GeneralizedNorModel.delay_falling`
        — the honest scalar baseline the batched backends are
        benchmarked against.

        Parameters
        ----------
        params : GeneralizedNorParameters or numpy.ndarray
            n-input electrical parameter set (SI units), or an n-input
            sample block with one set per leading row of *deltas*.
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; ``±inf`` clips to
            the SIS plateaus.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), shape
            ``deltas.shape[:-1]``.
        """
        rows, shape = _rows(params, deltas)
        out = np.array([model.delay_falling(times)
                        for model, times in rows])
        return out.reshape(shape)

    @traced_entry_point("engine.delays_n", "rising")
    def delays_rising_n(self, params: GeneralizedNorParameters,
                        deltas, internal_init: float = 0.0
                        ) -> np.ndarray:
        """Rising n-input MIS delays, one scalar eigen-solve per row.

        Parameters
        ----------
        params : GeneralizedNorParameters or numpy.ndarray
            n-input electrical parameter set (SI units), or an n-input
            sample block with one set per leading row of *deltas*.
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; ``±inf`` clips to
            the SIS plateaus.
        internal_init : float, optional
            Initial voltage of every internal chain node, volts
            (default 0.0, the GND worst case).

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), shape
            ``deltas.shape[:-1]``.
        """
        internal_init = float(internal_init)
        rows, shape = _rows(params, deltas, internal_init)
        out = np.array([
            model.delay_rising(
                times, internal_init=[internal_init]
                * (model.params.num_inputs - 1))
            for model, times in rows])
        return out.reshape(shape)

