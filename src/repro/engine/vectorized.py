"""Array-native evaluation of the hybrid-model MIS delay functions.

The scalar reference runs one trajectory root search per Δ.  But in a
Δ sweep the mode constants, the first-segment solutions and crossings
and the settle cutoff depend on the parameter set alone, so this
engine evaluates a 2-input sweep as a **one-record sample block** of
:mod:`repro.engine.blocks`: the block kernels' constants step runs
once per parameter set (plus ``vn_init`` when rising), memoised with
``lru_cache``, and every call runs their Δ evaluation on the whole Δ
array as a ``(1, M)`` matrix.  The 2-input closed form thus lives only
in the block kernels, and a sweep returns the same bytes as a
one-record :func:`~repro.engine.blocks.falling_delays_block` /
:func:`~repro.engine.blocks.rising_delays_block` call.  The n-input
entry points run the compiled kernel of :mod:`repro.core.multi_input`
(:func:`~repro.core.multi_input.nor_delays`), on one parameter set or
one set per lane.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core.multi_input import GeneralizedNorParameters, nor_delays
from ..core.parameters import NorGateParameters
from ..errors import ParameterError
from .base import register_engine, traced_entry_point
from .blocks import (FallingConstants, RisingConstants,
                     block_from_parameters, falling_constants,
                     falling_delays, falling_delays_block,
                     rising_constants, rising_delays,
                     rising_delays_block)

__all__ = ["VectorizedEngine"]


@functools.lru_cache(maxsize=256)
def _falling_constants(params: NorGateParameters) -> FallingConstants:
    return falling_constants(block_from_parameters(params))


@functools.lru_cache(maxsize=256)
def _rising_constants(params: NorGateParameters,
                      vn_init: float) -> RisingConstants:
    return rising_constants(block_from_parameters(params), vn_init)


def _prepare(deltas) -> np.ndarray:
    d = np.asarray(deltas, dtype=float)
    if np.isnan(d).any():
        raise ParameterError("input separations must not be NaN")
    return d


class VectorizedEngine:
    """NumPy batch evaluation of the closed-form mode chains."""

    name = "vectorized"

    @traced_entry_point("engine.delays", "falling")
    def delays_falling(self, params: NorGateParameters,
                       deltas) -> np.ndarray:
        """Falling MIS delays ``δ↓_M(Δ)`` for a whole Δ array at once.

        Parameters
        ----------
        params : NorGateParameters
            Electrical parameter set (SI units).
        deltas : array_like of float
            Input separations in seconds; ``±inf`` allowed, NaN
            rejected.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*; matches the scalar reference to ≪ 1e-12 s.
        """
        d = _prepare(deltas)
        return falling_delays(_falling_constants(params),
                              d.reshape(1, -1)).reshape(d.shape)

    @traced_entry_point("engine.delays", "rising")
    def delays_rising(self, params: NorGateParameters, deltas,
                      vn_init: float = 0.0) -> np.ndarray:
        """Rising MIS delays ``δ↑_M(Δ)`` for a whole Δ array at once.

        Parameters
        ----------
        params : NorGateParameters
            Electrical parameter set (SI units).
        deltas : array_like of float
            Input separations in seconds; ``±inf`` allowed, NaN
            rejected.
        vn_init : float, optional
            Mode-(1,1) internal-node voltage in volts (default 0.0,
            the GND worst case); NaN and ``±inf`` rejected.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*; matches the scalar reference to ≪ 1e-12 s.
        """
        d = _prepare(deltas)
        return rising_delays(_rising_constants(params, float(vn_init)),
                             d.reshape(1, -1)).reshape(d.shape)

    @traced_entry_point("engine.delays_block", "falling")
    def delays_falling_block(self, block, deltas) -> np.ndarray:
        """Falling MIS delays for a whole parameter sample block.

        The parameter-axis batch entry point
        (:func:`repro.engine.blocks.falling_delays_block`): sample
        ``i`` of the block is evaluated at Δ row ``deltas[i]`` in one
        NumPy pass — the Monte-Carlo hot path of
        :mod:`repro.stats.montecarlo`.

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
        return falling_delays_block(block, deltas)

    @traced_entry_point("engine.delays_block", "rising")
    def delays_rising_block(self, block, deltas,
                            vn_init=0.0) -> np.ndarray:
        """Rising MIS delays for a whole parameter sample block.

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
            block or one per record (default 0.0, the GND worst case);
            NaN and ``±inf`` rejected.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*.
        """
        return rising_delays_block(block, deltas, vn_init)

    @traced_entry_point("engine.delays_n", "falling")
    def delays_falling_n(self, params: GeneralizedNorParameters,
                         deltas) -> np.ndarray:
        """Falling n-input MIS delays, batched over a Δ-vector grid.

        Runs the flattened
        :class:`~repro.core.multi_input.CompiledNorKernel` (stacked
        eigen tensors, shared per parameter set).  For ``n = 2`` it
        agrees with the closed-form :meth:`delays_falling` path to
        ≤ 1e-12 s (asserted by the parity suite).

        Parameters
        ----------
        params : GeneralizedNorParameters or numpy.ndarray
            n-input electrical parameter set (SI units), or an n-input
            sample block with one set per leading row of *deltas*.
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; ``±inf`` clips to
            the SIS plateaus, NaN rejected.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), shape
            ``deltas.shape[:-1]``.
        """
        return nor_delays(params, deltas, "falling", 0.0)

    @traced_entry_point("engine.delays_n", "rising")
    def delays_rising_n(self, params: GeneralizedNorParameters,
                        deltas, internal_init: float = 0.0
                        ) -> np.ndarray:
        """Rising n-input MIS delays, batched over a Δ-vector grid.

        Parameters
        ----------
        params : GeneralizedNorParameters or numpy.ndarray
            n-input electrical parameter set (SI units), or an n-input
            sample block with one set per leading row of *deltas*.
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; ``±inf`` clips to
            the SIS plateaus, NaN rejected.
        internal_init : float, optional
            Initial voltage of every internal chain node, volts
            (default 0.0, the GND worst case); NaN and ``±inf``
            rejected.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), shape
            ``deltas.shape[:-1]``.
        """
        return nor_delays(params, deltas, "rising", float(internal_init))


register_engine(VectorizedEngine.name, VectorizedEngine)
