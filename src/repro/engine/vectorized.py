"""Array-native evaluation of the hybrid-model MIS delay functions.

The scalar reference computes every delay by building a two-segment
:class:`~repro.core.trajectory.PiecewiseTrajectory` and running a Brent
root search.  But for a Δ sweep almost everything is shared:

* the *first* mode segment starts from a Δ-independent initial state,
  so its closed-form solution — and its output-threshold crossing time,
  if the output crosses before the second input arrives — is computed
  **once per parameter set**;
* the Δ-dependence enters only through the state handed to the second
  segment, which is two vectorized :class:`~repro.core.solutions.ExpSum`
  evaluations;
* the second segment's crossing is either a closed-form logarithm
  (falling transitions end in the single-exponential mode (1,1)) or a
  two-exponential root with **shared rates** across the whole batch
  (rising transitions end in mode (0,0)).  All lanes of a call go to
  one call of the safeguarded two-term Newton solver the
  parameter-block kernels use too
  (:func:`repro.engine.blocks._two_term_crossing`): closed-form
  bracket, asymptotic first guess, bisection fallback, machine
  precision.

Per-parameter-set contexts (mode solutions, first-segment crossing
times, coupled-mode constants) are memoised with ``lru_cache``; the
branch structure (sign of Δ, the ``settle_time`` infinity cutoff, early
first-segment crossings) mirrors the scalar model exactly so the two
backends agree to well below the femtosecond.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from ..core.hybrid_model import settle_time
from ..core.modes import CoupledModeConstants, Mode, mode_00_constants
from ..core.multi_input import (GeneralizedNorParameters,
                                compiled_nor_kernel)
from ..core.parameters import NorGateParameters
from ..core.solutions import ExpSum, solve_mode
from ..core.trajectory import all_crossings
from ..errors import NoCrossingError, ParameterError
from .base import register_engine, traced_entry_point
from .blocks import (_crossing_00, falling_delays_block,
                     rising_delays_block)

__all__ = ["VectorizedEngine"]


def _first_directed_crossing(expsum: ExpSum, threshold: float,
                             direction: int) -> float | None:
    """First crossing of *expsum* through *threshold* with given slope
    sign, using the exact scalar machinery (same answer as the
    reference path's crossing filter)."""
    derivative = expsum.derivative()
    for t in all_crossings(expsum, threshold, 0.0, None):
        slope = 1 if derivative(t) > 0 else -1
        if slope == direction:
            return t
    return None


# ----------------------------------------------------------------------
# per-parameter-set contexts
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _FallingContext:
    """Δ-independent data of the falling transition (inputs rise)."""

    vdd: float
    vth: float
    delta_min: float
    settle: float
    #: mode (1,0) output solution from (VDD, VDD) — A switched first.
    vo10: ExpSum
    #: output crossing time within pure mode (1,0), seconds.
    t10: float
    #: output crossing time within pure mode (0,1): ``τ_R4 · ln 2``.
    t01: float
    #: mode (1,1) output decay rate ``−(1/τ_R3 + 1/τ_R4)``.
    rate11: float
    tau_r4: float


@dataclasses.dataclass(frozen=True)
class _RisingContext:
    """Δ-independent data of the rising transition (inputs fall)."""

    vdd: float
    vth: float
    delta_min: float
    settle: float
    #: mode (0,1) internal-node solution from (X, 0) — A fell first.
    vn01: ExpSum
    #: mode (1,0) solutions from (X, 0) — B fell first.
    vn10: ExpSum
    vo10: ExpSum
    #: upward output crossing within pure mode (1,0), if any (only
    #: possible when X is high enough for N→O charge sharing).
    t_up: float | None
    #: coupled constants of the final mode (0,0).
    c00: CoupledModeConstants


@functools.lru_cache(maxsize=256)
def _falling_context(params: NorGateParameters) -> _FallingContext:
    vdd, vth = params.vdd, params.vth
    sol10 = solve_mode(Mode.A_HIGH_B_LOW, params, vdd, vdd)
    t10 = _first_directed_crossing(sol10.vo, vth, -1)
    sol01 = solve_mode(Mode.A_LOW_B_HIGH, params, vdd, vdd)
    t01 = _first_directed_crossing(sol01.vo, vth, -1)
    if t10 is None or t01 is None:  # pragma: no cover - defensive
        raise NoCrossingError("falling output never crosses Vth")
    return _FallingContext(
        vdd=vdd, vth=vth, delta_min=params.delta_min,
        settle=settle_time(params), vo10=sol10.vo, t10=t10, t01=t01,
        rate11=-(1.0 / params.tau_r3 + 1.0 / params.tau_r4),
        tau_r4=params.tau_r4,
    )


@functools.lru_cache(maxsize=256)
def _rising_context(params: NorGateParameters,
                    vn_init: float) -> _RisingContext:
    vdd, vth = params.vdd, params.vth
    sol01 = solve_mode(Mode.A_LOW_B_HIGH, params, vn_init, 0.0)
    sol10 = solve_mode(Mode.A_HIGH_B_LOW, params, vn_init, 0.0)
    return _RisingContext(
        vdd=vdd, vth=vth, delta_min=params.delta_min,
        settle=settle_time(params), vn01=sol01.vn,
        vn10=sol10.vn, vo10=sol10.vo,
        t_up=_first_directed_crossing(sol10.vo, vth, +1),
        c00=mode_00_constants(params),
    )


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

def _prepare(deltas) -> tuple[np.ndarray, tuple[int, ...]]:
    d = np.asarray(deltas, dtype=float)
    if np.isnan(d).any():
        raise ParameterError("input separations must not be NaN")
    return np.ravel(d), d.shape


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
        ctx = _falling_context(params)
        d, shape = _prepare(deltas)
        crossing = np.empty_like(d)

        pos = d >= 0.0
        if pos.any():
            # (1,0) from (VDD, VDD), then (1,1) at Δ.
            dp = np.minimum(d[pos], ctx.settle)
            res = np.full_like(dp, ctx.t10)
            late = dp < ctx.t10  # output still above Vth at the switch
            if late.any():
                dl = dp[late]
                vo_d = ctx.vo10(dl)
                res[late] = dl + np.log(ctx.vth / vo_d) / ctx.rate11
            crossing[pos] = res
        neg = ~pos
        if neg.any():
            # (0,1) from (VDD, VDD), then (1,1) at |Δ|.
            dn = np.minimum(-d[neg], ctx.settle)
            res = np.full_like(dn, ctx.t01)
            late = dn < ctx.t01
            if late.any():
                dl = dn[late]
                vo_d = ctx.vdd * np.exp(-dl / ctx.tau_r4)
                res[late] = dl + np.log(ctx.vth / vo_d) / ctx.rate11
            crossing[neg] = res

        return (crossing + ctx.delta_min).reshape(shape)

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
            the GND worst case).

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*; matches the scalar reference to ≪ 1e-12 s.
        """
        ctx = _rising_context(params, float(vn_init))
        d, shape = _prepare(deltas)
        pos = d >= 0.0
        mag = np.minimum(np.abs(d), ctx.settle)
        # Δ ≥ 0: (0,1) from (X, 0) pins the output at GND, only V_N
        # moves.  Δ < 0: (1,0) from (X, 0) moves both nodes, and
        # charge sharing can lift the output across Vth before the
        # second input arrives (t_up).
        t_up = math.inf if ctx.t_up is None else ctx.t_up
        early = ~pos & (mag >= t_up)
        vn0 = np.where(pos, ctx.vn01(mag), ctx.vn10(mag))
        vo0 = np.where(pos | early, 0.0, ctx.vo10(mag))
        # The rising delay is referenced to the *later* input, so for
        # final-segment crossings it equals the (0,0)-local crossing
        # time; only the early crossing gives a Δ-dependent offset.
        # Early lanes enter (0,0) with the output at GND instead, so
        # one solver call covers every lane; their crossing is
        # discarded.
        c = ctx.c00
        crossing = _crossing_00(c.alpha, c.beta, c.lambda1, c.lambda2,
                                c.vn_component, ctx.vdd, ctx.vth, vn0,
                                vo0)
        delay = np.where(early, t_up - mag, crossing)
        return (delay + ctx.delta_min).reshape(shape)

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
                            vn_init: float = 0.0) -> np.ndarray:
        """Rising MIS delays for a whole parameter sample block.

        Parameters
        ----------
        block : numpy.ndarray
            Sample block of dtype
            :data:`repro.engine.blocks.BLOCK_DTYPE`, shape ``(N,)``.
        deltas : array_like of float
            Input separations in seconds, shape ``(N,)`` or
            ``(N, M)``; ``±inf`` allowed, NaN rejected.
        vn_init : float, optional
            Mode-(1,1) internal-node voltage in volts, shared by the
            block (default 0.0, the GND worst case).

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
        eigen tensors, shared per parameter set and persisted via
        :mod:`repro.cache` when configured).  For ``n = 2`` it agrees
        with the closed-form :meth:`delays_falling` path to
        ≤ 1e-12 s (asserted by the parity suite).

        Parameters
        ----------
        params : GeneralizedNorParameters
            n-input electrical parameter set (SI units).
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; ``±inf`` clips to
            the SIS plateaus, NaN rejected.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), shape
            ``deltas.shape[:-1]``.
        """
        return compiled_nor_kernel(params).evaluate(deltas, "falling")

    @traced_entry_point("engine.delays_n", "rising")
    def delays_rising_n(self, params: GeneralizedNorParameters,
                        deltas, internal_init: float = 0.0
                        ) -> np.ndarray:
        """Rising n-input MIS delays, batched over a Δ-vector grid.

        Parameters
        ----------
        params : GeneralizedNorParameters
            n-input electrical parameter set (SI units).
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; ``±inf`` clips to
            the SIS plateaus, NaN rejected.
        internal_init : float, optional
            Initial voltage of every internal chain node, volts
            (default 0.0, the GND worst case).

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), shape
            ``deltas.shape[:-1]``.
        """
        return compiled_nor_kernel(params).evaluate(
            deltas, "rising", float(internal_init))


register_engine(VectorizedEngine.name, VectorizedEngine)
