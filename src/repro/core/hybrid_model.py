"""The hybrid NOR-gate delay model (the paper's primary contribution).

:class:`HybridNorModel` computes multiple-input-switching (MIS) gate
delays by chaining the closed-form mode solutions of
:mod:`repro.core.solutions` through the mode sequences of paper
Section IV:

Falling output transition (inputs rise, ``Δ = t_B − t_A``):

* ``Δ > 0`` (A first):  (0,0) → (1,0) at ``t=0`` → (1,1) at ``t=Δ``
* ``Δ < 0`` (B first):  (0,0) → (0,1) at ``t=0`` → (1,1) at ``t=|Δ|``
* delay ``δ↓(Δ) = t_O − min(t_A, t_B) + δ_min = t_O + δ_min``

Rising output transition (inputs fall):

* ``Δ > 0`` (A first):  (1,1) → (0,1) at ``t=0`` → (0,0) at ``t=Δ``
* ``Δ < 0`` (B first):  (1,1) → (1,0) at ``t=0`` → (0,0) at ``t=|Δ|``
* delay ``δ↑(Δ) = t_O − max(t_A, t_B) + δ_min = t_O − |Δ| + δ_min``

The rising case needs the initial internal-node voltage ``V_N = X`` in
mode (1,1), which mode (1,1) itself never changes; the paper studies
``X ∈ {GND, VDD/2, VDD}`` and uses ``X = GND`` (the worst case, matching
the SIS delays) for the accuracy evaluation — so does this class by
default.

All returned delays include the pure delay ``δ_min`` carried by the
parameter set (paper Section V).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import NoCrossingError, ParameterError
from .charlie import CharacteristicDelays, MisCurve
from .modes import Mode
from .parameters import (NorGateParameters, check_node_voltage,
                         finite_voltage)
from .trajectory import PiecewiseTrajectory

__all__ = ["HybridNorModel", "DelayComputation", "SETTLE_FACTOR",
           "settle_time"]

#: Multiple of the slowest time constant treated as "infinite" separation.
SETTLE_FACTOR = 60.0


def _check_separation(delta: float) -> None:
    """Reject a NaN *delta*, as the batched backends do."""
    if math.isnan(delta):
        raise ParameterError("input separations must not be NaN")


def settle_time(params: NorGateParameters | np.ndarray
                ) -> float | np.ndarray:
    """A conservative 'long time' after which every mode has settled.

    Separations beyond this are treated as ``±inf``; the evaluation
    backends in :mod:`repro.engine` share this exact cutoff so that the
    scalar and vectorized paths branch identically.  *params* is one
    :class:`NorGateParameters` (a float results) or a sample block of
    dtype :data:`~repro.core.parameters.BLOCK_DTYPE` (one cutoff per
    record).
    """
    if isinstance(params, np.ndarray):
        r1, r2, r3, r4, cn, co = (params[name] for name in
                                  ("r1", "r2", "r3", "r4", "cn", "co"))
        slowest = np.maximum.reduce
    else:
        r1, r2, r3, r4 = params.r1, params.r2, params.r3, params.r4
        cn, co = params.cn, params.co
        slowest = max
    return SETTLE_FACTOR * slowest((co * r3 * r4 / (r3 + r4), co * r3,
                                    co * r4, cn * r1, cn * r2, co * r2,
                                    co * r1))


@dataclasses.dataclass(frozen=True)
class DelayComputation:
    """The result of one delay computation, with its trajectory attached.

    Parameters
    ----------
    delta : float
        Input separation time ``t_B − t_A`` in seconds (may be ±inf).
    delay : float
        The gate delay including ``δ_min``, seconds.
    crossing_time : float
        Global trajectory time of the output crossing, seconds.
    trajectory : PiecewiseTrajectory
        The underlying piecewise trajectory (switch times are *not*
        deferred by ``δ_min``; the pure delay is added to the
        reported delay instead, as in the paper).
    """

    delta: float
    delay: float
    crossing_time: float
    trajectory: PiecewiseTrajectory


class HybridNorModel:
    """MIS-aware delay model of a 2-input CMOS NOR gate.

    Parameters
    ----------
    params : NorGateParameters
        Electrical parameters in SI units (including ``vdd`` and the
        pure delay ``δ_min``).

    Notes
    -----
    The model is stateless; all methods are pure functions of
    *params*.  All returned delays are in seconds and include
    ``δ_min``.
    """

    def __init__(self, params: NorGateParameters):
        self.params = params

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @property
    def _settle_time(self) -> float:
        """See :func:`settle_time`."""
        return settle_time(self.params)

    def _is_effectively_infinite(self, delta: float) -> bool:
        return math.isinf(delta) or abs(delta) >= self._settle_time

    # ------------------------------------------------------------------
    # falling output transition (both inputs rise, output 1 -> 0)
    # ------------------------------------------------------------------

    def falling_computation(self, delta: float) -> DelayComputation:
        """Full falling-transition computation for separation *delta*.

        The gate rests in mode (0,0) with ``V_N = V_O = VDD``; the first
        rising input arrives at ``t = 0``.

        Raises
        ------
        ParameterError
            If *delta* is NaN.
        """
        _check_separation(delta)
        p = self.params
        vdd = p.vdd
        initial = (vdd, vdd)

        if self._is_effectively_infinite(delta):
            first = Mode.A_HIGH_B_LOW if delta > 0 else Mode.A_LOW_B_HIGH
            trajectory = PiecewiseTrajectory(p, first, initial)
        elif delta >= 0.0:
            # A rises at 0, B rises at delta.
            switches = [(delta, Mode.BOTH_HIGH)] if delta > 0.0 else []
            start = Mode.A_HIGH_B_LOW if delta > 0.0 else Mode.BOTH_HIGH
            trajectory = PiecewiseTrajectory(p, start, initial, switches)
        else:
            # B rises at 0, A rises at |delta|.
            trajectory = PiecewiseTrajectory(
                p, Mode.A_LOW_B_HIGH, initial,
                [(-delta, Mode.BOTH_HIGH)])

        crossing = trajectory.first_output_crossing(direction=-1)
        return DelayComputation(
            delta=delta,
            delay=crossing + p.delta_min,
            crossing_time=crossing,
            trajectory=trajectory,
        )

    def delay_falling(self, delta: float) -> float:
        """Falling-output MIS delay ``δ↓_M(Δ)`` (paper Fig. 5)."""
        return self.falling_computation(delta).delay

    def delay_falling_zero(self) -> float:
        """Exact ``δ↓(0)`` — paper eq. (8): ``ln 2 · CO·R3·R4/(R3+R4)``."""
        p = self.params
        return math.log(2.0) * p.tau_parallel + p.delta_min

    def delay_falling_minus_inf(self) -> float:
        """Exact ``δ↓(−∞)`` — paper eq. (9): ``ln 2 · CO·R4``."""
        p = self.params
        return math.log(2.0) * p.tau_r4 + p.delta_min

    def delay_falling_plus_inf(self) -> float:
        """``δ↓(∞)``: crossing within mode (1,0), found numerically.

        No elementary closed form exists (two exponentials); the paper
        gives the Newton-step approximation of eq. (10), available in
        :mod:`repro.core.analytic`.
        """
        return self.delay_falling(math.inf)

    # ------------------------------------------------------------------
    # rising output transition (both inputs fall, output 0 -> 1)
    # ------------------------------------------------------------------

    def rising_computation(self, delta: float,
                           vn_init: float = 0.0) -> DelayComputation:
        """Full rising-transition computation for separation *delta*.

        The gate rests in mode (1,1) with ``V_O = 0`` and ``V_N =
        vn_init`` (invariant in that mode); the first falling input
        arrives at ``t = 0``, the second at ``t = |Δ|``.  The delay is
        referenced to the *later* input.

        Raises
        ------
        ParameterError
            If *delta* is NaN, or *vn_init* is NaN or infinite or
            outside ``[0, VDD]``.
        """
        _check_separation(delta)
        p = self.params
        vn = finite_voltage(vn_init, "vn_init")
        check_node_voltage(vn, p.vdd)
        initial = (vn, 0.0)

        if self._is_effectively_infinite(delta):
            # Let the intermediate mode settle completely, then (0,0).
            intermediate = (Mode.A_LOW_B_HIGH if delta > 0
                            else Mode.A_HIGH_B_LOW)
            settle = self._settle_time
            trajectory = PiecewiseTrajectory(
                p, intermediate, initial, [(settle, Mode.BOTH_LOW)])
            reference = settle
        elif delta >= 0.0:
            # A falls at 0 -> (0,1); B falls at delta -> (0,0).
            if delta > 0.0:
                trajectory = PiecewiseTrajectory(
                    p, Mode.A_LOW_B_HIGH, initial,
                    [(delta, Mode.BOTH_LOW)])
            else:
                trajectory = PiecewiseTrajectory(p, Mode.BOTH_LOW, initial)
            reference = delta
        else:
            # B falls at 0 -> (1,0); A falls at |delta| -> (0,0).
            trajectory = PiecewiseTrajectory(
                p, Mode.A_HIGH_B_LOW, initial,
                [(-delta, Mode.BOTH_LOW)])
            reference = -delta

        crossing = trajectory.first_output_crossing(direction=+1)
        return DelayComputation(
            delta=delta,
            delay=crossing - reference + p.delta_min,
            crossing_time=crossing,
            trajectory=trajectory,
        )

    def delay_rising(self, delta: float, vn_init: float = 0.0) -> float:
        """Rising-output MIS delay ``δ↑_M(Δ)`` (paper Fig. 6).

        Parameters
        ----------
        delta : float
            Input separation ``t_B − t_A`` in seconds (may be ±inf).
        vn_init : float, optional
            Internal node voltage ``X`` in volts while in mode (1,1)
            (default 0.0).

        Returns
        -------
        float
            Delay in seconds, referenced to the later input,
            ``δ_min`` included.
        """
        return self.rising_computation(delta, vn_init).delay

    def delay_rising_plus_inf(self) -> float:
        """``δ↑(∞)``: mode (0,0) entered with ``V_N`` fully charged."""
        return self.delay_rising(math.inf)

    def delay_rising_minus_inf(self) -> float:
        """``δ↑(−∞)``: mode (0,0) entered with ``V_N`` fully drained."""
        return self.delay_rising(-math.inf)

    def delay_rising_zero(self, vn_init: float = 0.0) -> float:
        """``δ↑(0)``: simultaneous falling inputs."""
        return self.delay_rising(0.0, vn_init)

    # ------------------------------------------------------------------
    # batch evaluation, curves and characteristics
    # ------------------------------------------------------------------

    def delays_falling(self, deltas, engine=None) -> np.ndarray:
        """Array-in/array-out falling MIS delays ``δ↓_M(Δ)``.

        Parameters
        ----------
        deltas : array_like of float
            Input separations in seconds, any shape; ``±inf``
            allowed.
        engine : str or DelayEngine or None, optional
            Evaluation backend — a name from
            :func:`repro.engine.available_engines`, an engine
            instance, or ``None`` for the vectorized default.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*.
        """
        from ..engine import get_engine  # local: engine wraps this module
        return get_engine(engine).delays_falling(self.params, deltas)

    def delays_rising(self, deltas, vn_init: float = 0.0,
                      engine=None) -> np.ndarray:
        """Array-in/array-out rising MIS delays ``δ↑_M(Δ)``.

        Parameters
        ----------
        deltas : array_like of float
            Input separations in seconds, any shape; ``±inf``
            allowed.
        vn_init : float, optional
            Mode-(1,1) internal-node voltage in volts (default 0.0).
        engine : str or DelayEngine or None, optional
            Evaluation backend (see :meth:`delays_falling`).

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*.
        """
        from ..engine import get_engine
        return get_engine(engine).delays_rising(self.params, deltas,
                                                vn_init)

    def falling_curve(self, deltas, engine=None) -> MisCurve:
        """Sample ``δ↓_M`` over an array of separations (paper Fig. 5)."""
        deltas = np.asarray(deltas, dtype=float)
        return MisCurve.from_arrays(
            deltas, self.delays_falling(deltas, engine=engine),
            "falling", label="hybrid model")

    def rising_curve(self, deltas, vn_init: float = 0.0,
                     engine=None) -> MisCurve:
        """Sample ``δ↑_M`` over an array of separations (paper Fig. 6)."""
        deltas = np.asarray(deltas, dtype=float)
        return MisCurve.from_arrays(
            deltas, self.delays_rising(deltas, vn_init, engine=engine),
            "rising", label=f"hybrid model (VN={vn_init} V)")

    def characteristic_falling(self) -> CharacteristicDelays:
        """``(δ↓(−∞), δ↓(0), δ↓(∞))`` — the falling Charlie triple."""
        return CharacteristicDelays(
            minus_inf=self.delay_falling_minus_inf(),
            zero=self.delay_falling_zero(),
            plus_inf=self.delay_falling_plus_inf(),
        )

    def characteristic_rising(self,
                              vn_init: float = 0.0) -> CharacteristicDelays:
        """``(δ↑(−∞), δ↑(0), δ↑(∞))`` — the rising Charlie triple."""
        return CharacteristicDelays(
            minus_inf=self.delay_rising_minus_inf(),
            zero=self.delay_rising_zero(vn_init),
            plus_inf=self.delay_rising_plus_inf(),
        )

    # ------------------------------------------------------------------
    # single-transition interface used by the timing channel
    # ------------------------------------------------------------------

    def output_crossings_for_inputs(
            self, a_events: list[tuple[float, int]],
            b_events: list[tuple[float, int]],
            initial_state: tuple[float, float] | None = None,
            t_max: float | None = None,
            a_initial: int | None = None,
            b_initial: int | None = None) -> list[tuple[float, int]]:
        """Digitized output of the hybrid automaton for full input traces.

        Args:
            a_events: ``(time, value)`` transitions of input A, sorted.
            b_events: ``(time, value)`` transitions of input B, sorted.
            initial_state: ``(V_N, V_O)`` at ``t = 0``; defaults to the
                equilibrium of the initial input state.
            t_max: stop searching for crossings after this time.
            a_initial: logic value of A before its first event (inferred
                from the first event when omitted; 0 for an empty trace).
            b_initial: same for input B.

        Returns:
            ``(time, value)`` output transitions (0/1 at Vth crossings).
            Mode switches are deferred by ``δ_min``.

        This is the reference implementation behind the event-driven
        channel in :mod:`repro.timing.channels.hybrid`; both are tested
        against each other.
        """
        p = self.params
        if a_initial is None:
            a_initial = 1 - a_events[0][1] if a_events else 0
        if b_initial is None:
            b_initial = 1 - b_events[0][1] if b_events else 0
        a0, b0 = int(a_initial), int(b_initial)
        if a_events and a_events[0][0] < 0:
            raise ParameterError("input events must have t >= 0")
        mode0 = Mode.from_inputs(a0, b0)

        # Merge the two input event streams into mode switches.
        switches: list[tuple[float, Mode]] = []
        a, b = a0, b0
        merged = sorted(
            [(t, "a", v) for t, v in a_events] +
            [(t, "b", v) for t, v in b_events])
        for t, which, value in merged:
            if which == "a":
                a = value
            else:
                b = value
            switches.append((t + p.delta_min, Mode.from_inputs(a, b)))
        # Collapse simultaneous switches (keep the last mode at each time).
        collapsed: list[tuple[float, Mode]] = []
        for t, mode in switches:
            if collapsed and math.isclose(collapsed[-1][0], t,
                                          rel_tol=0.0, abs_tol=1e-18):
                collapsed[-1] = (collapsed[-1][0], mode)
            else:
                collapsed.append((t, mode))

        if initial_state is None:
            initial_state = mode0.resting_state(p.vdd)

        trajectory = PiecewiseTrajectory(p, mode0, initial_state, collapsed)
        out: list[tuple[float, int]] = []
        for crossing in trajectory.output_crossings(t_max=t_max):
            value = 1 if crossing.direction > 0 else 0
            out.append((crossing.time, value))
        return out
