"""Piecewise-mode trajectories and threshold-crossing extraction.

A hybrid-model run is a sequence of modes: the gate starts in some mode at
``t = 0`` and switches modes at the (possibly ``delta_min``-deferred) input
threshold-crossing times, carrying the continuous state ``(V_N, V_O)``
across each switch.  :class:`PiecewiseTrajectory` stores the closed-form
solution of every segment and can locate output threshold crossings
exactly.

The crossing finder exploits the structure of the per-mode solutions: a
voltage is always ``K0 + K1 e^{λ1 t} + K2 e^{λ2 t}``, whose derivative has
at most one zero, so each segment consists of at most two monotone pieces.
Single-exponential segments are inverted with a logarithm; two-exponential
segments are bracketed per monotone piece and solved with Brent's method.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence

import numpy as np

from ..errors import NoCrossingError, ParameterError
from .modes import Mode
from .parameters import NorGateParameters
from .solutions import ExpSum, ModeSolution, solve_mode

__all__ = [
    "first_crossing",
    "all_crossings",
    "Crossing",
    "Segment",
    "PiecewiseTrajectory",
]

#: Relative time tolerance for root polishing (dimensionless).
_REL_TOL = 1e-13
#: Absolute time tolerance in seconds (well below femtosecond resolution).
_ABS_TOL = 1e-24


def _stationary_point(expsum: ExpSum) -> float | None:
    """Return the unique zero of ``expsum``'s derivative, if any.

    For ``f'(t) = K1 λ1 e^{λ1 t} + K2 λ2 e^{λ2 t}`` the zero satisfies
    ``e^{(λ1-λ2) t} = -K2 λ2 / (K1 λ1)``.
    """
    if len(expsum.coeffs) < 2:
        return None
    (k1, k2) = expsum.coeffs
    (l1, l2) = expsum.rates
    if k1 * l1 == 0.0 or l1 == l2:
        return None
    ratio = -(k2 * l2) / (k1 * l1)
    if ratio <= 0.0:
        return None
    return math.log(ratio) / (l1 - l2)


def _monotone_crossing(expsum: ExpSum, threshold: float,
                       t_lo: float, t_hi: float) -> float | None:
    """First crossing on a *monotone* piece ``[t_lo, t_hi]`` (or None)."""
    from scipy.optimize import brentq
    f_lo = expsum(t_lo) - threshold
    f_hi = expsum(t_hi) - threshold
    if f_lo == 0.0:
        return t_lo
    if f_hi == 0.0:
        return t_hi
    if f_lo * f_hi > 0.0:
        return None
    span = max(abs(t_lo), abs(t_hi), 1e-15)
    root = brentq(lambda t: expsum(t) - threshold, t_lo, t_hi,
                  xtol=max(_ABS_TOL, span * _REL_TOL), rtol=8.9e-16)
    return float(root)


def _bracket_infinity(expsum: ExpSum, threshold: float,
                      t_lo: float) -> float | None:
    """Find a finite right bracket for a crossing on ``[t_lo, inf)``.

    Assumes all rates are negative (decaying exponentials), so the value
    converges to ``expsum.limit``.  Returns ``None`` if the limit is on
    the same side of the threshold as ``expsum(t_lo)``.
    """
    limit = expsum.limit
    f_lo = expsum(t_lo) - threshold
    f_limit = limit - threshold
    if f_lo == 0.0:
        return t_lo
    if f_lo * f_limit >= 0.0:
        # No sign change towards infinity on a monotone piece.
        return None
    slowest = expsum.slowest_rate
    if slowest == 0.0:  # pragma: no cover - constant cannot sign-change
        return None
    # Start from a couple of slowest time constants and expand.
    step = 2.0 / abs(slowest)
    t_hi = t_lo + step
    for _ in range(200):
        if (expsum(t_hi) - threshold) * f_lo <= 0.0:
            return t_hi
        t_hi += step
        step *= 1.5
    raise NoCrossingError(  # pragma: no cover - defensive
        "failed to bracket a crossing that the limit analysis promised")


def all_crossings(expsum: ExpSum, threshold: float,
                  t_lo: float = 0.0,
                  t_hi: float | None = None) -> list[float]:
    """All threshold crossings of an :class:`ExpSum` on ``[t_lo, t_hi]``.

    ``t_hi = None`` means "until the function has settled" (valid only
    when all rates are negative).  The result is sorted ascending and has
    at most two entries, by the monotonicity structure of two-exponential
    sums.
    """
    if t_hi is not None and t_hi < t_lo:
        raise ParameterError("t_hi must be >= t_lo")
    if not expsum.coeffs:
        return []

    pieces: list[tuple[float, float | None]] = []
    stationary = _stationary_point(expsum)
    if stationary is not None and stationary > t_lo and (
            t_hi is None or stationary < t_hi):
        pieces.append((t_lo, stationary))
        pieces.append((stationary, t_hi))
    else:
        pieces.append((t_lo, t_hi))

    found: list[float] = []
    for lo, hi in pieces:
        if hi is None:
            hi = _bracket_infinity(expsum, threshold, lo)
            if hi is None:
                continue
            if hi == lo:
                found.append(lo)
                continue
        root = _monotone_crossing(expsum, threshold, lo, hi)
        if root is not None:
            if not found or not math.isclose(root, found[-1],
                                             rel_tol=1e-9, abs_tol=1e-21):
                found.append(root)
    return found


def first_crossing(expsum: ExpSum, threshold: float,
                   t_lo: float = 0.0,
                   t_hi: float | None = None) -> float | None:
    """First threshold crossing on ``[t_lo, t_hi]``, or ``None``.

    For the common single-exponential case the crossing is computed with
    an exact logarithm.
    """
    if len(expsum.coeffs) == 1:
        k0, (k1,), (rate,) = expsum.offset, expsum.coeffs, expsum.rates
        argument = (threshold - k0) / k1
        if argument <= 0.0:
            return None
        t = math.log(argument) / rate
        if t < t_lo - _ABS_TOL:
            return None
        t = max(t, t_lo)
        if t_hi is not None and t > t_hi:
            return None
        return t
    crossings = all_crossings(expsum, threshold, t_lo, t_hi)
    return crossings[0] if crossings else None


@dataclasses.dataclass(frozen=True)
class Crossing:
    """A threshold crossing of the output voltage."""

    time: float
    #: +1 if the voltage is increasing at the crossing, -1 if decreasing.
    direction: int


@dataclasses.dataclass(frozen=True)
class Segment:
    """One mode segment of a piecewise trajectory.

    ``solution`` is expressed in segment-local time; the segment covers
    global times ``[start, end)`` (``end = inf`` for the final segment).
    """

    start: float
    end: float
    solution: ModeSolution

    @property
    def mode(self) -> Mode:
        return self.solution.mode

    def local(self, t: float) -> float:
        """Convert a global time to segment-local time."""
        return t - self.start


class PiecewiseTrajectory:
    """The full hybrid trajectory across a sequence of mode switches.

    Parameters
    ----------
    params : NorGateParameters
        Electrical parameters of the gate (SI units).
    initial_mode : Mode
        Mode active at ``t = 0``.
    initial_state : tuple of float
        ``(V_N, V_O)`` in volts at ``t = 0``.
    switches : iterable of tuple, optional
        ``(time, mode)`` pairs, strictly increasing in time with all
        times ``>= 0`` seconds.  The continuous state is carried over
        at each switch.
    """

    def __init__(self, params: NorGateParameters, initial_mode: Mode,
                 initial_state: tuple[float, float],
                 switches: Iterable[tuple[float, Mode]] = ()):
        self.params = params
        switch_list = sorted(switches, key=lambda item: item[0])
        for time, _mode in switch_list:
            if time < 0.0:
                raise ParameterError("switch times must be non-negative")
        segments: list[Segment] = []
        mode = initial_mode
        state = (float(initial_state[0]), float(initial_state[1]))
        start = 0.0
        for time, next_mode in switch_list:
            if time == start and segments:
                raise ParameterError("duplicate switch time "
                                     f"{time!r}")
            solution = solve_mode(mode, params, *state)
            if time > start or not segments:
                segments.append(Segment(start, time, solution))
            state = solution.state_at(time - start)
            mode = next_mode
            start = time
        segments.append(Segment(start, math.inf,
                                solve_mode(mode, params, *state)))
        self.segments: tuple[Segment, ...] = tuple(segments)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _segment_at(self, t: float) -> Segment:
        if t < 0.0:
            raise ParameterError("trajectory is defined for t >= 0")
        for segment in self.segments:
            if t < segment.end:
                return segment
        return self.segments[-1]  # pragma: no cover - end == inf

    def state_at(self, t: float) -> tuple[float, float]:
        """Return ``(V_N(t), V_O(t))`` at global time ``t``."""
        segment = self._segment_at(t)
        return segment.solution.state_at(segment.local(t))

    def vo_at(self, t: float) -> float:
        """Output voltage at global time ``t``."""
        return self.state_at(t)[1]

    def vn_at(self, t: float) -> float:
        """Internal node voltage at global time ``t``."""
        return self.state_at(t)[0]

    def sample(self, times) -> np.ndarray:
        """Evaluate the trajectory on an array of times.

        Returns an array of shape ``(len(times), 2)`` with columns
        ``(V_N, V_O)``.
        """
        times = np.asarray(times, dtype=float)
        out = np.empty((times.size, 2))
        for i, t in enumerate(np.ravel(times)):
            out[i] = self.state_at(float(t))
        return out

    @property
    def final_mode(self) -> Mode:
        """Mode of the last (open-ended) segment."""
        return self.segments[-1].mode

    # ------------------------------------------------------------------
    # Crossings
    # ------------------------------------------------------------------

    def output_crossings(self, threshold: float | None = None,
                         t_max: float | None = None) -> list[Crossing]:
        """All crossings of ``V_O`` through *threshold* (default Vth).

        The final open-ended segment is searched until settling.  A
        crossing exactly at a segment boundary is reported once.
        """
        if threshold is None:
            threshold = self.params.vth
        crossings: list[Crossing] = []
        for segment in self.segments:
            end = segment.end if math.isfinite(segment.end) else None
            if t_max is not None:
                if segment.start >= t_max:
                    break
                end = min(end, t_max) if end is not None else t_max
            local_end = None if end is None else segment.local(end)
            vo = segment.solution.vo
            for local_t in all_crossings(vo, threshold, 0.0, local_end):
                t = segment.start + local_t
                slope = vo.derivative()(local_t)
                direction = 1 if slope > 0 else -1
                if crossings and math.isclose(
                        crossings[-1].time, t, rel_tol=1e-9, abs_tol=1e-18):
                    continue
                crossings.append(Crossing(time=t, direction=direction))
        return crossings

    def first_output_crossing(self, threshold: float | None = None,
                              direction: int | None = None) -> float:
        """Time of the first output crossing (optionally of a direction).

        Raises:
            NoCrossingError: if the output never crosses the threshold.
        """
        for crossing in self.output_crossings(threshold):
            if direction is None or crossing.direction == direction:
                return crossing.time
        raise NoCrossingError(
            f"output never crosses {threshold if threshold is not None else self.params.vth} V"
            + (f" in direction {direction:+d}" if direction else ""))


def trajectory_from_modes(params: NorGateParameters,
                          modes: Sequence[Mode],
                          switch_times: Sequence[float],
                          initial_state: tuple[float, float]
                          ) -> PiecewiseTrajectory:
    """Convenience constructor: ``modes[0]`` from 0, then switches.

    ``switch_times[i]`` is when ``modes[i + 1]`` becomes active.
    """
    if len(modes) != len(switch_times) + 1:
        raise ParameterError("need exactly one more mode than switch time")
    return PiecewiseTrajectory(
        params, modes[0], initial_state,
        list(zip(switch_times, modes[1:])))
