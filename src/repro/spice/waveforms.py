"""Time-domain source waveforms for the analog simulator.

A waveform is a callable ``f(t) -> volts`` that additionally reports its
*breakpoints* — instants where the waveform or one of its derivatives is
discontinuous.  The transient integrator snaps time steps to breakpoints
so that edges are never stepped over.

The paper drives the NOR gate with fixed-shape rising/falling input
waveforms ``f↑/↓(t − t_X)`` where ``t_X`` is the input threshold-crossing
time; :class:`EdgeTrain` reproduces this: it takes a list of digital
transitions (threshold-crossing times) and synthesizes raised-cosine (or
linear) edges centered on them.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence

import numpy as np

from ..errors import ParameterError

__all__ = ["Waveform", "Dc", "Pwl", "EdgeTrain"]


class Waveform:
    """Base class of all source waveforms."""

    def __call__(self, t: float) -> float:
        raise NotImplementedError

    def breakpoints(self) -> list[float]:
        """Sorted instants of (derivative) discontinuities."""
        return []

    def sample(self, times) -> np.ndarray:
        """Vectorized evaluation (reference implementation: loop)."""
        return np.array([self(float(t)) for t in np.ravel(times)])


class Dc(Waveform):
    """A constant voltage."""

    def __init__(self, value: float):
        self.value = float(value)

    def __call__(self, t: float) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Dc({self.value!r})"


class Pwl(Waveform):
    """Piece-wise linear waveform through ``(time, value)`` points.

    Holds the first value before the first point and the last value after
    the last point, like SPICE's PWL source.
    """

    def __init__(self, points: Sequence[tuple[float, float]]):
        if not points:
            raise ParameterError("PWL needs at least one point")
        times = [float(p[0]) for p in points]
        values = [float(p[1]) for p in points]
        # NaN compares False against everything, so the monotonicity
        # check below would silently accept it — reject non-finite
        # entries explicitly before ordering.
        for index, (t, v) in enumerate(zip(times, values)):
            if not math.isfinite(t):
                raise ParameterError(
                    f"PWL point {index}: time must be finite, "
                    f"got {t}")
            if not math.isfinite(v):
                raise ParameterError(
                    f"PWL point {index}: value must be finite, "
                    f"got {v}")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ParameterError("PWL times must be strictly increasing")
        self.times = times
        self.values = values

    def __call__(self, t: float) -> float:
        times, values = self.times, self.values
        if t <= times[0]:
            return values[0]
        if t >= times[-1]:
            return values[-1]
        i = bisect.bisect_right(times, t) - 1
        t0, t1 = times[i], times[i + 1]
        v0, v1 = values[i], values[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def breakpoints(self) -> list[float]:
        return list(self.times)


class EdgeTrain(Waveform):
    """Digital transitions rendered as smooth analog edges.

    Args:
        transitions: ``(time, value)`` pairs with value in {0, 1}; *time*
            is the instant the edge crosses ``Vdd/2`` (the paper's
            ``t_A``/``t_B`` convention).  Times must be increasing and
            values alternating.
        vdd: logic-high voltage.
        edge_time: full 0-to-100 % transition time of one edge.
        initial: logic value before the first transition; inferred from
            the first transition if omitted.
        shape: ``'raised-cosine'`` (default, C¹-smooth) or ``'linear'``.

    Edges are symmetric around their crossing time.  Overlapping edges
    (separation below ``edge_time``) are evaluated by letting the newer
    edge take over from the older one's instantaneous value, which keeps
    the waveform continuous even for runt pulses.
    """

    def __init__(self, transitions: Sequence[tuple[float, int]],
                 vdd: float, edge_time: float,
                 initial: int | None = None,
                 shape: str = "raised-cosine"):
        # Every comparison with NaN is false, so the order checks below
        # would accept it: require finite values first.
        if not (math.isfinite(edge_time) and edge_time > 0.0):
            raise ParameterError("edge_time must be positive and finite")
        if shape not in ("raised-cosine", "linear"):
            raise ParameterError(f"unknown edge shape {shape!r}")
        times = [t for t, _ in transitions]
        for index, t in enumerate(times):
            if not math.isfinite(t):
                raise ParameterError(
                    f"transition {index}: time must be finite, got {t}")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ParameterError("transition times must be increasing")
        self.transitions = [(float(t), int(v)) for t, v in transitions]
        self.vdd = float(vdd)
        self.edge_time = float(edge_time)
        self.shape = shape
        if initial is None:
            initial = 1 - self.transitions[0][1] if self.transitions else 0
        self.initial = int(initial)

    def _edge_fraction(self, phase: float) -> float:
        """Normalized edge profile: 0 at phase<=0, 1 at phase>=1."""
        if phase <= 0.0:
            return 0.0
        if phase >= 1.0:
            return 1.0
        if self.shape == "linear":
            return phase
        return 0.5 * (1.0 - math.cos(math.pi * phase))

    def __call__(self, t: float) -> float:
        value = float(self.initial) * self.vdd
        half = self.edge_time / 2.0
        for time, target in self.transitions:
            start = time - half
            if t <= start:
                break
            phase = (t - start) / self.edge_time
            frac = self._edge_fraction(phase)
            value = value + (target * self.vdd - value) * frac
        return value

    def breakpoints(self) -> list[float]:
        half = self.edge_time / 2.0
        points: list[float] = []
        for time, _ in self.transitions:
            points.extend((time - half, time, time + half))
        return sorted(points)
