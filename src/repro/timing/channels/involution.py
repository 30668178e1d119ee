"""Involution delay model (IDM) channels.

An IDM channel is characterized by a pair of switching waveforms: after
a rising input the (conceptual) analog output follows a rising waveform
``f↑`` starting from wherever the previous falling waveform ``f↓`` left
off; the digital output transition is the ``1/2``-crossing.  This
construction yields the delay function

.. math::  δ↑(T) = f↑^{-1}(1/2) − f↑^{-1}\\bigl(f↓(f↓^{-1}(1/2) + T)\\bigr)

(and symmetrically for ``δ↓``), which satisfies the *involution
property* ``−δ↓(−δ↑(T)) = T`` — the defining axiom of the IDM and the
key to its faithfulness results.  A pure delay ``δp`` may be composed
in front: ``δ̂(T) = δp + δ(T + δp)``; the composite is again an
involution.

Channels provided:

* :class:`ExpChannel` — single-exponential waveforms, closed-form
  ``δ↑(T) = δp + τ↑ ln(2 − e^{−(T+δp)/τ↓})``.  This is the channel the
  paper uses to represent the IDM in Fig. 7 (with an empirically chosen
  ``δp = δ_min = 20 ps``).
* :class:`WaveformChannel` — arbitrary waveforms, numeric inversion.
* :class:`SumExpChannel` — sum-of-exponentials waveforms (the "SumExp"
  channel whose tedious VHDL implementation motivated the paper's FLI
  escape hatch); built on :class:`WaveformChannel`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from ...errors import ParameterError
from .base import SingleInputChannel

__all__ = ["ExpChannel", "WaveformChannel", "SumExpChannel"]

_LN2 = math.log(2.0)


class ExpChannel(SingleInputChannel):
    """IDM channel with exponential switching waveforms.

    Args:
        delay_up_inf: SIS delay ``δ↑(∞)`` (including the pure part).
        delay_down_inf: SIS delay ``δ↓(∞)`` (defaults to *delay_up_inf*).
        pure_delay: pure-delay component ``δp`` (the paper's ``δ_min``).

    The time constants follow from ``δ(∞) = δp + τ ln 2``.
    """

    def __init__(self, delay_up_inf: float,
                 delay_down_inf: float | None = None,
                 pure_delay: float = 0.0,
                 label: str = "exp"):
        if delay_down_inf is None:
            delay_down_inf = delay_up_inf
        if pure_delay < 0.0:
            raise ParameterError("pure_delay must be non-negative")
        if delay_up_inf <= pure_delay or delay_down_inf <= pure_delay:
            raise ParameterError("δ(∞) must exceed the pure delay")
        self.pure_delay = float(pure_delay)
        self.tau_up = (delay_up_inf - pure_delay) / _LN2
        self.tau_down = (delay_down_inf - pure_delay) / _LN2
        self.label = label

    def delay_up(self, history: float) -> float | None:
        """``δ↑(T)``; ``None`` outside the involution domain."""
        if math.isinf(history):
            return self.pure_delay + self.tau_up * _LN2
        argument = 2.0 - math.exp(-(history + self.pure_delay)
                                  / self.tau_down)
        if argument <= 0.0:
            return None
        return self.pure_delay + self.tau_up * math.log(argument)

    def delay_down(self, history: float) -> float | None:
        """``δ↓(T)``; ``None`` outside the involution domain."""
        if math.isinf(history):
            return self.pure_delay + self.tau_down * _LN2
        argument = 2.0 - math.exp(-(history + self.pure_delay)
                                  / self.tau_up)
        if argument <= 0.0:
            return None
        return self.pure_delay + self.tau_down * math.log(argument)

    def delay(self, value: int, history: float) -> float | None:
        return (self.delay_up(history) if value == 1
                else self.delay_down(history))


class WaveformChannel(SingleInputChannel):
    """IDM channel for arbitrary switching waveforms.

    Args:
        f_up: rising waveform, strictly increasing from ``f_up(0) >= 0``
            towards 1 on ``[0, ∞)``.
        f_down: falling waveform, strictly decreasing from
            ``f_down(0) <= 1`` towards 0.
        pure_delay: composed pure delay ``δp``.
        horizon: time after which the waveforms are considered settled
            (bracket for the numeric inversion).

    Inversion uses Brent's method; waveform values outside ``(0, 1)``
    mark the out-of-domain region (delay ``None``).
    """

    def __init__(self, f_up: Callable[[float], float],
                 f_down: Callable[[float], float],
                 pure_delay: float = 0.0,
                 horizon: float = 1.0,
                 label: str = "waveform"):
        if pure_delay < 0.0:
            raise ParameterError("pure_delay must be non-negative")
        self.f_up = f_up
        self.f_down = f_down
        self.pure_delay = float(pure_delay)
        self.horizon = float(horizon)
        self.label = label
        self._anchor_up = self._invert(f_up, 0.5, increasing=True)
        self._anchor_down = self._invert(f_down, 0.5, increasing=False)

    def _invert(self, waveform: Callable[[float], float], value: float,
                increasing: bool) -> float:
        from scipy.optimize import brentq
        lo, hi = 0.0, self.horizon
        v_lo, v_hi = waveform(lo), waveform(hi)
        in_range = (v_lo <= value <= v_hi if increasing
                    else v_hi <= value <= v_lo)
        if not in_range:
            raise ParameterError(
                f"waveform does not reach {value} within the horizon")
        if v_lo == value:
            return lo
        if v_hi == value:
            return hi
        return float(brentq(lambda t: waveform(t) - value, lo, hi,
                            xtol=1e-18, rtol=8.9e-16))

    def _raw_delay(self, value: int, history: float) -> float | None:
        if value == 1:
            start, settled = self.f_down, self.f_up
            anchor_from, anchor_to = self._anchor_down, self._anchor_up
            if math.isinf(history):
                return anchor_to
            position = anchor_from + history
            level = self.f_down(position) if position >= 0.0 else 1.0
            if level >= 1.0 or self.f_up(self.horizon) < level:
                return None
            if level <= 0.0:
                return anchor_to
            return anchor_to - self._invert(self.f_up, level,
                                            increasing=True)
        anchor_from, anchor_to = self._anchor_up, self._anchor_down
        if math.isinf(history):
            return anchor_to
        position = anchor_from + history
        level = self.f_up(position) if position >= 0.0 else 0.0
        if level <= 0.0 or self.f_down(self.horizon) > level:
            return None
        if level >= 1.0:
            return anchor_to
        return anchor_to - self._invert(self.f_down, level,
                                        increasing=False)

    def delay(self, value: int, history: float) -> float | None:
        if math.isinf(history):
            raw = self._raw_delay(value, history)
        else:
            raw = self._raw_delay(value, history + self.pure_delay)
        if raw is None:
            return None
        return self.pure_delay + raw


class SumExpChannel(WaveformChannel):
    """IDM channel with sum-of-exponentials switching waveforms.

    Args:
        taus_up: time constants of the rising waveform.
        weights_up: positive weights (normalized internally).
        taus_down / weights_down: falling waveform (default: mirrored).
        pure_delay: composed pure delay.

    Waveforms: ``f↑(t) = 1 − Σ wᵢ e^{−t/τᵢ}`` and
    ``f↓(t) = Σ wᵢ e^{−t/τᵢ}``.
    """

    def __init__(self, taus_up: Sequence[float],
                 weights_up: Sequence[float] | None = None,
                 taus_down: Sequence[float] | None = None,
                 weights_down: Sequence[float] | None = None,
                 pure_delay: float = 0.0,
                 label: str = "sumexp"):
        taus_up = [float(t) for t in taus_up]
        if not taus_up or any(t <= 0 for t in taus_up):
            raise ParameterError("taus_up must be positive")
        if weights_up is None:
            weights_up = [1.0] * len(taus_up)
        weights_up = [float(w) for w in weights_up]
        if len(weights_up) != len(taus_up) or any(w <= 0
                                                  for w in weights_up):
            raise ParameterError("weights_up must be positive and match "
                                 "taus_up")
        total = sum(weights_up)
        weights_up = [w / total for w in weights_up]

        if taus_down is None:
            taus_down, weights_down = taus_up, weights_up
        else:
            taus_down = [float(t) for t in taus_down]
            if weights_down is None:
                weights_down = [1.0] * len(taus_down)
            weights_down = [float(w) for w in weights_down]
            total = sum(weights_down)
            weights_down = [w / total for w in weights_down]

        def f_up(t: float, taus=tuple(taus_up),
                 weights=tuple(weights_up)) -> float:
            return 1.0 - sum(w * math.exp(-t / tau)
                             for w, tau in zip(weights, taus))

        def f_down(t: float, taus=tuple(taus_down),
                   weights=tuple(weights_down)) -> float:
            return sum(w * math.exp(-t / tau)
                       for w, tau in zip(weights, taus))

        horizon = 60.0 * max(max(taus_up), max(taus_down))
        super().__init__(f_up, f_down, pure_delay=pure_delay,
                         horizon=horizon, label=label)
        self.taus_up = tuple(taus_up)
        self.weights_up = tuple(weights_up)
        self.taus_down = tuple(taus_down)
        self.weights_down = tuple(weights_down)
