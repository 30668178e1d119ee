"""Reduced-order wire delay/slew models: Elmore and two-pole.

Given the exact transfer moments of a :class:`~repro.wire.tree.WireTree`
(:meth:`WireTree.moments`), two classic reduced-order models are
available per sink:

``elmore``
    First-moment model.  ``delay = T_D`` — the Elmore delay, which is
    the *exact* threshold-crossing shift for inputs much slower than
    the wire time constant (the mean of the impulse response delays
    any settled ramp by exactly ``T_D``).  That is the regime the
    repository's gate-driven wires sit in (60 ps edges vs few-ps
    wires), so it is the default arc delay for STA.  The slew is the
    10–90 % rise of the matched single pole ``τ = T_D``
    (``slew = T_D · ln 9``).

``two_pole``
    Second-order moment match ``H(s) = 1 / (1 + b₁s + b₂s²)`` with
    ``b₁ = T_D`` and ``b₂ = T_D² − m₂`` so both moments are
    reproduced.  For real poles ``τ₁ ≥ τ₂`` the *step* response

    ``y(t) = 1 − (τ₁ e^{−t/τ₁} − τ₂ e^{−t/τ₂}) / (τ₁ − τ₂)``

    is monotone, and ``delay``/``slew`` are its 50 % crossing and
    10–90 % rise — exact for a two-stage RC ladder, and the
    fast-input (step) limit for deeper trees.  Degenerate fits
    (``b₂ ≤ 0``, e.g. a single RC stage, where the match collapses to
    one pole) fall back to the exact single-pole closed form.

Uniform corner scaling is analytic: scaling every resistance by
``r`` and every capacitance by ``c`` scales *all* of the above
timings by exactly ``r·c`` (the normalized response shape is
invariant), which is what keeps wire-aware corner sweeps array-native
— see :func:`scaled_delays`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..core.solutions import exp_sum_crossing
from ..errors import ParameterError
from ..obs.metrics import registry
from ..obs.trace import span
from .tree import WireTree

__all__ = ["SinkTiming", "WireTiming", "reduce_tree", "scaled_delays",
           "two_pole_step_crossings", "WIRE_MODELS"]

#: Supported reduced-order model names.
WIRE_MODELS = ("elmore", "two_pole")

_LN2 = math.log(2.0)
_LN9 = math.log(9.0)

_counters: dict[str, object] = {}


def _reduction_counter(model: str):
    counter = _counters.get(model)
    if counter is None:
        counter = registry().counter(
            "repro_wire_reductions_total",
            "Wire trees reduced to analytic delay models.",
            labels={"model": model})
        _counters[model] = counter
    return counter


@dataclasses.dataclass(frozen=True)
class SinkTiming:
    """Reduced-order timing of one sink of a wire tree.

    Attributes
    ----------
    sink : str
        Sink node name.
    elmore : float
        Elmore delay ``T_D`` of the sink, seconds (the slow-input
        crossing shift).
    delay : float
        Delay under the selected model, seconds (``T_D`` for
        ``elmore``; the 50 % step-response crossing for
        ``two_pole``).
    slew : float
        10–90 % step-response rise time under the selected model,
        seconds.
    """

    sink: str
    elmore: float
    delay: float
    slew: float


@dataclasses.dataclass(frozen=True)
class WireTiming:
    """All sink timings of a reduced wire tree."""

    tree: WireTree
    model: str
    sinks: tuple[SinkTiming, ...]

    def timing(self, sink: str) -> SinkTiming:
        """Timing of one sink by name."""
        for entry in self.sinks:
            if entry.sink == sink:
                return entry
        raise ParameterError(
            f"unknown sink {sink!r}; tree has "
            f"{[entry.sink for entry in self.sinks]}")

    def delays(self) -> np.ndarray:
        """Per-sink delays in declaration order, seconds."""
        return np.array([entry.delay for entry in self.sinks])

    def slews(self) -> np.ndarray:
        """Per-sink slews in declaration order, seconds."""
        return np.array([entry.slew for entry in self.sinks])


def two_pole_step_crossings(
        b1: np.ndarray, b2: np.ndarray,
        thresholds: tuple[float, ...] = (0.1, 0.5, 0.9),
) -> np.ndarray:
    """Crossing times of the two-pole step response, vectorized.

    Entries with distinct real poles ``τ₁ > τ₂`` solve ``(τ₁e^{−t/τ₁}
    − τ₂e^{−t/τ₂})/(τ₁ − τ₂) = 1 − θ`` in one downward
    :func:`~repro.core.solutions.exp_sum_crossing` call over
    thresholds × entries.

    Parameters
    ----------
    b1, b2 : array_like
        Denominator coefficients of ``1/(1 + b₁s + b₂s²)`` per sink
        (``b1 > 0``; entries with ``b2 <= 0``, complex or coincident
        poles use the single-pole closed form ``t = −b₁ ln(1−θ)``).
    thresholds : tuple of float, optional
        Normalized levels in ``(0, 1)``.

    Returns
    -------
    numpy.ndarray
        Shape ``(len(thresholds),) + b1.shape`` crossing times,
        seconds.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    if np.any(b1 <= 0.0) or not np.all(np.isfinite(b1)):
        raise ParameterError("two-pole b1 must be positive and "
                             "finite")
    thresholds = tuple(float(level) for level in thresholds)
    if any(not 0.0 < level < 1.0 for level in thresholds):
        raise ParameterError("thresholds must lie strictly in "
                             "(0, 1)")
    out = np.empty((len(thresholds),) + b1.shape)
    for index, level in enumerate(thresholds):
        out[index] = -b1 * np.log(1.0 - level)
    disc = b1 * b1 - 4.0 * b2
    root = np.sqrt(np.where(disc > 0.0, disc, 0.0))
    tau1 = 0.5 * (b1 + root)
    tau2 = 0.5 * (b1 - root)
    # Nearly coincident poles make the two-exponential form
    # numerically unstable.
    distinct = (b2 > 0.0) & (tau1 - tau2 > 1e-9 * tau1)
    if distinct.any():
        tau1, tau2 = tau1[distinct], tau2[distinct]
        gap = tau1 - tau2
        out[:, distinct] = exp_sum_crossing(
            np.stack([tau1 / gap, -tau2 / gap])[:, None],
            np.stack([-1.0 / tau1, -1.0 / tau2])[:, None],
            1.0 - np.array(thresholds)[:, None], downward=True)
    return out


def reduce_tree(tree: WireTree, model: str = "two_pole",
                ) -> WireTiming:
    """Reduce a wire tree to per-sink analytic delay and slew.

    Parameters
    ----------
    tree : WireTree
        The RC tree to reduce.
    model : str, optional
        ``"two_pole"`` (default) or ``"elmore"`` — see the module
        docstring for the regime each is exact in.

    Returns
    -------
    WireTiming
        Per-sink :class:`SinkTiming` in sink declaration order.
    """
    if model not in WIRE_MODELS:
        raise ParameterError(
            f"unknown wire model {model!r}; choose from "
            f"{WIRE_MODELS}")
    with span("wire.reduce", model=model,
              segments=len(tree.segments), sinks=len(tree.sinks)):
        elmore, m2 = tree.moments()
        sinks = []
        if model == "elmore":
            for sink in tree.sinks:
                first = elmore[sink]
                sinks.append(SinkTiming(sink=sink, elmore=first,
                                        delay=first,
                                        slew=first * _LN9))
        else:
            b1 = np.array([elmore[sink] for sink in tree.sinks])
            b2 = b1 * b1 - np.array([m2[sink]
                                     for sink in tree.sinks])
            t10, t50, t90 = two_pole_step_crossings(b1, b2)
            for index, sink in enumerate(tree.sinks):
                sinks.append(SinkTiming(
                    sink=sink, elmore=float(b1[index]),
                    delay=float(t50[index]),
                    slew=float(t90[index] - t10[index])))
        _reduction_counter(model).inc()
        return WireTiming(tree=tree, model=model,
                          sinks=tuple(sinks))


def scaled_delays(timing: WireTiming, r_scale=1.0, c_scale=1.0,
                  ) -> np.ndarray:
    """Wire delays under uniform R/C corner scaling, array-native.

    Scaling every resistance by ``r_scale`` and every capacitance by
    ``c_scale`` multiplies all crossing times by exactly
    ``r_scale · c_scale`` (the normalized step-response *shape* is
    scale-invariant), so a whole corner sweep is one broadcast
    multiply instead of one tree reduction per corner.

    Parameters
    ----------
    timing : WireTiming
        A reduced tree (the nominal corner).
    r_scale, c_scale : array_like, optional
        Uniform resistance/capacitance multipliers; broadcast
        together over any corner-axis shape.

    Returns
    -------
    numpy.ndarray
        Shape ``broadcast(r_scale, c_scale).shape + (n_sinks,)``
        delays, seconds.
    """
    r_scale = np.asarray(r_scale, dtype=float)
    c_scale = np.asarray(c_scale, dtype=float)
    if np.any(r_scale <= 0.0) or np.any(c_scale <= 0.0):
        raise ParameterError("corner scales must be positive")
    factor = r_scale * c_scale
    return factor[..., np.newaxis] * timing.delays()
