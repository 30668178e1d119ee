"""Adaptive transient analysis for the MNA system.

Integration methods: backward Euler (``'be'``) and the trapezoidal rule
(``'trap'``, default).  The step controller is a classic
predictor-based local-error scheme: the forward (explicit) prediction
``v_prev + h * vdot_prev`` is compared against the implicit solution;
the mismatch estimates the local curvature error and drives the next
step size.  Steps are snapped to source breakpoints so input edges are
never straddled, and the first step after a breakpoint falls back to
backward Euler, damping the derivative discontinuity (the standard
SPICE trick against trapezoidal ringing).

The returned :class:`TransientResult` carries the full waveform matrix
plus helpers used throughout the analysis layer (value interpolation,
threshold crossings).
"""

from __future__ import annotations

import bisect
import dataclasses
import math

import numpy as np

from ..errors import ConvergenceError, ParameterError, SimulationError
from .dc import dc_operating_point, newton_solve
from .mna import MnaSystem
from .netlist import Circuit

__all__ = ["TransientOptions", "TransientResult", "transient_analysis"]


@dataclasses.dataclass(frozen=True)
class TransientOptions:
    """Knobs of the transient integrator.

    Attributes:
        dt_initial: step used at t = 0 and right after breakpoints.
        dt_min: refusal threshold — below this the run aborts.
        dt_max: ceiling for idle stretches.
        reltol: target predictor error relative to the voltage scale.
        v_scale: the voltage scale (supply voltage is a good choice).
        method: ``'trap'`` or ``'be'``.
        store_every: keep every k-th accepted point (1 = all).
    """

    dt_initial: float = 0.05e-12
    dt_min: float = 1e-18
    dt_max: float = 50e-12
    reltol: float = 2e-4
    v_scale: float = 1.0
    method: str = "trap"
    store_every: int = 1

    def __post_init__(self) -> None:
        if self.method not in ("trap", "be"):
            raise SimulationError(f"unknown method {self.method!r}")
        if not (0 < self.dt_min <= self.dt_initial <= self.dt_max):
            raise SimulationError("need dt_min <= dt_initial <= dt_max")


@dataclasses.dataclass
class TransientResult:
    """Dense waveforms produced by :func:`transient_analysis`."""

    times: np.ndarray
    voltages: np.ndarray  # shape (num_points, n_nodes)
    node_index: dict[str, int]
    statistics: dict[str, float]

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of one node."""
        return self.voltages[:, self.node_index[node]]

    def value_at(self, node: str, t: float) -> float:
        """Linearly interpolated node voltage at time *t*."""
        return float(np.interp(t, self.times, self.voltage(node)))

    def crossings(self, node: str, threshold: float,
                  direction: int | None = None) -> list[float]:
        """Times where a node crosses *threshold* (interpolated).

        Args:
            direction: +1 rising only, -1 falling only, None both.
        """
        t = self.times
        v = self.voltage(node)
        above = v >= threshold
        flips = np.nonzero(above[1:] != above[:-1])[0]
        out: list[float] = []
        for i in flips:
            rising = not above[i]
            if direction == 1 and not rising:
                continue
            if direction == -1 and rising:
                continue
            dv = v[i + 1] - v[i]
            if dv == 0.0:  # pragma: no cover - flat flip impossible
                continue
            out.append(float(t[i] + (threshold - v[i]) / dv
                             * (t[i + 1] - t[i])))
        return out


def transient_analysis(circuit: Circuit, t_stop: float,
                       options: TransientOptions | None = None,
                       system: MnaSystem | None = None) -> TransientResult:
    """Run an adaptive transient simulation from the DC operating point.

    Args:
        circuit: the netlist to simulate.
        t_stop: end time, seconds.
        options: integrator options (defaults are tuned for the 15 nm
            workloads of this study).
        system: pre-compiled MNA system (avoids recompilation in sweeps).

    Returns:
        A :class:`TransientResult` with every accepted time point.

    Raises:
        ParameterError: for a non-finite *t_stop* (an infinite window
            would step forever).
    """
    if not math.isfinite(t_stop):
        raise ParameterError(f"t_stop must be finite, got {t_stop!r}")
    if options is None:
        options = TransientOptions()
    if system is None:
        system = MnaSystem(circuit)
    n = system.n

    x = dc_operating_point(system, t=0.0)
    vdot = np.zeros(n)

    breakpoints = system.breakpoints(t_stop)
    times = [0.0]
    solutions = [x[:n].copy()]

    t = 0.0
    dt = options.dt_initial
    force_be = False  # one BE step after each discontinuity
    tol = options.reltol * options.v_scale
    newton_failures = 0
    rejected = 0
    steps = 0

    while t < t_stop - 1e-24:
        # --- clip the step to the next breakpoint / end time ---------
        dt = min(dt, options.dt_max, t_stop - t)
        idx = bisect.bisect_right(breakpoints, t + 1e-24)
        hit_breakpoint = False
        if idx < len(breakpoints):
            gap = breakpoints[idx] - t
            if dt >= gap - 1e-24:
                dt = gap
                hit_breakpoint = True

        method = "be" if (force_be or options.method == "be") else "trap"
        t_new = t + dt
        v_prev = x[:n]

        def step_residual(x_new: np.ndarray, h=dt, tn=t_new, m=method):
            residual, jacobian = system.static_residual_jacobian(x_new, tn)
            if m == "be":
                residual[:n] += system.c @ ((x_new[:n] - v_prev) / h)
                jacobian[:n, :n] += system.c / h
            else:
                residual[:n] += system.c @ (
                    2.0 * (x_new[:n] - v_prev) / h - vdot)
                jacobian[:n, :n] += 2.0 * system.c / h
            return residual, jacobian

        try:
            x_new = newton_solve(step_residual, x, n)
        except ConvergenceError:
            newton_failures += 1
            dt *= 0.25
            if dt < options.dt_min:
                raise SimulationError(
                    f"transient stalled at t = {t:.3e} s (Newton)")
            force_be = True
            continue

        # --- local error estimate via the explicit predictor ---------
        v_new = x_new[:n]
        predicted = v_prev + vdot * dt
        error = float(np.max(np.abs(v_new - predicted)))
        if error > 10.0 * tol and dt > options.dt_min and \
                not hit_breakpoint and dt > 2.0 * options.dt_min:
            rejected += 1
            dt = max(options.dt_min, dt * 0.4)
            continue

        # --- accept ---------------------------------------------------
        if method == "be":
            vdot = (v_new - v_prev) / dt
        else:
            vdot = 2.0 * (v_new - v_prev) / dt - vdot
        x = x_new
        t = t_new
        steps += 1
        times.append(t)
        solutions.append(v_new.copy())

        if hit_breakpoint:
            dt = options.dt_initial
            force_be = True
        else:
            force_be = False
            if error > 0.0:
                factor = 0.85 * math.sqrt(tol / error)
                dt = dt * min(2.5, max(0.3, factor))
            else:
                dt = dt * 2.5

    result_times = np.array(times)
    result_voltages = np.array(solutions)
    if options.store_every > 1:
        keep = np.arange(0, len(times), options.store_every)
        if keep[-1] != len(times) - 1:
            keep = np.append(keep, len(times) - 1)
        result_times = result_times[keep]
        result_voltages = result_voltages[keep]

    return TransientResult(
        times=result_times,
        voltages=result_voltages,
        node_index=dict(system.node_index),
        statistics={
            "steps": float(steps),
            "rejected": float(rejected),
            "newton_failures": float(newton_failures),
        },
    )
