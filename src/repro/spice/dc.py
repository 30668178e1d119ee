"""DC operating point and the shared Newton–Raphson solver.

The Newton solver is used by both the DC analysis (capacitors open) and
every implicit transient step.  It applies per-iteration voltage step
limiting — the classic SPICE damping heuristic that keeps the square-law
MOSFET model from overshooting into absurd operating points — plus a
gmin-stepping fallback for stubborn operating points.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..errors import ConvergenceError
from .mna import MnaSystem

__all__ = ["newton_solve", "dc_operating_point"]

#: Largest allowed voltage change per Newton iteration, volts.
MAX_VOLTAGE_STEP = 0.5
#: Newton convergence threshold on the voltage update, volts.
_VOLTAGE_TOLERANCE = 1e-9
#: Newton convergence threshold on the KCL residual, amperes.
_CURRENT_TOLERANCE = 1e-12


def newton_solve(residual_jacobian: Callable[[np.ndarray],
                                             tuple[np.ndarray, np.ndarray]],
                 x0: np.ndarray,
                 n_voltage: int,
                 max_iterations: int = 60) -> np.ndarray:
    """Damped Newton–Raphson for ``f(x) = 0``.

    Args:
        residual_jacobian: callable returning ``(f, J)`` at a point.
        x0: starting point (not modified).
        n_voltage: number of leading entries of ``x`` that are node
            voltages (step limiting applies only to those).
        max_iterations: iteration budget.

    Returns:
        The converged solution vector.

    Raises:
        ConvergenceError: no convergence within the budget, or a
            singular Jacobian.
    """
    x = np.array(x0, dtype=float)
    last_update = np.inf
    for iteration in range(1, max_iterations + 1):
        residual, jacobian = residual_jacobian(x)
        try:
            delta = np.linalg.solve(jacobian, -residual)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Jacobian in Newton solve",
                                   iterations=iteration) from exc
        v_step = delta[:n_voltage]
        worst = float(np.max(np.abs(v_step))) if n_voltage else 0.0
        if worst > MAX_VOLTAGE_STEP:
            delta = delta * (MAX_VOLTAGE_STEP / worst)
            worst = MAX_VOLTAGE_STEP
        x = x + delta
        last_update = worst
        residual_norm = float(np.max(np.abs(residual[:n_voltage]))) \
            if n_voltage else float(np.max(np.abs(residual)))
        if worst < _VOLTAGE_TOLERANCE and residual_norm < (
                _CURRENT_TOLERANCE * max(
                    1.0, float(np.max(np.abs(x[:n_voltage]))) if n_voltage
                    else 1.0)):
            return x
        if worst < _VOLTAGE_TOLERANCE and iteration >= 2:
            # Voltage settled; accept even if tiny residual noise remains.
            return x
    raise ConvergenceError(
        f"Newton did not converge in {max_iterations} iterations "
        f"(last voltage update {last_update:.3e} V)",
        iterations=max_iterations, residual=last_update)


def dc_operating_point(system: MnaSystem, t: float = 0.0,
                       x0: np.ndarray | None = None) -> np.ndarray:
    """DC operating point (capacitors open) at source time *t*.

    Tries a plain Newton solve first, then falls back to gmin stepping:
    the solve is repeated with a large artificial conductance to ground
    that is reduced geometrically, re-using each solution as the next
    start point.
    """
    if x0 is None:
        x0 = np.zeros(system.size)

    def plain(x: np.ndarray):
        return system.static_residual_jacobian(x, t)

    try:
        return newton_solve(plain, x0, system.n)
    except ConvergenceError:
        pass

    x = np.array(x0, dtype=float)
    for gshunt in (1e-3, 1e-5, 1e-7, 1e-9, 1e-12, 0.0):
        def stepped(xx: np.ndarray, g=gshunt):
            residual, jacobian = system.static_residual_jacobian(xx, t)
            residual[:system.n] += g * xx[:system.n]
            jacobian[:system.n, :system.n] += g * np.eye(system.n)
            return residual, jacobian

        x = newton_solve(stepped, x, system.n, max_iterations=120)
    return x
