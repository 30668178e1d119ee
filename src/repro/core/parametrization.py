"""Parametrization of the hybrid model (paper Section V).

Given the six characteristic Charlie delays of a real gate —
``δ↓(−∞), δ↓(0), δ↓(∞)`` for falling and ``δ↑(−∞), δ↑(0), δ↑(∞)`` for
rising output transitions — find resistances ``R1..R4`` and capacitances
``C_N, C_O`` such that the hybrid model reproduces them.

The paper's central observation: because the two nMOS drain the output in
parallel, the model forces

.. math:: \\frac{δ↓(−∞) − δ_{min}}{δ↓(0) − δ_{min}} = \\frac{R3+R4}{R3}
          \\approx 2

(for the physically required ``R3 ≈ R4``), while real gates exhibit a
much smaller ratio (≈ 38 ps / 28 ps in the paper's 15 nm NOR).  The fix
is a *pure delay* ``δ_min`` subtracted from all characteristic values
before fitting.  Requiring the effective ratio to be exactly 2 yields

.. math:: δ_{min} = 2 δ↓(0) − δ↓(−∞)

which for the paper's measurements gives ``2·28 − 38 = 18 ps`` — exactly
the value the paper reports.  :func:`infer_delta_min` implements this.

The actual fit is a bounded nonlinear least-squares over the logarithms
of the six electrical parameters, with closed-form seeding for
``R3, R4, C_O`` from eqs. (8)–(9).  Because ``δ↑(0)|X=0 = δ↑(−∞)`` holds
identically in the model, only five of the six targets are independent
and the solution manifold is one-dimensional; callers can pin ``C_O``
(usually known: it is the gate's output load) to make the fit unique.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import FittingError, ParameterError
from ..units import KOHM, to_ps
from .charlie import CharacteristicDelays
from .hybrid_model import HybridNorModel
from .parameters import NorGateParameters

__all__ = [
    "CharacteristicTargets",
    "FitResult",
    "infer_delta_min",
    "falling_ratio",
    "falling_feasible_without_pure_delay",
    "seed_parameters",
    "fit_nor_parameters",
]

#: Maximal ratio (R3+R4)/R3 achievable with R4 <= R3 ... R4 ~ R3.
_MODEL_RATIO_LIMIT = 2.0
#: Relative spread of plausible R3 / R4 on-resistances around each
#: other, for :func:`falling_feasible_without_pure_delay`.
_RESISTANCE_TOLERANCE = 0.25


@dataclasses.dataclass(frozen=True)
class CharacteristicTargets:
    """The six characteristic delays a parametrization should match.

    Parameters
    ----------
    falling : CharacteristicDelays
        ``δ↓(−∞), δ↓(0), δ↓(∞)`` in seconds.
    rising : CharacteristicDelays
        ``δ↑(−∞), δ↑(0), δ↑(∞)`` in seconds.  ``rising.zero`` is
        understood as measured with the worst-case initial
        internal-node voltage ``X = GND``, matching the paper's
        Section VI choice.
    vdd : float, optional
        Supply voltage in volts (default 0.8).
    """

    falling: CharacteristicDelays
    rising: CharacteristicDelays
    vdd: float = 0.8

    def shifted(self, delta: float) -> "CharacteristicTargets":
        """All six targets shifted by *delta* (pure-delay removal)."""
        return CharacteristicTargets(
            falling=self.falling.shifted(delta),
            rising=self.rising.shifted(delta),
            vdd=self.vdd,
        )

    def as_array(self) -> np.ndarray:
        """``[δ↓(−∞), δ↓(0), δ↓(∞), δ↑(−∞), δ↑(0), δ↑(∞)]``."""
        return np.array(self.falling.as_tuple() + self.rising.as_tuple())


def falling_ratio(falling: CharacteristicDelays,
                  delta_min: float = 0.0) -> float:
    """Effective ratio ``(δ↓(−∞) − δ_min) / (δ↓(0) − δ_min)``."""
    denominator = falling.zero - delta_min
    if denominator <= 0.0:
        raise FittingError("delta_min exceeds the MIS delay δ↓(0)")
    return (falling.minus_inf - delta_min) / denominator


def falling_feasible_without_pure_delay(
        falling: CharacteristicDelays) -> bool:
    """Can the falling Charlie values be fit with plausible R3 ≈ R4?

    The model requires ``δ↓(−∞)/δ↓(0) = (R3+R4)/R3``; with on-resistances
    within ``(1 ± 0.25)`` of each other, the reachable ratio band is
    ``[1.75, 2.25]`` (approximately).  Real 15 nm
    measurements give ≈ 1.36, far below the band — the paper's
    impossibility observation.
    """
    ratio = falling_ratio(falling, 0.0)
    return abs(ratio - _MODEL_RATIO_LIMIT) <= _RESISTANCE_TOLERANCE


def infer_delta_min(falling: CharacteristicDelays) -> float:
    """The pure delay that makes the effective falling ratio exactly 2.

    Solves ``(δ↓(−∞) − δmin) / (δ↓(0) − δmin) = 2`` for ``δmin``:

    .. math:: δ_{min} = 2 δ↓(0) − δ↓(−∞)

    For the paper's measurements (38 ps, 28 ps) this yields 18 ps — the
    value used throughout the paper.

    Parameters
    ----------
    falling : CharacteristicDelays
        Measured falling characteristic delays in seconds.

    Returns
    -------
    float
        The inferred pure delay ``δ_min`` in seconds.

    Raises
    ------
    FittingError
        If the targets already have ratio >= 2 (no pure delay
        needed) or are internally inconsistent.
    """
    delta_min = 2.0 * falling.zero - falling.minus_inf
    if delta_min < 0.0:
        raise FittingError(
            "targets already have ratio >= 2; no pure delay needed "
            f"(computed δ_min = {to_ps(delta_min):.2f} ps)")
    if delta_min >= falling.zero:
        raise FittingError("inferred δ_min exceeds δ↓(0); targets are "
                           "inconsistent")  # pragma: no cover - paranoid
    return delta_min


def seed_parameters(targets: CharacteristicTargets, delta_min: float,
                    co: float | None = None,
                    r_scale: float = 45.0 * KOHM) -> NorGateParameters:
    """Closed-form starting point for the least-squares fit.

    ``R4`` and ``R3`` follow from eqs. (9) and (8) once ``C_O`` is chosen;
    ``C_O`` itself is either given (it is the known output load) or set so
    that ``R4 == r_scale``.  ``R1`` and ``C_N`` are seeded from the rising
    SIS delay ``δ↑(∞)``: entering mode (0,0) with ``V_N = VDD``, the
    output charges roughly through ``R1 + R2`` — we use the single-pole
    estimate ``δ↑(∞) ≈ ln 2 · C_O (R1 + R2)`` with ``R2 = r_scale``.
    """
    effective = targets.shifted(-delta_min)
    t_minus = effective.falling.minus_inf
    t_zero = effective.falling.zero
    if t_minus <= 0.0 or t_zero <= 0.0:
        raise FittingError("effective falling targets must be positive")

    if co is None:
        co = t_minus / (math.log(2.0) * r_scale)
    r4 = t_minus / (math.log(2.0) * co)
    parallel = t_zero / (math.log(2.0) * co)
    if parallel >= r4:
        raise FittingError("δ↓(0) must be smaller than δ↓(−∞)")
    r3 = 1.0 / (1.0 / parallel - 1.0 / r4)

    r2 = r_scale
    r1 = max(effective.rising.plus_inf / (math.log(2.0) * co) - r2,
             0.1 * r_scale)
    cn = 0.1 * co  # parasitic node is small compared to the load
    return NorGateParameters(r1=r1, r2=r2, r3=r3, r4=r4, cn=cn, co=co,
                             vdd=targets.vdd, delta_min=delta_min)


@dataclasses.dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit_nor_parameters`.

    Attributes:
        params: the fitted :class:`NorGateParameters` (δ_min included).
        targets: the characteristic values that were fitted.
        achieved: the model's characteristic values at the optimum.
        cost: final least-squares cost (residuals in ps).
        success: optimizer status flag.
    """

    params: NorGateParameters
    targets: CharacteristicTargets
    achieved: CharacteristicTargets
    cost: float
    success: bool

    @property
    def max_error(self) -> float:
        """Largest |achieved − target| over the six values, seconds."""
        return float(np.max(np.abs(self.achieved.as_array()
                                   - self.targets.as_array())))

    def table(self) -> list[tuple[str, float, float]]:
        """``(name, target_ps, achieved_ps)`` rows for reporting."""
        names = ["falling(-inf)", "falling(0)", "falling(+inf)",
                 "rising(-inf)", "rising(0)", "rising(+inf)"]
        return [(name, to_ps(t), to_ps(a))
                for name, t, a in zip(names, self.targets.as_array(),
                                      self.achieved.as_array())]


def _model_characteristics(params: NorGateParameters
                           ) -> CharacteristicTargets:
    model = HybridNorModel(params)
    return CharacteristicTargets(
        falling=model.characteristic_falling(),
        rising=model.characteristic_rising(vn_init=0.0),
        vdd=params.vdd,
    )


def fit_nor_parameters(targets: CharacteristicTargets,
                       delta_min: float | None = None,
                       co: float | None = None,
                       seed: NorGateParameters | None = None,
                       weights: np.ndarray | None = None,
                       regularization: float = 0.3,
                       max_nfev: int = 200) -> FitResult:
    """Least-squares fit of the hybrid model to characteristic delays.

    Parameters
    ----------
    targets : CharacteristicTargets
        Six characteristic delays in seconds (with pure delay
        *included*, i.e. as measured).
    delta_min : float, optional
        Pure delay in seconds; ``None`` infers it from the falling
        values via :func:`infer_delta_min` (paper Section V
        procedure).
    co : float, optional
        Pin the output capacitance to this value in farads
        (recommended: the fit manifold is otherwise
        one-dimensional).
    seed : NorGateParameters, optional
        Explicit starting point.
    weights : numpy.ndarray, optional
        Per-target weights (length 6).
    regularization : float, optional
        Weight of a gentle log-space pull towards the seed.  Because
        ``δ↑(0)|X=0 ≡ δ↑(−∞)`` the target set leaves flat directions
        in parameter space; the prior pins those without noticeably
        degrading the target match (the seed is the closed-form
        solution of eqs. (8)–(9)).  Set to 0 to disable.
    max_nfev : int, optional
        Function-evaluation budget of the optimizer.

    Returns
    -------
    FitResult
        Fitted parameters plus achieved-vs-target bookkeeping.

    Raises
    ------
    FittingError
        If the optimizer fails badly.
    """
    from scipy.optimize import least_squares
    if delta_min is None:
        delta_min = infer_delta_min(targets.falling)

    if seed is None:
        seed = seed_parameters(targets, delta_min, co=co)
    if weights is None:
        weights = np.ones(6)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (6,):
        raise ParameterError("weights must have shape (6,)")
    if regularization < 0.0:
        raise ParameterError("regularization must be >= 0")

    target_ps = targets.as_array() / 1e-12

    fit_co = co is None
    names = ["r1", "r2", "r3", "r4", "cn"] + (["co"] if fit_co else [])
    x0 = np.log([getattr(seed, name) for name in names])

    def unpack(log_values: np.ndarray) -> NorGateParameters:
        values = dict(zip(names, np.exp(log_values)))
        if not fit_co:
            values["co"] = co
        return NorGateParameters(vdd=targets.vdd, delta_min=delta_min,
                                 **values)

    def residuals(log_values: np.ndarray) -> np.ndarray:
        prior = regularization * (log_values - x0)
        try:
            params = unpack(log_values)
            achieved = _model_characteristics(params)
        except (ParameterError, FloatingPointError):
            return np.concatenate([np.full(6, 1e6), prior])
        res = (achieved.as_array() / 1e-12 - target_ps) * weights
        return np.concatenate([res, prior])

    solution = least_squares(residuals, x0, method="lm", xtol=1e-14,
                             ftol=1e-14, max_nfev=max_nfev)

    params = unpack(solution.x)
    achieved = _model_characteristics(params)
    result = FitResult(
        params=params,
        targets=targets,
        achieved=achieved,
        cost=float(solution.cost),
        success=bool(solution.success),
    )
    if not math.isfinite(result.cost):
        raise FittingError("least-squares fit diverged")
    return result
