"""Closed-form characteristic Charlie delays — paper equations (8)–(12).

The paper derives, by inverting the per-mode trajectories, exact or
approximate expressions for the six characteristic delays
``δ↓(−∞), δ↓(0), δ↓(∞), δ↑(−∞), δ↑(0), δ↑(∞)``:

* eq. (8): exact ``δ↓(0)   = ln 2 · CO · R3·R4/(R3+R4)``
* eq. (9): exact ``δ↓(−∞)  = ln 2 · CO · R4``
* eq. (10)–(12): one Newton step (first-order Taylor) of the closed-form
  two-exponential trajectory, taken at a probe time ``w``.

Two deliberate deviations from the printed paper:

1. The paper prints the literal constants ``0.6`` and ``0.3`` where the
   derivation requires ``VDD/2`` and ``VDD/4``; the printed values
   correspond to the authors' 65 nm library (``VDD = 1.2 V``).  We
   implement the VDD-general form; at ``VDD = 1.2 V`` it reproduces the
   printed constants exactly (tested).
2. Eq. (12) uses an undeclared symbol ``D``; dimensional analysis against
   eqs. (1)–(3) identifies ``D = C_N``.

Both the *literal* paper parametrization (global-time coefficients
``c^Δ₁, c^Δ₂`` with the helper constants ``l, a, b``) and a streamlined
local-time form are implemented; the test-suite proves them equal.  The
default probe is chosen automatically from the dominant eigenmode, which
keeps the one-step approximation accurate for any technology; the paper's
hard-coded probes (``w = 1e-10`` / ``2e-10`` s) are available as
constants.
"""

from __future__ import annotations

import dataclasses
import math

from ..errors import NoCrossingError, ParameterError
from .modes import Mode, mode_00_constants, mode_10_constants
from .parameters import NorGateParameters
from .solutions import ExpSum, solve_mode

__all__ = [
    "PAPER_PROBE_FALLING",
    "PAPER_PROBE_RISING_POS",
    "PAPER_PROBE_RISING_NEG",
    "delta_falling_zero",
    "delta_falling_minus_inf",
    "delta_falling_plus_inf",
    "delta_rising",
    "newton_step_crossing",
    "Mode00PaperConstants",
    "mode_00_paper_constants",
]

#: Probe times hard-coded in the paper (suited to the 65 nm library).
PAPER_PROBE_FALLING = 1e-10        # eq. (10): w = 10^-10 s
PAPER_PROBE_RISING_POS = 2e-10     # eq. (11): w = 2*10^-10 s
PAPER_PROBE_RISING_NEG = 1e-10     # eq. (12): w = 10^-10 s


# ----------------------------------------------------------------------
# Exact formulas, eqs. (8) and (9)
# ----------------------------------------------------------------------

def delta_falling_zero(params: NorGateParameters,
                       include_delta_min: bool = True) -> float:
    """Exact ``δ↓(0)`` — paper eq. (8).

    With both nMOS draining the output in parallel from ``VDD``, the
    output is a single exponential with time constant ``CO·(R3 || R4)``;
    it halves after ``ln 2`` time constants.
    """
    value = math.log(2.0) * params.tau_parallel
    if include_delta_min:
        value += params.delta_min
    return value


def delta_falling_minus_inf(params: NorGateParameters,
                            include_delta_min: bool = True) -> float:
    """Exact ``δ↓(−∞)`` — paper eq. (9).

    Input B alone (mode (0,1)) drains the output through R4 only.
    """
    value = math.log(2.0) * params.tau_r4
    if include_delta_min:
        value += params.delta_min
    return value


# ----------------------------------------------------------------------
# Newton-step machinery for the two-exponential cases
# ----------------------------------------------------------------------

def newton_step_crossing(expsum: ExpSum, threshold: float,
                         probe: float) -> float:
    """One Newton iteration for ``expsum(t) = threshold`` from ``probe``.

    This is the first-order Taylor inversion used by paper eqs.
    (10)–(12)::

        d = [threshold - f(w) + w f'(w)] / f'(w)

    Args:
        expsum: the trajectory to invert.
        threshold: target value (``Vth`` in the paper).
        probe: linearization time ``w``.
    """
    value = expsum(probe)
    slope = expsum.derivative()(probe)
    if slope == 0.0:
        raise NoCrossingError("flat trajectory at the probe point")
    return probe + (threshold - value) / slope


def _auto_probe(expsum: ExpSum, threshold: float) -> float:
    """Probe time from the dominant (slowest) eigenmode.

    Solves ``K0 + K_slow * exp(λ_slow t) = threshold`` exactly; by the
    time of the crossing the fast mode has decayed, so one Newton step
    from here is accurate to high order.
    """
    if not expsum.coeffs:
        raise NoCrossingError("constant trajectory has no crossing")
    slow_index = max(range(len(expsum.rates)),
                     key=lambda i: expsum.rates[i])
    k_slow = expsum.coeffs[slow_index]
    rate = expsum.rates[slow_index]
    argument = (threshold - expsum.offset) / k_slow
    if argument <= 0.0 or rate == 0.0:
        # Dominant term alone cannot reach the threshold; fall back to
        # one time constant of the dominant mode.
        return 1.0 / abs(rate) if rate != 0.0 else 0.0
    return math.log(argument) / rate


def _approx_crossing(expsum: ExpSum, threshold: float,
                     probe: float | None) -> float:
    """Newton-step crossing with automatic probe selection.

    With an explicit *probe* this is the paper's literal one-step form.
    In automatic mode the step is iterated twice more from the
    dominant-mode probe — still closed-form evaluations only, but
    robust in degenerate corners where the crossing nearly coincides
    with the mode switch (far outside the regime eqs. (10)–(12) were
    derived for).
    """
    if probe is not None:
        return newton_step_crossing(expsum, threshold, probe)
    t = _auto_probe(expsum, threshold)
    for _ in range(3):
        t = newton_step_crossing(expsum, threshold, t)
    return max(t, 0.0)


# ----------------------------------------------------------------------
# δ↓(∞) — eq. (10)
# ----------------------------------------------------------------------

def delta_falling_plus_inf(params: NorGateParameters,
                           probe: float | None = None,
                           include_delta_min: bool = True) -> float:
    """Approximate ``δ↓(∞)`` — paper eq. (10).

    Mode (1,0) entered from the resting state ``V_N = V_O = VDD``; the
    output drains through R3 while also discharging ``C_N`` through R2.
    The paper's coefficients (for mode (1,0) constants α, β, λ of eqs.
    (1)–(3)) are::

        c2 = (VDD/2) [ (α+β) C_N R2 − 1 ] / β      # '0.6' == VDD/2
        c1 = VDD C_N R2 − c2

    which is exactly the solution of the initial-value problem; we build
    the same trajectory via :func:`repro.core.solutions.solve_mode` (the
    equality is asserted in the tests) and apply the Newton step.

    Args:
        probe: linearization time ``w``; ``None`` selects it from the
            dominant eigenmode (recommended).  The paper uses ``1e-10``.
    """
    solution = solve_mode(Mode.A_HIGH_B_LOW, params, params.vdd, params.vdd)
    value = _approx_crossing(solution.vo, params.vth, probe)
    if include_delta_min:
        value += params.delta_min
    return value


def paper_c_coefficients_falling(params: NorGateParameters
                                 ) -> tuple[float, float]:
    """The literal ``(c1, c2)`` of paper eq. (10), VDD-general.

    Returned in the paper's orientation: ``c1`` multiplies the λ₁
    (``α+β``) eigensolution.
    """
    consts = mode_10_constants(params)
    alpha, beta = consts.alpha, consts.beta
    cnr2 = params.cn * params.r2
    c2 = (params.vdd / 2.0) * ((alpha + beta) * cnr2 - 1.0) / beta
    c1 = params.vdd * cnr2 - c2
    return c1, c2


# ----------------------------------------------------------------------
# δ↑(Δ) — eqs. (11) and (12)
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Mode00PaperConstants:
    """The helper constants ``l, a, b`` of paper eqs. (11)–(12).

    ``l`` is algebraically equal to ``VDD`` (the mode-(0,0) equilibrium
    output voltage) and ``a + b = VDD (1/(C_N R2) − (α+β))``; both
    identities are asserted in the tests.
    """

    l: float
    a: float
    b: float


def mode_00_paper_constants(params: NorGateParameters
                            ) -> Mode00PaperConstants:
    """Compute ``l, a, b`` literally as printed in the paper."""
    consts = mode_00_constants(params)
    alpha, beta, gamma = consts.alpha, consts.beta, consts.gamma
    vdd = params.vdd
    denom = gamma ** 2 - beta ** 2  # == λ1 λ2 == det(A) of mode (0,0)
    l = vdd * (-alpha ** 2 + beta ** 2) * params.r2 / (params.r1 * denom)
    a = vdd * (alpha + gamma) * (alpha + beta) / (params.cn * params.r1
                                                  * denom)
    b = vdd * (-alpha ** 2 + beta ** 2) / (params.cn * params.r1 * denom)
    return Mode00PaperConstants(l=l, a=a, b=b)


def vn_after_01(params: NorGateParameters, delta: float,
                vn_init: float) -> float:
    """``V_N^{(0,1)}(Δ) = VDD + (X − VDD) e^{−Δ/(C_N R1)}`` (paper §V)."""
    return params.vdd + (vn_init - params.vdd) * math.exp(
        -delta / params.tau_n_charge)


def state_after_10(params: NorGateParameters, duration: float,
                   vn_init: float) -> tuple[float, float]:
    """State ``(V_N, V_O)`` after *duration* in mode (1,0) from (X, 0).

    This is the paper's ``(V_N^{(1,0)}(Δ), V_O^{(1,0)}(Δ))`` with the
    coefficients ``g1, g2`` (the printed ``g2`` values for ``X ∈ {0,
    VDD/2, VDD}`` are the VDD = 1.2 V instantiations of the general
    ``g2 = (X/2)·C_N R2 (x+y)/y``; tested).
    """
    solution = solve_mode(Mode.A_HIGH_B_LOW, params, vn_init, 0.0)
    return solution.state_at(duration)


def paper_g_coefficients(params: NorGateParameters,
                         vn_init: float) -> tuple[float, float]:
    """The literal ``(g1, g2)`` of paper eq. (12), VDD-general."""
    consts = mode_10_constants(params)
    x, y = consts.alpha, consts.beta
    g2 = (vn_init / 2.0) * (x + y) * params.cn * params.r2 / y
    g1 = (y - x) * g2 / (x + y)
    return g1, g2


def delta_rising(params: NorGateParameters, delta: float,
                 vn_init: float = 0.0,
                 probe: float | None = None,
                 include_delta_min: bool = True) -> float:
    """Approximate ``δ↑(Δ)`` — paper eqs. (11) (Δ ≥ 0) and (12) (Δ < 0).

    The rising delay is referenced to the *later* falling input; the
    trajectory enters mode (0,0) at ``t = |Δ|`` with the state inherited
    from the intermediate mode ((0,1) for Δ ≥ 0, (1,0) for Δ < 0), and
    the delay is the mode-local crossing time of ``Vth``, approximated by
    one Newton step.

    Args:
        delta: input separation ``t_B − t_A``.
        vn_init: internal-node voltage ``X`` in the initial (1,1) mode.
        probe: linearization time ``w`` (``None`` = automatic; the paper
            uses ``2e-10`` for Δ ≥ 0 and ``1e-10`` for Δ < 0).
    """
    if math.isinf(delta):
        raise ParameterError("use a large finite Δ for the SIS limits")
    if delta >= 0.0:
        vn_entry = vn_after_01(params, delta, vn_init)
        vo_entry = 0.0
    else:
        vn_entry, vo_entry = state_after_10(params, -delta, vn_init)
    solution = solve_mode(Mode.BOTH_LOW, params, vn_entry, vo_entry)
    value = _approx_crossing(solution.vo, params.vth, probe)
    if include_delta_min:
        value += params.delta_min
    return value


def paper_c_coefficients_rising(params: NorGateParameters, delta: float,
                                vn_init: float = 0.0
                                ) -> tuple[float, float]:
    """The literal global-time ``(c^Δ₁, c^Δ₂)`` of paper eqs. (11)/(12).

    These describe the mode-(0,0) output voltage in *global* time
    (measured from the first input transition)::

        V_O(t) = l + c^Δ₁ (α+β) e^{λ₁ t} + c^Δ₂ (α−β) e^{λ₂ t},  t ≥ |Δ|

    and are related to the mode-local coefficients by division by
    ``e^{λ_i |Δ|}``.  Implemented exactly as printed (with ``D = C_N``)
    for validation against the streamlined form.
    """
    consts = mode_00_constants(params)
    alpha, beta = consts.alpha, consts.beta
    lambda1, lambda2 = consts.lambda1, consts.lambda2
    paper = mode_00_paper_constants(params)
    a, b = paper.a, paper.b
    cnr2 = params.cn * params.r2
    duration = abs(delta)

    if delta >= 0.0:
        vn = vn_after_01(params, delta, vn_init)
        drive = (alpha + beta) * vn
    else:
        vn, vo = state_after_10(params, duration, vn_init)
        drive = (alpha + beta) * vn - vo / cnr2

    c2 = (drive + a + b) * cnr2 / (2.0 * beta * math.exp(lambda2 * duration))
    # The c1 line only involves the V_N initial condition (first row of
    # the 2x2 initial-value system), exactly as printed.
    c1 = (((alpha + beta) * vn
           - (alpha + beta) / cnr2 * c2 * math.exp(lambda2 * duration)
           + a) * cnr2
          / ((alpha + beta) * math.exp(lambda1 * duration)))
    return c1, c2
