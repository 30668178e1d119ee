"""The four ODE modes of the hybrid NOR model (paper Section III).

For each input state ``(A, B)`` the NOR gate's RC abstraction yields a
first-order linear ODE system with constant coefficients

.. math::  V'(t) = A \\cdot V(t) + g, \\qquad V = (V_N, V_O)^T

where :math:`V_N` is the voltage of the internal node between the two
series pMOS transistors and :math:`V_O` the output voltage.

This module builds the system matrices, their eigen-decompositions in the
exact closed forms of the paper's equations (1)–(7), and the equilibria.
The actual trajectory evaluation lives in :mod:`repro.core.solutions`.

Mode conventions
----------------
A mode is identified by the *logical* input pair ``(a, b)``; ``a = 1``
means input A is above ``Vth``.  The resulting switch states are

* nMOS T3 conducting iff ``a == 1``; nMOS T4 conducting iff ``b == 1``;
* pMOS T1 conducting iff ``a == 0``; pMOS T2 conducting iff ``b == 0``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math

import numpy as np

from ..errors import ParameterError
from .parameters import NorGateParameters

__all__ = [
    "Mode",
    "EigenPair",
    "CoupledModeConstants",
    "ModeSystem",
    "coupled_00",
    "coupled_10",
    "mode_system",
    "mode_10_constants",
    "mode_00_constants",
    "all_mode_systems",
]


class Mode(enum.Enum):
    """Input state ``(A, B)`` of the NOR gate, each 0 or 1."""

    BOTH_LOW = (0, 0)
    A_LOW_B_HIGH = (0, 1)
    A_HIGH_B_LOW = (1, 0)
    BOTH_HIGH = (1, 1)

    @classmethod
    def from_inputs(cls, a: int, b: int) -> "Mode":
        """Return the mode for logical input values ``a`` and ``b``."""
        try:
            return cls((int(bool(a)), int(bool(b))))
        except ValueError as exc:  # pragma: no cover - defensive
            raise ParameterError(f"invalid input state ({a}, {b})") from exc

    @property
    def a(self) -> int:
        """Logical value of input A in this mode."""
        return self.value[0]

    @property
    def b(self) -> int:
        """Logical value of input B in this mode."""
        return self.value[1]

    @property
    def nor_output(self) -> int:
        """Steady-state logical NOR output for this input state."""
        return int(not (self.a or self.b))

    def with_a(self, a: int) -> "Mode":
        """Return the mode reached when input A switches to ``a``."""
        return Mode.from_inputs(a, self.b)

    def with_b(self, b: int) -> "Mode":
        """Return the mode reached when input B switches to ``b``."""
        return Mode.from_inputs(self.a, b)

    def resting_state(self, vdd: float) -> tuple[float, float]:
        """``(V_N, V_O)`` of a gate at rest in this mode, volts.

        Both nodes sit at VDD in (0, 0); N at VDD and O at GND in
        (0, 1); both at GND in (1, 0).  In (1, 1) N floats and the
        paper's worst case, GND, is taken.
        """
        if self is Mode.BOTH_LOW:
            return (vdd, vdd)
        if self is Mode.A_LOW_B_HIGH:
            return (vdd, 0.0)
        return (0.0, 0.0)

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


@dataclasses.dataclass(frozen=True)
class EigenPair:
    """One eigenvalue and its (unnormalized) eigenvector."""

    eigenvalue: float
    eigenvector: tuple[float, float]


@dataclasses.dataclass(frozen=True)
class CoupledModeConstants:
    """The closed-form constants α, β, γ, λ₁, λ₂ of a coupled mode.

    These are exactly the quantities of the paper's equations (1)–(3)
    (mode ``(1, 0)``) and (4)–(7) (mode ``(0, 0)``).  The eigenvectors are
    ``(1/(CN*R2), α + β)`` for λ₁ and ``(1/(CN*R2), α − β)`` for λ₂.
    """

    alpha: float
    beta: float
    gamma: float
    lambda1: float
    lambda2: float
    #: first eigenvector component, ``1 / (CN * R2)``.
    vn_component: float

    @property
    def eigenpairs(self) -> tuple[EigenPair, EigenPair]:
        """Both eigen-pairs, λ₁ (slow/fast per sign of β) first."""
        return (
            EigenPair(self.lambda1,
                      (self.vn_component, self.alpha + self.beta)),
            EigenPair(self.lambda2,
                      (self.vn_component, self.alpha - self.beta)),
        )


def coupled_10(r2, r3, cn, co) -> tuple:
    """α, β, γ of mode ``(1, 0)`` — paper equations (1), (2), (3) — of
    one parameter set, or elementwise over arrays of them.

    In mode (1,0) the pMOS T2 connects N to O and the nMOS T3 drains O, so
    both capacitances discharge through the shared resistor R3.  The
    radicand is ``(CO·R3 − CN·R2)² + CN·R3·(CN·R3 + 2·CO·R3 + 2·CN·R2)``,
    a sum of squares.
    """
    denom = 2.0 * co * cn * r2 * r3
    total = co * r3 + cn * (r2 + r3)
    alpha = (co * r3 - cn * (r2 + r3)) / denom
    beta = np.sqrt(total * total - 4.0 * co * cn * r2 * r3) / denom
    return alpha, beta, -total / denom


def coupled_00(r1, r2, cn, co) -> tuple:
    """α, β, γ of mode ``(0, 0)`` — paper equations (4), (5), (6), (7) —
    of one parameter set, or elementwise over arrays of them.

    In mode (0,0) both pMOS conduct: N charges from VDD through R1 and O
    charges from N through R2.  The radicand is ``(CN·R1 − CO·R2)² +
    CO·R1·(CO·R1 + 2·CN·R1 + 2·CO·R2)``, a sum of squares.
    """
    denom = 2.0 * co * cn * r1 * r2
    total = cn * r1 + co * (r1 + r2)
    alpha = (co * (r1 + r2) - cn * r1) / denom
    beta = np.sqrt(total * total - 4.0 * co * cn * r1 * r2) / denom
    return alpha, beta, -total / denom


def _coupled_constants(alpha, beta, gamma,
                       params: NorGateParameters) -> CoupledModeConstants:
    beta = float(beta)
    return CoupledModeConstants(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        lambda1=gamma + beta,
        lambda2=gamma - beta,
        vn_component=1.0 / (params.cn * params.r2),
    )


@functools.lru_cache(maxsize=256)
def mode_10_constants(params: NorGateParameters) -> CoupledModeConstants:
    """Constants of mode ``(1, 0)`` (:func:`coupled_10`)."""
    return _coupled_constants(
        *coupled_10(params.r2, params.r3, params.cn, params.co), params)


@functools.lru_cache(maxsize=256)
def mode_00_constants(params: NorGateParameters) -> CoupledModeConstants:
    """Constants of mode ``(0, 0)`` (:func:`coupled_00`)."""
    return _coupled_constants(
        *coupled_00(params.r1, params.r2, params.cn, params.co), params)


@dataclasses.dataclass(frozen=True)
class ModeSystem:
    """One mode's linear system ``V' = A V + g`` plus derived data."""

    mode: Mode
    matrix: np.ndarray
    forcing: np.ndarray
    equilibrium: np.ndarray
    constants: CoupledModeConstants | None

    def derivative(self, state: np.ndarray) -> np.ndarray:
        """Evaluate ``V' = A V + g`` at the given state."""
        return self.matrix @ np.asarray(state, dtype=float) + self.forcing


def mode_system(mode: Mode, params: NorGateParameters) -> ModeSystem:
    """Build the ODE system of *mode* for the given parameters.

    The four systems correspond to the paper's Sections III-B through
    III-E and Fig. 3:

    * ``(1, 1)``: both nMOS drain O in parallel; N is isolated.
    * ``(1, 0)``: T2 couples N to O; both discharge through R3.
    * ``(0, 1)``: N charges from VDD through R1; O drains through R4.
    * ``(0, 0)``: N and O charge from VDD through R1 (and R2).
    """
    r1, r2, r3, r4 = params.r1, params.r2, params.r3, params.r4
    cn, co = params.cn, params.co
    vdd = params.vdd

    if mode is Mode.BOTH_HIGH:  # (1, 1) -- paper Section III-B
        matrix = np.array([
            [0.0, 0.0],
            [0.0, -(1.0 / (co * r3) + 1.0 / (co * r4))],
        ])
        forcing = np.zeros(2)
        # VN keeps its value; equilibrium VN is state-dependent, we record
        # the VO equilibrium only (VN entry is NaN on purpose).
        equilibrium = np.array([math.nan, 0.0])
        constants = None
    elif mode is Mode.A_HIGH_B_LOW:  # (1, 0) -- paper Section III-C
        matrix = np.array([
            [-1.0 / (cn * r2), 1.0 / (cn * r2)],
            [1.0 / (co * r2), -(1.0 / (co * r2) + 1.0 / (co * r3))],
        ])
        forcing = np.zeros(2)
        equilibrium = np.zeros(2)
        constants = mode_10_constants(params)
    elif mode is Mode.A_LOW_B_HIGH:  # (0, 1) -- paper Section III-D
        matrix = np.array([
            [-1.0 / (cn * r1), 0.0],
            [0.0, -1.0 / (co * r4)],
        ])
        forcing = np.array([vdd / (cn * r1), 0.0])
        equilibrium = np.array([vdd, 0.0])
        constants = None
    elif mode is Mode.BOTH_LOW:  # (0, 0) -- paper Section III-E
        matrix = np.array([
            [-(1.0 / (cn * r1) + 1.0 / (cn * r2)), 1.0 / (cn * r2)],
            [1.0 / (co * r2), -1.0 / (co * r2)],
        ])
        forcing = np.array([vdd / (cn * r1), 0.0])
        equilibrium = np.array([vdd, vdd])
        constants = mode_00_constants(params)
    else:  # pragma: no cover - exhaustive enum
        raise ParameterError(f"unknown mode {mode!r}")

    return ModeSystem(mode=mode, matrix=matrix, forcing=forcing,
                      equilibrium=equilibrium, constants=constants)


def all_mode_systems(params: NorGateParameters) -> dict[Mode, ModeSystem]:
    """Build the systems of all four modes."""
    return {mode: mode_system(mode, params) for mode in Mode}
