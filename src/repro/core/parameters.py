"""Parameters of the hybrid NOR-gate model.

The hybrid model of the paper (Fig. 1) abstracts the four transistors of a
CMOS NOR gate into ideal switches with on-resistances ``R1``–``R4`` and two
capacitances: ``CN`` at the internal node *N* between the series pMOS pair
and ``CO`` at the output *O*.

Mapping between resistors and transistors (paper Fig. 1):

====  ==========  =======================================================
name  transistor  role
====  ==========  =======================================================
R1    T1 (pMOS)   connects N to VDD when input A is low
R2    T2 (pMOS)   connects O to N when input B is low
R3    T3 (nMOS)   drains O to GND when input A is high
R4    T4 (nMOS)   drains O to GND when input B is high
====  ==========  =======================================================

``delta_min`` is the pure delay the paper adds in Section V in order to make
the characteristic delays fittable; it defers every mode switch by a fixed
amount, equivalently it is added to every computed delay.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import ParameterError
from ..units import AF, KOHM, PS, eng_format

__all__ = ["BLOCK_DTYPE", "NorGateParameters", "PARAM_FIELDS",
           "PAPER_TABLE_I", "PAPER_DELTA_MIN"]

#: Field order of a sample block — the constructor order of
#: :class:`NorGateParameters`.
PARAM_FIELDS = ("r1", "r2", "r3", "r4", "cn", "co", "vdd",
                "delta_min")

#: Structured dtype of a sample block (one record per parameter set,
#: one float64 per parameter); see :mod:`repro.engine.blocks`.
BLOCK_DTYPE = np.dtype([(name, np.float64) for name in PARAM_FIELDS])


@dataclasses.dataclass(frozen=True)
class NorGateParameters:
    """Electrical parameters of the hybrid NOR model (SI units).

    Parameters
    ----------
    r1 : float
        On-resistance of pMOS T1 (VDD -> N path), ohms.
    r2 : float
        On-resistance of pMOS T2 (N -> O path), ohms.
    r3 : float
        On-resistance of nMOS T3 (O -> GND path, input A), ohms.
    r4 : float
        On-resistance of nMOS T4 (O -> GND path, input B), ohms.
    cn : float
        Capacitance at the internal node N, farads.
    co : float
        Capacitance at the output node O, farads.
    vdd : float, optional
        Supply voltage, volts (default 0.8).
    delta_min : float, optional
        Pure delay applied to every mode switch, seconds
        (default 0.0; paper Section V).
    """

    r1: float
    r2: float
    r3: float
    r4: float
    cn: float
    co: float
    vdd: float = 0.8
    delta_min: float = 0.0

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "r3", "r4", "cn", "co", "vdd"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ParameterError(f"{name} must be positive and finite, "
                                     f"got {value!r}")
        if not math.isfinite(self.delta_min) or self.delta_min < 0.0:
            raise ParameterError(f"delta_min must be non-negative, got "
                                 f"{self.delta_min!r}")

    @property
    def vth(self) -> float:
        """Discretization threshold voltage, ``VDD / 2`` in the paper."""
        return self.vdd / 2.0

    # ------------------------------------------------------------------
    # Characteristic time constants (used all over the closed forms).
    # ------------------------------------------------------------------

    @property
    def tau_parallel(self) -> float:
        """Time constant of mode (1,1): ``CO * (R3 || R4)``."""
        return self.co * self.r3 * self.r4 / (self.r3 + self.r4)

    @property
    def tau_r3(self) -> float:
        """Time constant ``CO * R3`` (single nMOS T3 draining the output)."""
        return self.co * self.r3

    @property
    def tau_r4(self) -> float:
        """Time constant ``CO * R4`` (single nMOS T4 draining the output)."""
        return self.co * self.r4

    @property
    def tau_n_charge(self) -> float:
        """Time constant ``CN * R1`` of charging node N in mode (0,1)."""
        return self.cn * self.r1

    # ------------------------------------------------------------------

    def replace(self, **changes: float) -> "NorGateParameters":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def without_delta_min(self) -> "NorGateParameters":
        """Return a copy with the pure delay removed (``delta_min = 0``)."""
        return self.replace(delta_min=0.0)

    def as_dict(self) -> dict[str, float]:
        """Return the parameters as a plain dictionary."""
        return dataclasses.asdict(self)

    def describe(self) -> str:
        """Human-readable multi-line description (Table I style)."""
        rows = [
            ("R1", eng_format(self.r1, "Ohm")),
            ("R2", eng_format(self.r2, "Ohm")),
            ("R3", eng_format(self.r3, "Ohm")),
            ("R4", eng_format(self.r4, "Ohm")),
            ("CN", eng_format(self.cn, "F")),
            ("CO", eng_format(self.co, "F")),
            ("VDD", eng_format(self.vdd, "V")),
            ("delta_min", eng_format(self.delta_min, "s")),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def finite_voltage(value, name: str):
    """An initial node voltage as a float, or per-record voltages as a
    float array, NaN and ``±inf`` rejected.

    The rising-direction entry points of every backend check their
    ``vn_init`` / ``internal_init`` with this, so a non-finite value
    fails the same way everywhere, with the same message for a shared
    value and for the first bad one of a per-record array, instead of
    surfacing as a missed crossing or a NaN delay.

    Raises
    ------
    ParameterError
        If any value is NaN or infinite.
    """
    if np.ndim(value) == 0:
        volts = float(value)
        bad = () if math.isfinite(volts) else (volts,)
    else:
        volts = np.asarray(value, dtype=float)
        bad = volts[~np.isfinite(volts)]
    if len(bad):
        raise ParameterError(
            f"{name} must be finite, got {float(bad[0])!r}")
    return volts


def check_node_voltage(value, vdd) -> None:
    """Reject a stack-node voltage outside ``[0, VDD]``.

    *value* and *vdd* are floats or per-lane arrays.  A node between
    the rails holds no other voltage, and the closed forms would
    return a delay for one anyway, so every entry point that takes a
    node voltage (a NOR ``V_N`` or chain voltage, a NAND ``V_M``
    through :func:`~repro.core.duality.mirror_voltage`) checks it
    here.

    Raises
    ------
    ParameterError
        If any value lies outside ``[0, VDD]`` (NaN included).
    """
    inside = np.logical_and(np.greater_equal(value, 0.0),
                            np.less_equal(value, vdd))
    if not inside.all():
        bad = np.broadcast_to(value, inside.shape)[~inside][0]
        raise ParameterError(
            f"node voltage {float(bad)!r} outside [0, VDD]")


#: Pure delay the paper empirically determined in Section V.
PAPER_DELTA_MIN = 18.0 * PS

#: The empirically obtained parameter values of the paper's Table I
#: (15 nm technology, VDD = 0.8 V), including the 18 ps pure delay.
PAPER_TABLE_I = NorGateParameters(
    r1=37.088 * KOHM,
    r2=44.926 * KOHM,
    r3=45.150 * KOHM,
    r4=48.761 * KOHM,
    cn=59.486 * AF,
    co=617.259 * AF,
    vdd=0.8,
    delta_min=PAPER_DELTA_MIN,
)
