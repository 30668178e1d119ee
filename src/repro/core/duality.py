"""NAND2 delay model via the CMOS mirror duality (extension).

The paper's hybrid model is formulated for a NOR gate, but CMOS duality
extends it to the NAND gate for free: mirroring every voltage around
``Vth = VDD/2`` (``V → VDD − V``) maps the NOR's RC network onto a
NAND's —

* the series pMOS stack (R1 from the rail, R2 to the output, internal
  node N with C_N) becomes the NAND's series *nMOS* stack (internal
  node M),
* the parallel nMOS pair (R3, R4) becomes the parallel *pMOS* pair,
* rising and falling output transitions swap roles, and every input
  edge inverts.

Because the logic threshold ``VDD/2`` is the fixed point of the mirror,
input threshold-crossing times — and therefore the separation
``Δ = t_B − t_A`` — are preserved.  The NAND delay functions are the
NOR ones with directions swapped and the internal-node initial value
mirrored:

.. math::
    δ^{NAND}_↓(Δ; V_M(0) = X) &= δ^{NOR}_↑(Δ; V_N(0) = VDD − X) \\\\
    δ^{NAND}_↑(Δ)             &= δ^{NOR}_↓(Δ)

The NAND's MIS landscape follows: a *rising* speed-up from the parallel
pMOS pair, and a *falling* slow-down / order dependence from the series
nMOS stack — mirrored Fig. 2 (verified against the analog NAND2 cell in
the test-suite).  The paper's worst case ``V_N = GND`` maps to
``V_M = VDD``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .charlie import CharacteristicDelays, MisCurve
from .hybrid_model import HybridNorModel
from .parameters import NorGateParameters

__all__ = ["HybridNandModel", "mirror_voltage"]


def mirror_voltage(value, vdd):
    """``VDD − V``: a NAND stack-node voltage in the mirrored NOR frame.

    *value* and *vdd* are floats or per-lane arrays.  A value outside
    ``[0, VDD]`` (NaN included) raises :class:`ParameterError`: the
    mirror would hand the NOR a stack voltage beyond its rails.
    """
    inside = np.logical_and(np.greater_equal(value, 0.0),
                            np.less_equal(value, vdd))
    if not inside.all():
        bad = np.broadcast_to(value, inside.shape)[~inside][0]
        raise ParameterError(
            f"node voltage {float(bad)!r} outside [0, VDD]")
    return vdd - value


class HybridNandModel:
    """MIS-aware delay model of a 2-input CMOS NAND gate.

    Args:
        params: electrical parameters with the *mirrored* reading:
            ``r1`` is the rail-side series nMOS (gate A), ``r2`` the
            output-side series nMOS (gate B), ``r3``/``r4`` the parallel
            pMOS, ``cn`` the capacitance of the internal stack node M.
    """

    def __init__(self, params: NorGateParameters):
        self.params = params
        self._nor = HybridNorModel(params)

    @property
    def nor_model(self) -> HybridNorModel:
        """The underlying mirrored NOR model."""
        return self._nor

    def _nor_state(self, vm_init: float | None) -> float:
        """The NOR-frame ``V_N`` of a ``V_M`` (``None``: worst case)."""
        vdd = self.params.vdd
        return mirror_voltage(vdd if vm_init is None else vm_init, vdd)

    # ------------------------------------------------------------------
    # delays
    # ------------------------------------------------------------------

    def delay_falling(self, delta: float,
                      vm_init: float | None = None) -> float:
        """NAND falling-output MIS delay (both inputs rise).

        Args:
            delta: input separation ``t_B − t_A``.
            vm_init: initial internal stack-node voltage ``V_M`` while
                the gate rested with both inputs low; defaults to the
                worst case ``VDD`` (mirror of the paper's ``V_N = GND``).
        """
        return self._nor.delay_rising(delta, self._nor_state(vm_init))

    def delay_rising(self, delta: float) -> float:
        """NAND rising-output MIS delay (both inputs fall)."""
        return self._nor.delay_falling(delta)

    def delay_rising_zero(self) -> float:
        """Exact rising MIS delay — the mirror of paper eq. (8)."""
        return self._nor.delay_falling_zero()

    def delay_rising_minus_inf(self) -> float:
        """Exact SIS rising delay — the mirror of paper eq. (9)."""
        return self._nor.delay_falling_minus_inf()

    def delay_rising_plus_inf(self) -> float:
        return self._nor.delay_falling_plus_inf()

    def delay_falling_minus_inf(self) -> float:
        return self._nor.delay_rising_minus_inf()

    def delay_falling_plus_inf(self) -> float:
        return self._nor.delay_rising_plus_inf()

    # ------------------------------------------------------------------
    # curves and characteristics
    # ------------------------------------------------------------------

    def rising_curve(self, deltas, engine=None) -> MisCurve:
        """Rising MIS curve — exhibits the parallel-pair speed-up."""
        deltas = np.asarray(deltas, dtype=float)
        delays = self._nor.delays_falling(deltas, engine=engine)
        return MisCurve.from_arrays(deltas, delays, "rising",
                                    label="hybrid NAND model")

    def falling_curve(self, deltas, vm_init: float | None = None,
                      engine=None) -> MisCurve:
        """Falling MIS curve — exhibits the series-stack asymmetry."""
        deltas = np.asarray(deltas, dtype=float)
        delays = self._nor.delays_rising(deltas, self._nor_state(vm_init),
                                         engine=engine)
        return MisCurve.from_arrays(deltas, delays, "falling",
                                    label="hybrid NAND model")

    def characteristic_rising(self) -> CharacteristicDelays:
        return self._nor.characteristic_falling()

    def characteristic_falling(self,
                               vm_init: float | None = None
                               ) -> CharacteristicDelays:
        return self._nor.characteristic_rising(self._nor_state(vm_init))
