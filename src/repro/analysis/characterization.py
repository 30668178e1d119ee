"""MIS characterization of the analog NOR gate (paper Section II).

Runs the analog reference simulator over a sweep of input separation
times ``Δ = t_B − t_A`` and extracts the MIS delay curves

* ``δ↓_S(Δ) = t_O − min(t_A, t_B)`` for falling output transitions
  (both inputs rise), and
* ``δ↑_S(Δ) = t_O − max(t_A, t_B)`` for rising output transitions
  (both inputs fall),

reproducing the data behind the paper's Fig. 2 (and the golden curves in
Figs. 5, 6 and 8).  :func:`mis_delay` measures a NOR or NAND cell of
any width the same way, from one Δ or a vector of sibling offsets, so
the NAND2 mirror and the NOR3/NOR4 reference need no code of their own.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..core.charlie import CharacteristicDelays, MisCurve
from ..core.parametrization import CharacteristicTargets
from ..errors import ParameterError
from ..spice.measure import crossing_after
from ..spice.technology import TechnologyCard, build_gate
from ..spice.transient import (TransientOptions, TransientResult,
                               transient_analysis)
from ..spice.waveforms import EdgeTrain
from ..units import PS

__all__ = [
    "DEFAULT_DELTAS",
    "SIS_SEPARATION",
    "NorCharacterization",
    "toggle_sis_delays",
    "mis_waveforms",
    "mis_delay",
    "characterize_direction",
    "characterize_nor",
    "characterize_model",
]

#: Default Δ sweep (seconds) — the paper's Fig. 2 range.
DEFAULT_DELTAS = tuple(float(d) * PS for d in
                       (-60, -45, -30, -20, -12, -6, 0, 6, 12, 20, 30,
                        45, 60))

#: Separation treated as "single input switching" (|Δ| = ∞ in the paper).
SIS_SEPARATION = 400.0 * PS

#: Settling margin before the first input edge.
_LEAD_TIME = 250.0 * PS
#: Post-crossing margin in the simulation window.
_TAIL_TIME = 300.0 * PS
#: Time the toggle protocol lets the gate settle between the rising
#: and the falling edge of the toggled input.
_TOGGLE_DWELL = 1000.0 * PS


def mis_waveforms(tech: TechnologyCard, gate: str, deltas,
                  direction: str,
                  options: TransientOptions | None = None,
                  output_load: float | None = None
                  ) -> tuple[TransientResult, tuple[float, ...]]:
    """Simulate one MIS event on the analog NOR or NAND cell.

    Args:
        tech: technology card.
        gate: ``'nor'`` or ``'nand'``.
        deltas: one ``Δ = t_B − t_A``, or the ``n − 1`` sibling
            offsets ``Δ_j = t_j − t_0`` of an n-input cell, seconds;
            NaN and ±inf are rejected before anything is simulated.
        direction: ``'falling'`` (inputs rise) or ``'rising'``
            (inputs fall) output transition.
        options: transient options override.
        output_load: output load override.

    Returns:
        ``(result, times)`` — waveforms plus the input threshold
        crossing times, input 0 first.
    """
    if direction not in ("falling", "rising"):
        raise ParameterError("direction must be 'falling' or 'rising'")
    if np.ndim(deltas) > 1 or np.size(deltas) == 0:
        raise ParameterError("deltas must be one Δ or a vector of "
                             "sibling offsets")
    offsets = [float(d) for d in np.ravel(deltas)]
    if not all(math.isfinite(d) for d in offsets):
        raise ParameterError(f"input offsets must be finite, got {offsets}")
    t_0 = _LEAD_TIME + max(0.0, -min(offsets)) + tech.input_edge_time
    times = (t_0, *(t_0 + d for d in offsets))
    level = 1 if direction == "falling" else 0
    waves = [EdgeTrain([(t, level)], tech.vdd, tech.input_edge_time,
                       initial=1 - level) for t in times]
    circuit = build_gate(tech, gate, waves, output_load=output_load)
    result = transient_analysis(circuit, max(times) + _TAIL_TIME,
                                options or TransientOptions(v_scale=tech.vdd))
    return result, times


def mis_delay(tech: TechnologyCard, gate: str, deltas, direction: str,
              options: TransientOptions | None = None,
              output_load: float | None = None) -> float:
    """Single MIS gate delay of the analog cell (paper's δ_S).

    A transition through the parallel network (NOR falling, NAND
    rising) is referenced to the *earliest* input, one through the
    series stack (NOR rising, NAND falling) to the *latest*, per
    Section II and its CMOS mirror.  *deltas* is one Δ or the n − 1
    sibling offsets (see :func:`mis_waveforms`).
    """
    result, times = mis_waveforms(tech, gate, deltas, direction,
                                  options, output_load)
    parallel = (gate == "nor") == (direction == "falling")
    reference = min(times) if parallel else max(times)
    edge = -1 if direction == "falling" else +1
    search_from = min(times) - 2.0 * tech.input_edge_time
    t_out = crossing_after(result, "o", tech.vth, search_from, edge)
    return t_out - reference


def characterize_direction(tech: TechnologyCard, direction: str,
                           deltas=DEFAULT_DELTAS,
                           options: TransientOptions | None = None,
                           output_load: float | None = None) -> MisCurve:
    """Sweep Δ and return the analog MIS delay curve."""
    deltas = sorted(float(d) for d in deltas)
    delays = [mis_delay(tech, "nor", d, direction, options, output_load)
              for d in deltas]
    return MisCurve.from_arrays(deltas, delays, direction,
                                label=f"analog ({tech.name})")


def toggle_sis_delays(tech: TechnologyCard, input_name: str,
                      options: TransientOptions | None = None,
                      output_load: float | None = None
                      ) -> tuple[float, float]:
    """SIS delays via the *toggle* protocol (state-history aware).

    Starting from the ``(0, 0)`` resting state, one input rises, the
    gate settles for 1 ns, then the same input falls.  Unlike the
    Δ-protocol (which parks the gate in (1,1) before rising
    transitions), this visits the internal-node states a gate actually
    sees in single-input traces — e.g. the p-stack node parking at
    ``|Vt_p|`` instead of GND after a ``(0,0) → (1,0)`` history.  The
    difference is a real switching-history effect the ideal-switch
    model cannot represent (paper Sections II and IV).

    Returns:
        ``(falling_delay, rising_delay)`` for the toggled input.
    """
    if input_name not in ("a", "b"):
        raise ParameterError("input_name must be 'a' or 'b'")
    t_up = _LEAD_TIME + tech.input_edge_time
    t_down = t_up + _TOGGLE_DWELL
    toggled = EdgeTrain([(t_up, 1), (t_down, 0)], tech.vdd,
                        tech.input_edge_time)
    waves = (toggled, 0.0) if input_name == "a" else (0.0, toggled)
    circuit = build_gate(tech, "nor", waves, output_load=output_load)
    result = transient_analysis(circuit, t_down + _TAIL_TIME,
                                options or TransientOptions(v_scale=tech.vdd))
    t_fall = crossing_after(result, "o", tech.vth,
                            t_up - tech.input_edge_time, -1)
    t_rise = crossing_after(result, "o", tech.vth,
                            t_down - tech.input_edge_time, +1)
    return (t_fall - t_up, t_rise - t_down)


@dataclasses.dataclass(frozen=True)
class NorCharacterization:
    """Full MIS characterization of one NOR gate (Fig. 2 content).

    Attributes:
        falling: ``δ↓_S(Δ)`` curve.
        rising: ``δ↑_S(Δ)`` curve.
        sis_falling / sis_rising: characteristic triples measured with
            the paper's Δ-protocol (``Δ = ±SIS_SEPARATION`` and
            ``Δ = 0``).
        sis_falling_toggle / sis_rising_toggle: characteristic triples
            from the toggle protocol (see :func:`toggle_sis_delays`);
            the MIS value ``zero`` of the falling triple still comes
            from the Δ-protocol (it requires both inputs to switch).
        tech_name: technology card used.
        vdd: supply voltage.
    """

    falling: MisCurve
    rising: MisCurve
    sis_falling: CharacteristicDelays
    sis_rising: CharacteristicDelays
    sis_falling_toggle: CharacteristicDelays
    sis_rising_toggle: CharacteristicDelays
    tech_name: str
    vdd: float

    @property
    def targets(self) -> CharacteristicTargets:
        """Δ-protocol fitting targets.

        The rising MIS value is replaced by ``δ↑(−∞)``: with the
        paper's worst-case convention ``V_N(0) = GND`` the model
        satisfies ``δ↑(0) ≡ δ↑(−∞)`` identically, and the analog peak
        is exactly what it cannot express (Section IV) — feeding the
        peak to the optimizer would just corrupt the SIS match.
        """
        rising = CharacteristicDelays(
            minus_inf=self.sis_rising.minus_inf,
            zero=self.sis_rising.minus_inf,
            plus_inf=self.sis_rising.plus_inf,
        )
        return CharacteristicTargets(falling=self.sis_falling,
                                     rising=rising, vdd=self.vdd)

    @property
    def targets_toggle(self) -> CharacteristicTargets:
        """Toggle-protocol fitting targets (trace-representative).

        This is the "empirically optimal parametrization" route the
        paper mentions for Section VI: SIS values measured with the
        switching histories that dominate random traces.
        """
        rising = CharacteristicDelays(
            minus_inf=self.sis_rising_toggle.minus_inf,
            zero=self.sis_rising_toggle.minus_inf,
            plus_inf=self.sis_rising_toggle.plus_inf,
        )
        return CharacteristicTargets(falling=self.sis_falling_toggle,
                                     rising=rising, vdd=self.vdd)

    @property
    def falling_mis_percent(self) -> tuple[float, float]:
        """Fig. 2b annotations: δ↓(0) vs δ↓(−∞) and vs δ↓(∞), percent."""
        return (self.sis_falling.mis_effect_vs_minus_inf,
                self.sis_falling.mis_effect_vs_plus_inf)

    @property
    def rising_peak_percent(self) -> tuple[float, float]:
        """Fig. 2d annotations: peak vs δ↑(−∞) and vs δ↑(∞), percent."""
        peak = max(self.rising.delays)
        return (100.0 * (peak / self.sis_rising.minus_inf - 1.0),
                100.0 * (peak / self.sis_rising.plus_inf - 1.0))


def characterize_model(params, deltas=DEFAULT_DELTAS,
                       vn_init: float = 0.0,
                       engine=None) -> NorCharacterization:
    """Characterize the *hybrid model* itself through a delay engine.

    The engine-evaluated counterpart of :func:`characterize_nor`: the
    Δ sweep, the ``Δ = ±∞`` SIS limits and the ``Δ = 0`` MIS values
    are all computed in one batched call per direction, so a dense
    characterization costs milliseconds instead of an analog sweep.

    The ideal-switch model is history-free, therefore the toggle-
    protocol triples coincide with the Δ-protocol triples (the real
    gate's switching-history effect is exactly what the model cannot
    represent — paper Sections II and IV).

    Args:
        params: :class:`~repro.core.parameters.NorGateParameters`.
        deltas: sweep grid, seconds.
        vn_init: internal-node voltage ``X`` for rising transitions.
        engine: evaluation backend (name, instance, or ``None`` for
            the vectorized default).
    """
    from ..core.hybrid_model import HybridNorModel
    from ..engine import get_engine

    backend = get_engine(engine)
    model = HybridNorModel(params)
    grid = np.sort(np.asarray(deltas, dtype=float))
    falling = model.falling_curve(grid, engine=backend)
    rising = model.rising_curve(grid, vn_init, engine=backend)

    probes = np.array([-np.inf, 0.0, np.inf])
    fall_probe = backend.delays_falling(params, probes)
    rise_probe = backend.delays_rising(params, probes, vn_init)
    sis_falling = CharacteristicDelays(*map(float, fall_probe))
    sis_rising = CharacteristicDelays(*map(float, rise_probe))

    return NorCharacterization(
        falling=falling,
        rising=rising,
        sis_falling=sis_falling,
        sis_rising=sis_rising,
        sis_falling_toggle=sis_falling,
        sis_rising_toggle=sis_rising,
        tech_name=f"hybrid model/{backend.name}",
        vdd=params.vdd,
    )


def characterize_nor(tech: TechnologyCard,
                     deltas=DEFAULT_DELTAS,
                     options: TransientOptions | None = None,
                     output_load: float | None = None
                     ) -> NorCharacterization:
    """Characterize a NOR gate in both output directions (Fig. 2).

    The SIS values are measured separately at ``Δ = ±SIS_SEPARATION``
    so the sweep grid itself can stay narrow.
    """
    falling = characterize_direction(tech, "falling", deltas, options,
                                     output_load)
    rising = characterize_direction(tech, "rising", deltas, options,
                                    output_load)

    def triple(direction: str) -> CharacteristicDelays:
        minus, zero, plus = (
            mis_delay(tech, "nor", delta, direction, options, output_load)
            for delta in (-SIS_SEPARATION, 0.0, SIS_SEPARATION))
        return CharacteristicDelays(minus_inf=minus, zero=zero,
                                    plus_inf=plus)

    sis_falling = triple("falling")
    fall_a, rise_a = toggle_sis_delays(tech, "a", options, output_load)
    fall_b, rise_b = toggle_sis_delays(tech, "b", options, output_load)

    return NorCharacterization(
        falling=falling,
        rising=rising,
        sis_falling=sis_falling,
        sis_rising=triple("rising"),
        sis_falling_toggle=CharacteristicDelays(
            minus_inf=fall_b, zero=sis_falling.zero, plus_inf=fall_a),
        sis_rising_toggle=CharacteristicDelays(
            minus_inf=rise_a, zero=rise_a, plus_inf=rise_b),
        tech_name=tech.name,
        vdd=tech.vdd,
    )
