"""Fig. 2 — analog MIS characterization of the NOR gate.

Regenerates the paper's Fig. 2b/2d delay-vs-Δ series on the 15 nm card
(plus the 65 nm cross-check of the paper's footnote 2) and benchmarks
the analog sweep kernel.

Paper values for comparison: falling MIS speed-up −28.01 % / −28.43 %
at Δ = 0; rising slow-down peak +2.08 % / +7.26 %; SIS delays ≈ 38 ps
(falling) and ≈ 53–55 ps (rising).
"""

from repro.analysis.characterization import (characterize_direction,
                                             mis_delay)
from repro.analysis.experiments import experiment_fig2
from repro.spice.technology import BULK65, FINFET15
from repro.units import PS, to_ps


def test_fig2_characterization(benchmark, write_result):
    """Full Fig. 2 reproduction; kernel = one falling Δ sweep."""
    deltas = tuple(float(d) * PS for d in (-60, -30, -12, 0, 12, 30, 60))

    benchmark.pedantic(
        lambda: characterize_direction(FINFET15, "falling", deltas),
        rounds=1, iterations=1)

    result = experiment_fig2(FINFET15)
    write_result("fig2_finfet15", result.text)

    ch = result.characterization
    fall_minus, fall_plus = ch.falling_mis_percent
    rise_minus, rise_plus = ch.rising_peak_percent
    benchmark.extra_info.update({
        "falling_mis_vs_minus_inf_pct": round(fall_minus, 2),
        "falling_mis_vs_plus_inf_pct": round(fall_plus, 2),
        "rising_peak_vs_minus_inf_pct": round(rise_minus, 2),
        "rising_peak_vs_plus_inf_pct": round(rise_plus, 2),
        "paper_falling_mis_pct": (-28.01, -28.43),
        "paper_rising_peak_pct": (2.08, 7.26),
    })

    # Shape assertions matching the paper's claims.
    assert ch.sis_falling.is_speedup
    assert -36.0 < fall_minus < -22.0
    assert rise_plus > 2.0
    assert ch.sis_rising.minus_inf > ch.sis_rising.plus_inf
    assert ch.sis_falling.plus_inf > ch.sis_falling.minus_inf


def test_fig2_crosscheck_65nm(benchmark, write_result):
    """Paper footnote 2: the 65 nm technology confirms the shape."""
    deltas = tuple(float(d) * PS for d in (-200, -60, 0, 60, 200))

    def kernel():
        return characterize_direction(BULK65, "falling", deltas)

    curve = benchmark.pedantic(kernel, rounds=1, iterations=1)
    ch = curve.characteristic()

    rising_zero = mis_delay(BULK65, "nor", 0.0, "rising")
    rising_sis = mis_delay(BULK65, "nor", 200 * PS, "rising")
    lines = [
        "65 nm cross-check (BULK65, VDD = 1.2 V)",
        f"falling: {ch.describe('d_fall')}",
        f"  MIS speed-up {ch.mis_effect_vs_minus_inf:+.1f} % "
        "(paper 15 nm: -28 %)",
        f"rising: d(0) = {to_ps(rising_zero):.1f} ps vs "
        f"d(+inf) = {to_ps(rising_sis):.1f} ps (slow-down "
        f"{100 * (rising_zero / rising_sis - 1):+.1f} %)",
    ]
    write_result("fig2_bulk65", "\n".join(lines))

    benchmark.extra_info["falling_mis_pct"] = round(
        ch.mis_effect_vs_minus_inf, 2)
    assert ch.is_speedup
    assert rising_zero > rising_sis  # slow-down survives the node change
    assert ch.zero > 40 * PS  # distinctly slower technology
