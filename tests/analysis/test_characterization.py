"""Tests for repro.analysis.characterization (uses the shared cache)."""

import math

import pytest

from repro.analysis import characterization
from repro.analysis.characterization import (SIS_SEPARATION, mis_delay,
                                             mis_waveforms,
                                             toggle_sis_delays)
from repro.errors import ParameterError
from repro.spice.technology import FINFET15
from repro.units import PS


class TestSingleMisMeasurements:
    def test_direction_validation(self, fast_transient_options):
        with pytest.raises(ParameterError):
            mis_delay(FINFET15, "nor", 0.0, "diagonal",
                      fast_transient_options)

    def test_waveforms_return_input_times(self, fast_transient_options):
        result, (t_a, t_b) = mis_waveforms(FINFET15, "nor", 10 * PS,
                                           "falling",
                                           fast_transient_options)
        assert t_b - t_a == pytest.approx(10 * PS)
        assert result.value_at("a", 0.0) == pytest.approx(0.0,
                                                          abs=1e-3)

    def test_negative_delta_keeps_first_edge_late(
            self, fast_transient_options):
        _result, (t_a, t_b) = mis_waveforms(FINFET15, "nor", -100 * PS,
                                            "rising",
                                            fast_transient_options)
        assert min(t_a, t_b) > 200 * PS

    def test_sibling_offsets_anchor_input_zero(
            self, fast_transient_options):
        _result, times = mis_waveforms(FINFET15, "nor",
                                       (-30 * PS, 20 * PS), "falling",
                                       fast_transient_options)
        assert times[1] - times[0] == pytest.approx(-30 * PS)
        assert times[2] - times[0] == pytest.approx(20 * PS)
        assert min(times) > 200 * PS

    @pytest.mark.parametrize("deltas", [
        math.nan, math.inf, -math.inf, (0.0, math.nan),
        (10 * PS, math.inf)])
    def test_non_finite_offset_rejected_before_simulating(
            self, deltas, monkeypatch):
        """An infinite Δ used to hang the transient; a NaN one ended
        in a Newton failure.  Neither may reach the simulator."""
        def unreachable(*args, **kwargs):
            raise AssertionError("stamped or simulated a non-finite Δ")
        monkeypatch.setattr(characterization, "build_gate", unreachable)
        monkeypatch.setattr(characterization, "transient_analysis",
                            unreachable)
        with pytest.raises(ParameterError):
            mis_waveforms(FINFET15, "nor", deltas, "falling")
        with pytest.raises(ParameterError):
            mis_delay(FINFET15, "nand", deltas, "rising")

    @pytest.mark.parametrize("deltas", [(), ((0.0, 1e-12),)])
    def test_offset_shape_validation(self, deltas):
        with pytest.raises(ParameterError):
            mis_waveforms(FINFET15, "nor", deltas, "falling")

    def test_toggle_input_validation(self, fast_transient_options):
        with pytest.raises(ParameterError):
            toggle_sis_delays(FINFET15, "c", fast_transient_options)


class TestCharacterizationResults:
    """Structural properties of the shared coarse characterization."""

    def test_falling_is_speedup(self, characterization_cache):
        assert characterization_cache.sis_falling.is_speedup

    def test_falling_mis_magnitude_matches_paper(
            self, characterization_cache):
        mis_minus, mis_plus = \
            characterization_cache.falling_mis_percent
        # Paper: -28.01 % / -28.43 %; our substrate: about -30 %.
        assert -36.0 < mis_minus < -22.0
        assert -36.0 < mis_plus < -22.0

    def test_rising_peak_exists(self, characterization_cache):
        peak_minus, peak_plus = \
            characterization_cache.rising_peak_percent
        # Paper: +2.08 % / +7.26 %; shape requires both positive.
        assert peak_minus > 0.5
        assert peak_plus > 2.0

    def test_rising_order_dependence(self, characterization_cache):
        sis = characterization_cache.sis_rising
        assert sis.minus_inf > sis.plus_inf  # early A helps

    def test_falling_order_dependence(self, characterization_cache):
        sis = characterization_cache.sis_falling
        assert sis.plus_inf > sis.minus_inf  # T2 slows the A-first case

    def test_delay_magnitudes_in_paper_ballpark(
            self, characterization_cache):
        sis_fall = characterization_cache.sis_falling
        sis_rise = characterization_cache.sis_rising
        assert 20 * PS < sis_fall.zero < 35 * PS
        assert 30 * PS < sis_fall.minus_inf < 45 * PS
        assert 45 * PS < sis_rise.plus_inf < 65 * PS

    def test_curve_edges_close_to_sis_values(self,
                                             characterization_cache):
        ch = characterization_cache
        assert ch.falling.delays[0] == pytest.approx(
            ch.sis_falling.minus_inf, abs=1.0 * PS)
        assert ch.falling.delays[-1] == pytest.approx(
            ch.sis_falling.plus_inf, abs=1.0 * PS)

    def test_targets_use_model_consistent_rising_zero(
            self, characterization_cache):
        targets = characterization_cache.targets
        assert targets.rising.zero == targets.rising.minus_inf

    def test_toggle_targets_shape(self, characterization_cache):
        toggle = characterization_cache.targets_toggle
        # Toggle rising delays are within a few ps of each other and
        # lower than the Δ-protocol value (the parked-node effect).
        assert toggle.rising.minus_inf <= \
            characterization_cache.sis_rising.minus_inf
        assert toggle.falling.zero == \
            characterization_cache.sis_falling.zero

    def test_vdd_recorded(self, characterization_cache):
        assert characterization_cache.vdd == pytest.approx(0.8)
        assert characterization_cache.tech_name == "finfet15"


class TestModelCharacterization:
    """Engine-based characterization of the hybrid model itself."""

    @pytest.fixture(scope="class")
    def model_char(self):
        from repro.analysis.characterization import characterize_model
        from repro.core.parameters import PAPER_TABLE_I

        return characterize_model(PAPER_TABLE_I)

    def test_curves_and_triples(self, model_char):
        from repro.core.hybrid_model import HybridNorModel
        from repro.core.parameters import PAPER_TABLE_I

        model = HybridNorModel(PAPER_TABLE_I)
        assert model_char.falling.direction == "falling"
        assert model_char.sis_falling.zero == pytest.approx(
            model.delay_falling_zero(), abs=1e-12)
        assert model_char.sis_falling.minus_inf == pytest.approx(
            model.delay_falling_minus_inf(), abs=1e-12)
        assert model_char.sis_rising.plus_inf == pytest.approx(
            model.delay_rising_plus_inf(), abs=1e-12)

    def test_model_is_history_free(self, model_char):
        # Unlike the analog gate, toggle and Δ-protocol triples
        # coincide for the ideal-switch model.
        assert model_char.sis_falling_toggle == model_char.sis_falling
        assert model_char.sis_rising_toggle == model_char.sis_rising

    def test_engines_agree(self):
        from repro.analysis.characterization import characterize_model
        from repro.core.parameters import PAPER_TABLE_I

        fast = characterize_model(PAPER_TABLE_I, engine="vectorized")
        slow = characterize_model(PAPER_TABLE_I, engine="reference")
        assert fast.falling.max_abs_difference(slow.falling) <= 1e-12
        assert fast.rising.max_abs_difference(slow.rising) <= 1e-12

    def test_targets_are_fittable_containers(self, model_char):
        targets = model_char.targets
        assert targets.rising.zero == targets.rising.minus_inf
        assert targets.vdd == pytest.approx(0.8)
