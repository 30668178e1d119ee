"""Tests for repro.spice.waveforms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.spice.waveforms import Dc, EdgeTrain, Pwl
from repro.units import PS


class TestDc:
    def test_constant(self):
        wave = Dc(0.8)
        assert wave(0.0) == 0.8
        assert wave(1e-9) == 0.8

    def test_no_breakpoints(self):
        assert Dc(1.0).breakpoints() == []

    def test_sample(self):
        values = Dc(0.5).sample([0.0, 1.0, 2.0])
        assert np.allclose(values, 0.5)


class TestPwl:
    def test_interpolation(self):
        wave = Pwl([(0.0, 0.0), (1.0, 1.0)])
        assert wave(0.5) == pytest.approx(0.5)
        assert wave(0.25) == pytest.approx(0.25)

    def test_holds_outside_range(self):
        wave = Pwl([(1.0, 0.2), (2.0, 0.9)])
        assert wave(0.0) == 0.2
        assert wave(3.0) == 0.9

    def test_breakpoints(self):
        wave = Pwl([(1.0, 0.0), (2.0, 1.0), (3.0, 0.5)])
        assert wave.breakpoints() == [1.0, 2.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            Pwl([])

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ParameterError):
            Pwl([(1.0, 0.0), (1.0, 1.0)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_time_rejected(self, bad):
        # Regression: NaN compares False in the monotonicity check,
        # so a NaN time used to slip through and corrupt the
        # integrator's breakpoint snapping.
        with pytest.raises(ParameterError, match="time must be finite"):
            Pwl([(0.0, 0.0), (bad, 1.0)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ParameterError,
                           match="value must be finite"):
            Pwl([(0.0, 0.0), (1.0, bad)])

    def test_single_point(self):
        wave = Pwl([(1.0, 0.7)])
        assert wave(0.0) == 0.7
        assert wave(2.0) == 0.7

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_within_segment_bounds(self, t):
        wave = Pwl([(0.0, 0.2), (1.0, 0.8)])
        assert 0.2 <= wave(t) <= 0.8


class TestEdgeTrain:
    def test_crossing_at_transition_time(self):
        """The Vth crossing happens exactly at the transition time."""
        wave = EdgeTrain([(100 * PS, 1)], vdd=0.8, edge_time=20 * PS)
        assert wave(100 * PS) == pytest.approx(0.4)

    def test_rails_before_and_after(self):
        wave = EdgeTrain([(100 * PS, 1)], vdd=0.8, edge_time=20 * PS)
        assert wave(0.0) == 0.0
        assert wave(89 * PS) == 0.0
        assert wave(111 * PS) == pytest.approx(0.8)

    def test_falling_edge(self):
        wave = EdgeTrain([(100 * PS, 0)], vdd=0.8, edge_time=20 * PS,
                         initial=1)
        assert wave(0.0) == 0.8
        assert wave(100 * PS) == pytest.approx(0.4)
        assert wave(200 * PS) == pytest.approx(0.0)

    def test_initial_inferred(self):
        wave = EdgeTrain([(100 * PS, 0)], vdd=0.8, edge_time=20 * PS)
        assert wave.initial == 1

    def test_monotone_within_edge(self):
        wave = EdgeTrain([(100 * PS, 1)], vdd=0.8, edge_time=20 * PS)
        times = np.linspace(90 * PS, 110 * PS, 41)
        values = wave.sample(times)
        assert np.all(np.diff(values) >= 0.0)

    def test_linear_shape(self):
        wave = EdgeTrain([(100 * PS, 1)], vdd=0.8, edge_time=20 * PS,
                         shape="linear")
        assert wave(95 * PS) == pytest.approx(0.2)
        assert wave(105 * PS) == pytest.approx(0.6)

    def test_raised_cosine_is_smooth_at_ends(self):
        wave = EdgeTrain([(100 * PS, 1)], vdd=0.8, edge_time=20 * PS)
        h = 0.01 * PS
        slope_start = (wave(90 * PS + h) - wave(90 * PS - h)) / (2 * h)
        assert abs(slope_start) < 0.8 / (20 * PS) * 0.01

    def test_pulse(self):
        wave = EdgeTrain([(100 * PS, 1), (200 * PS, 0)], vdd=0.8,
                         edge_time=20 * PS)
        assert wave(150 * PS) == pytest.approx(0.8)
        assert wave(300 * PS) == pytest.approx(0.0)

    def test_overlapping_edges_stay_continuous(self):
        """Runt pulses: the second edge takes over mid-swing."""
        wave = EdgeTrain([(100 * PS, 1), (105 * PS, 0)], vdd=0.8,
                         edge_time=20 * PS)
        times = np.linspace(80 * PS, 130 * PS, 200)
        values = wave.sample(times)
        assert np.all(np.abs(np.diff(values)) < 0.05)
        assert max(values) < 0.8  # the runt never reaches the rail

    def test_breakpoints(self):
        wave = EdgeTrain([(100 * PS, 1)], vdd=0.8, edge_time=20 * PS)
        assert wave.breakpoints() == pytest.approx(
            [90 * PS, 100 * PS, 110 * PS])

    def test_empty_train_is_constant(self):
        wave = EdgeTrain([], vdd=0.8, edge_time=20 * PS, initial=1)
        assert wave(0.0) == 0.8
        assert wave(1e-9) == 0.8

    def test_bad_edge_time(self):
        with pytest.raises(ParameterError):
            EdgeTrain([], vdd=0.8, edge_time=0.0)

    def test_bad_shape(self):
        with pytest.raises(ParameterError):
            EdgeTrain([], vdd=0.8, edge_time=1e-12, shape="square")

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ParameterError):
            EdgeTrain([(1e-10, 1), (1e-10, 0)], vdd=0.8,
                      edge_time=1e-12)

    @pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, time):
        """NaN passes the increasing-times check (every comparison
        with NaN is false); a transient over it used to burn its
        Newton budget and raise ConvergenceError."""
        with pytest.raises(ParameterError, match="finite"):
            EdgeTrain([(time, 1)], vdd=0.8, edge_time=60 * PS)
        with pytest.raises(ParameterError, match="finite"):
            EdgeTrain([(100 * PS, 1), (time, 0)], vdd=0.8,
                      edge_time=60 * PS)

    @pytest.mark.parametrize("edge_time", [np.nan, np.inf])
    def test_non_finite_edge_time_rejected(self, edge_time):
        with pytest.raises(ParameterError, match="edge_time"):
            EdgeTrain([(100 * PS, 1)], vdd=0.8, edge_time=edge_time)

    @given(st.integers(min_value=0, max_value=1))
    def test_values_bounded_by_rails(self, initial):
        wave = EdgeTrain([(100 * PS, 1 - initial)], vdd=0.8,
                         edge_time=30 * PS, initial=initial)
        values = wave.sample(np.linspace(0, 300 * PS, 100))
        assert np.all(values >= -1e-12)
        assert np.all(values <= 0.8 + 1e-12)
