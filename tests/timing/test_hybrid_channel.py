"""Tests for the two-input hybrid NOR channel."""

import pytest

from repro.core import HybridNorModel, PAPER_TABLE_I
from repro.errors import TraceError
from repro.timing.channels import HybridNorChannel
from repro.timing.trace import DigitalTrace
from repro.units import PS


@pytest.fixture(scope="module")
def channel():
    return HybridNorChannel(PAPER_TABLE_I)


@pytest.fixture(scope="module")
def model():
    return HybridNorModel(PAPER_TABLE_I)


class TestInitialOutput:
    def test_truth_table(self, channel):
        assert channel.initial_output(0, 0) == 1
        assert channel.initial_output(0, 1) == 0
        assert channel.initial_output(1, 0) == 0
        assert channel.initial_output(1, 1) == 0

    def test_value_count_checked(self, channel):
        with pytest.raises(TraceError):
            channel.initial_output(0, 0, 0)


class TestSingleTransitions:
    def test_falling_sis_delay(self, channel, model):
        a = DigitalTrace.from_edges(0, [100 * PS])
        b = DigitalTrace.constant(0)
        out = channel.simulate(a, b)
        assert out.initial == 1
        assert out.values == (0,)
        assert out.times[0] - 100 * PS == pytest.approx(
            model.delay_falling_plus_inf(), rel=1e-9)

    def test_falling_sis_delay_b_input(self, channel, model):
        a = DigitalTrace.constant(0)
        b = DigitalTrace.from_edges(0, [100 * PS])
        out = channel.simulate(a, b)
        assert out.times[0] - 100 * PS == pytest.approx(
            model.delay_falling_minus_inf(), rel=1e-9)

    def test_mis_falling_delay(self, channel, model):
        delta = 15 * PS
        a = DigitalTrace.from_edges(0, [200 * PS])
        b = DigitalTrace.from_edges(0, [200 * PS + delta])
        out = channel.simulate(a, b)
        assert out.times[0] - 200 * PS == pytest.approx(
            model.delay_falling(delta), rel=1e-9)

    def test_mis_rising_delay(self, channel, model):
        """Inputs fall with separation Δ after being high."""
        delta = 10 * PS
        t_a = 2000 * PS
        a = DigitalTrace.from_edges(0, [100 * PS, t_a])
        b = DigitalTrace.from_edges(0, [100 * PS + 1 * PS,
                                        t_a + delta])
        out = channel.simulate(a, b)
        assert out.values[-1] == 1
        rising = out.times[-1] - (t_a + delta)
        # VN is tracked through the whole history; after 1.9 ns in
        # (1,1) preceded by a short MIS event, VN has partially drained
        # via the (1,0)/(0,1) dwell — compare against the direct model
        # with that exact VN.
        assert rising == pytest.approx(model.delay_rising(delta,
                                                          vn_init=out_vn(
                                                              channel, a,
                                                              b, t_a)),
                                       rel=1e-6)

    def test_output_stays_low_with_stuck_high_input(self, channel):
        a = DigitalTrace.from_edges(0, [100 * PS, 300 * PS])
        b = DigitalTrace.constant(1)
        out = channel.simulate(a, b)
        assert out.initial == 0
        assert len(out) == 0


def out_vn(channel, a, b, t_query):
    """Helper: VN right when the first falling input arrives."""
    from repro.core.modes import Mode
    from repro.core.trajectory import PiecewiseTrajectory
    params = channel.params
    # Rebuild the mode schedule exactly as the channel does.
    events = sorted([(t, "a", v) for t, v in a.transitions]
                    + [(t, "b", v) for t, v in b.transitions])
    state_a, state_b = a.initial, b.initial
    switches = []
    for t, which, value in events:
        if which == "a":
            state_a = value
        else:
            state_b = value
        switches.append((t + params.delta_min,
                         Mode.from_inputs(state_a, state_b)))
    trajectory = PiecewiseTrajectory(
        params, Mode.from_inputs(a.initial, b.initial),
        (params.vdd, params.vdd), switches)
    return trajectory.vn_at(t_query + params.delta_min)


class TestGlitchBehaviour:
    def test_short_pulse_produces_nothing(self, channel):
        a = DigitalTrace.from_edges(0, [100 * PS, 103 * PS])
        b = DigitalTrace.constant(0)
        assert len(channel.simulate(a, b)) == 0

    def test_long_pulse_produces_pulse(self, channel):
        a = DigitalTrace.from_edges(0, [100 * PS, 600 * PS])
        b = DigitalTrace.constant(0)
        out = channel.simulate(a, b)
        assert out.values == (0, 1)

    def test_output_width_shrinks_with_input_width(self, channel):
        widths = []
        for w in (300, 60, 40, 30):
            a = DigitalTrace.from_edges(0, [100 * PS,
                                            (100 + w) * PS])
            out = channel.simulate(a, DigitalTrace.constant(0))
            widths.append(out.times[1] - out.times[0]
                          if len(out) == 2 else 0.0)
        assert widths == sorted(widths, reverse=True)

    def test_overlapping_pulses_on_both_inputs(self, channel):
        """Two staggered pulses keep the output low longer."""
        a = DigitalTrace.from_edges(0, [100 * PS, 300 * PS])
        b = DigitalTrace.from_edges(0, [250 * PS, 500 * PS])
        out = channel.simulate(a, b)
        assert out.values == (0, 1)
        # Recovery only after B falls at 500 ps.
        assert out.times[1] > 500 * PS


class TestValidation:
    def test_negative_times_rejected(self, channel):
        a = DigitalTrace.from_edges(0, [-5 * PS])
        with pytest.raises(TraceError):
            channel.simulate(a, DigitalTrace.constant(0))

    def test_t_max_truncates(self, channel):
        a = DigitalTrace.from_edges(0, [100 * PS])
        out = channel.simulate(a, DigitalTrace.constant(0),
                               t_max=50 * PS)
        assert len(out) == 0

    def test_without_delta_min_is_faster(self):
        fast = HybridNorChannel(PAPER_TABLE_I.without_delta_min())
        slow = HybridNorChannel(PAPER_TABLE_I)
        a = DigitalTrace.from_edges(0, [100 * PS])
        b = DigitalTrace.constant(0)
        t_fast = fast.simulate(a, b).times[0]
        t_slow = slow.simulate(a, b).times[0]
        assert t_slow - t_fast == pytest.approx(18 * PS, rel=1e-9)
