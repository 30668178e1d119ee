"""Tests for repro.core.multi_input — the n-input NOR generalization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.parameters import NorGateParameters

from repro.core import HybridNorModel, PAPER_TABLE_I
from repro.core.multi_input import (GeneralizedNorModel,
                                    GeneralizedNorParameters,
                                    generalized_model)
from repro.errors import NoCrossingError, ParameterError
from repro.units import PS


@pytest.fixture(scope="module")
def gen2():
    return GeneralizedNorModel(
        GeneralizedNorParameters.from_two_input(PAPER_TABLE_I))


@pytest.fixture(scope="module")
def ref2():
    return HybridNorModel(PAPER_TABLE_I)


@pytest.fixture(scope="module")
def gen3():
    return GeneralizedNorModel(GeneralizedNorParameters(
        r_pullup=(37e3, 45e3, 45e3),
        r_pulldown=(45e3, 47e3, 49e3),
        c_internal=(60e-18, 60e-18),
        co=617e-18, vdd=0.8, delta_min=18 * PS))


class TestParameters:
    def test_two_input_mapping(self):
        params = GeneralizedNorParameters.from_two_input(PAPER_TABLE_I)
        assert params.num_inputs == 2
        assert params.r_pullup == (PAPER_TABLE_I.r1, PAPER_TABLE_I.r2)
        assert params.r_pulldown == (PAPER_TABLE_I.r3,
                                     PAPER_TABLE_I.r4)
        assert params.c_internal == (PAPER_TABLE_I.cn,)
        assert params.vth == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ParameterError):
            GeneralizedNorParameters(r_pullup=(1e3,),
                                     r_pulldown=(1e3,),
                                     c_internal=(), co=1e-15)
        with pytest.raises(ParameterError):
            GeneralizedNorParameters(r_pullup=(1e3, 1e3),
                                     r_pulldown=(1e3,),
                                     c_internal=(1e-16,), co=1e-15)
        with pytest.raises(ParameterError):
            GeneralizedNorParameters(r_pullup=(1e3, 1e3),
                                     r_pulldown=(1e3, 1e3),
                                     c_internal=(1e-16, 1e-16),
                                     co=1e-15)
        with pytest.raises(ParameterError):
            GeneralizedNorParameters(r_pullup=(1e3, -1e3),
                                     r_pulldown=(1e3, 1e3),
                                     c_internal=(1e-16,), co=1e-15)


class TestTwoInputEquivalence:
    """n = 2 must reproduce the closed-form paper model exactly."""

    @pytest.mark.parametrize("delta_ps", [-400, -25, -10, 0, 10, 25,
                                          400])
    def test_falling_delays(self, gen2, ref2, delta_ps):
        delta = delta_ps * PS
        rise_a = max(0.0, -delta)
        rise_b = rise_a + delta
        gen = gen2.delay_falling([rise_a, rise_b])
        ref = ref2.delay_falling(delta)
        assert gen == pytest.approx(ref, abs=1e-5 * PS)

    @pytest.mark.parametrize("delta_ps", [-400, -15, 0, 15, 400])
    def test_rising_delays(self, gen2, ref2, delta_ps):
        delta = delta_ps * PS
        fall_a = max(0.0, -delta)
        fall_b = fall_a + delta
        gen = gen2.delay_rising([fall_a, fall_b])
        ref = ref2.delay_rising(delta, vn_init=0.0)
        assert gen == pytest.approx(ref, abs=1e-5 * PS)

    def test_crossing_stream_matches(self, gen2, ref2):
        events_a = [(100 * PS, 1), (900 * PS, 0)]
        events_b = [(130 * PS, 1), (1000 * PS, 0)]
        gen = gen2.output_crossings_for_inputs(
            [events_a, events_b], initial_inputs=[0, 0])
        ref = ref2.output_crossings_for_inputs(
            events_a, events_b, a_initial=0, b_initial=0)
        assert [v for _, v in gen] == [v for _, v in ref]
        for (tg, _), (tr, _) in zip(gen, ref):
            assert tg == pytest.approx(tr, abs=1e-5 * PS)


class TestRestingStates:
    def test_all_low_rests_at_vdd(self, gen3):
        state = gen3.resting_state([0, 0, 0])
        assert np.allclose(state, 0.8, atol=1e-9)

    def test_all_high_floats_at_worst_case(self, gen3):
        state = gen3.resting_state([1, 1, 1])
        # Internal nodes float (worst case GND); output drained.
        assert np.allclose(state, 0.0, atol=1e-9)

    def test_partial_chain_charging(self, gen3):
        # Input 3 high only: the chain through inputs 1, 2 charges the
        # first two internal nodes to VDD; the output is drained.
        state = gen3.resting_state([0, 0, 1])
        assert state[0] == pytest.approx(0.8, abs=1e-6)
        assert state[1] == pytest.approx(0.8, abs=1e-6)
        assert state[2] == pytest.approx(0.0, abs=1e-6)


class TestThreeInputMis:
    def test_simultaneous_falling_closed_form(self, gen3):
        """Triple-parallel discharge: ln 2 · CO · (R||R||R) + δ_min."""
        parallel = 1.0 / (1 / 45e3 + 1 / 47e3 + 1 / 49e3)
        expected = math.log(2.0) * 617e-18 * parallel + 18 * PS
        assert gen3.delay_falling([0.0, 0.0, 0.0]) == pytest.approx(
            expected, rel=1e-6)

    def test_mis_speedup_grows_with_switching_inputs(self, gen3):
        far = 600 * PS
        one = gen3.delay_falling([0.0, far, far])
        two = gen3.delay_falling([0.0, 0.0, far])
        three = gen3.delay_falling([0.0, 0.0, 0.0])
        assert three < two < one

    def test_rising_rail_order_dependence(self, gen3):
        """Falling the rail-side input first pre-charges the chain."""
        rail_first = gen3.delay_rising([0.0, 300 * PS, 600 * PS])
        rail_last = gen3.delay_rising([600 * PS, 300 * PS, 0.0])
        assert rail_first < rail_last

    def test_rising_simultaneous_is_worst_case(self, gen3):
        simultaneous = gen3.delay_rising([0.0, 0.0, 0.0])
        staggered = gen3.delay_rising([0.0, 300 * PS, 600 * PS])
        assert simultaneous >= staggered

    def test_three_input_slower_than_two_input_pullup(self, gen2,
                                                      gen3):
        """A taller stack charges slower (per-stage RC accumulates)."""
        rise3 = gen3.delay_rising([0.0, 0.0, 0.0])
        rise2 = gen2.delay_rising([0.0, 0.0])
        assert rise3 > rise2

    def test_internal_init_speeds_rising(self, gen3):
        worst = gen3.delay_rising([0.0, 0.0, 0.0])
        charged = gen3.delay_rising([0.0, 0.0, 0.0],
                                    internal_init=[0.8, 0.8])
        assert charged < worst


class TestValidation:
    def test_wrong_stream_count(self, gen3):
        with pytest.raises(ParameterError):
            gen3.output_crossings_for_inputs([[], []])

    def test_wrong_times_count(self, gen3):
        with pytest.raises(ParameterError):
            gen3.delay_falling([0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("direction", ["falling", "rising"])
    def test_non_finite_times_rejected(self, gen3, direction, bad):
        # NaN and ±inf times are a ParameterError, not a missed
        # crossing, and raise before any NumPy warning.
        delay = getattr(gen3, f"delay_{direction}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                delay([0.0, bad, 0.0])

    def test_negative_event_times(self, gen3):
        with pytest.raises(ParameterError):
            gen3.output_crossings_for_inputs(
                [[(-1 * PS, 1)], [], []], initial_inputs=[0, 0, 0])

    def test_stuck_high_input_blocks_output(self, gen3):
        # Input 2 held high: the output is low and stays low; the
        # rising edge on input 1 produces no crossing at all.
        crossings = gen3.output_crossings_for_inputs(
            [[(100 * PS, 1)], [], []], initial_inputs=[0, 1, 0])
        assert crossings == []

    def test_no_crossing_error_type_exported(self):
        # delay_falling/delay_rising raise NoCrossingError when the
        # requested transition cannot occur; the type is part of the
        # public error hierarchy.
        from repro.errors import ReproError
        assert issubclass(NoCrossingError, ReproError)


class TestDeltaMinDeferral:
    def test_delta_min_shifts_delay(self):
        base = GeneralizedNorParameters(
            r_pullup=(37e3, 45e3, 45e3),
            r_pulldown=(45e3, 47e3, 49e3),
            c_internal=(60e-18, 60e-18),
            co=617e-18, vdd=0.8, delta_min=0.0)
        with_dmin = GeneralizedNorParameters(
            r_pullup=base.r_pullup, r_pulldown=base.r_pulldown,
            c_internal=base.c_internal, co=base.co, vdd=base.vdd,
            delta_min=18 * PS)
        d0 = GeneralizedNorModel(base).delay_falling([0.0, 0.0, 0.0])
        d1 = GeneralizedNorModel(with_dmin).delay_falling(
            [0.0, 0.0, 0.0])
        assert d1 - d0 == pytest.approx(18 * PS, rel=1e-9)


class TestPairwiseSweeps:
    def test_three_input_sweep_matches_scalar_calls(self, gen3):
        deltas = np.array([-20 * PS, 0.0, 20 * PS])
        swept = gen3.delays_falling_sweep(deltas)
        for delta, value in zip(deltas, swept):
            pair = [max(0.0, -float(delta)), max(0.0, float(delta))]
            assert value == pytest.approx(
                gen3.delay_falling(pair + [0.0]), abs=1e-18)

    def test_three_input_rising_sweep(self, gen3):
        swept = gen3.delays_rising_sweep(np.array([0.0, 10 * PS]))
        assert swept[0] == pytest.approx(
            gen3.delay_rising([0.0, 0.0, 0.0]), abs=1e-18)

    def test_three_input_sweep_clips_infinite_to_sis(self, gen3):
        # ±inf separations are the SIS plateaus: they agree with any
        # separation beyond the settling region.
        far = 2.0 * generalized_model(gen3.params).settle_time()
        swept = gen3.delays_falling_sweep([math.inf, -math.inf])
        plateau = gen3.delays_falling_sweep([far, -far])
        assert swept == pytest.approx(plateau, abs=1e-18)

    def test_two_input_sweep_tracks_hybrid_model(self, gen2, ref2):
        deltas = np.array([-30 * PS, -5 * PS, 0.0, 5 * PS, 30 * PS])
        swept = gen2.delays_falling_sweep(deltas)
        for delta, value in zip(deltas, swept):
            assert value == pytest.approx(
                ref2.delay_falling(float(delta)), rel=1e-9)


#: Positive, finite electrical values spanning realistic magnitudes.
_resistances = st.floats(min_value=1e2, max_value=1e6,
                         allow_nan=False, allow_infinity=False)
_capacitances = st.floats(min_value=1e-18, max_value=1e-12,
                          allow_nan=False, allow_infinity=False)
_voltages = st.floats(min_value=0.1, max_value=5.0,
                      allow_nan=False, allow_infinity=False)
_delays = st.floats(min_value=0.0, max_value=1e-9,
                    allow_nan=False, allow_infinity=False)


@st.composite
def _two_input_params(draw):
    return NorGateParameters(
        r1=draw(_resistances), r2=draw(_resistances),
        r3=draw(_resistances), r4=draw(_resistances),
        cn=draw(_capacitances), co=draw(_capacitances),
        vdd=draw(_voltages), delta_min=draw(_delays))


class TestRoundTripProperties:
    """Hypothesis: from_two_input / to_two_input are exact inverses."""

    @given(params=_two_input_params())
    def test_two_input_round_trip(self, params):
        widened = GeneralizedNorParameters.from_two_input(params)
        assert widened.num_inputs == 2
        assert widened.to_two_input() == params

    @given(params=_two_input_params())
    def test_generalized_round_trip(self, params):
        widened = GeneralizedNorParameters.from_two_input(params)
        again = GeneralizedNorParameters.from_two_input(
            widened.to_two_input())
        assert again == widened

    @given(params=_two_input_params(),
           num_inputs=st.integers(min_value=3, max_value=6))
    def test_wider_gates_cannot_reduce(self, params, num_inputs):
        from repro.core.multi_input import paper_generalized
        wide = paper_generalized(num_inputs, params)
        with pytest.raises(ParameterError):
            wide.to_two_input()


class TestLengthValidationProperties:
    """Hypothesis: mismatched stack lengths raise ParameterError."""

    @given(n=st.integers(min_value=2, max_value=6),
           pulldown_delta=st.integers(min_value=-2, max_value=2),
           internal_delta=st.integers(min_value=-2, max_value=2))
    def test_mismatched_lengths_rejected(self, n, pulldown_delta,
                                         internal_delta):
        pulldown = max(1, n + pulldown_delta)
        internal = max(0, n - 1 + internal_delta)
        kwargs = dict(r_pullup=(45e3,) * n,
                      r_pulldown=(45e3,) * pulldown,
                      c_internal=(60e-18,) * internal,
                      co=617e-18)
        if pulldown == n and internal == n - 1:
            assert GeneralizedNorParameters(**kwargs).num_inputs == n
        else:
            with pytest.raises(ParameterError):
                GeneralizedNorParameters(**kwargs)

    @given(value=st.one_of(
        st.floats(max_value=0.0, allow_nan=False),
        st.just(math.nan), st.just(math.inf)))
    def test_non_positive_values_rejected(self, value):
        with pytest.raises(ParameterError):
            GeneralizedNorParameters(
                r_pullup=(45e3, value), r_pulldown=(45e3, 45e3),
                c_internal=(60e-18,), co=617e-18)

    def test_list_fields_coerced_to_tuples(self):
        params = GeneralizedNorParameters(
            r_pullup=[37e3, 45e3], r_pulldown=[45e3, 47e3],
            c_internal=[60e-18], co=617e-18)
        assert isinstance(params.r_pullup, tuple)
        assert hash(params) == hash(params.replace())

    def test_as_dict_round_trip(self):
        params = GeneralizedNorParameters(
            r_pullup=(37e3, 45e3, 45e3),
            r_pulldown=(45e3, 47e3, 49e3),
            c_internal=(60e-18, 60e-18), co=617e-18,
            vdd=0.8, delta_min=18 * PS)
        assert GeneralizedNorParameters(**params.as_dict()) == params
