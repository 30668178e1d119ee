"""Parity and contract tests for the delay-engine backends.

The vectorized engine must reproduce the scalar reference to ≤1e-12 s
absolute on *randomized* parameter sets and Δ grids — including the
``±inf`` SIS limits and the ``Δ = 0`` MIS point — for both output
directions and for every studied internal-node initial voltage.  The
parameter-block kernels of :mod:`repro.engine.blocks` are held to the
same bound against the per-sample reference loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.charlie import MisCurve
from repro.core.hybrid_model import HybridNorModel, settle_time
from repro.core.modes import mode_00_constants, mode_10_constants
from repro.core.multi_input import GeneralizedNorParameters
from repro.core.parameters import PAPER_TABLE_I, NorGateParameters
from repro.engine import (DEFAULT_ENGINE, DelayEngine, ReferenceEngine,
                          VectorizedEngine, available_engines,
                          get_engine, register_engine)
from repro.engine.blocks import (BLOCK_DTYPE, PARAM_FIELDS,
                                 block_delays_loop, block_from_parameters,
                                 falling_constants, falling_delays_block,
                                 parameters_at, rising_constants,
                                 rising_delays_block)
from repro.units import PS

#: Absolute backend-parity bound, seconds (ISSUE acceptance).
PARITY_TOL = 1e-12

# Two decades of resistance/capacitance around the paper's Table I —
# wide enough to move every eigenvalue, pole and stationary point.
_resistance = st.floats(min_value=4e3, max_value=4e5)
_cn = st.floats(min_value=6e-18, max_value=6e-16)
_co = st.floats(min_value=6e-17, max_value=6e-15)
_delta_min = st.sampled_from([0.0, 18.0 * PS])


@st.composite
def gate_params(draw) -> NorGateParameters:
    return NorGateParameters(
        r1=draw(_resistance), r2=draw(_resistance),
        r3=draw(_resistance), r4=draw(_resistance),
        cn=draw(_cn), co=draw(_co), vdd=0.8,
        delta_min=draw(_delta_min))


@st.composite
def delta_grids(draw) -> np.ndarray:
    finite = draw(st.lists(
        st.floats(min_value=-400.0 * PS, max_value=400.0 * PS),
        min_size=1, max_size=24))
    # Always probe the SIS limits and the exact MIS point.
    return np.array(finite + [-math.inf, 0.0, math.inf])


@pytest.fixture(scope="module")
def reference() -> DelayEngine:
    return get_engine("reference")


@pytest.fixture(scope="module")
def vectorized() -> DelayEngine:
    return get_engine("vectorized")


class TestRandomizedParity:
    @given(params=gate_params(), deltas=delta_grids())
    def test_falling(self, reference, vectorized, params, deltas):
        expected = reference.delays_falling(params, deltas)
        actual = vectorized.delays_falling(params, deltas)
        assert np.max(np.abs(actual - expected)) <= PARITY_TOL

    @given(params=gate_params(), deltas=delta_grids(),
           x_fraction=st.sampled_from([0.0, 0.5, 1.0]))
    def test_rising(self, reference, vectorized, params, deltas,
                    x_fraction):
        vn_init = x_fraction * params.vdd
        expected = reference.delays_rising(params, deltas, vn_init)
        actual = vectorized.delays_rising(params, deltas, vn_init)
        assert np.max(np.abs(actual - expected)) <= PARITY_TOL

    @given(deltas=delta_grids())
    def test_paper_parameters_falling(self, reference, vectorized,
                                      deltas):
        expected = reference.delays_falling(PAPER_TABLE_I, deltas)
        actual = vectorized.delays_falling(PAPER_TABLE_I, deltas)
        assert np.max(np.abs(actual - expected)) <= PARITY_TOL


def _row_grids(deltas: np.ndarray, rows: int) -> np.ndarray:
    """One Δ row per sample: the grid rolled by the row index, so each
    record meets the ``±inf`` and ``Δ = 0`` probes at another column."""
    return np.stack([np.roll(deltas, row) for row in range(rows)])


class TestBlockKernelParity:
    """The parameter-block kernels called directly, record by record
    against the reference engine's per-sample loop — including the
    charge-sharing early crossing of the rising block, which only
    ``vn_init`` above Vth reaches."""

    @given(params=st.lists(gate_params(), min_size=1, max_size=4),
           deltas=delta_grids())
    def test_falling(self, reference, params, deltas):
        block = block_from_parameters(params)
        grid = _row_grids(deltas, len(params))
        expected = block_delays_loop(reference, "falling", block, grid)
        actual = falling_delays_block(block, grid)
        assert actual.shape == grid.shape
        assert np.max(np.abs(actual - expected)) <= PARITY_TOL

    @given(params=st.lists(gate_params(), min_size=1, max_size=4),
           deltas=delta_grids(),
           x_fraction=st.sampled_from([0.0, 0.5, 1.0]))
    def test_rising(self, reference, params, deltas, x_fraction):
        block = block_from_parameters(params)
        grid = _row_grids(deltas, len(params))
        vn_init = x_fraction * params[0].vdd
        expected = block_delays_loop(reference, "rising", block, grid,
                                     vn_init)
        actual = rising_delays_block(block, grid, vn_init)
        assert actual.shape == grid.shape
        assert np.max(np.abs(actual - expected)) <= PARITY_TOL

    @given(params=gate_params(), deltas=delta_grids(),
           vn_init=st.one_of(st.just(0.0),
                             st.floats(min_value=0.0, max_value=0.8,
                                       exclude_min=True)))
    def test_vectorized_engine_is_the_one_record_block(
            self, vectorized, params, deltas, vn_init):
        """The vectorized engine runs the block kernels' Δ evaluation
        on memoized one-record constants, so it returns the very bytes
        of a one-record block call."""
        block = block_from_parameters(params)
        assert np.array_equal(
            vectorized.delays_falling(params, deltas),
            falling_delays_block(block, deltas[None, :])[0])
        assert np.array_equal(
            vectorized.delays_rising(params, deltas, vn_init),
            rising_delays_block(block, deltas[None, :], vn_init)[0])

    def test_rising_early_crossing(self, reference, vectorized):
        """CN well above CO, a weak R3 and N precharged to VDD lift
        the output across Vth inside mode (1,0): at Δ far below zero
        the delay is the early crossing, negative against the later
        input.  The vectorized engine takes the same branch."""
        params = [PAPER_TABLE_I.replace(cn=4.0 * PAPER_TABLE_I.co,
                                        r3=10.0 * PAPER_TABLE_I.r3),
                  PAPER_TABLE_I]
        block = block_from_parameters(params)
        grid = _row_grids(
            np.array([-math.inf, -200.0 * PS, -5.0 * PS, 0.0,
                      30.0 * PS, math.inf]), 2)
        vdd = PAPER_TABLE_I.vdd
        expected = block_delays_loop(reference, "rising", block, grid,
                                     vdd)
        actual = rising_delays_block(block, grid, vdd)
        assert np.max(np.abs(actual - expected)) <= PARITY_TOL
        assert np.any(actual[0] < 0.0)
        lone = vectorized.delays_rising(params[0], grid[0], vdd)
        assert np.max(np.abs(lone - expected[0])) <= PARITY_TOL

    def test_single_record_squeezes(self, reference):
        block = block_from_parameters(PAPER_TABLE_I)
        deltas = np.array([12.0 * PS])
        for direction, kernel in (("falling", falling_delays_block),
                                  ("rising", rising_delays_block)):
            actual = kernel(block, deltas)
            expected = block_delays_loop(reference, direction, block,
                                         deltas)
            assert actual.shape == (1,)
            assert abs(actual[0] - expected[0]) <= PARITY_TOL


class TestSharedClosedForms:
    """The block kernels evaluate the mode constants of paper eqs.
    (1)–(7) and the settle cutoff by the statements the scalar model
    uses, so every record's constants are the scalar ones, bit for
    bit."""

    def test_block_constants_are_the_scalar_constants(self):
        rng = np.random.default_rng(31)
        block = np.empty(10_000, dtype=BLOCK_DTYPE)
        for name in PARAM_FIELDS:
            block[name] = getattr(PAPER_TABLE_I, name)
        for name in ("r1", "r2", "r3", "r4", "cn", "co"):
            block[name] *= rng.uniform(0.25, 4.0, block.shape)
        falling = falling_constants(block)
        rising = rising_constants(block, 0.3)
        for index in range(block.shape[0]):
            params = parameters_at(block, index)
            m10 = mode_10_constants(params)
            m00 = mode_00_constants(params)
            settle = settle_time(params)
            assert type(settle) is float
            for kernel in (falling, rising):
                assert kernel.l1[index, 0] == m10.lambda1
                assert kernel.l2[index, 0] == m10.lambda2
                assert kernel.settle[index, 0] == settle
            assert rising.l100[index, 0] == m00.lambda1
            assert rising.l200[index, 0] == m00.lambda2
            assert rising.alpha_plus_beta00[index, 0] == (m00.alpha
                                                          + m00.beta)
            assert rising.alpha_minus_beta00[index, 0] == (m00.alpha
                                                           - m00.beta)
            assert rising.two_beta00[index, 0] == 2.0 * m00.beta


class TestDenseGridParity:
    """Deterministic dense sweep across the settle-time boundary."""

    def test_both_directions_dense(self, reference, vectorized):
        deltas = np.concatenate([
            np.linspace(-2000.0 * PS, 2000.0 * PS, 801),
            [-math.inf, 0.0, math.inf],
        ])
        for x in (0.0, 0.4, 0.8):
            assert np.max(np.abs(
                vectorized.delays_rising(PAPER_TABLE_I, deltas, x)
                - reference.delays_rising(PAPER_TABLE_I, deltas, x)
            )) <= PARITY_TOL
        assert np.max(np.abs(
            vectorized.delays_falling(PAPER_TABLE_I, deltas)
            - reference.delays_falling(PAPER_TABLE_I, deltas)
        )) <= PARITY_TOL

    def test_shape_preserved(self, vectorized):
        deltas = np.linspace(-20 * PS, 20 * PS, 12).reshape(3, 4)
        out = vectorized.delays_falling(PAPER_TABLE_I, deltas)
        assert out.shape == (3, 4)

    def test_scalar_model_consistency(self, vectorized):
        """Array API on the model equals its own scalar methods."""
        model = HybridNorModel(PAPER_TABLE_I)
        deltas = np.array([-30 * PS, 0.0, 30 * PS, math.inf])
        batch = model.delays_falling(deltas)
        for delta, value in zip(deltas, batch):
            assert value == pytest.approx(
                model.delay_falling(float(delta)), abs=PARITY_TOL)


class TestEngineRegistry:
    def test_default_is_vectorized(self):
        assert DEFAULT_ENGINE == "vectorized"
        assert get_engine().name == "vectorized"
        assert get_engine(None) is get_engine("vectorized")

    def test_both_backends_registered(self):
        assert {"reference", "vectorized"} <= set(available_engines())

    def test_instances_are_cached(self):
        assert get_engine("reference") is get_engine("reference")

    def test_instance_passthrough(self):
        engine = ReferenceEngine()
        assert get_engine(engine) is engine

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown delay engine"):
            get_engine("gpu")

    def test_exactly_two_backends(self):
        assert available_engines() == ("reference", "vectorized")
        with pytest.raises(ValueError, match="unknown delay engine "
                           "'parallel'; available: reference, "
                           "vectorized"):
            get_engine("parallel")

    def test_protocol_runtime_check(self):
        assert isinstance(VectorizedEngine(), DelayEngine)
        assert isinstance(ReferenceEngine(), DelayEngine)

    def test_register_custom_backend(self):
        class Doubler(ReferenceEngine):
            name = "parity-test-dummy"

        register_engine(Doubler.name, Doubler)
        try:
            assert "parity-test-dummy" in available_engines()
            assert get_engine("parity-test-dummy").name == Doubler.name
        finally:
            # Keep the global registry clean for other tests.
            from repro.engine import base
            base._FACTORIES.pop(Doubler.name, None)
            base._INSTANCES.pop(Doubler.name, None)


class TestCurveIntegration:
    def test_curves_match_across_engines(self):
        model = HybridNorModel(PAPER_TABLE_I)
        deltas = np.linspace(-60 * PS, 60 * PS, 41)
        fast = model.falling_curve(deltas, engine="vectorized")
        slow = model.falling_curve(deltas, engine="reference")
        assert isinstance(fast, MisCurve)
        assert fast.max_abs_difference(slow) <= PARITY_TOL

    def test_generalized_two_input_sweep_routes_through_engine(self):
        from repro.core.multi_input import GeneralizedNorModel

        gen = GeneralizedNorModel(
            GeneralizedNorParameters.from_two_input(PAPER_TABLE_I))
        deltas = np.array([-math.inf, -20 * PS, 0.0, 20 * PS,
                           math.inf])
        swept = gen.delays_falling_sweep(deltas)
        direct = get_engine().delays_falling(PAPER_TABLE_I, deltas)
        assert np.max(np.abs(swept - direct)) == 0.0
        # ... and the engine agrees with the generalized eigen-solver.
        assert swept[2] == pytest.approx(
            gen.delay_falling([0.0, 0.0]), rel=1e-9)
        assert swept[3] == pytest.approx(
            gen.delay_falling([0.0, 20 * PS]), rel=1e-9)

    def test_round_trip_two_input_parameters(self):
        gen = GeneralizedNorParameters.from_two_input(PAPER_TABLE_I)
        assert gen.to_two_input() == PAPER_TABLE_I

    def test_to_two_input_rejects_wider_gates(self):
        from repro.errors import ParameterError

        wide = GeneralizedNorParameters(
            r_pullup=(1e4, 1e4, 1e4), r_pulldown=(1e4, 1e4, 1e4),
            c_internal=(1e-16, 1e-16), co=1e-15)
        with pytest.raises(ParameterError):
            wide.to_two_input()
