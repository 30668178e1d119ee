"""`delays_for_direction` dispatch over the n-input entry points, and
Δ-matrix validation on every backend."""

import numpy as np
import pytest

from repro.core import PAPER_TABLE_I
from repro.core.multi_input import paper_generalized
from repro.engine import (available_engines, delays_for_direction,
                          get_engine)
from repro.errors import ParameterError
from repro.units import PS


@pytest.fixture(scope="module")
def p3():
    return paper_generalized(3)


@pytest.fixture(scope="module")
def grid():
    rng = np.random.default_rng(3)
    return rng.uniform(-80 * PS, 80 * PS, size=(24, 2))


class TestDispatch:
    def test_two_input_routes_to_scalar_entry_points(self):
        engine = get_engine("vectorized")
        deltas = np.linspace(-50 * PS, 50 * PS, 11)
        assert np.array_equal(
            delays_for_direction(engine, "falling", PAPER_TABLE_I,
                                 deltas),
            engine.delays_falling(PAPER_TABLE_I, deltas))
        assert np.array_equal(
            delays_for_direction(engine, "rising", PAPER_TABLE_I,
                                 deltas, 0.4),
            engine.delays_rising(PAPER_TABLE_I, deltas, 0.4))

    def test_generalized_routes_to_vector_entry_points(self, p3,
                                                       grid):
        engine = get_engine("vectorized")
        assert np.array_equal(
            delays_for_direction(engine, "falling", p3, grid),
            engine.delays_falling_n(p3, grid))
        assert np.array_equal(
            delays_for_direction(engine, "rising", p3, grid, 0.2),
            engine.delays_rising_n(p3, grid, 0.2))

    def test_invalid_direction(self, p3, grid):
        engine = get_engine("vectorized")
        with pytest.raises(ValueError):
            delays_for_direction(engine, "sideways", PAPER_TABLE_I,
                                 grid[:, 0])
        with pytest.raises(ValueError):
            delays_for_direction(engine, "sideways", p3, grid)

    def test_invalid_direction_is_a_repro_error(self):
        """A bad direction at the engine seam stays inside the
        package's typed error contract."""
        from repro.errors import ReproError
        from repro.sta import EngineArcModel

        with pytest.raises(ReproError):
            EngineArcModel(PAPER_TABLE_I).delays("up", [0.0])


class TestBackendAgreement:
    def test_reference_vs_vectorized(self, p3, grid):
        reference = get_engine("reference")
        vectorized = get_engine("vectorized")
        for direction in ("falling", "rising"):
            slow = delays_for_direction(reference, direction, p3,
                                        grid)
            fast = delays_for_direction(vectorized, direction, p3,
                                        grid)
            assert float(np.max(np.abs(slow - fast))) <= 1e-15


@pytest.mark.parametrize("backend", available_engines())
class TestMatrixValidation:
    def test_nan_rejected(self, backend, p3):
        engine = get_engine(backend)
        bad = np.full((8, 2), np.nan)
        for direction in ("falling", "rising"):
            with pytest.raises(ParameterError):
                delays_for_direction(engine, direction, p3, bad)
            with pytest.raises(ParameterError):
                delays_for_direction(engine, direction, PAPER_TABLE_I,
                                     np.array([0.0, np.nan]))

    def test_wrong_width_rejected(self, backend, p3):
        engine = get_engine(backend)
        with pytest.raises(ParameterError):
            engine.delays_falling_n(p3, np.zeros((4, 3)))
