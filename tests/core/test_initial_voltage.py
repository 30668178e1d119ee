"""A non-finite initial node voltage is a ``ParameterError`` everywhere.

The rising direction starts from the mode-(1,1) internal-node voltage
``vn_init`` (2-input) or the chain voltage ``internal_init``
(n-input).  NaN or ``±inf`` used to get a different answer from each
path: a misleading ``NoCrossingError``, SciPy's bare ``ValueError``,
or silently NaN delays.  Every backend, the block kernel and the
scalar models now reject it up front.
"""

import math

import numpy as np
import pytest

from repro.core.hybrid_model import HybridNorModel
from repro.core.multi_input import (GeneralizedNorModel,
                                    compiled_nor_kernel,
                                    paper_generalized)
from repro.core.parameters import PAPER_TABLE_I
from repro.engine import (available_engines, delays_for_direction,
                          get_engine)
from repro.engine.blocks import block_from_parameters, rising_delays_block
from repro.errors import ParameterError
from repro.units import PS

NON_FINITE = (math.nan, math.inf, -math.inf)
DELTAS = np.array([-20.0 * PS, 0.0, 20.0 * PS])


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("backend", available_engines())
class TestBackends:
    def test_two_input(self, backend, value):
        with pytest.raises(ParameterError, match="vn_init"):
            get_engine(backend).delays_rising(PAPER_TABLE_I, DELTAS,
                                              value)

    def test_n_input(self, backend, value):
        grid = np.zeros((2, 2))
        with pytest.raises(ParameterError, match="internal_init"):
            get_engine(backend).delays_rising_n(paper_generalized(3),
                                                grid, value)

    def test_sample_block(self, backend, value):
        block = block_from_parameters([PAPER_TABLE_I] * 2)
        with pytest.raises(ParameterError, match="vn_init"):
            delays_for_direction(get_engine(backend), "rising", block,
                                 np.zeros((2, 3)), value)


@pytest.mark.parametrize("value", NON_FINITE)
class TestKernelsAndModels:
    def test_block_kernel(self, value):
        block = block_from_parameters([PAPER_TABLE_I] * 3)
        with pytest.raises(ParameterError, match="vn_init"):
            rising_delays_block(block, np.zeros(3), value)

    def test_scalar_model(self, value):
        with pytest.raises(ParameterError, match="vn_init"):
            HybridNorModel(PAPER_TABLE_I).rising_computation(0.0, value)

    def test_generalized_model(self, value):
        model = GeneralizedNorModel(paper_generalized(3))
        with pytest.raises(ParameterError, match="internal_init"):
            model.delay_rising([0.0, 0.0, 0.0], [0.0, value])

    def test_compiled_kernel(self, value):
        kernel = compiled_nor_kernel(paper_generalized(4))
        with pytest.raises(ParameterError, match="internal_init"):
            kernel.evaluate(np.zeros((1, 3)), "rising", value)


def test_falling_ignores_the_rising_state():
    """``internal_init`` is a rising-only input: the falling direction
    does not look at it."""
    kernel = compiled_nor_kernel(paper_generalized(3))
    assert np.array_equal(kernel.evaluate(np.zeros((1, 2)), "falling",
                                          math.nan),
                          kernel.evaluate(np.zeros((1, 2)), "falling"))
