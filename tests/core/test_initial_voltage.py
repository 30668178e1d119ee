"""A non-finite or out-of-rail initial node voltage is a
``ParameterError`` everywhere.

The rising direction starts from the mode-(1,1) internal-node voltage
``vn_init`` (2-input) or the chain voltage ``internal_init``
(n-input).  NaN or ``±inf`` used to get a different answer from each
path: a misleading ``NoCrossingError``, SciPy's bare ``ValueError``,
or silently NaN delays.  Every backend, the block kernel and the
scalar models now reject it up front.  A finite voltage outside
``[0, VDD]`` gets the NAND mirror's "node voltage … outside [0, VDD]"
from the same entry points.
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


#: Stack-node voltages beyond either rail of the 0.8 V card.
OUTSIDE = (1.6, -0.3)


def _outside(value) -> str:
    return rf"node voltage {value!r} outside \[0, VDD\]"


@pytest.mark.parametrize("value", OUTSIDE)
class TestNodeVoltageRange:
    """A NOR stack-node voltage outside ``[0, VDD]`` is rejected with
    the NAND mirror's message.  It used to return a delay: 50.4 ps at
    1.6 V and 55.8 ps at -0.3 V on the 0.8 V card, at Δ = 0."""

    def test_scalar_model(self, value):
        with pytest.raises(ParameterError, match=_outside(value)):
            HybridNorModel(PAPER_TABLE_I).delay_rising(0.0, value)

    @pytest.mark.parametrize("backend", available_engines())
    def test_two_input(self, backend, value):
        with pytest.raises(ParameterError, match=_outside(value)):
            get_engine(backend).delays_rising(PAPER_TABLE_I, DELTAS,
                                              value)

    @pytest.mark.parametrize("backend", available_engines())
    def test_sample_block(self, backend, value):
        block = block_from_parameters([PAPER_TABLE_I] * 2)
        with pytest.raises(ParameterError, match=_outside(value)):
            get_engine(backend).delays_rising_block(
                block, np.zeros((2, 3)), value)

    @pytest.mark.parametrize("backend", available_engines())
    def test_n_input(self, backend, value):
        with pytest.raises(ParameterError, match=_outside(value)):
            get_engine(backend).delays_rising_n(paper_generalized(3),
                                                np.zeros((2, 2)), value)

    def test_generalized_model(self, value):
        model = GeneralizedNorModel(paper_generalized(3))
        with pytest.raises(ParameterError, match=_outside(value)):
            model.delay_rising([0.0, 0.0, 0.0], [0.0, value])

    def test_engine_arc(self, value):
        from repro.sta import EngineArcModel
        with pytest.raises(ParameterError, match=_outside(value)):
            EngineArcModel(PAPER_TABLE_I, "nor2", state=value).delays(
                "rising", [0.0])

    @pytest.mark.parametrize("gate, deltas", [("nor2", ((0.0,),)),
                                              ("nor3", ((0.0, 0.0),))])
    def test_session(self, value, gate, deltas):
        from repro.api import DelayRequest, Session
        with pytest.raises(ParameterError, match=_outside(value)):
            Session().run(DelayRequest(direction="rising", gate=gate,
                                       deltas=deltas, vn_init=value))


@pytest.mark.parametrize("value", OUTSIDE + (math.nan,))
@pytest.mark.parametrize("rows", [0, 3])
@pytest.mark.parametrize("backend", available_engines())
def test_checked_once_per_call(backend, rows, value):
    """Every engine checks the state once per call, so an empty Δ array
    gets the same error as a full one.  The reference engine used to
    check it per evaluated point and returned an empty array."""
    engine = get_engine(backend)
    for name, call in (
            ("vn_init", lambda: engine.delays_rising(
                PAPER_TABLE_I, np.zeros(rows), value)),
            ("internal_init", lambda: engine.delays_rising_n(
                paper_generalized(3), np.zeros((rows, 2)), value))):
        with pytest.raises(ParameterError) as error:
            call()
        assert str(error.value) == (
            f"{name} must be finite, got nan" if math.isnan(value)
            else f"node voltage {value!r} outside [0, VDD]")


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("records", [0, 3])
@pytest.mark.parametrize("backend", available_engines())
def test_block_state_checked_once_per_call(backend, records, value):
    """A sample block's state is checked once, before its records are
    read, with one message for a shared and a per-record value.  The
    reference engine used to check it per record, so a block without
    records returned an empty array, and the engines' per-record
    messages differed ("got nan" against "got array([0.1, nan,
    0.2])")."""
    engine = get_engine(backend)
    block = block_from_parameters([PAPER_TABLE_I] * 3)[:records]
    for state in (value, [0.1, value, 0.2][:records]):
        if np.isfinite(state).all():
            continue
        with pytest.raises(ParameterError) as error:
            engine.delays_rising_block(block, np.zeros((records, 3)),
                                       state)
        assert str(error.value) == f"vn_init must be finite, got {value!r}"


def _lanes(vdds) -> np.ndarray:
    return block_from_parameters([PAPER_TABLE_I.replace(vdd=vdd)
                                  for vdd in vdds])


@pytest.mark.parametrize("backend", available_engines())
def test_every_lane_vdd_bounds_the_state(backend):
    """A per-lane block checks the state against each lane's own VDD:
    0.9 V fits the 1.0 and 1.2 V lanes but not the 0.8 V one."""
    engine = get_engine(backend)
    lanes = _lanes((1.2, 0.8, 1.0))
    wide = paper_generalized(3, lanes)
    with pytest.raises(ParameterError, match=_outside(0.9)):
        engine.delays_rising_block(lanes, np.zeros(3), 0.9)
    with pytest.raises(ParameterError, match=_outside(0.9)):
        engine.delays_rising_n(wide, np.zeros((3, 2)), 0.9)
    # Lanes without Δ-vectors still bound the state.
    with pytest.raises(ParameterError, match=_outside(0.9)):
        engine.delays_rising_n(wide, np.zeros((3, 0, 2)), 0.9)
    # VDD itself is on the rail, so inside.
    assert np.isfinite(engine.delays_rising_n(wide, np.zeros((3, 2)),
                                              0.8)).all()
    assert np.isfinite(engine.delays_rising_block(
        lanes, np.zeros(3), [1.2, 0.8, 1.0])).all()


def test_memoized_constants_check_once_per_set_and_state(monkeypatch):
    """The vectorized engine checks a (set, V_N) pair when it builds
    its memoized constants, not on every call."""
    from repro.engine import blocks, vectorized

    calls = []
    check = blocks.check_node_voltage
    monkeypatch.setattr(blocks, "check_node_voltage",
                        lambda value, vdd: calls.append(1)
                        or check(value, vdd))
    vectorized._rising_constants.cache_clear()
    engine = get_engine("vectorized")
    params = PAPER_TABLE_I.replace(r3=41e3)
    for _ in range(3):
        engine.delays_rising(params, DELTAS, 0.4)
    assert len(calls) == 1
    engine.delays_rising(params, DELTAS, 0.5)
    assert len(calls) == 2
