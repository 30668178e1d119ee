"""Batched Δ-vector evaluation vs the scalar eigen-solver and the
closed-form 2-input path (ISSUE 4 tentpole parity requirements)."""

import math

import numpy as np
import pytest

from repro.core import PAPER_TABLE_I
from repro.core.multi_input import (generalized_model,
                                    paper_generalized,
                                    sibling_offsets)
from repro.engine import get_engine
from repro.errors import ParameterError
from repro.units import PS

#: Acceptance bound: Δ-vector seam vs closed-form 2-input path.
N2_PARITY = 1e-12
#: Batched vs scalar eigen-solver (same model, two drivers).
BATCH_PARITY = 1e-15


@pytest.fixture(scope="module")
def gen3():
    return generalized_model(paper_generalized(3))


@pytest.fixture(scope="module")
def vectorized():
    return get_engine("vectorized")


class TestTwoInputParity:
    """The n = 2 Δ-vector seam against the paper's closed forms."""

    @pytest.fixture(scope="class")
    def sweep(self):
        # The paper's sweep window (Figs. 5/6) plus the SIS edges.
        core = np.linspace(-400 * PS, 400 * PS, 401)
        return np.concatenate([core, [math.inf, -math.inf]])

    def test_falling(self, vectorized, sweep):
        narrow = paper_generalized(2, PAPER_TABLE_I)
        closed = vectorized.delays_falling(PAPER_TABLE_I, sweep)
        seam = vectorized.delays_falling_n(narrow, sweep[:, None])
        assert float(np.max(np.abs(seam - closed))) <= N2_PARITY

    @pytest.mark.parametrize("vn_init", [0.0, 0.4, 0.8])
    def test_rising(self, vectorized, sweep, vn_init):
        narrow = paper_generalized(2, PAPER_TABLE_I)
        closed = vectorized.delays_rising(PAPER_TABLE_I, sweep,
                                          vn_init)
        seam = vectorized.delays_rising_n(narrow, sweep[:, None],
                                          vn_init)
        assert float(np.max(np.abs(seam - closed))) <= N2_PARITY

    def test_reference_backend_agrees(self, sweep):
        reference = get_engine("reference")
        narrow = paper_generalized(2, PAPER_TABLE_I)
        probe = sweep[::40]
        closed = reference.delays_falling(PAPER_TABLE_I, probe)
        seam = reference.delays_falling_n(narrow, probe[:, None])
        assert float(np.max(np.abs(seam - closed))) <= N2_PARITY


class TestBatchedVsScalar:
    """The lockstep batch against the per-point trace solver."""

    def test_falling_random_vectors(self, gen3):
        rng = np.random.default_rng(7)
        grid = rng.uniform(-300 * PS, 300 * PS, size=(48, 2))
        batched = gen3.kernel().evaluate(grid, "falling")
        for row, value in zip(grid, batched):
            times = np.concatenate([[0.0], row])
            scalar = gen3.delay_falling(times - times.min())
            assert value == pytest.approx(scalar, abs=BATCH_PARITY)

    def test_rising_random_vectors(self, gen3):
        rng = np.random.default_rng(11)
        grid = rng.uniform(-300 * PS, 300 * PS, size=(32, 2))
        batched = gen3.kernel().evaluate(grid, "rising", 0.3)
        for row, value in zip(grid, batched):
            times = np.concatenate([[0.0], row])
            scalar = gen3.delay_rising(times - times.min(),
                                       internal_init=[0.3, 0.3])
            assert value == pytest.approx(scalar, abs=BATCH_PARITY)

    def test_all_orderings_covered(self, gen3):
        """Every event-permutation group agrees with the scalar path."""
        offsets = [-40 * PS, -5 * PS, 5 * PS, 40 * PS]
        grid = np.array([[a, b] for a in offsets for b in offsets])
        batched = gen3.kernel().evaluate(grid, "falling")
        for row, value in zip(grid, batched):
            times = np.concatenate([[0.0], row])
            scalar = gen3.delay_falling(times - times.min())
            assert value == pytest.approx(scalar, abs=BATCH_PARITY)

    def test_shape_preserved(self, gen3):
        grid = np.zeros((3, 4, 2))
        assert gen3.kernel().evaluate(grid, "falling").shape == (3, 4)

    def test_simultaneous_matches_closed_form(self, gen3):
        parallel = 1.0 / sum(1.0 / r for r in
                             gen3.params.r_pulldown)
        expected = (math.log(2.0) * gen3.params.co * parallel
                    + gen3.params.delta_min)
        value = float(gen3.kernel().evaluate(np.zeros((1, 2)),
                                             "falling")[0])
        assert value == pytest.approx(expected, rel=1e-9)


class TestEdgeEncodings:
    def test_infinite_offsets_clip_to_sis(self, gen3):
        settle = gen3.settle_time()
        far = gen3.kernel().evaluate(
            np.array([[2.0 * settle, -2.0 * settle]]), "falling")
        inf = gen3.kernel().evaluate(
            np.array([[math.inf, -math.inf]]), "falling")
        assert float(inf[0]) == pytest.approx(float(far[0]),
                                              abs=1e-18)

    def test_nan_rejected(self, gen3):
        with pytest.raises(ParameterError):
            gen3.kernel().evaluate(np.array([[math.nan, 0.0]]),
                                   "falling")

    def test_wrong_vector_width_rejected(self, gen3):
        with pytest.raises(ParameterError):
            gen3.kernel().evaluate(np.zeros((4, 3)), "falling")
        with pytest.raises(ParameterError):
            gen3.kernel().evaluate(np.zeros(()), "rising")

    def test_internal_init_speeds_rising(self, gen3):
        grid = np.zeros((1, 2))
        worst = float(gen3.kernel().evaluate(grid, "rising")[0])
        charged = float(gen3.kernel().evaluate(grid, "rising", 0.8)[0])
        assert charged < worst

    def test_settle_time_positive(self, gen3):
        assert gen3.settle_time() > 0.0

    @pytest.mark.parametrize("num_inputs", [3, 4, 5])
    def test_settle_time_immune_to_island_eigenvalue_dust(
            self, num_inputs):
        """Partially-open modes isolate chain islands whose conserved
        total charge is an exact zero eigenvalue; np.linalg.eig may
        report it as ~1e-17 of the spectral radius, which once
        masqueraded as a ~1e16 ps time constant and exploded the
        default grids (regression)."""
        model = generalized_model(paper_generalized(num_inputs))
        settle = model.settle_time()
        # Physical settling of these gates is nanoseconds, not hours.
        assert settle < 100e-9
        # And the batch must stay fast at full-settle offsets.
        grid = np.array([[settle, -settle]
                         + [0.0] * (num_inputs - 3)])
        assert np.isfinite(model.kernel().evaluate(grid, "falling")).all()


class TestSiblingOffsets:
    def test_finite_passthrough(self):
        times = np.array([1.0 * PS, 3.0 * PS, -2.0 * PS])
        offsets = sibling_offsets(times, 1.0 * PS)
        assert offsets == pytest.approx([2.0 * PS, -3.0 * PS])

    def test_infinities_clip_around_reference(self):
        times = np.array([0.0, math.inf, -math.inf])
        offsets = sibling_offsets(times, 0.0)
        assert np.all(np.isfinite(offsets))
        assert offsets[0] > 0.5 and offsets[1] < -0.5

    def test_infinite_anchor_produces_no_nan(self):
        times = np.array([-math.inf, -math.inf, 5.0 * PS])
        offsets = sibling_offsets(times, 5.0 * PS)
        assert np.all(np.isfinite(offsets))

    def test_array_axes(self):
        times = np.zeros((3, 5))
        times[2] = 4.0 * PS
        offsets = sibling_offsets(times, np.zeros(5))
        assert offsets.shape == (5, 2)
        assert np.allclose(offsets[:, 1], 4.0 * PS)


class TestPaperGeneralized:
    def test_two_input_round_trip(self):
        narrow = paper_generalized(2)
        assert narrow.r_pullup == (PAPER_TABLE_I.r1, PAPER_TABLE_I.r2)
        assert narrow.r_pulldown == (PAPER_TABLE_I.r3, PAPER_TABLE_I.r4)
        assert narrow.c_internal == (PAPER_TABLE_I.cn,)
        assert narrow.to_two_input() == PAPER_TABLE_I

    def test_widening_repeats_stages(self):
        wide = paper_generalized(4)
        assert wide.num_inputs == 4
        assert wide.r_pullup == (PAPER_TABLE_I.r1, PAPER_TABLE_I.r2,
                                 PAPER_TABLE_I.r2, PAPER_TABLE_I.r2)
        assert wide.c_internal == (PAPER_TABLE_I.cn,) * 3

    def test_too_narrow_rejected(self):
        with pytest.raises(ParameterError):
            paper_generalized(1)
