"""Property tests for the flattened n-input eigen kernel (ISSUE 6).

The :class:`CompiledNorKernel` is the raw-speed path every engine
routes n-input sweeps through, so its contract is tested
property-based: random gate widths, random (ragged) Δ-matrix shapes
and ±inf sibling encodings must agree with the scalar trace solver —
the slow, segment-by-segment reference authority — to the engine
parity bound.  The crossing solver's bisection fallback is pinned by
forcing zero Newton iterations and comparing against the converged
result.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import solutions
from repro.core.multi_input import (CompiledNorKernel,
                                    GeneralizedNorModel,
                                    GeneralizedNorParameters,
                                    compiled_nor_kernel,
                                    generalized_block,
                                    generalized_model,
                                    paper_generalized)
from repro.core.parameters import NorGateParameters
from repro.core.solutions import exp_sum_crossing
from repro.engine import get_engine
from repro.units import PS

#: Engine-wide parity bound, seconds (ISSUE acceptance).
PARITY_TOL = 1e-12

_resistance = st.floats(min_value=1e4, max_value=4e5)
_cint = st.floats(min_value=2e-17, max_value=4e-16)
_cout = st.floats(min_value=1e-16, max_value=2e-15)


@st.composite
def wide_params(draw, max_inputs=4) -> GeneralizedNorParameters:
    """Random n-input parameter sets across widths 2..max_inputs."""
    n = draw(st.integers(2, max_inputs))
    return GeneralizedNorParameters(
        r_pullup=tuple(draw(_resistance) for _ in range(n)),
        r_pulldown=tuple(draw(_resistance) for _ in range(n)),
        c_internal=tuple(draw(_cint) for _ in range(n - 1)),
        co=draw(_cout), vdd=draw(st.sampled_from([0.8, 1.2])),
        delta_min=draw(st.sampled_from([0.0, 18.0 * PS])))


@st.composite
def delta_rows(draw, num_siblings: int) -> np.ndarray:
    """A small ragged batch of Δ-vectors, ±inf encodings included."""
    rows = draw(st.integers(1, 5))
    finite = st.floats(min_value=-400.0 * PS, max_value=400.0 * PS)
    entry = st.one_of(finite, st.sampled_from([math.inf, -math.inf]))
    return np.array([[draw(entry) for _ in range(num_siblings)]
                     for _ in range(rows)])


def _scalar_delays(model, deltas, direction, internal_init=0.0):
    """Per-row trace-solver delays — the reference authority."""
    out = []
    for row in deltas:
        clipped = np.clip(row, -model.settle_time(),
                          model.settle_time())
        times = np.concatenate([[0.0], clipped])
        times -= times.min()
        if direction == "falling":
            out.append(model.delay_falling(times))
        else:
            chain = [internal_init] * (len(row))
            out.append(model.delay_rising(times,
                                          internal_init=chain))
    return np.array(out)


class TestKernelVsScalarReference:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), params=wide_params())
    def test_falling(self, data, params):
        model = generalized_model(params)
        deltas = data.draw(delta_rows(params.num_inputs - 1))
        kernel = model.kernel()
        batched = kernel.evaluate(deltas, "falling")
        expected = _scalar_delays(model, deltas, "falling")
        assert float(np.max(np.abs(batched - expected))) <= PARITY_TOL

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), params=wide_params(),
           x_fraction=st.sampled_from([0.0, 0.5, 1.0]))
    def test_rising(self, data, params, x_fraction):
        model = generalized_model(params)
        deltas = data.draw(delta_rows(params.num_inputs - 1))
        init = x_fraction * params.vdd
        batched = model.kernel().evaluate(deltas, "rising", init)
        expected = _scalar_delays(model, deltas, "rising", init)
        assert float(np.max(np.abs(batched - expected))) <= PARITY_TOL

    def test_rising_glitch_narrower_than_the_sample_grid(self):
        # Charge sharing from a charged stack lifts the output 40 nV
        # above Vth for ~10 fs at 6.79 ps, while the weak second
        # pull-down keeps it low: the first upward crossing is that
        # glitch, far narrower than the scalar sampler's 6.1 ps grid
        # over the settle window.
        params = GeneralizedNorParameters(
            r_pullup=(1e4, 1e4, 1e4), r_pulldown=(1e4, 155479.0, 1e4),
            c_internal=(1.6904758315704289e-16, 3.5794182682933843e-16),
            co=3.0008059942065747e-16, vdd=0.8)
        model = generalized_model(params)
        deltas = np.array([[math.inf, 0.0]])
        batched = model.kernel().evaluate(deltas, "rising", 0.8)
        expected = _scalar_delays(model, deltas, "rising", 0.8)
        assert batched[0] < -6e-9
        assert abs(batched[0] - expected[0]) <= PARITY_TOL

    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), params=wide_params(max_inputs=3))
    def test_reference_engine_agrees(self, data, params):
        """The kernel matches the reference *engine* seam too."""
        deltas = data.draw(delta_rows(params.num_inputs - 1))
        reference = get_engine("reference")
        batched = compiled_nor_kernel(params).evaluate(deltas,
                                                       "falling")
        expected = reference.delays_falling_n(params, deltas)
        assert float(np.max(np.abs(batched - expected))) <= PARITY_TOL


@st.composite
def parameter_sets(draw, num_inputs: int) -> list:
    """1–6 n-input sets: widened 2-input draws and direct sets."""
    sets = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            sets.append(paper_generalized(num_inputs, NorGateParameters(
                *(draw(_resistance) for _ in range(4)), draw(_cint),
                draw(_cout), vdd=draw(st.sampled_from([0.8, 1.2])))))
        else:
            sets.append(GeneralizedNorParameters(
                r_pullup=tuple(draw(_resistance)
                               for _ in range(num_inputs)),
                r_pulldown=tuple(draw(_resistance)
                                 for _ in range(num_inputs)),
                c_internal=tuple(draw(_cint)
                                 for _ in range(num_inputs - 1)),
                co=draw(_cout), vdd=draw(st.sampled_from([0.8, 1.2])),
                delta_min=draw(st.sampled_from([0.0, 18.0 * PS]))))
    return sets


class TestParameterAxis:
    """One parameter set per lane: the per-lane kernel agrees with the
    reference engine row by row, and with one single-set kernel call
    per set up to the lockstep Newton's last bits."""

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), n=st.sampled_from([3, 4]),
           direction=st.sampled_from(["falling", "rising"]),
           init=st.sampled_from([0.1, 0.35, 0.6]))
    def test_per_lane_sets(self, data, n, direction, init):
        sets = data.draw(parameter_sets(n))
        lanes = data.draw(st.integers(1, 8))
        index = np.array(data.draw(st.lists(
            st.integers(0, len(sets) - 1), min_size=lanes,
            max_size=lanes)))
        finite = st.floats(min_value=-400.0 * PS, max_value=400.0 * PS)
        deltas = np.array([[data.draw(finite) for _ in range(n - 1)]
                           for _ in range(lanes)])
        block = generalized_block([sets[i] for i in index])
        method = f"delays_{direction}_n"
        extra = (init,) if direction == "rising" else ()
        got = getattr(get_engine("vectorized"), method)(block, deltas,
                                                        *extra)
        expected = getattr(get_engine("reference"), method)(
            block, deltas, *extra)
        assert got.shape == (lanes,)
        assert float(np.max(np.abs(got - expected))) <= PARITY_TOL
        for i, params in enumerate(sets):
            rows = index == i
            if rows.any():
                single = compiled_nor_kernel(params).evaluate(
                    deltas[rows], direction, init)
                assert float(np.max(np.abs(got[rows] - single))) \
                    <= 1e-18

    def test_one_batched_eigensolve(self, monkeypatch):
        """A kernel build decomposes every set and mode in one call."""
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda m: calls.append(m.shape) or eig(m))
        block = generalized_block([paper_generalized(4),
                                   paper_generalized(4).replace(co=1e-15),
                                   paper_generalized(4).replace(co=2e-15)])
        CompiledNorKernel(block)
        assert calls == [(3, 16, 5, 5)]

    def test_lanes_share_their_set(self):
        """Repeated sets are decomposed once; a one-set block reuses
        the cached single-set kernel's bytes."""
        p3 = paper_generalized(3)
        rows = np.random.default_rng(4).uniform(-50 * PS, 50 * PS,
                                                (6, 2))
        engine = get_engine("vectorized")
        got = engine.delays_falling_n(generalized_block([p3] * 6), rows)
        assert got.tobytes() == engine.delays_falling_n(p3,
                                                        rows).tobytes()


class TestGridShapes:
    """Ragged / multi-dimensional grid handling."""

    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (2, 3, 4)])
    def test_leading_shape_preserved(self, shape):
        params = paper_generalized(3)
        rng = np.random.default_rng(3)
        deltas = rng.uniform(-200 * PS, 200 * PS, size=shape + (2,))
        out = compiled_nor_kernel(params).evaluate(deltas, "falling")
        assert out.shape == shape
        assert np.all(np.isfinite(out))

    def test_single_vector(self):
        params = paper_generalized(4)
        out = compiled_nor_kernel(params).evaluate(
            np.zeros(3), "falling")
        assert out.shape == ()

    def test_all_infinite_rows(self):
        """Pure SIS encodings (every sibling at ±inf) stay finite."""
        params = paper_generalized(3)
        deltas = np.array([[math.inf, math.inf],
                           [-math.inf, -math.inf],
                           [math.inf, -math.inf]])
        out = compiled_nor_kernel(params).evaluate(deltas, "falling")
        assert np.all(np.isfinite(out))


class TestKernelObject:
    def test_memoized_per_model(self):
        params = paper_generalized(3)
        assert compiled_nor_kernel(params) is compiled_nor_kernel(
            params)
        assert isinstance(compiled_nor_kernel(params),
                          CompiledNorKernel)

    def test_covers_every_mode(self):
        params = paper_generalized(3)
        kernel = compiled_nor_kernel(params)
        n = params.num_inputs
        assert kernel._rates.shape == (1 << n, n + 1)
        assert kernel._vectors.shape == (1 << n, n + 1, n + 1)
        # Rates are decay rates of a passive RC network.
        assert np.all(kernel._rates <= 0.0)

    def test_unknown_direction_rejected(self):
        from repro.errors import ParameterError
        params = paper_generalized(3)
        with pytest.raises(ParameterError):
            compiled_nor_kernel(params).evaluate(np.zeros((1, 2)),
                                                 "sideways")

    def test_dropped_model_is_freed(self):
        """Building a kernel leaves no process-wide reference to the
        model: its per-mode caches live on the instance."""
        model = GeneralizedNorModel(paper_generalized(3))
        model.kernel()
        alive = weakref.ref(model)
        del model
        gc.collect()
        assert alive() is None


class TestNewtonRefinement:
    """The kernel's crossing solver on its own input layout: one row of
    output weights per segment, with a constant (rate 0) term and the
    rates gathered per row."""

    def _random_rows(self, rng, rows):
        """Decaying single exponentials with a guaranteed crossing.

        f(t) = w0·exp(r·t) drops from w0 > threshold toward 0, so it
        crosses the threshold inside the window by construction; the
        constant and the second exponential carry no weight.
        """
        rates = np.tile([0.0, -1.0e9, -3.0e9], (rows, 1)).T
        w0 = rng.uniform(1.0, 2.0, size=rows)
        weights = np.stack([np.zeros(rows), w0, np.zeros(rows)])
        return weights, rates, 0.5, np.full(rows, 5.0e-9)

    def test_matches_bisection_fallback(self, monkeypatch):
        rng = np.random.default_rng(11)
        weights, rates, threshold, window = self._random_rows(rng, 64)
        newton = exp_sum_crossing(weights, rates, threshold, True,
                                  window)
        # No Newton steps send every row through the pure-bisection
        # fallback, the non-convergence escape hatch.
        monkeypatch.setattr(solutions, "_NEWTON_STEPS", 0)
        bisect = exp_sum_crossing(weights, rates, threshold, True,
                                  window)
        exact = np.log(threshold / weights[1]) / rates[1]
        assert np.max(np.abs(newton - exact)) <= 1e-15 * np.max(exact)
        assert np.max(np.abs(bisect - exact)) <= 1e-15 * np.max(exact)

    def test_upward_crossings(self):
        """Rising sums (downward=False) find their crossing too."""
        # f(t) = 1 − exp(−2e9 t) climbs through 0.5 at ln(2)/2e9.
        weights = np.array([[1.0], [-1.0], [0.0]])
        root = exp_sum_crossing(weights, [0.0, -2.0e9, -5.0e9], 0.5,
                                False, 5e-9)
        assert abs(root[0] - math.log(2.0) / 2.0e9) <= 1e-24

    def test_flat_derivative_falls_back(self):
        """Equal rates make a flat derivative pair: the terms merge and
        the row still converges, never to NaN, with the kernel's
        constant term or as a bare two-exponential sum."""
        exact = math.log(2.0) / 1.0e9
        for weights, rates in (([[0.0], [2.0], [-1.0]],
                                [0.0, -1.0e9, -1.0e9]),
                               ([[2.0], [-1.0]], [-1.0e9, -1.0e9])):
            # f(t) = exp(-1e9 t) either way.
            root = exp_sum_crossing(np.array(weights), rates, 0.5, True,
                                    10e-9)
            assert abs(root[0] - exact) <= 1e-24

    def test_window_end_without_crossing_is_nan(self):
        weights = np.array([[0.0], [1.0], [0.0]])
        root = exp_sum_crossing(weights, [0.0, -1.0e9, -3.0e9], 0.5,
                                True, 0.5e-9)
        assert np.isnan(root[0])
