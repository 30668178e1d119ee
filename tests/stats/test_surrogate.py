"""Collocation surrogate: accuracy acceptance + a design built once.

Pins the ISSUE 9 surrogate criteria as tests: moments within 1 % of
a same-seed Monte-Carlo at >= 20x fewer model evaluations.  Fits
touch no disk store, and the collocation design of a (dimension,
degree) pair is built once per process and shared read-only.
"""

import numpy as np
import pytest

from repro import cache
from repro.core.parameters import PAPER_TABLE_I
from repro.errors import ParameterError
from repro.stats import (VARIABLE_PARAMS, ParameterDistribution,
                         fit_surrogate, monte_carlo)
from repro.stats import surrogate as surrogate_module
from repro.stats.surrogate import _design, _multi_indices
from repro.units import PS

DIST = ParameterDistribution(
    PAPER_TABLE_I, {name: 0.08 for name in VARIABLE_PARAMS})
DELTAS = (-20.0 * PS, 0.0, 20.0 * PS)


@pytest.fixture(autouse=True)
def _clean_cache_state(monkeypatch):
    """Every test starts unconfigured and without the env override."""
    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    cache.unconfigure()
    yield
    cache.unconfigure()


class TestDesign:
    def test_oversampled_and_deterministic(self):
        for k, degree in ((2, 2), (6, 3)):
            basis = len(_multi_indices(k, degree))
            design = _design(k, degree)
            assert design.shape == (int(1.5 * basis), k)
            assert np.array_equal(design, _design(k, degree))

    def test_sign_symmetric_nodes(self):
        design = _design(3, 2)
        assert np.allclose(np.unique(design),
                           -np.unique(design)[::-1])

    def test_design_is_read_only(self):
        design = _design(2, 2)
        assert not design.flags.writeable
        with pytest.raises(ValueError):
            design[0, 0] = 1.0

    def test_second_fit_reuses_the_design(self, monkeypatch):
        """The candidate grid's basis is built on the first fit of a
        (dimension, degree) only; a refit evaluates the basis of the
        kept design rows and nothing more."""
        dist = ParameterDistribution(PAPER_TABLE_I, {"r1": 0.05,
                                                     "r2": 0.05,
                                                     "co": 0.05})
        degree = 4
        _design.cache_clear()
        calls = []
        basis = surrogate_module._basis

        def counting_basis(z, degree):
            calls.append(np.shape(z)[0])
            return basis(z, degree)

        monkeypatch.setattr(surrogate_module, "_basis", counting_basis)
        first = fit_surrogate(dist, DELTAS, degree=degree)
        candidates = (degree + 1) ** dist.dimension
        assert calls.count(candidates) == 1
        calls.clear()
        second = fit_surrogate(dist, DELTAS, degree=degree)
        assert calls == [second.design_points]
        assert second.coefficients.tobytes() \
            == first.coefficients.tobytes()
        assert _design.cache_info().hits >= 1


class TestAccuracy:
    def test_moments_within_tolerance_at_20x(self):
        """The headline acceptance, at the benchmark's workload."""
        reference = monte_carlo(DIST, DELTAS, samples=4000, seed=7)
        surrogate = fit_surrogate(DIST, DELTAS)
        assert 4000 / surrogate.design_points >= 20.0
        summary = surrogate.summarize(samples=4000, seed=7)
        mean_err = np.max(np.abs(summary.mean - reference.mean)
                          / reference.mean)
        std_err = np.max(np.abs(summary.std - reference.std)
                         / reference.std)
        assert mean_err <= 0.01
        assert std_err <= 0.01
        assert summary.method == "surrogate"
        assert summary.samples == surrogate.design_points

    def test_analytic_moments_match_resampling(self):
        surrogate = fit_surrogate(DIST, (0.0,), degree=2)
        summary = surrogate.summarize(samples=60_000, seed=3)
        assert np.allclose(surrogate.mean(), summary.mean,
                           rtol=5e-3)
        assert np.allclose(surrogate.std(), summary.std, rtol=5e-2)

    def test_rising_direction_fits(self):
        surrogate = fit_surrogate(DIST, (0.0, 10.0 * PS),
                                  direction="rising", vn_init=0.35,
                                  degree=2)
        assert np.isfinite(surrogate.mean()).all()
        assert (surrogate.std() > 0.0).all()


class TestNoPersistence:
    def test_fit_writes_no_store_entry(self, tmp_path):
        """A configured store is neither read nor written by a fit,
        and the coefficients match an unconfigured fit byte for
        byte."""
        plain = fit_surrogate(DIST, DELTAS, degree=2)
        store = cache.configure(tmp_path)
        stored = fit_surrogate(DIST, DELTAS, degree=2)
        assert stored.coefficients.tobytes() \
            == plain.coefficients.tobytes()
        info = store.info()
        assert (info["entries"], info["writes"], info["hits"],
                info["misses"]) == (0, 0, 0, 0)
        assert not any(tmp_path.rglob("*"))


class TestErrors:
    @pytest.mark.parametrize("degree", [0, 6])
    def test_degree_range(self, degree):
        with pytest.raises(ParameterError, match="degree"):
            fit_surrogate(DIST, (0.0,), degree=degree)

    def test_bad_direction(self):
        with pytest.raises(ParameterError, match="direction"):
            fit_surrogate(DIST, (0.0,), direction="up")

    def test_nan_deltas(self):
        with pytest.raises(ParameterError, match="NaN"):
            fit_surrogate(DIST, (float("nan"),))
