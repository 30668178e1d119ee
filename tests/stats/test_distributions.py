"""Parameter distributions: validation, determinism, moments.

The contract of :class:`repro.stats.ParameterDistribution`: seeded
draws are a pure function of ``(distribution, seed)``, the lognormal
family preserves the nominal mean exactly, the normal family never
produces non-positive R/C values, and equicorrelation really
correlates the underlying normals.
"""

import numpy as np
import pytest

from repro.core.parameters import PAPER_TABLE_I
from repro.errors import ParameterError
from repro.stats import VARIABLE_PARAMS, ParameterDistribution


def make(sigma=None, **kwargs):
    return ParameterDistribution(
        PAPER_TABLE_I, sigma or {"r1": 0.1, "co": 0.05}, **kwargs)


class TestValidation:
    def test_unknown_parameter(self):
        with pytest.raises(ParameterError, match="unknown"):
            make({"vdd": 0.1})

    @pytest.mark.parametrize("rel", [0.0, -0.1, float("inf"),
                                     float("nan")])
    def test_bad_sigma(self, rel):
        with pytest.raises(ParameterError, match="positive"):
            make({"r1": rel})

    def test_duplicate_sigma(self):
        with pytest.raises(ParameterError, match="duplicate"):
            make([("r1", 0.1), ("r1", 0.2)])

    def test_empty_sigma(self):
        with pytest.raises(ParameterError, match="at least one"):
            ParameterDistribution(PAPER_TABLE_I, {})

    def test_unknown_kind(self):
        with pytest.raises(ParameterError, match="unknown"):
            make(kind="uniform")

    @pytest.mark.parametrize("rho", [-0.1, 1.0, float("nan")])
    def test_bad_correlation(self, rho):
        with pytest.raises(ParameterError, match="correlation"):
            make(correlation=rho)

    def test_transform_shape(self):
        with pytest.raises(ParameterError, match="shape"):
            make().transform(np.zeros((4, 3)))

    def test_sample_count(self):
        with pytest.raises(ParameterError, match="at least one"):
            make().draw_normals(0, seed=1)


class TestCanonicalForm:
    def test_sigma_order_is_canonical(self):
        forward = make([("r1", 0.1), ("co", 0.05)])
        backward = make([("co", 0.05), ("r1", 0.1)])
        from_dict = make({"co": 0.05, "r1": 0.1})
        assert forward == backward == from_dict
        assert forward.varied == ("r1", "co")

    def test_dimension(self):
        assert make().dimension == 2
        full = make({name: 0.05 for name in VARIABLE_PARAMS})
        assert full.dimension == len(VARIABLE_PARAMS)


class TestDraws:
    def test_seeded_draws_are_reproducible(self):
        dist = make()
        a = dist.sample_block(64, seed=3)
        b = dist.sample_block(64, seed=3)
        assert a.tobytes() == b.tobytes()
        c = dist.sample_block(64, seed=4)
        assert a.tobytes() != c.tobytes()

    def test_unvaried_fields_stay_nominal(self):
        block = make().sample_block(16, seed=0)
        for name in ("r2", "r3", "r4", "cn", "vdd", "delta_min"):
            assert np.all(block[name]
                          == getattr(PAPER_TABLE_I, name))

    def test_lognormal_preserves_the_mean(self):
        dist = make({"r1": 0.1})
        block = dist.sample_block(200_000, seed=11)
        mean = block["r1"].mean()
        # SE of the mean ~ 0.02 %; 0.2 % is a 10-sigma band.
        assert abs(mean / PAPER_TABLE_I.r1 - 1.0) < 2e-3

    def test_lognormal_is_positive(self):
        block = make({"r1": 1.5}).sample_block(5000, seed=2)
        assert np.all(block["r1"] > 0.0)

    def test_normal_floor(self):
        dist = make({"r1": 5.0}, kind="normal")
        block = dist.sample_block(5000, seed=2)
        assert np.all(block["r1"] > 0.0)
        assert block["r1"].min() \
            == pytest.approx(PAPER_TABLE_I.r1 * 1e-6)

    def test_equicorrelation_correlates(self):
        dist = make({"r1": 0.1, "r2": 0.1}, correlation=0.9)
        block = dist.sample_block(20_000, seed=5)
        logs = np.log(np.stack([block["r1"], block["r2"]]))
        rho = np.corrcoef(logs)[0, 1]
        assert rho > 0.85
        independent = make({"r1": 0.1, "r2": 0.1})
        block = independent.sample_block(20_000, seed=5)
        logs = np.log(np.stack([block["r1"], block["r2"]]))
        assert abs(np.corrcoef(logs)[0, 1]) < 0.05
