"""Tests for repro.core.modes — ODE systems and eigen-decompositions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.modes import (Mode, all_mode_systems, mode_00_constants,
                              mode_10_constants, mode_system)
from repro.core.parameters import PAPER_TABLE_I, NorGateParameters

positive = st.floats(min_value=1e3, max_value=1e6)
caps = st.floats(min_value=1e-18, max_value=1e-14)


@st.composite
def parameter_sets(draw):
    return NorGateParameters(
        r1=draw(positive), r2=draw(positive), r3=draw(positive),
        r4=draw(positive), cn=draw(caps), co=draw(caps), vdd=0.8)


class TestModeEnum:
    def test_values(self):
        assert Mode.BOTH_LOW.value == (0, 0)
        assert Mode.BOTH_HIGH.value == (1, 1)
        assert Mode.A_HIGH_B_LOW.value == (1, 0)
        assert Mode.A_LOW_B_HIGH.value == (0, 1)

    def test_from_inputs(self):
        assert Mode.from_inputs(1, 0) is Mode.A_HIGH_B_LOW
        assert Mode.from_inputs(True, False) is Mode.A_HIGH_B_LOW

    def test_accessors(self):
        assert Mode.A_HIGH_B_LOW.a == 1
        assert Mode.A_HIGH_B_LOW.b == 0

    def test_nor_output(self):
        assert Mode.BOTH_LOW.nor_output == 1
        assert Mode.A_HIGH_B_LOW.nor_output == 0
        assert Mode.A_LOW_B_HIGH.nor_output == 0
        assert Mode.BOTH_HIGH.nor_output == 0

    def test_with_a_b(self):
        assert Mode.BOTH_LOW.with_a(1) is Mode.A_HIGH_B_LOW
        assert Mode.BOTH_LOW.with_b(1) is Mode.A_LOW_B_HIGH
        assert Mode.BOTH_HIGH.with_a(0) is Mode.A_LOW_B_HIGH

    def test_str(self):
        assert str(Mode.A_HIGH_B_LOW) == "(1, 0)"

    def test_resting_state(self):
        assert Mode.BOTH_LOW.resting_state(0.8) == (0.8, 0.8)
        assert Mode.A_LOW_B_HIGH.resting_state(0.8) == (0.8, 0.0)
        assert Mode.A_HIGH_B_LOW.resting_state(0.8) == (0.0, 0.0)
        assert Mode.BOTH_HIGH.resting_state(0.8) == (0.0, 0.0)


class TestSystemMatrices:
    """Check each matrix against the paper's Section III equations."""

    def test_mode_11_matrix(self, paper_params):
        system = mode_system(Mode.BOTH_HIGH, paper_params)
        p = paper_params
        expected = -(1.0 / (p.co * p.r3) + 1.0 / (p.co * p.r4))
        assert system.matrix[0, 0] == 0.0
        assert system.matrix[0, 1] == 0.0
        assert system.matrix[1, 0] == 0.0
        assert system.matrix[1, 1] == pytest.approx(expected)
        assert np.all(system.forcing == 0.0)

    def test_mode_10_matrix(self, paper_params):
        p = paper_params
        system = mode_system(Mode.A_HIGH_B_LOW, p)
        assert system.matrix[0, 0] == pytest.approx(-1 / (p.cn * p.r2))
        assert system.matrix[0, 1] == pytest.approx(1 / (p.cn * p.r2))
        assert system.matrix[1, 0] == pytest.approx(1 / (p.co * p.r2))
        assert system.matrix[1, 1] == pytest.approx(
            -(1 / (p.co * p.r2) + 1 / (p.co * p.r3)))

    def test_mode_01_matrix(self, paper_params):
        p = paper_params
        system = mode_system(Mode.A_LOW_B_HIGH, p)
        assert system.matrix[0, 0] == pytest.approx(-1 / (p.cn * p.r1))
        assert system.matrix[0, 1] == 0.0
        assert system.matrix[1, 0] == 0.0
        assert system.matrix[1, 1] == pytest.approx(-1 / (p.co * p.r4))
        assert system.forcing[0] == pytest.approx(p.vdd / (p.cn * p.r1))

    def test_mode_00_matrix(self, paper_params):
        p = paper_params
        system = mode_system(Mode.BOTH_LOW, p)
        assert system.matrix[0, 0] == pytest.approx(
            -(1 / (p.cn * p.r1) + 1 / (p.cn * p.r2)))
        assert system.matrix[0, 1] == pytest.approx(1 / (p.cn * p.r2))
        assert system.matrix[1, 0] == pytest.approx(1 / (p.co * p.r2))
        assert system.matrix[1, 1] == pytest.approx(-1 / (p.co * p.r2))
        assert system.forcing[0] == pytest.approx(p.vdd / (p.cn * p.r1))

    def test_all_mode_systems(self, paper_params):
        systems = all_mode_systems(paper_params)
        assert set(systems) == set(Mode)

    def test_derivative_evaluation(self, paper_params):
        system = mode_system(Mode.BOTH_LOW, paper_params)
        state = np.array([0.1, 0.2])
        expected = system.matrix @ state + system.forcing
        assert np.allclose(system.derivative(state), expected)


class TestEquilibria:
    def test_mode_00_equilibrium_is_vdd(self, paper_params):
        system = mode_system(Mode.BOTH_LOW, paper_params)
        assert np.allclose(system.equilibrium,
                           [paper_params.vdd, paper_params.vdd])
        # A*eq + g == 0 up to cancellation noise of the ~1e12 entries.
        scale = float(np.max(np.abs(system.matrix)))
        assert np.allclose(system.derivative(system.equilibrium), 0.0,
                           atol=1e-12 * scale)

    def test_mode_01_equilibrium(self, paper_params):
        system = mode_system(Mode.A_LOW_B_HIGH, paper_params)
        assert np.allclose(system.equilibrium, [paper_params.vdd, 0.0])
        scale = float(np.max(np.abs(system.matrix)))
        assert np.allclose(system.derivative(system.equilibrium), 0.0,
                           atol=1e-12 * scale)

    def test_mode_10_equilibrium_is_ground(self, paper_params):
        system = mode_system(Mode.A_HIGH_B_LOW, paper_params)
        assert np.allclose(system.equilibrium, [0.0, 0.0])

    def test_mode_11_vo_equilibrium(self, paper_params):
        system = mode_system(Mode.BOTH_HIGH, paper_params)
        assert system.equilibrium[1] == 0.0
        assert np.isnan(system.equilibrium[0])  # VN is frozen


class TestEigenConstants:
    """Paper eqs. (1)-(7) against numpy's eigendecomposition."""

    @given(parameter_sets())
    def test_mode_10_eigenvalues_match_numpy(self, params):
        system = mode_system(Mode.A_HIGH_B_LOW, params)
        consts = system.constants
        numpy_eigs = np.sort(np.linalg.eigvals(system.matrix))
        ours = np.sort([consts.lambda1, consts.lambda2])
        # Stiff corners (time-constant ratios up to ~1e8 under the
        # sampled ranges) push numpy's backward error ~eps*|λ_max|
        # above a pure relative bound on the small eigenvalue, so
        # allow that absolute floor on top.
        atol = 1e-12 * float(np.max(np.abs(numpy_eigs)))
        assert np.allclose(ours, numpy_eigs, rtol=1e-9, atol=atol)

    @given(parameter_sets())
    def test_mode_00_eigenvalues_match_numpy(self, params):
        system = mode_system(Mode.BOTH_LOW, params)
        consts = system.constants
        numpy_eigs = np.sort(np.linalg.eigvals(system.matrix))
        ours = np.sort([consts.lambda1, consts.lambda2])
        atol = 1e-12 * float(np.max(np.abs(numpy_eigs)))
        assert np.allclose(ours, numpy_eigs, rtol=1e-9, atol=atol)

    @given(parameter_sets())
    def test_mode_10_eigenvectors(self, params):
        system = mode_system(Mode.A_HIGH_B_LOW, params)
        for pair in system.constants.eigenpairs:
            vec = np.array(pair.eigenvector)
            residual = system.matrix @ vec - pair.eigenvalue * vec
            scale = float(np.max(np.abs(system.matrix)))
            assert np.allclose(residual, 0.0,
                               atol=1e-7 * np.linalg.norm(vec) * scale)

    @given(parameter_sets())
    def test_mode_00_eigenvectors(self, params):
        system = mode_system(Mode.BOTH_LOW, params)
        for pair in system.constants.eigenpairs:
            vec = np.array(pair.eigenvector)
            residual = system.matrix @ vec - pair.eigenvalue * vec
            scale = float(np.max(np.abs(system.matrix)))
            assert np.allclose(residual, 0.0,
                               atol=1e-7 * np.linalg.norm(vec) * scale)

    @given(parameter_sets())
    def test_eigenvalues_are_negative_and_distinct(self, params):
        for constants in (mode_10_constants(params),
                          mode_00_constants(params)):
            assert constants.lambda1 < 0.0
            assert constants.lambda2 < 0.0
            assert constants.lambda1 > constants.lambda2  # beta > 0
            assert constants.beta > 0.0

    def test_mode_10_gamma_is_half_trace(self, paper_params):
        system = mode_system(Mode.A_HIGH_B_LOW, paper_params)
        assert system.constants.gamma == pytest.approx(
            np.trace(system.matrix) / 2.0)

    def test_mode_00_gamma_is_half_trace(self, paper_params):
        system = mode_system(Mode.BOTH_LOW, paper_params)
        assert system.constants.gamma == pytest.approx(
            np.trace(system.matrix) / 2.0)

    def test_uncoupled_modes_have_no_constants(self, paper_params):
        assert mode_system(Mode.BOTH_HIGH, paper_params).constants is None
        assert mode_system(Mode.A_LOW_B_HIGH,
                           paper_params).constants is None
