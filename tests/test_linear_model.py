import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import F1_BETA_09, PBAR_BETA_09, STABLE_TAU_BOUND_BETA_11, benchmark_channel, benchmark_system
from wearsched import (
    ConvergenceError,
    InvalidModelError,
    NumericalOverflowError,
    SystemModel,
    mse_table,
    spectral_radius,
    stability_report,
    steady_state,
)
from wearsched import linear_model
from wearsched.linear_model import riccati_step


def scalar_model(a, c=1.0, q=1.0, r=1.0):
    return SystemModel(A=[[a]], C=[[c]], Q=[[q]], R=[[r]])


class TestSpectralRadius:
    def test_benchmark_matrix(self):
        assert spectral_radius([[1.1, 0.5], [0.0, 0.8]]) == pytest.approx(1.1, rel=1e-10)

    def test_identity(self):
        assert spectral_radius(np.eye(2)) == pytest.approx(1.0, rel=1e-10)

    def test_stable_benchmark(self):
        assert spectral_radius([[0.9, 0.5], [0.0, 0.8]]) == pytest.approx(0.9, rel=1e-10)

    @pytest.mark.parametrize("beta", [0.9, 1.0, 1.1])
    def test_family_formula(self, beta):
        assert spectral_radius(benchmark_system(beta).A) == pytest.approx(
            max(beta, 0.8), rel=1e-10
        )

    def test_rejects_non_square(self):
        with pytest.raises(InvalidModelError):
            spectral_radius([[1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidModelError):
            spectral_radius([[np.nan, 0.0], [0.0, 1.0]])


class TestSystemModelValidation:
    def test_asymmetric_q_rejected(self):
        with pytest.raises(InvalidModelError, match="symmetric"):
            SystemModel(A=[[0.5, 0.1], [0, 0.5]], C=[[1, 0]], Q=[[1, 0.5], [0, 1]], R=[[1]])

    def test_indefinite_q_rejected(self):
        with pytest.raises(InvalidModelError, match="semidefinite"):
            SystemModel(A=[[0.5]], C=[[1]], Q=[[-1.0]], R=[[1]])

    def test_singular_r_rejected(self):
        with pytest.raises(InvalidModelError, match="positive definite"):
            SystemModel(A=[[0.5]], C=[[1]], Q=[[1.0]], R=[[0.0]])

    def test_unobservable_rejected(self):
        with pytest.raises(InvalidModelError, match="observable"):
            SystemModel(A=[[2.0, 0], [0, 0.5]], C=[[0.0, 1.0]], Q=np.eye(2), R=[[1]])

    def test_uncontrollable_unstable_rejected(self):
        with pytest.raises(InvalidModelError, match="controllable"):
            SystemModel(
                A=[[2.0, 0], [0, 0.5]], C=[[1.0, 1.0]], Q=np.diag([0.0, 1.0]), R=[[1]]
            )

    def test_uncontrollable_stable_allowed(self):
        # Zero process noise is fine when A is strictly stable: the filter
        # recursion from zero still converges (to zero).
        model = SystemModel(A=[[0.5]], C=[[1]], Q=[[0.0]], R=[[1]])
        assert steady_state(model)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidModelError):
            SystemModel(A=[[0.5]], C=[[1]], Q=np.eye(2), R=[[1]])


class TestSteadyState:
    def test_scalar_one_step(self):
        # a=0: a single update gives the fixed point K = q/(q+r),
        # pbar = (1-K) q = 2/3.
        model = scalar_model(a=0.0, q=2.0, r=1.0)
        p_bar = steady_state(model)
        assert p_bar[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert not p_bar.flags.writeable

    def test_benchmark_beta_09_matches_oracle(self):
        np.testing.assert_allclose(steady_state(benchmark_system(0.9)), PBAR_BETA_09, atol=1e-9)

    def test_fixed_point_residual(self):
        model = benchmark_system(1.1)
        p_bar = steady_state(model)
        assert np.linalg.norm(riccati_step(model, p_bar) - p_bar, "fro") < 1e-11

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(linear_model, "STEADY_STATE_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="in 2 iterations") as exc_info:
            steady_state(benchmark_system(0.9))
        assert exc_info.value.residual > 0

    def test_stops_at_the_first_step_below_the_tolerance(self, monkeypatch):
        # Any step is below an infinite tolerance: one update from zero.
        model = benchmark_system(0.9)
        monkeypatch.setattr(linear_model, "STEADY_STATE_TOL", np.inf)
        np.testing.assert_array_equal(steady_state(model), riccati_step(model, np.zeros((2, 2))))


class TestMseTable:
    def test_scalar_random_walk(self):
        # a=1, q=1: the covariance recurrence adds one per step.
        model = scalar_model(a=1.0, q=1.0, r=1.0)
        p_bar = steady_state(model)
        table = mse_table(model, p_bar, delta_max=20)
        p = p_bar[0, 0]
        np.testing.assert_allclose(table, p + np.arange(1, 21), rtol=1e-12)

    def test_zero_dynamics_constant_mse(self):
        model = SystemModel(A=np.zeros((2, 2)), C=np.eye(2), Q=np.diag([1.0, 2.0]), R=np.eye(2))
        table = mse_table(model, steady_state(model), delta_max=10)
        np.testing.assert_allclose(table, 3.0, rtol=1e-12)

    def test_benchmark_first_entry_matches_oracle(self):
        model = benchmark_system(0.9)
        table = mse_table(model, steady_state(model), delta_max=5)
        assert table[0] == pytest.approx(F1_BETA_09, abs=1e-9)
        expected = np.trace(model.A @ PBAR_BETA_09 @ model.A.T + model.Q)
        assert table[0] == pytest.approx(expected, abs=1e-9)

    def test_overflow_names_offending_age(self):
        model = scalar_model(a=2.0, q=1.0, r=1.0)
        p_bar = steady_state(model)
        with pytest.raises(NumericalOverflowError) as exc_info:
            mse_table(model, p_bar, delta_max=2000)
        assert exc_info.value.first_offending_index is not None
        assert 1 <= exc_info.value.first_offending_index <= 2000

    @given(
        a=st.floats(-1.4, 1.4),
        q=st.floats(0.05, 4.0),
        r=st.floats(0.05, 4.0),
        delta_max=st.integers(2, 50),
    )
    def test_mse_nondecreasing(self, a, q, r, delta_max):
        assume(abs(a) > 1e-3)
        model = scalar_model(a=a, q=q, r=r)
        table = mse_table(model, steady_state(model), delta_max=delta_max)
        diffs = np.diff(table)
        assert np.all(diffs >= -1e-12 * np.abs(table[:-1]))

    @given(a=st.floats(-0.95, 0.95), q=st.floats(0.05, 4.0))
    def test_stable_mse_differences_decay(self, a, q):
        assume(abs(a) > 1e-3)
        model = scalar_model(a=a, q=q)
        table = mse_table(model, steady_state(model), delta_max=40)
        v = table
        assert np.all(v <= v[-1] + 1e-12)
        assert v[-1] - v[-2] <= v[1] - v[0] + 1e-12


class TestStabilityReport:
    def test_stable_system_no_renewal_needed(self):
        rep = stability_report(benchmark_system(0.9), benchmark_channel())
        assert rep.stable_without_renewal  # 0.81 < 1
        assert rep.stabilizable_with_renewal
        assert rep.stable_region_all

    def test_unstable_system_renewal_saves(self):
        rep = stability_report(benchmark_system(1.1), benchmark_channel())
        assert not rep.stable_without_renewal  # 1.21 * 1 >= 1
        assert rep.stabilizable_with_renewal  # 1.21 * 0.01 < 1
        assert rep.stable_tau_bound == STABLE_TAU_BOUND_BETA_11
        assert not rep.stable_region_all

    def test_marginal_system_strict_inequality(self):
        rep = stability_report(benchmark_system(1.0), benchmark_channel())
        assert not rep.stable_without_renewal  # 1.0 * 1.0 == 1, strict fails

    def test_no_stable_age(self):
        # Even the freshest channel is too weak for this spectral radius.
        channel = benchmark_channel(theta_max=0.1, theta_min=0.0)
        rep = stability_report(benchmark_system(1.5), channel)
        assert rep.stable_tau_bound is None
        assert not rep.stable_region_all
