import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    benchmark_channel,
    benchmark_system,
    scalar_spi_improvement,
    scalar_transmit_thresholds,
)
from wearsched import (
    Action,
    AgeState,
    ConvergenceError,
    DomainError,
    EvaluationError,
    Policy,
    SolveOptions,
    Truncation,
    brute_force_optimal,
    build_mdp,
    greedy_policy,
    policy_evaluate,
    q_backup,
    rvi_solve,
    simulate,
    structured_policy_iteration,
    threshold_heuristic,
)
from wearsched.solvers import _evaluate_iterative, _monotone_improvement, _transmit_thresholds


@pytest.fixture(scope="module")
def toy():
    """The 3x3 desk-scale instance used against the exhaustive oracle."""
    return build_mdp(
        benchmark_system(0.9), benchmark_channel(tau_d=2, delta_r=2), Truncation(3, 3)
    )


@pytest.fixture(scope="module")
def perfect_channel_mdp():
    return build_mdp(
        benchmark_system(0.9),
        benchmark_channel(theta_max=1.0, theta_min=1.0),
        Truncation(30, 30),
    )


class TestQBackup:
    def test_zero_continuation_returns_cost(self, toy):
        q = q_backup(toy, np.zeros(toy.shape))
        np.testing.assert_array_equal(q, toy.cost_table)

    def test_renew_backup_formula(self, small_case):
        # Q(s, renew) = lump sum + v at (1, delta + downtime), clamped.
        mdp, v = small_case.mdp, small_case.rvi.v
        q = q_backup(mdp, v)
        dr, d_max = mdp.channel.delta_r, mdp.trunc.delta_max
        for tau, delta in ((3, 2), (11, 9), (30, 1)):
            expected = sum(
                mdp.mse.at(min(delta + r, d_max)) for r in range(dr)
            ) + v[0, min(delta + dr, d_max) - 1]
            assert q[tau - 1, delta - 1, Action.RENEW] == pytest.approx(expected, rel=1e-12)

    def test_matches_hand_rolled_dot_product(self, small_case):
        mdp = small_case.mdp
        rng = np.random.default_rng(7)
        v = rng.normal(size=mdp.shape)
        q = q_backup(mdp, v)
        s = AgeState(int(rng.integers(1, 31)), int(rng.integers(1, 31)))
        u = int(rng.integers(0, 3))
        expected = mdp.cost(s, u) + sum(
            p * v[s2.tau - 1, s2.delta - 1] for s2, p in mdp.transitions(s, u)
        )
        assert q[s.tau - 1, s.delta - 1, u] == pytest.approx(expected, rel=1e-12)

    @given(
        tau_max=st.integers(1, 12),
        delta_max=st.integers(1, 12),
        tau_d=st.integers(2, 14),
        delta_r=st.integers(2, 14),
        curve=st.sampled_from(["dead", "perfect", "decaying"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_transitions(self, tau_max, delta_max, tau_d, delta_r, curve, seed):
        theta = {"dead": (0.0, 0.0), "perfect": (1.0, 1.0), "decaying": (0.95, 0.1)}[curve]
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(0.3, tau_d, delta_r, *theta),
            Truncation(tau_max, delta_max),
            require_headroom=False,
        )
        v = np.random.default_rng(seed).normal(scale=1e3, size=mdp.shape)
        expected = np.empty(mdp.shape + (3,))
        for s in mdp.states():
            for u in Action:
                cont = sum(p * v[s2.tau - 1, s2.delta - 1] for s2, p in mdp.transitions(s, u))
                expected[s.tau - 1, s.delta - 1, u] = mdp.cost(s, u) + cont
        np.testing.assert_array_equal(q_backup(mdp, v), expected)


class TestVectorisedScans:
    """The vectorised improvement steps against their scalar references."""

    @staticmethod
    def _q(shape, seed, ties):
        rng = np.random.default_rng(seed)
        if ties:  # few distinct values, so equal Q-factors are common
            return rng.integers(0, 3, size=shape + (3,)).astype(float)
        return rng.normal(size=shape + (3,))

    @given(
        tau_max=st.integers(1, 12),
        delta_max=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
    )
    def test_spi_scan_matches_scalar(self, tau_max, delta_max, seed, ties):
        q = self._q((tau_max, delta_max), seed, ties)
        actions, skipped = _monotone_improvement(q[:, :, 0], q[:, :, 1], q[:, :, 2])
        ref_actions, ref_skipped = scalar_spi_improvement(q)
        np.testing.assert_array_equal(actions, ref_actions)
        assert skipped == ref_skipped

    @given(
        tau_max=st.integers(1, 12),
        delta_max=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
        data=st.data(),
    )
    def test_threshold_scan_matches_scalar(self, tau_max, delta_max, seed, ties, data):
        q = self._q((tau_max, delta_max), seed, ties)
        tau_renew = data.draw(st.integers(0, tau_max))
        got = _transmit_thresholds(q[:, :, 0], q[:, :, 1], tau_renew)
        assert got == scalar_transmit_thresholds(q, tau_renew)

    def test_scans_match_scalar_on_random_values(self, small_case):
        # Q-factors backed up from random relative values, so the scans see
        # the cost and kernel structure of a real instance.
        mdp = small_case.mdp
        for seed in range(5):
            v = np.random.default_rng(seed).normal(scale=100.0, size=mdp.shape)
            q = q_backup(mdp, v)
            actions, skipped = _monotone_improvement(q[:, :, 0], q[:, :, 1], q[:, :, 2])
            ref_actions, ref_skipped = scalar_spi_improvement(q)
            np.testing.assert_array_equal(actions, ref_actions)
            assert skipped == ref_skipped
            for tau_renew in (0, 7, mdp.trunc.tau_max):
                got = _transmit_thresholds(q[:, :, 0], q[:, :, 1], tau_renew)
                assert got == scalar_transmit_thresholds(q, tau_renew)


class TestRvi:
    def test_perfect_channel_gain_is_first_age_mse(self, perfect_channel_mdp):
        res = rvi_solve(perfect_channel_mdp, SolveOptions(tol=1e-12))
        assert res.gain == pytest.approx(perfect_channel_mdp.mse.at(1), abs=1e-9)
        # Transmission succeeds surely, so the greedy policy transmits on the
        # recurrent set it induces from the best state.
        assert res.policy.action_at(1, 1) == Action.TRANSMIT

    def test_reference_state_value_is_zero(self, small_case):
        ref = small_case.rvi
        assert ref.v[0, 0] == 0.0

    def test_matches_brute_force_on_toy(self, toy):
        bf_gain, _ = brute_force_optimal(toy)
        res = rvi_solve(toy, SolveOptions(tol=1e-12, max_iter=10**6))
        assert res.gain == pytest.approx(bf_gain, abs=1e-8)

    def test_non_convergence_carries_history(self, toy):
        with pytest.raises(ConvergenceError) as exc_info:
            rvi_solve(toy, SolveOptions(tol=1e-14, max_iter=3))
        assert len(exc_info.value.history) == 3

    def test_bellman_residual(self, small_case):
        mdp, res = small_case.mdp, small_case.rvi
        fresh = q_backup(mdp, res.v).min(axis=2)
        assert np.abs(fresh - res.v - res.gain).max() < 10 * 1e-10

    def test_reference_state_independence(self, small_case):
        mdp = small_case.mdp
        tol = 1e-10
        a = rvi_solve(mdp, SolveOptions(tol=tol, ref_state=AgeState(1, 1)))
        b = rvi_solve(mdp, SolveOptions(tol=tol, ref_state=AgeState(17, 23)))
        assert abs(a.gain - b.gain) < 10 * tol

    def test_greedy_consistency(self, small_case):
        res = small_case.rvi
        np.testing.assert_array_equal(res.policy.actions, np.argmin(res.q, axis=2))

    def test_options_validation(self):
        with pytest.raises(DomainError):
            SolveOptions(tol=0.0)
        with pytest.raises(DomainError):
            SolveOptions(max_iter=0)


class TestPolicyEvaluate:
    def test_transmit_always_perfect_channel(self, perfect_channel_mdp):
        pol = Policy(actions=np.ones(perfect_channel_mdp.shape, dtype=np.int8))
        gain, v = policy_evaluate(perfect_channel_mdp, pol)
        assert gain == pytest.approx(perfect_channel_mdp.mse.at(1), rel=1e-12)
        assert v[0, 0] == 0.0

    def test_renew_always_clamped_cycle(self, small_case):
        mdp = small_case.mdp
        pol = Policy(actions=np.full(mdp.shape, 2, dtype=np.int8))
        gain, _ = policy_evaluate(mdp, pol)
        expected = mdp.channel.delta_r * mdp.mse.at(mdp.trunc.delta_max)
        assert gain == pytest.approx(expected, rel=1e-10)

    def test_optimal_policy_evaluates_to_optimal_gain(self, case_stable):
        gain, _ = policy_evaluate(case_stable.mdp, case_stable.rvi.policy)
        assert gain == pytest.approx(case_stable.rvi.gain, abs=1e-6)

    def test_iterative_fallback_agrees_with_direct(self, small_case):
        mdp = small_case.mdp
        pol = small_case.rvi.policy
        ref = mdp.state_index(AgeState(1, 1))
        gain_d, v_d = policy_evaluate(mdp, pol)
        gain_i, v_i = _evaluate_iterative(mdp, pol, ref, tol=1e-12, max_iter=10**6)
        assert gain_i == pytest.approx(gain_d, abs=1e-8)
        np.testing.assert_allclose(v_i, v_d, atol=1e-6)

    def test_multichain_policy_raises(self):
        # A dead channel plus a policy with two absorbing loops of different
        # cost has no consistent gain/value solution.
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(theta_max=0.0, theta_min=0.0, tau_d=2, delta_r=2),
            Truncation(4, 4),
        )
        actions = np.zeros(mdp.shape, dtype=np.int8)
        actions[0, 3] = 2  # (1, delta_max) renews forever
        with pytest.raises(EvaluationError) as exc_info:
            policy_evaluate(mdp, Policy(actions=actions))
        assert exc_info.value.condition_estimate > 1e8

    def test_policy_grid_must_match(self, small_case):
        with pytest.raises(DomainError):
            policy_evaluate(small_case.mdp, Policy(actions=np.zeros((3, 3), dtype=np.int8)))


class TestStructuredPolicyIteration:
    def test_agrees_with_rvi(self, small_case):
        assert abs(small_case.spi.gain - small_case.rvi.gain) < 1e-6
        assert small_case.spi.skipped_q_evals > 0

    def test_perfect_channel(self, perfect_channel_mdp):
        res = structured_policy_iteration(perfect_channel_mdp, SolveOptions(tol=1e-12))
        assert res.gain == pytest.approx(perfect_channel_mdp.mse.at(1), abs=1e-9)

    def test_fixed_point_is_greedy(self, small_case):
        # Termination at an unchanged policy also means the returned policy
        # is greedy for its own converged Q-factors.
        res = small_case.spi
        np.testing.assert_array_equal(res.policy.actions, np.argmin(res.q, axis=2))

    def test_matches_brute_force_on_toy(self, toy):
        bf_gain, _ = brute_force_optimal(toy)
        res = structured_policy_iteration(toy, SolveOptions(tol=1e-12))
        assert res.gain == pytest.approx(bf_gain, abs=1e-8)

    def test_reference_value_zero(self, small_case):
        assert small_case.spi.v[0, 0] == 0.0

    def test_bellman_residual_at_fixed_point(self, small_case):
        # Exact policy evaluation leaves only floating-point noise in the
        # optimality-equation residual.
        res = small_case.spi
        assert res.residual < 1e-8
        fresh = q_backup(small_case.mdp, res.v).min(axis=2)
        assert np.abs(fresh - res.v - res.gain).max() < 1e-8


class TestBruteForce:
    @pytest.mark.parametrize(
        "beta,theta_max,theta_min,alpha,tau_d,delta_r,tau_max,delta_max",
        [
            (0.9, 0.99, 0.0, 0.1, 2, 2, 2, 4),
            (1.1, 0.9, 0.2, 0.3, 3, 2, 2, 4),
            (1.0, 0.7, 0.1, 0.05, 2, 3, 4, 2),
            (0.5, 0.5, 0.5, 1.0, 4, 4, 3, 3),
        ],
    )
    def test_both_solvers_match_oracle_on_diverse_instances(
        self, beta, theta_max, theta_min, alpha, tau_d, delta_r, tau_max, delta_max
    ):
        mdp = build_mdp(
            benchmark_system(beta),
            benchmark_channel(alpha, tau_d, delta_r, theta_max, theta_min),
            Truncation(tau_max, delta_max),
            require_headroom=False,
        )
        bf_gain, _ = brute_force_optimal(mdp)
        rvi = rvi_solve(mdp, SolveOptions(tol=1e-12, max_iter=10**6))
        spi = structured_policy_iteration(mdp, SolveOptions(tol=1e-12))
        assert rvi.gain == pytest.approx(bf_gain, abs=1e-8)
        assert spi.gain == pytest.approx(bf_gain, abs=1e-8)

    def test_single_state_grid(self):
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(tau_d=2, delta_r=2),
            Truncation(1, 1),
            require_headroom=False,
        )
        gain, policy = brute_force_optimal(mdp)
        assert gain == pytest.approx(mdp.mse.at(1), rel=1e-12)
        assert policy.action_at(1, 1) in (Action.IDLE, Action.TRANSMIT)

    def test_refuses_large_grids(self, small_case):
        with pytest.raises(DomainError, match="12"):
            brute_force_optimal(small_case.mdp)

    def test_perfect_channel_policy_achieves_first_age_mse(self):
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(theta_max=1.0, theta_min=1.0, tau_d=2, delta_r=2),
            Truncation(3, 3),
        )
        gain, policy = brute_force_optimal(mdp)
        assert gain == pytest.approx(mdp.mse.at(1), rel=1e-10)
        eval_gain, _ = policy_evaluate(mdp, policy)
        assert eval_gain == pytest.approx(gain, rel=1e-10)

    def test_oracle_policy_confirmed_by_simulation(self, toy):
        gain, policy = brute_force_optimal(toy)
        stats = simulate(toy, policy, epochs=10**6, seed=2024)
        assert abs(stats.per_epoch_avg_cost - gain) <= 3 * stats.std_error


class TestThresholdHeuristic:
    def test_never_beats_optimum(self, small_case):
        res = threshold_heuristic(small_case.mdp, SolveOptions(tol=1e-10))
        assert res.gain >= small_case.rvi.gain - 1e-9

    def test_fixed_renew_threshold_structure(self, small_case):
        mdp = small_case.mdp
        res = threshold_heuristic(mdp, SolveOptions(tol=1e-10), tau_renew=10)
        acts = res.policy.actions
        assert np.all(acts[10:, :] == 2)
        assert np.all(acts[:10, :] != 2)

    def test_renew_everywhere_candidate(self, small_case):
        mdp = small_case.mdp
        res = threshold_heuristic(mdp, SolveOptions(tol=1e-10), tau_renew=0)
        assert np.all(res.policy.actions == 2)
        expected = mdp.channel.delta_r * mdp.mse.at(mdp.trunc.delta_max)
        assert res.gain == pytest.approx(expected, rel=1e-10)

    def test_residual_is_bellman_residual(self, small_case):
        # Renewing everywhere is far from optimal, so the optimality equation
        # is visibly violated; the residual is read off the returned Q.
        res = threshold_heuristic(small_case.mdp, SolveOptions(tol=1e-10), tau_renew=0)
        assert res.residual > 0
        assert res.residual == np.abs(res.q.min(axis=2) - res.v - res.gain).max()

    def test_invalid_threshold(self, small_case):
        with pytest.raises(DomainError):
            threshold_heuristic(small_case.mdp, tau_renew=31)


class TestPolicyType:
    def test_equality_and_lookup(self):
        a = Policy(actions=np.zeros((2, 3), dtype=np.int8))
        b = Policy(actions=np.zeros((2, 3), dtype=np.int8))
        c = Policy(actions=np.ones((2, 3), dtype=np.int8))
        assert a == b and a != c
        assert a.action_at(2, 3) == Action.IDLE
        with pytest.raises(DomainError):
            a.action_at(3, 1)

    def test_invalid_actions_rejected(self):
        with pytest.raises(DomainError):
            Policy(actions=np.full((2, 2), 4, dtype=np.int8))

    def test_greedy_tie_break_prefers_smallest_action(self):
        q = np.zeros((1, 1, 3))
        assert greedy_policy(q).action_at(1, 1) == Action.IDLE
