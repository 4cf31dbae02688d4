import dataclasses
import hashlib
import itertools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BRUTE_FORCE_MAX_STATES,
    action_at,
    benchmark_channel,
    benchmark_mdp,
    benchmark_system,
    brute_force_optimal,
    eventually_reachable,
    policy_gains,
    reference_evaluation_matrix,
    reference_lu_evaluate,
    reference_q_actions,
    reference_renewal_closed_evaluate,
    reference_rvi_solve,
    reference_threshold_heuristic,
    scalar_cost,
    scalar_spi_improvement,
    scalar_transitions,
    scalar_transmit_thresholds,
    states,
)
from wearsched import (
    Action,
    AgeState,
    ConvergenceError,
    DomainError,
    EvaluationError,
    Policy,
    SolveOptions,
    SolveResult,
    Truncation,
    build_mdp,
    greedy_policy,
    policy_evaluate,
    q_backup,
    rvi_solve,
    simulate,
    structured_policy_iteration,
    threshold_heuristic,
)
from wearsched import solvers
from wearsched.artifacts import write_policy_csv
from wearsched.config import load_config
from wearsched.solvers import (
    _continuation_grids,
    _evaluate_stack,
    _float_floor,
    _lu_solve,
    _monotone_improvement,
    _policy_iteration,
    _prolong,
    _renewal_closed_solve,
    _transmit_thresholds,
    threshold_actions,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


def _drawn_mdp(tau_max, delta_max, theta, beta, restricted, tau_costs, data):
    """A benchmark MDP with wear and downtime drawn small or near the grid
    bounds, where the age shifts clamp; optionally restricted from a larger
    grid, and with costs that vary with the channel age too."""
    tau_d = data.draw(st.one_of(st.integers(2, 6), st.integers(max(2, tau_max - 2), tau_max + 2)))
    delta_r = data.draw(st.one_of(st.integers(2, 6), st.integers(max(2, delta_max - 2), delta_max + 2)))
    extra = 7 if restricted else 0
    mdp = build_mdp(
        benchmark_system(beta),
        benchmark_channel(0.1, tau_d, delta_r, *theta),
        Truncation(tau_max + extra, delta_max + extra),
        require_headroom=False,
    )
    if restricted:
        mdp = mdp.restrict(tau_max, delta_max)
    if tau_costs:
        scale = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(0.5, 2.0, (tau_max, 1, 3))
        mdp = dataclasses.replace(mdp, cost_table=mdp.cost_table * scale)
    return mdp


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
        expected = scalar_cost(mdp, s, u) + sum(
            p * v[s2.tau - 1, s2.delta - 1] for s2, p in scalar_transitions(mdp, s, u)
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
        for s in states(mdp):
            for u in Action:
                cont = sum(p * v[s2.tau - 1, s2.delta - 1] for s2, p in scalar_transitions(mdp, s, u))
                expected[s.tau - 1, s.delta - 1, u] = scalar_cost(mdp, s, u) + cont
        np.testing.assert_array_equal(q_backup(mdp, v), expected)


class TestSliceBackup:
    """The slice-shift Q-backup against the index-gather reference, bit for
    bit."""

    @given(
        tau_max=st.integers(1, 40),
        delta_max=st.integers(1, 40),
        theta=st.sampled_from([(0.0, 0.0), (1.0, 1.0), (0.99, 0.0), (0.95, 0.3)]),
        restricted=st.booleans(),
        tau_costs=st.booleans(),
        data=st.data(),
    )
    def test_matches_the_gather_reference(self, tau_max, delta_max, theta, restricted, tau_costs, data):
        # Wear and downtime are drawn small or at least the grid bound less
        # one, where a single clamp covers the whole axis.
        tau_d = data.draw(st.one_of(st.integers(2, 6), st.integers(max(2, tau_max - 1), tau_max + 3)))
        delta_r = data.draw(
            st.one_of(st.integers(2, 6), st.integers(max(2, delta_max - 1), delta_max + 3))
        )
        extra = 5 if restricted else 0
        mdp = build_mdp(
            benchmark_system(1.0),
            benchmark_channel(0.1, tau_d, delta_r, *theta),
            Truncation(tau_max + extra, delta_max + extra),
            require_headroom=False,
        )
        if restricted:
            mdp = mdp.restrict(tau_max, delta_max)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if tau_costs:  # costs that vary with the channel age too
            costs = mdp.cost_table * rng.uniform(0.5, 2.0, size=(tau_max, 1, 3))
            mdp = dataclasses.replace(mdp, cost_table=costs)
        v = rng.normal(scale=1e3, size=mdp.shape)
        expected = np.stack(reference_q_actions(mdp, v), axis=2)
        assert q_backup(mdp, v).tobytes() == expected.tobytes()

    @given(
        tau_max=st.integers(1, 30),
        delta_max=st.integers(1, 30),
        batch=st.integers(1, 4),
        restricted=st.booleans(),
        tau_costs=st.booleans(),
        data=st.data(),
    )
    def test_a_stack_backs_up_as_its_members(self, tau_max, delta_max, batch, restricted, tau_costs, data):
        # Signed zeros and infinities included: each member's Q grids must
        # carry the bits its own 2-d backup gives.
        mdp = _drawn_mdp(tau_max, delta_max, (0.95, 0.3), 1.0, restricted, tau_costs, data)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = rng.normal(scale=1e3, size=(batch, *mdp.shape))
        v[rng.random(v.shape) < 0.1] = -0.0
        v[rng.random(v.shape) < 0.02] = np.inf
        q = np.empty((3, *v.shape))
        with np.errstate(invalid="ignore"):
            solvers._backup(mdp, v, np.moveaxis(mdp.cost_table, 2, 0), q, np.empty(v.shape))
            for b in range(batch):
                assert q[:, b].tobytes() == np.moveaxis(q_backup(mdp, v[b]), 2, 0).tobytes()

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.yaml")))
    def test_rvi_matches_the_reference_loop(self, name):
        # slow-decay-long-renewal's downtime of 40 leaves no headroom at 40².
        cfg = load_config(CONFIG_DIR / f"{name}.yaml")
        mdp = build_mdp(
            cfg.build_system(), cfg.build_channel(), Truncation(40, 40), require_headroom=False
        )
        opts = cfg.solver.options()
        res, ref = rvi_solve(mdp, opts), reference_rvi_solve(mdp, opts)
        for field in dataclasses.fields(SolveResult):
            got, want = getattr(res, field.name), getattr(ref, field.name)
            if isinstance(got, Policy):
                got, want = got.actions, want.actions
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name


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
        assert action_at(res.policy, 1, 1) == Action.TRANSMIT

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

    @settings(max_examples=150)
    @given(
        tau_max=st.integers(1, 12),
        delta_max=st.integers(1, 12),
        tau_d=st.integers(2, 14),
        delta_r=st.integers(2, 14),
        beta=st.sampled_from([0.5, 0.9, 1.0, 1.1]),
        curve=st.sampled_from(["dead", "perfect", "decaying"]),
    )
    def test_bracket_contains_gains(self, tau_max, delta_max, tau_d, delta_r, beta, curve):
        # [min(Tv - v), max(Tv - v)] brackets lambda* whatever v is, so each
        # solver's bracket holds the exact gain of the optimal policy SPI
        # finds; RVI's and SPI's also hold their own gains.
        theta = {"dead": (0.0, 0.0), "perfect": (1.0, 1.0), "decaying": (0.95, 0.1)}[curve]
        mdp = build_mdp(
            benchmark_system(beta),
            benchmark_channel(0.3, tau_d, delta_r, *theta),
            Truncation(tau_max, delta_max),
            require_headroom=False,
        )
        rvi = rvi_solve(mdp)
        spi = structured_policy_iteration(mdp)
        exact, _ = policy_evaluate(mdp, spi.policy)
        lo, hi = rvi.lambda_bounds
        assert lo <= rvi.gain <= hi
        assert lo <= exact <= hi
        assert hi - lo >= rvi.residual
        spi_lo, spi_hi = spi.lambda_bounds
        assert spi_lo <= spi.gain <= spi_hi
        assert spi_lo <= exact <= spi_hi
        heuristic_lo, heuristic_hi = threshold_heuristic(mdp).lambda_bounds
        assert heuristic_lo <= exact <= heuristic_hi

    def test_benchmark_policy_unchanged_by_damping(self, tmp_path):
        # policy.csv of benchmark-marginal at 160x160, as undamped RVI wrote
        # it in 1395 iterations; the benchmark gate pins the same digest.
        cfg = load_config(
            CONFIG_DIR / "benchmark-marginal.yaml",
            overrides=["truncation.tau_max=160", "truncation.delta_max=160"],
        )
        mdp = build_mdp(cfg.build_system(), cfg.build_channel(), cfg.build_truncation())
        res = rvi_solve(mdp, cfg.solver.options())
        write_policy_csv(tmp_path / "policy.csv", res.policy)
        digest = hashlib.sha256((tmp_path / "policy.csv").read_bytes()).hexdigest()
        assert digest == "6baca134120b5719349dae01587d727cb3f4a4f9ec3852cd21a9f77eb74dec57"
        assert res.gain == pytest.approx(118.38262467824372, rel=1e-10)
        assert res.iterations < 400

    @pytest.mark.parametrize("beta,grid", [(1.05, 160), (1.1, 160), (1.1, 80)])
    def test_float_floor_stops_large_value_instances(self, beta, grid):
        # max|v| reaches 5e9 (beta=1.05) and 6e15 (beta=1.1) at 160x160 and
        # 1.4e9 at 80x80, where a span of 1e-9 is below one unit in the last
        # place of the values. At 80x80 the damped span levels off at about
        # one such unit, so a floor of one unit would never be met.
        mdp = benchmark_mdp(beta, grid=grid)
        opts = SolveOptions(tol=1e-9, max_iter=500_000)
        rvi = rvi_solve(mdp, opts)
        assert rvi.iterations < 400
        assert rvi.residual >= opts.tol
        assert rvi.residual < 2 * np.spacing(np.abs(rvi.v).max())
        lo, hi = rvi.lambda_bounds
        assert lo <= structured_policy_iteration(mdp, opts).gain <= hi

    def test_options_validation(self):
        with pytest.raises(DomainError):
            SolveOptions(tol=0.0)
        with pytest.raises(DomainError):
            SolveOptions(max_iter=0)

    def test_integral_float_max_iter_is_the_integer(self, toy):
        opts = SolveOptions(max_iter=100.0)
        assert type(opts.max_iter) is int
        assert rvi_solve(toy, opts).gain == rvi_solve(toy, SolveOptions(max_iter=100)).gain
        for bad in (100.5, float("nan"), float("inf"), "100", None):
            with pytest.raises(DomainError, match="^max_iter must be an integer"):
                SolveOptions(max_iter=bad)


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

    def test_gain_ignores_actions_outside_the_reachable_set(self, case_marginal):
        # The unreachable states are transient under every policy, so the
        # optimal gain does not depend on the actions chosen there.
        mdp, res = case_marginal.mdp, case_marginal.rvi
        reach = eventually_reachable(mdp)
        assert not reach.all()
        pol = Policy(actions=np.where(reach, res.policy.actions, Action.TRANSMIT))
        assert pol != res.policy
        gain, _ = policy_evaluate(mdp, pol)
        assert gain == pytest.approx(res.gain, rel=1e-9)

    def test_direct_solve_above_200k_states(self):
        # Renew-everywhere is absorbed at (1, delta_max), so the gain is the
        # cost of renewing there, whatever the grid size.
        mdp = build_mdp(benchmark_system(1.0), benchmark_channel(), Truncation(450, 450))
        assert mdp.n_states > 200_000
        gain, _ = policy_evaluate(mdp, Policy(actions=np.full(mdp.shape, Action.RENEW, dtype=np.int8)))
        assert gain == pytest.approx(mdp.cost_table[0, -1, Action.RENEW], rel=1e-12)

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

    @pytest.mark.parametrize("action", [Action.TRANSMIT, Action.IDLE], ids=["transmit", "idle"])
    def test_only_the_system_is_alive_during_factorization(self, monkeypatch, action):
        # splu allocates its workspace on top of whatever the evaluation keeps
        # alive when it is called: that should be the CSC system and the cost
        # vector (one float per state), not the arrays that assembled them.
        # Only the threshold heuristic's never-renewing tables take this path.
        import scipy.sparse.linalg

        cfg = load_config(
            CONFIG_DIR / "benchmark-marginal.yaml",
            overrides=["truncation.tau_max=120", "truncation.delta_max=120"],
        )
        mdp = build_mdp(cfg.build_system(), cfg.build_channel(), cfg.build_truncation())
        policy = Policy(actions=np.full(mdp.shape, action, dtype=np.int8))
        splu = scipy.sparse.linalg.splu
        calls = []

        def recording_splu(m, *args, **kwargs):
            system_bytes = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            calls.append((tracemalloc.get_traced_memory()[0], system_bytes))
            return splu(m, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            _evaluate_stack(mdp, policy.actions[None], 0, _lu_solve)
        finally:
            tracemalloc.stop()
        [(live, system_bytes)] = calls
        assert live - entry < 1.5 * system_bytes

    @given(
        shape=st.one_of(
            st.tuples(st.just(1), st.integers(1, 12)),
            st.tuples(st.integers(1, 12), st.just(1)),
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
        ),
        theta=st.one_of(
            st.sampled_from([(0.0, 0.0), (1.0, 1.0), (0.99, 0.0)]),
            st.floats(0.01, 0.99).map(lambda x: (x, x)),
        ),
        restricted=st.booleans(),
        data=st.data(),
    )
    def test_row_wise_system_matches_the_reference(self, shape, theta, restricted, data):
        # Clamped self-loops put two or three entries of one row in one
        # column: one information age makes hit and miss coincide, the last
        # channel age keeps idle and transmit in place.
        mdp = _drawn_mdp(*shape, theta, 1.0, restricted, False, data)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        actions = rng.integers(0, 3, size=shape).astype(np.int8)
        ref = data.draw(st.integers(0, mdp.n_states - 1))
        m = solvers._evaluation_matrix(mdp, actions, ref)
        expected = reference_evaluation_matrix(mdp, actions, ref)
        assert m.format == "csc"
        assert m.indptr.tobytes() == expected.indptr.tobytes()
        assert m.indices.dtype == expected.indices.dtype
        assert m.indices.tobytes() == expected.indices.tobytes()
        assert m.data.view(np.int64).tolist() == expected.data.view(np.int64).tolist()

    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        theta=st.sampled_from([(0.0, 0.0), (1.0, 1.0), (0.99, 0.0), (0.95, 0.3)]),
        restricted=st.booleans(),
        closed=st.booleans(),
        data=st.data(),
    )
    def test_one_backup_serves_the_gate(self, shape, theta, restricted, closed, data):
        # Both paths return the Q grids of one backup at their values. On the
        # LU path the gate reads Q_pi(v) - v - gain, which is the system's
        # b - M x up to the rounding of its terms, and so accepts or refuses
        # as b - M x would.
        mdp = _drawn_mdp(*shape, theta, 1.0, restricted, False, data)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        actions = rng.integers(0, 3, size=shape).astype(np.int8)
        if closed:  # renewal-closed, so policy_evaluate takes the other path
            actions[-1] = Action.RENEW
        ref = data.draw(st.integers(0, mdp.n_states - 1))
        try:
            ev = policy_evaluate(mdp, Policy(actions=actions), AgeState(ref // shape[1] + 1, ref % shape[1] + 1))
        except EvaluationError:
            ev = None
        else:
            assert ev.q.tobytes() == np.moveaxis(q_backup(mdp, ev.v), 2, 0).tobytes()
        try:
            [gain], [v], _ = _lu_solve(mdp, actions[None], ref)
        except EvaluationError:  # exactly singular
            return
        gated = np.choose(actions, np.moveaxis(q_backup(mdp, v), 2, 0)) - v - gain
        cost = mdp.cost_table.reshape(-1, 3)[np.arange(mdp.n_states), actions.reshape(-1)]
        x = np.append(np.delete(v.reshape(-1), ref), gain)
        system = cost - solvers._evaluation_matrix(mdp, actions, ref) @ x
        slack = 4 * np.spacing(np.abs(v).max() + abs(gain) + np.abs(cost).max())
        assert np.abs(gated.reshape(-1) - system).max() <= slack
        if not closed:
            bound = 1e-8 * (1.0 + np.abs(cost).max())
            if ev is None:
                assert not np.abs(system).max() < bound - slack
            else:
                assert np.abs(system).max() <= bound + slack

    @pytest.mark.parametrize("action", [Action.IDLE, Action.RENEW], ids=["idle", "renew"])
    def test_assembly_peak_stays_near_the_system(self, action):
        # The system is built in (n, 4) blocks, so assembly holds a few
        # arrays of n floats beside it, not entry lists and COO and CSR
        # copies of it.
        cfg = load_config(
            CONFIG_DIR / "benchmark-marginal.yaml",
            overrides=["truncation.tau_max=120", "truncation.delta_max=120"],
        )
        mdp = build_mdp(cfg.build_system(), cfg.build_channel(), cfg.build_truncation())
        actions = np.full(mdp.shape, action, dtype=np.int8)
        solvers._evaluation_matrix(mdp, actions, 0)  # warm the imports
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            m = solvers._evaluation_matrix(mdp, actions, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry < 4 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)

    def test_policy_grid_must_match(self, small_case):
        with pytest.raises(DomainError):
            policy_evaluate(small_case.mdp, Policy(actions=np.zeros((3, 3), dtype=np.int8)))


def assert_agrees_with_lu(mdp, actions, ref_state=AgeState(1, 1)):
    """``policy_evaluate`` of a renewal-closed policy refuses what the sparse
    LU path refuses, and otherwise agrees with it to 1e-12 relative: the
    gain, and v against max|v|."""
    try:
        lu_gain, lu_v = reference_lu_evaluate(mdp, actions, mdp.state_index(ref_state))
    except EvaluationError:
        with pytest.raises(EvaluationError):
            policy_evaluate(mdp, Policy(actions=actions), ref_state)
        return
    gain, v = policy_evaluate(mdp, Policy(actions=actions), ref_state)
    assert abs(gain - lu_gain) <= 1e-12 * abs(lu_gain)
    assert np.abs(v - lu_v).max() <= 1e-12 * np.abs(lu_v).max()
    assert v[ref_state.tau - 1, ref_state.delta - 1] == 0.0


class TestRenewalClosedEvaluation:
    """Policies that renew at every cell of the last channel age are
    evaluated by back-substitution over the channel age; the sparse LU path
    is the reference."""

    @given(
        tau_max=st.integers(8, 40),
        delta_max=st.integers(8, 40),
        theta=st.sampled_from([(0.0, 0.0), (1.0, 1.0), (0.99, 0.0), (0.95, 0.3)]),
        beta=st.sampled_from([0.9, 1.0]),
        restricted=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_lu_path(self, tau_max, delta_max, theta, beta, restricted, data):
        # Wear and downtime are drawn small or near the grid bounds, where the
        # age shifts clamp. The policies are the heuristic's threshold tables,
        # or columns that idle, then transmit, then renew down the channel
        # age, as structured policy iteration's improvement step makes them.
        # With theta = 1 some are multichain: both paths must refuse those.
        tau_d = data.draw(st.one_of(st.integers(2, 6), st.integers(max(2, tau_max - 2), tau_max + 2)))
        delta_r = data.draw(
            st.one_of(st.integers(2, 6), st.integers(max(2, delta_max - 2), delta_max + 2))
        )
        extra = 7 if restricted else 0
        mdp = build_mdp(
            benchmark_system(beta),
            benchmark_channel(0.1, tau_d, delta_r, *theta),
            Truncation(tau_max + extra, delta_max + extra),
            require_headroom=False,
        )
        if restricted:
            mdp = mdp.restrict(tau_max, delta_max)
        tau_renew = data.draw(st.integers(0, tau_max - 1))
        ref = AgeState(data.draw(st.integers(1, tau_max)), data.draw(st.integers(1, delta_max)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            transmit_from = rng.integers(0, tau_max + 1, size=delta_max)
            renew_from = transmit_from + rng.integers(0, tau_max + 1, size=delta_max)
            ages = np.arange(tau_max)[:, None]
            actions = (ages >= transmit_from).astype(np.int8) + (ages >= renew_from)
            actions[tau_renew:] = Action.RENEW
        else:
            thresholds = np.sort(rng.integers(1, delta_max + 2, size=tau_max))[::-1]
            actions = threshold_actions(delta_max, tau_renew, thresholds)
        assert_agrees_with_lu(mdp, actions, ref)

    def test_multichain_policy_raises(self):
        # A perfect channel with two closed cycles of different cost: the
        # last information age idles up the channel ages and renews at the
        # top, while (1, 3) transmits to (3, 1), which renews back to (1, 3).
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(theta_max=1.0, theta_min=1.0, tau_d=2, delta_r=2),
            Truncation(5, 5),
        )
        actions = np.full(mdp.shape, Action.RENEW, dtype=np.int8)
        actions[:-1, -1] = Action.IDLE
        actions[0, 2] = Action.TRANSMIT
        with pytest.raises(EvaluationError) as exc_info:
            policy_evaluate(mdp, Policy(actions=actions))
        assert exc_info.value.condition_estimate > 1e8

    @pytest.mark.parametrize("idle_below_top", [False, True], ids=["renew", "idle-then-renew"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_values_are_refused(self, idle_below_top):
        # At information age 322 the MSE of beta=3 is 9e307, so the values
        # overflow; the residual gate refuses them on both paths.
        mdp = build_mdp(benchmark_system(3.0), benchmark_channel(tau_d=2, delta_r=2), Truncation(8, 322))
        actions = np.full(mdp.shape, Action.RENEW, dtype=np.int8)
        if idle_below_top:
            actions[:-1] = Action.IDLE
        with pytest.raises(EvaluationError, match="relative residual nan"):
            policy_evaluate(mdp, Policy(actions=actions))
        assert_agrees_with_lu(mdp, actions)

    def test_memory_at_320(self):
        # The ring buffer holds tau_d + 1 row maps of 320 x 322 floats (about
        # 6 MB); a map per row would take 264 MB.
        cfg = load_config(
            CONFIG_DIR / "benchmark-marginal.yaml",
            overrides=["truncation.tau_max=320", "truncation.delta_max=320"],
        )
        mdp = build_mdp(cfg.build_system(), cfg.build_channel(), cfg.build_truncation())
        policy = Policy(actions=threshold_actions(320, 319, [10] * 320))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            policy_evaluate(mdp, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry < 24 * 2**20


def _renewal_closed_policy(rng, tau_max, delta_max, tau_renew):
    """A threshold table, or columns that idle, then transmit, then renew
    down the channel age, renewing everywhere from ``tau_renew`` on."""
    if rng.random() < 0.5:
        transmit_from = rng.integers(0, tau_max + 1, size=delta_max)
        renew_from = transmit_from + rng.integers(0, tau_max + 1, size=delta_max)
        ages = np.arange(tau_max)[:, None]
        actions = (ages >= transmit_from).astype(np.int8) + (ages >= renew_from)
        actions[tau_renew:] = Action.RENEW
        return actions
    thresholds = np.sort(rng.integers(1, delta_max + 2, size=tau_max))[::-1]
    return threshold_actions(delta_max, tau_renew, thresholds)


def _open_policy(rng, shape):
    """Actions that renew somewhere but not at every cell of the last
    channel age: uniform draws, or idle-then-transmit-then-renew columns as
    structured policy iteration makes them, with a renew cell put in where
    none was drawn and a non-renew cell in the last row."""
    tau_max, delta_max = shape
    if rng.random() < 0.5:
        actions = rng.integers(0, 3, size=shape).astype(np.int8)
    else:
        transmit_from = rng.integers(0, tau_max + 1, size=delta_max)
        renew_from = transmit_from + rng.integers(0, tau_max + 1, size=delta_max)
        ages = np.arange(tau_max)[:, None]
        actions = (ages >= transmit_from).astype(np.int8) + (ages >= renew_from)
    if not (actions == Action.RENEW).any():
        actions[rng.integers(tau_max), rng.integers(delta_max)] = Action.RENEW
    if (actions[-1] == Action.RENEW).all():
        actions[-1, rng.integers(delta_max)] = rng.integers(0, 2)
    return actions


def _never_renewing_policy(rng, shape, family):
    """Idle everywhere, transmit everywhere, or a uniform draw of the two."""
    if family == "idle":
        return np.full(shape, Action.IDLE, dtype=np.int8)
    if family == "transmit":
        return np.full(shape, Action.TRANSMIT, dtype=np.int8)
    return rng.integers(0, 2, size=shape).astype(np.int8)


class TestOpenRenewalEvaluation:
    """A policy that does not renew at every cell of the last channel age,
    renewing somewhere or nowhere, is solved by back-substitution with the
    last row's recursion; the sparse LU path is the reference."""

    @given(
        shape=st.one_of(
            st.tuples(st.just(1), st.integers(1, 12)),
            st.tuples(st.integers(1, 12), st.sampled_from([1, 2])),
            st.tuples(st.sampled_from([1, 2]), st.integers(1, 12)),
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
        ),
        theta=st.one_of(
            st.sampled_from([(0.0, 0.0), (1.0, 1.0), (0.99, 0.0)]),
            st.floats(0.01, 0.99).map(lambda x: (x, x)),
        ),
        restricted=st.booleans(),
        family=st.sampled_from(["open"] * 3 + ["idle", "transmit", "never"]),
        data=st.data(),
    )
    @settings(max_examples=600)
    def test_matches_the_lu_path(self, shape, theta, restricted, family, data):
        # On a one-row grid the last row is row 1; on a one-column grid the
        # last row's two unknowns are one cell. theta = 0 and 1 make many
        # draws multichain: both paths must refuse those. Besides the open
        # policies, which renew somewhere, the draws take policies that
        # renew nowhere, as structured policy iteration starts from.
        mdp = _drawn_mdp(*shape, theta, 1.0, restricted, False, data)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if family == "open":
            actions = _open_policy(rng, shape)
        else:
            actions = _never_renewing_policy(rng, shape, family)
        ref = data.draw(st.integers(0, mdp.n_states - 1))
        ref_state = AgeState(ref // shape[1] + 1, ref % shape[1] + 1)
        try:
            lu = reference_lu_evaluate(mdp, actions, ref)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                policy_evaluate(mdp, Policy(actions=actions), ref_state)
            return
        gain, v = policy_evaluate(mdp, Policy(actions=actions), ref_state)
        scale = np.abs(lu.v).max() + abs(lu.gain)
        assert abs(gain - lu.gain) <= 1e-12 * scale
        assert np.abs(v - lu.v).max() <= 1e-12 * scale
        assert v.reshape(-1)[ref] == 0.0

    def test_never_renewing_multichain_policy_is_refused_by_both_paths(self):
        # On a perfect channel (4, 1) transmits onto itself and the rest of
        # the last row idles up to the clamped corner (4, 4): two closed
        # classes.
        mdp = build_mdp(
            benchmark_system(0.9), benchmark_channel(0.3, 2, 2, 1.0, 1.0), Truncation(4, 4),
            require_headroom=False,
        )
        actions = np.zeros(mdp.shape, dtype=np.int8)
        actions[-1, 0] = Action.TRANSMIT
        with pytest.raises(EvaluationError):
            reference_lu_evaluate(mdp, actions, 0)
        with pytest.raises(EvaluationError):
            policy_evaluate(mdp, Policy(actions=actions))

    def test_spi_policy_at_320_matches_the_lu_path(self, tmp_path):
        # The final policy of benchmark-marginal renews at 316 of the 320
        # cells of its last channel age. Its digest is the one the benchmark
        # pins; cell (311, 1) of it is a tie of 0.02 units in the last place
        # of max|Q|. With its refinement step the solve's gain is as close to
        # the exact one as sparse LU's (0.4 units in the last place, against
        # 10 without the step).
        mdp, opts = _shipped_mdp("benchmark-marginal", 320)
        actions = structured_policy_iteration(mdp, opts).policy.actions
        assert not (actions[-1] == Action.RENEW).all()
        write_policy_csv(tmp_path / "policy.csv", Policy(actions=actions))
        digest = hashlib.sha256((tmp_path / "policy.csv").read_bytes()).hexdigest()
        assert digest == "57b5221deb6bce1540d56a135b1fa50607d4c236e11445b6db16176951a22e0e"
        lu = reference_lu_evaluate(mdp, actions, 0)
        gain, v = policy_evaluate(mdp, Policy(actions=actions))
        assert abs(gain - lu.gain) <= 2 * np.spacing(lu.gain)
        assert np.abs(v - lu.v).max() <= 1e-12 * (np.abs(lu.v).max() + abs(lu.gain))

    @pytest.mark.parametrize(
        "theta,actions",
        [
            # (1, 1) renews onto itself, (2, 1) idles in place.
            ((0.0, 0.0), [[Action.RENEW], [Action.IDLE]]),
            # (1, 2) renews onto itself, (1, 1) delivers onto itself.
            ((1.0, 1.0), [[Action.TRANSMIT, Action.RENEW]]),
            # (1, 4) renews onto itself; the other cells idle up to the
            # clamped corner, which idles in place.
            ((0.0, 0.0), [[Action.IDLE] * 3 + [Action.RENEW]] + [[Action.IDLE] * 4] * 3),
        ],
        ids=["two-rows", "one-row", "corner"],
    )
    def test_multichain_policy_raises_with_the_border_condition(self, monkeypatch, theta, actions):
        # Two closed classes make the border exactly singular: the solve
        # raises EvaluationError with the border's condition estimate.
        mdp = build_mdp(
            benchmark_system(0.9), benchmark_channel(0.3, 2, 2, *theta), Truncation(*np.shape(actions)),
            require_headroom=False,
        )
        estimates = []
        dense_condition = solvers._dense_condition

        def recording(border):
            estimates.append(dense_condition(border))
            return estimates[-1]

        monkeypatch.setattr(solvers, "_dense_condition", recording)
        with pytest.raises(EvaluationError, match="singular") as exc_info:
            policy_evaluate(mdp, Policy(actions=np.array(actions, dtype=np.int8)))
        assert estimates and exc_info.value.condition_estimate == max(estimates)
        assert exc_info.value.condition_estimate > 1e8

    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        theta=st.sampled_from([(0.0, 0.0), (1.0, 1.0), (0.99, 0.0), (0.95, 0.3)]),
        restricted=st.booleans(),
        closed=st.booleans(),
        data=st.data(),
    )
    def test_other_policies_keep_their_own_solve(self, shape, theta, restricted, closed, data):
        # A renewal-closed policy, and one that renews nowhere, get the bits
        # of the back-substitution called on them alone.
        mdp = _drawn_mdp(*shape, theta, 1.0, restricted, False, data)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if closed:
            actions = rng.integers(0, 3, size=shape).astype(np.int8)
            actions[-1] = Action.RENEW
        else:
            actions = rng.integers(0, 2, size=shape).astype(np.int8)
        ref = data.draw(st.integers(0, mdp.n_states - 1))
        try:
            [expected] = _evaluate_stack(mdp, actions[None], ref, _renewal_closed_solve)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                policy_evaluate(mdp, Policy(actions=actions), AgeState(ref // shape[1] + 1, ref % shape[1] + 1))
            return
        ev = policy_evaluate(mdp, Policy(actions=actions), AgeState(ref // shape[1] + 1, ref % shape[1] + 1))
        assert np.float64(ev.gain).tobytes() == np.float64(expected.gain).tobytes()
        assert ev.v.tobytes() == expected.v.tobytes()
        assert ev.q.tobytes() == expected.q.tobytes()


class TestBatchedRenewalClosedEvaluation:
    """One call evaluates a stack of renewal-closed policies; each member
    gets the bits of the single-policy reference."""

    @given(
        tau_max=st.integers(8, 32),
        delta_max=st.integers(8, 32),
        theta=st.sampled_from([(0.0, 0.0), (0.99, 0.0), (0.95, 0.3)]),
        beta=st.sampled_from([0.9, 1.0]),
        restricted=st.booleans(),
        tau_costs=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_members_match_the_reference(self, tau_max, delta_max, theta, beta, restricted, tau_costs, data):
        # Each member draws its own renewal threshold, so the members' all-
        # renew blocks start at different rows and the batch's shared ring
        # and block top exceed most members' own.
        mdp = _drawn_mdp(tau_max, delta_max, theta, beta, restricted, tau_costs, data)
        ref = mdp.state_index(AgeState(data.draw(st.integers(1, tau_max)), data.draw(st.integers(1, delta_max))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        taus = data.draw(st.lists(st.integers(0, tau_max - 1), min_size=1, max_size=6))
        stack = np.stack([_renewal_closed_policy(rng, tau_max, delta_max, tau) for tau in taus])
        try:
            expected = [reference_renewal_closed_evaluate(mdp, a, ref) for a in stack]
        except EvaluationError:
            with pytest.raises(EvaluationError):
                _evaluate_stack(mdp, stack, ref, _renewal_closed_solve)
            return
        got = _evaluate_stack(mdp, stack, ref, _renewal_closed_solve)
        assert len(got) == len(stack)
        for ev, (gain, v, q) in zip(got, expected):
            assert np.float64(ev.gain).tobytes() == np.float64(gain).tobytes()
            assert ev.v.tobytes() == v.tobytes()
            assert ev.q.tobytes() == q.tobytes()

    def test_one_multichain_member_refuses_the_batch(self):
        # The perfect-channel policy of TestRenewalClosedEvaluation with two
        # closed cycles, between two unichain members.
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(theta_max=1.0, theta_min=1.0, tau_d=2, delta_r=2),
            Truncation(5, 5),
        )
        multichain = np.full(mdp.shape, Action.RENEW, dtype=np.int8)
        multichain[:-1, -1] = Action.IDLE
        multichain[0, 2] = Action.TRANSMIT
        unichain = threshold_actions(5, 3, [2] * 5)
        for ev in _evaluate_stack(mdp, np.stack([unichain, unichain]), 0, _renewal_closed_solve):
            assert np.isfinite(ev.gain)
        with pytest.raises(EvaluationError) as exc_info:
            _evaluate_stack(mdp, np.stack([unichain, multichain, unichain]), 0, _renewal_closed_solve)
        assert exc_info.value.condition_estimate > 1e8

    def test_batch_size_bounds_the_working_set(self):
        # Eight policies at 80 x 80; at 320 x 320 the row maps of one policy
        # alone take about 6 MB, so it goes alone.
        assert solvers._eval_batch_size(_shipped_mdp("benchmark-marginal", 80)[0]) == 8
        assert solvers._eval_batch_size(_shipped_mdp("benchmark-marginal", 320)[0]) == 1


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

    def test_stops_when_tied_policies_cycle(self, monkeypatch):
        # On a dead channel idling everywhere and transmitting on column
        # delta=2 have the same gain, and rounding noise in Q(transmit) -
        # Q(idle) can flip the improvement step between them every sweep.
        # Whether it does depends on the evaluation's rounding, so the step
        # is made to alternate between the two tables.
        mdp = build_mdp(
            benchmark_system(0.5),
            benchmark_channel(tau_d=10, delta_r=5, theta_max=0.0, theta_min=0.0),
            Truncation(5, 4),
            require_headroom=False,
        )
        idle = np.zeros(mdp.shape, dtype=np.int8)
        transmit = idle.copy()
        transmit[:, 1] = Action.TRANSMIT
        improve, steps = solvers._monotone_improvement, itertools.cycle([transmit, idle])
        monkeypatch.setattr(solvers, "_monotone_improvement", lambda *q: (next(steps), improve(*q)[1]))
        res = structured_policy_iteration(mdp, SolveOptions(max_iter=50))
        lo, hi = rvi_solve(mdp).lambda_bounds
        assert lo <= res.gain <= hi
        assert res.gain == policy_evaluate(mdp, res.policy)[0]
        # The gains are bit-equal, so the first policy evaluated is the
        # lowest-gain one: idling everywhere.
        assert policy_evaluate(mdp, Policy(actions=transmit)).gain == res.gain
        assert res.iterations == 2
        assert res.policy == Policy(actions=idle)
        # The returned Q-factors belong to the returned v, not to the last
        # policy evaluated.
        np.testing.assert_array_equal(res.q, q_backup(mdp, res.v))
        assert res.v.tobytes() == policy_evaluate(mdp, res.policy).v.tobytes()

    def test_bellman_residual_at_fixed_point(self, small_case):
        # Exact policy evaluation leaves only floating-point noise in the
        # optimality-equation residual.
        res = small_case.spi
        assert res.residual < 1e-8
        q = q_backup(small_case.mdp, res.v)
        np.testing.assert_array_equal(res.q, q)
        assert np.abs(q.min(axis=2) - res.v - res.gain).max() < 1e-8


def _solve_from_idle(mdp, opts=SolveOptions()):
    """Structured policy iteration on ``mdp``'s grid alone, from idling."""
    return _policy_iteration(mdp, opts, np.zeros(mdp.shape, dtype=np.int8))


def _shipped_mdp(name, grid):
    cfg = load_config(
        CONFIG_DIR / f"{name}.yaml",
        overrides=[f"truncation.tau_max={grid}", f"truncation.delta_max={grid}"],
    )
    return build_mdp(cfg.build_system(), cfg.build_channel(), cfg.build_truncation()), cfg.solver.options()


class TestContinuation:
    def test_prolongation_repeats_the_last_row_and_column(self):
        coarse = np.random.default_rng(5).integers(0, 3, size=(4, 6)).astype(np.int8)
        fine = _prolong(coarse, (9, 8))
        assert fine.shape == (9, 8) and fine.dtype == np.int8
        for t, d in itertools.product(range(9), range(8)):
            assert fine[t, d] == coarse[min(t, 3), min(d, 5)], (t, d)
        np.testing.assert_array_equal(_prolong(coarse, coarse.shape), coarse)

    def test_ladder_halves_down_to_the_floor(self):
        assert _continuation_grids(benchmark_mdp(1.0, grid=320)) == [(80, 80), (160, 160), (320, 320)]
        assert _continuation_grids(benchmark_mdp(1.0, grid=159)) == [(159, 159)]
        # Four renewal downtimes of information age: delta_r = 40 needs 160.
        mdp = benchmark_mdp(1.0, alpha=0.05, delta_r=40, grid=320)
        assert _continuation_grids(mdp) == [(160, 160), (320, 320)]
        # A coarse grid must contain the reference state.
        assert _continuation_grids(benchmark_mdp(1.0, grid=160), AgeState(81, 1)) == [(160, 160)]

    def test_benchmark_marginal_160_is_bit_equal_to_a_single_level_solve(self):
        mdp, opts = _shipped_mdp("benchmark-marginal", 160)
        cold = _solve_from_idle(mdp, opts)
        res = structured_policy_iteration(mdp, opts)
        assert res.policy == cold.policy
        assert res.gain == cold.gain
        np.testing.assert_array_equal(res.v, cold.v)
        np.testing.assert_array_equal(res.q, cold.q)
        assert res.lambda_bounds == cold.lambda_bounds
        coarse, fine = res.continuation
        assert coarse[:2] == (80, 80) and coarse[2] >= 1
        assert fine == (160, 160, res.iterations)
        assert res.iterations < cold.iterations
        assert cold.continuation is None

    def test_long_renewal_at_160_is_single_level(self):
        mdp, opts = _shipped_mdp("slow-decay-long-renewal", 160)
        res = structured_policy_iteration(mdp, opts)
        assert res.continuation == ((160, 160, res.iterations),)

    @given(
        grid=st.integers(32, 48),
        beta=st.sampled_from([0.8, 0.9, 1.0, 1.05]),
        alpha=st.floats(0.03, 0.3),
        tau_d=st.integers(2, 6),
        delta_r=st.integers(2, 6),
    )
    @settings(max_examples=25)
    def test_continued_gain_matches_single_level(self, grid, beta, alpha, tau_d, delta_r):
        mdp = benchmark_mdp(beta, alpha, tau_d, delta_r, grid)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "CONTINUATION_FLOOR", 16)
            res = structured_policy_iteration(mdp)
        assert res.continuation[-1] == (grid, grid, res.iterations)
        if 4 * delta_r <= grid // 2:
            assert len(res.continuation) >= 2
        gain = _solve_from_idle(mdp).gain
        assert abs(res.gain - gain) <= 1e-12 * abs(gain)
        assert res.gain - res.lambda_bounds[0] <= 1e-9 * abs(res.gain)

    @pytest.mark.parametrize("failing_grid", [16, 32])
    def test_evaluation_failure_at_any_level_propagates(self, monkeypatch, failing_grid):
        evaluate = solvers.policy_evaluate

        def failing(mdp, policy, ref_state=AgeState(1, 1)):
            if mdp.shape == (failing_grid, failing_grid):
                raise EvaluationError("injected", condition_estimate=float("inf"))
            return evaluate(mdp, policy, ref_state)

        monkeypatch.setattr(solvers, "CONTINUATION_FLOOR", 16)
        monkeypatch.setattr(solvers, "policy_evaluate", failing)
        with pytest.raises(EvaluationError, match="injected"):
            structured_policy_iteration(benchmark_mdp(0.9, tau_d=2, delta_r=2, grid=32))


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
        assert action_at(policy, 1, 1) in (Action.IDLE, Action.TRANSMIT)

    def test_refuses_large_grids(self, small_case):
        with pytest.raises(DomainError, match=str(BRUTE_FORCE_MAX_STATES)):
            brute_force_optimal(small_case.mdp)

    @pytest.mark.parametrize(
        "tau_max,delta_max,theta",
        [(t, d, theta) for t, d in [(1, 1), (2, 2), (6, 1)] for theta in [(0.0, 0.0), (1.0, 1.0), (0.95, 0.1)]]
        + [(2, 3, (0.95, 0.1))],
    )
    def test_policy_gains_match_policy_evaluate(self, tau_max, delta_max, theta):
        # Every policy on the grid, so multichain chains, transient starts
        # and single-state classes all occur; policy_evaluate accepts the
        # unichain ones (and refuses the rest). The 6x1 grid has paths of
        # five steps, which the reachability closure must see.
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(0.3, 2, 3, *theta),
            Truncation(tau_max, delta_max),
            require_headroom=False,
        )
        n = mdp.n_states
        assignments = np.array(list(itertools.product((0, 1, 2), repeat=n)))
        gains = policy_gains(mdp, assignments, 0)
        assert np.isfinite(gains).all()
        accepted = 0
        for actions, gain in zip(assignments, gains):
            if (actions.reshape(mdp.shape)[-1] == Action.RENEW).all():
                assert_agrees_with_lu(mdp, actions.reshape(mdp.shape))
            try:
                expected, _ = policy_evaluate(mdp, Policy(actions=actions.reshape(mdp.shape)))
            except EvaluationError:
                continue
            accepted += 1
            assert gain == pytest.approx(expected, rel=1e-12)
        assert accepted > 0

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "3", 2.5], ids=repr)
    def test_non_integer_threshold_is_named(self, small_case, bad):
        with pytest.raises(DomainError, match=re.escape(f"tau_renew must be an integer, got {bad!r}")):
            threshold_heuristic(small_case.mdp, tau_renew=bad)

    @pytest.mark.parametrize("lower,winner", [(1, 0), (10**6, 1)], ids=["one-ulp", "clear"])
    def test_earliest_of_tied_candidates_wins(self, monkeypatch, small_case, lower, winner):
        # Candidate 1's gain is lower than candidate 0's by `lower` ulps: one
        # ulp is within the float floor, a million are well beyond it.
        mdp = small_case.mdp
        v = np.zeros(mdp.shape)
        v[-1, -1] = 1e3
        gain = 42.0
        gains = [gain, gain - lower * float(np.spacing(gain))] + [gain + 1.0] * mdp.shape[0]
        assert (gain - gains[1] > _float_floor(v, gain)) == bool(winner)

        def candidates(mdp, opts, taus):
            return [
                solvers._Iterate(
                    gain=gains[tau], policy=Policy(actions=np.full(mdp.shape, tau % 3)),
                    iterations=1, floor=_float_floor(v, gains[tau]),
                )
                for tau in taus
            ]

        monkeypatch.setattr(solvers, "_threshold_candidates", candidates)
        res = threshold_heuristic(mdp)
        assert np.all(res.policy.actions == winner)
        # The winner is evaluated once more: its gain is its policy's, not
        # the candidate's.
        assert res.gain == policy_evaluate(mdp, res.policy)[0]


def assert_same_result(res, ref):
    """Every ``SolveResult`` field of ``res`` carries the bits of ``ref``'s."""
    for field in dataclasses.fields(SolveResult):
        got, want = getattr(res, field.name), getattr(ref, field.name)
        if isinstance(got, Policy):
            got, want = got.actions, want.actions
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name


class TestBatchedThresholdHeuristic:
    """The heuristic's batched rounds return what evaluating each renewal
    threshold's sweeps alone, one threshold after another, returns."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.yaml")))
    def test_matches_the_reference_on_every_config(self, name):
        # The smallest square grid the config's wear and downtime allow.
        ch = load_config(CONFIG_DIR / f"{name}.yaml").build_channel()
        mdp, opts = _shipped_mdp(name, max(1 + ch.tau_d, 1 + ch.delta_r))
        assert_same_result(threshold_heuristic(mdp, opts), reference_threshold_heuristic(mdp, opts))

    @pytest.mark.parametrize("beta", [0.9, 0.95, 1.0, 1.05])
    def test_matches_the_reference_on_the_benchmark_sweep(self, beta):
        cfg = load_config(CONFIG_DIR / "benchmark-marginal.yaml", overrides=[f"system.beta={beta}"])
        mdp, opts = build_mdp(cfg.build_system(), cfg.build_channel(), cfg.build_truncation()), cfg.solver.options()
        assert mdp.shape == (80, 80)
        assert_same_result(threshold_heuristic(mdp, opts), reference_threshold_heuristic(mdp, opts))

    @pytest.mark.parametrize("tau_renew", [0, 7, 29, 30])
    def test_fixed_threshold_matches_the_reference(self, small_case, tau_renew):
        mdp, opts = small_case.mdp, SolveOptions(tol=1e-10)
        assert_same_result(
            threshold_heuristic(mdp, opts, tau_renew=tau_renew),
            reference_threshold_heuristic(mdp, opts, tau_renew=tau_renew),
        )

    def test_memory_at_80(self):
        # A batch of eight renewal-closed evaluations works in about 6 MiB.
        # A threshold's best iterate keeps its gain and policy, not its
        # values, so the whole 81-threshold search stays near one batch.
        mdp, opts = _shipped_mdp("benchmark-marginal", 80)
        solvers.load_evaluator()  # scipy's import is not the search's memory
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            threshold_heuristic(mdp, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry < 10 * 2**20


class TestPolicyType:
    def test_equality_and_lookup(self):
        a = Policy(actions=np.zeros((2, 3), dtype=np.int8))
        b = Policy(actions=np.zeros((2, 3), dtype=np.int8))
        c = Policy(actions=np.ones((2, 3), dtype=np.int8))
        assert a == b and a != c
        assert action_at(a, 2, 3) == Action.IDLE
        with pytest.raises(DomainError):
            action_at(a, 3, 1)

    def test_invalid_actions_rejected(self):
        with pytest.raises(DomainError):
            Policy(actions=np.full((2, 2), 4, dtype=np.int8))

    @pytest.mark.parametrize(
        "actions",
        [np.array([[256, 257, -254]]), [[1.7, 2.2]], [[256]], [[0.0, float("nan")]]],
        ids=["wraps-into-int8-range", "fractional", "overflows-int8", "nan"],
    )
    def test_entries_checked_before_the_int8_cast(self, actions):
        # Cast first, these would read as actions 0, 1, 2 and 1, 2, or
        # escape as an OverflowError.
        with pytest.raises(DomainError, match="actions must be 0, 1 or 2"):
            Policy(actions=actions)

    @pytest.mark.parametrize(
        "dtype,bad", [(np.int8, -1), (np.int8, 3), (np.int64, -1), (np.int64, 3), (np.uint8, 3)]
    )
    def test_integer_grids_checked_at_both_ends(self, dtype, bad):
        # One entry just outside 0..2, in the middle of valid actions.
        actions = np.array([[0, 1, 2], [2, bad, 0]], dtype=dtype)
        with pytest.raises(DomainError, match="actions must be 0, 1 or 2"):
            Policy(actions=actions)
        assert Policy(actions=np.array([[0, 1, 2]], dtype=dtype)).actions.tolist() == [[0, 1, 2]]

    def test_integral_floats_are_actions(self):
        pol = Policy(actions=[[0.0, 1.0, 2.0]])
        assert pol.actions.dtype == np.int8
        assert pol.actions.tolist() == [[0, 1, 2]]

    def test_greedy_tie_break_prefers_smallest_action(self):
        q = np.zeros((1, 1, 3))
        assert action_at(greedy_policy(q), 1, 1) == Action.IDLE
