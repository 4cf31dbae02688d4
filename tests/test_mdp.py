import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    AgeState,
    aoc_next,
    assert_same_mdp,
    aoi_next,
    benchmark_channel,
    benchmark_mdp,
    benchmark_system,
    eventually_reachable,
    scalar_cost,
    scalar_transitions,
    state_index,
    states,
)
from wearsched import Action, DomainError, Truncation, build_mdp
from wearsched.config import load_config
from wearsched.solvers import _continuation_grids

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))


@pytest.fixture(scope="module")
def mdp():
    return benchmark_mdp(beta=0.9, grid=40)


@pytest.fixture(scope="module")
def mdp_dr2():
    # Short renewal downtime so the lump sum is a two-term expansion.
    return benchmark_mdp(beta=0.9, tau_d=2, delta_r=2, grid=12)


class TestCost:
    def test_idle_and_transmit_pay_current_mse(self, mdp):
        f = mdp.mse
        for s in (AgeState(5, 3), AgeState(1, 1), AgeState(40, 17)):
            assert scalar_cost(mdp, s, Action.IDLE) == pytest.approx(f[s.delta - 1], rel=1e-14)
            assert scalar_cost(mdp, s, Action.TRANSMIT) == pytest.approx(f[s.delta - 1], rel=1e-14)

    def test_transmission_not_additively_penalized(self, mdp):
        assert scalar_cost(mdp, AgeState(1, 1), Action.TRANSMIT) == pytest.approx(
            mdp.mse[0], rel=1e-14
        )

    def test_renewal_lump_sum_two_slots(self, mdp_dr2):
        f = mdp_dr2.mse
        assert scalar_cost(mdp_dr2, AgeState(4, 3), Action.RENEW) == pytest.approx(
            f[2] + f[3], rel=1e-14
        )

    def test_renewal_lump_sum_clamps_at_grid_edge(self, mdp):
        d_max = mdp.trunc.delta_max
        expected = mdp.channel.delta_r * mdp.mse[d_max - 1]
        assert scalar_cost(mdp, AgeState(5, d_max), Action.RENEW) == pytest.approx(expected, rel=1e-14)

    def test_renewal_lump_sum_general(self, mdp):
        f, dr, d_max = mdp.mse, mdp.channel.delta_r, mdp.trunc.delta_max
        for delta in (1, 10, 30, 39):
            expected = _lump_sum(f, dr, delta)
            assert scalar_cost(mdp, AgeState(2, delta), Action.RENEW) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("shape", [(40, 40), (25, 30), (7, 40), (40, 16)])
    def test_costs_match_the_mse_and_the_lump_sum(self, mdp, shape):
        # Every cell and action, on the built grid and on restricted ones,
        # whose lump sums clamp their summands at the sub-grid's last entry.
        grid = mdp.restrict(*shape)
        stack = np.random.default_rng(3).integers(0, 3, size=(4, *shape)).astype(np.int8)
        stack[0], stack[1], stack[2] = Action.IDLE, Action.TRANSMIT, Action.RENEW
        got = grid.costs(stack)
        assert got.shape == stack.shape
        for b, actions in enumerate(stack):
            assert grid.costs(actions).tobytes() == got[b].tobytes()
            for s in states(grid):
                cost, u = got[b, s.tau - 1, s.delta - 1], actions[s.tau - 1, s.delta - 1]
                if u == Action.RENEW:
                    assert cost == pytest.approx(_lump_sum(grid.mse, mdp.channel.delta_r, s.delta), rel=1e-13)
                else:
                    assert cost == mdp.mse[s.delta - 1]

    def test_every_array_field_is_one_dimensional(self, mdp):
        for grid in (mdp, mdp.restrict(7, 30)):
            arrays = [getattr(grid, f.name) for f in dataclasses.fields(grid)]
            arrays = [a for a in arrays if isinstance(a, np.ndarray)]
            assert len(arrays) == 7
            assert all(a.ndim == 1 and not a.flags.writeable for a in arrays)

    def test_cost_constant_in_channel_age(self, mdp):
        for u in Action:
            grid = mdp.costs(np.full(mdp.shape, u))
            assert np.all(grid.max(axis=0) == grid.min(axis=0))

    def test_cost_supermodular_between_renew_and_others(self, mdp):
        # c(d', 2) + c(d, u) - c(d', u) - c(d, 2) >= 0 for d' >= d away from
        # the clamp region, for u in {idle, transmit}.
        d_hi = mdp.trunc.delta_max - mdp.channel.delta_r
        # Row 0 serves every channel age: no cost depends on it.
        c = np.stack([mdp.costs(np.full(mdp.shape, u))[0] for u in Action], axis=1)
        for u in (0, 1):
            gap = (c[1:d_hi, 2] + c[: d_hi - 1, u]) - (c[1:d_hi, u] + c[: d_hi - 1, 2])
            assert np.all(gap >= -1e-12)

    def test_out_of_grid_state_rejected(self, mdp):
        with pytest.raises(DomainError):
            scalar_cost(mdp, AgeState(0, 1), Action.IDLE)
        with pytest.raises(DomainError):
            scalar_cost(mdp, AgeState(1, 41), Action.IDLE)

    def test_invalid_action_rejected(self, mdp):
        with pytest.raises(DomainError):
            scalar_cost(mdp, AgeState(1, 1), 3)


def _lump_sum(f, delta_r, delta):
    """The MSE accrued over a renewal downtime from information age
    ``delta``, its summands clamped at the last entry of ``f``."""
    return sum(f[min(delta + r, len(f)) - 1] for r in range(delta_r))


def _assert_kernel_stochastic_in_grid(mdp):
    """Every (state, action) row of the kernel sums to 1 over successors
    that stay inside the grid."""
    t_max, d_max = mdp.shape
    for s in states(mdp):
        for u in Action:
            succ = scalar_transitions(mdp, s, u)
            assert abs(sum(p for _, p in succ) - 1.0) < 1e-12
            assert all(1 <= t.tau <= t_max and 1 <= t.delta <= d_max for t, _ in succ)


def _channel_mdp(theta):
    """The benchmark MDP at 30x30; a constant reliability when ``theta`` is set."""
    channel = {} if theta is None else {"theta_max": theta, "theta_min": theta}
    return benchmark_mdp(beta=0.9, grid=30, **channel)


def _reachable_states(mdp):
    reach = eventually_reachable(mdp)
    return reach, {s for s in states(mdp) if reach[s.tau - 1, s.delta - 1]}


class TestEventuallyReachable:
    @pytest.mark.parametrize("theta", [None, 1.0, 0.0])
    def test_closed_under_every_action(self, theta):
        mdp = _channel_mdp(theta)
        _, inside = _reachable_states(mdp)
        for u in Action:
            for s in inside:
                assert all(t in inside for t, _ in scalar_transitions(mdp, s, u)), (s, u)

    @pytest.mark.parametrize("theta", [None, 1.0, 0.0])
    def test_every_state_has_a_predecessor_inside(self, theta):
        mdp = _channel_mdp(theta)
        _, inside = _reachable_states(mdp)
        image = {t for s in inside for u in Action for t, _ in scalar_transitions(mdp, s, u)}
        assert image == inside

    def test_benchmark_channel_smallest_channel_age(self):
        mdp = benchmark_mdp(beta=0.9, grid=80)
        reach, _ = _reachable_states(mdp)
        tau_d, delta_r = mdp.channel.tau_d, mdp.channel.delta_r
        smallest = [int(np.argmax(reach[:, dj])) + 1 for dj in range(delta_r)]
        assert smallest == [delta + tau_d for delta in range(1, delta_r + 1)]


class TestKernel:
    def test_idle_single_successor(self, mdp):
        assert scalar_transitions(mdp, AgeState(4, 7), Action.IDLE) == [(AgeState(5, 8), 1.0)]

    def test_renew_single_successor(self, mdp):
        dr = mdp.channel.delta_r
        assert scalar_transitions(mdp, AgeState(9, 3), Action.RENEW) == [(AgeState(1, 3 + dr), 1.0)]

    def test_transmit_two_successors(self, mdp):
        theta = mdp.channel.reliability(4)
        got = scalar_transitions(mdp, AgeState(4, 7), Action.TRANSMIT)
        assert got == [(AgeState(10, 1), pytest.approx(theta)), (AgeState(10, 8), pytest.approx(1 - theta))]

    def test_transmit_clamped_at_both_bounds(self, mdp):
        t_max, d_max = mdp.shape
        theta = mdp.channel.reliability(t_max)
        got = scalar_transitions(mdp, AgeState(t_max, d_max), Action.TRANSMIT)
        assert got == [
            (AgeState(t_max, 1), pytest.approx(theta)),
            (AgeState(t_max, d_max), pytest.approx(1 - theta)),
        ]

    def test_kernel_stochastic_everywhere(self, mdp):
        _assert_kernel_stochastic_in_grid(mdp)

    def test_renew_always_restores_channel(self, mdp):
        for s in states(mdp):
            assert [t.tau for t, _ in scalar_transitions(mdp, s, Action.RENEW)] == [1]

    def test_successors_match_transitions(self, mdp):
        actions = np.random.default_rng(3).integers(0, 3, size=mdp.shape)
        hit, miss, p_hit = mdp.successors(actions)
        order = list(states(mdp))
        for s in order:
            i = state_index(mdp, s)
            branches = [(hit[i], p_hit[i]), (miss[i], 1.0 - p_hit[i])]
            got = [(order[j], float(p)) for j, p in branches if p > 0]
            assert got == scalar_transitions(mdp, s, int(actions[s.tau - 1, s.delta - 1]))

    def test_kernel_matches_age_update_rules(self, mdp):
        # The vectorized kernel must agree with the scalar age-update
        # functions at every sampled state.
        ch, (t_max, d_max) = mdp.channel, mdp.shape
        rng = np.random.default_rng(1)
        for _ in range(200):
            s = AgeState(int(rng.integers(1, t_max + 1)), int(rng.integers(1, d_max + 1)))
            for u in (0, 2):
                succ = scalar_transitions(mdp, s, u)
                assert len(succ) == 1
                expected = AgeState(
                    aoc_next(ch, s.tau, u, t_max),
                    aoi_next(s.delta, u, False, ch.delta_r, d_max),
                )
                assert succ[0][0] == expected
            succ = dict(scalar_transitions(mdp, s, 1))
            tau_next = aoc_next(ch, s.tau, 1, t_max)
            hit = AgeState(tau_next, aoi_next(s.delta, 1, True, ch.delta_r, d_max))
            miss = AgeState(tau_next, aoi_next(s.delta, 1, False, ch.delta_r, d_max))
            assert succ[hit] == pytest.approx(ch.reliability(s.tau))
            assert succ[miss] == pytest.approx(1 - ch.reliability(s.tau))

    def test_zero_probability_branch_omitted(self):
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(theta_max=1.0, theta_min=1.0, tau_d=2, delta_r=2),
            Truncation(6, 6),
        )
        assert scalar_transitions(mdp, AgeState(1, 3), Action.TRANSMIT) == [(AgeState(3, 1), 1.0)]


class TestGridLayout:
    def test_row_major_enumeration(self, mdp):
        order = list(states(mdp))
        assert order[0] == AgeState(1, 1)
        assert order[1] == AgeState(1, 2)
        assert order[mdp.trunc.delta_max] == AgeState(2, 1)
        # The kernel's flat index is row-major: idle moves state i, at
        # (tau, delta), to (tau + 1, delta + 1), clamped.
        (t_max, d_max), (_, miss, _) = mdp.shape, mdp.successors(np.zeros(mdp.shape, dtype=np.int8))
        for i in (0, 57, 841, mdp.n_states - 1):
            assert miss[i] == min(order[i].tau, t_max - 1) * d_max + min(order[i].delta, d_max - 1)

    def test_builds_a_grid_without_headroom(self):
        # Headroom is a configuration check (test_config); the library builds
        # any grid.
        mdp = build_mdp(benchmark_system(0.9), benchmark_channel(tau_d=2, delta_r=2), Truncation(1, 1))
        assert mdp.n_states == 1
        # With full clamping every action self-loops.
        for u in (0, 1, 2):
            assert all(s == AgeState(1, 1) for s, _ in scalar_transitions(mdp, AgeState(1, 1), u))

    @given(tau_max=st.integers(3, 12), delta_max=st.integers(3, 12))
    def test_kernel_stochastic_on_random_grids(self, tau_max, delta_max):
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(tau_d=2, delta_r=2),
            Truncation(tau_max, delta_max),
        )
        _assert_kernel_stochastic_in_grid(mdp)

    def test_truncation_validation(self):
        with pytest.raises(DomainError):
            Truncation(0, 5)
        with pytest.raises(DomainError):
            Truncation(5, -1)

    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), "5", None])
    def test_non_integer_bounds_are_named(self, bad):
        with pytest.raises(DomainError, match="^delta_max must be an integer"):
            Truncation(5, bad)
        assert Truncation(5.0, 6).tau_max == 5 and type(Truncation(5.0, 6).tau_max) is int


class TestRestrict:
    @pytest.mark.parametrize("shape", [(25, 30), (40, 16), (7, 40), (40, 40)])
    def test_matches_build_mdp_at_the_sub_grid(self, mdp, shape):
        sub = mdp.restrict(*shape)
        assert sub.shape == shape
        assert_same_mdp(sub, build_mdp(benchmark_system(0.9), mdp.channel, Truncation(*shape)))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_equals_build_mdp_at_every_continuation_level(self, config):
        cfg = load_config(config, overrides=["truncation.tau_max=320", "truncation.delta_max=320"])
        mdp = build_mdp(cfg.system, cfg.channel, cfg.truncation)
        for shape in _continuation_grids(mdp):
            assert_same_mdp(mdp.restrict(*shape), build_mdp(cfg.system, cfg.channel, Truncation(*shape)))

    def test_rejects_a_larger_grid(self, mdp):
        with pytest.raises(DomainError, match="exceeds"):
            mdp.restrict(41, 40)
        with pytest.raises(DomainError):
            mdp.restrict(0, 40)
