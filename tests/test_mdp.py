import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import benchmark_channel, benchmark_mdp, benchmark_system
from wearsched import (
    Action,
    AgeState,
    DomainError,
    Truncation,
    aoc_next,
    aoi_next,
    build_mdp,
)


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
            assert mdp.cost(s, Action.IDLE) == pytest.approx(f.at(s.delta), rel=1e-14)
            assert mdp.cost(s, Action.TRANSMIT) == pytest.approx(f.at(s.delta), rel=1e-14)

    def test_transmission_not_additively_penalized(self, mdp):
        assert mdp.cost(AgeState(1, 1), Action.TRANSMIT) == pytest.approx(
            mdp.mse.at(1), rel=1e-14
        )

    def test_renewal_lump_sum_two_slots(self, mdp_dr2):
        f = mdp_dr2.mse
        assert mdp_dr2.cost(AgeState(4, 3), Action.RENEW) == pytest.approx(
            f.at(3) + f.at(4), rel=1e-14
        )

    def test_renewal_lump_sum_clamps_at_grid_edge(self, mdp):
        d_max = mdp.trunc.delta_max
        expected = mdp.channel.delta_r * mdp.mse.at(d_max)
        assert mdp.cost(AgeState(5, d_max), Action.RENEW) == pytest.approx(expected, rel=1e-14)

    def test_renewal_lump_sum_general(self, mdp):
        f, dr, d_max = mdp.mse, mdp.channel.delta_r, mdp.trunc.delta_max
        for delta in (1, 10, 30, 39):
            expected = sum(f.at(min(delta + r, d_max)) for r in range(dr))
            assert mdp.cost(AgeState(2, delta), Action.RENEW) == pytest.approx(expected, rel=1e-13)

    def test_cost_constant_in_channel_age(self, mdp):
        table = mdp.cost_table
        assert np.all(table.max(axis=0) == table.min(axis=0))

    def test_cost_supermodular_between_renew_and_others(self, mdp):
        # c(d', 2) + c(d, u) - c(d', u) - c(d, 2) >= 0 for d' >= d away from
        # the clamp region, for u in {idle, transmit}.
        d_hi = mdp.trunc.delta_max - mdp.channel.delta_r
        c = mdp.cost_table[0]  # independent of channel age
        for u in (0, 1):
            gap = (c[1:d_hi, 2] + c[: d_hi - 1, u]) - (c[1:d_hi, u] + c[: d_hi - 1, 2])
            assert np.all(gap >= -1e-12)

    def test_out_of_grid_state_rejected(self, mdp):
        with pytest.raises(DomainError):
            mdp.cost(AgeState(0, 1), Action.IDLE)
        with pytest.raises(DomainError):
            mdp.cost(AgeState(1, 41), Action.IDLE)

    def test_invalid_action_rejected(self, mdp):
        with pytest.raises(DomainError):
            mdp.cost(AgeState(1, 1), 3)


def _assert_kernel_stochastic_in_grid(mdp):
    """Every (state, action) row of the kernel sums to 1 over successors
    that stay inside the grid."""
    t_max, d_max = mdp.shape
    for s in mdp.states():
        for u in Action:
            succ = mdp.transitions(s, u)
            assert abs(sum(p for _, p in succ) - 1.0) < 1e-12
            assert all(1 <= t.tau <= t_max and 1 <= t.delta <= d_max for t, _ in succ)


class TestKernel:
    def test_idle_single_successor(self, mdp):
        assert mdp.transitions(AgeState(4, 7), Action.IDLE) == [(AgeState(5, 8), 1.0)]

    def test_renew_single_successor(self, mdp):
        dr = mdp.channel.delta_r
        assert mdp.transitions(AgeState(9, 3), Action.RENEW) == [(AgeState(1, 3 + dr), 1.0)]

    def test_transmit_two_successors(self, mdp):
        theta = mdp.channel.reliability(4)
        got = mdp.transitions(AgeState(4, 7), Action.TRANSMIT)
        assert got == [(AgeState(10, 1), pytest.approx(theta)), (AgeState(10, 8), pytest.approx(1 - theta))]

    def test_transmit_clamped_at_both_bounds(self, mdp):
        t_max, d_max = mdp.shape
        theta = mdp.channel.reliability(t_max)
        got = mdp.transitions(AgeState(t_max, d_max), Action.TRANSMIT)
        assert got == [
            (AgeState(t_max, 1), pytest.approx(theta)),
            (AgeState(t_max, d_max), pytest.approx(1 - theta)),
        ]

    def test_kernel_stochastic_everywhere(self, mdp):
        _assert_kernel_stochastic_in_grid(mdp)

    def test_renew_always_restores_channel(self, mdp):
        for s in mdp.states():
            assert [t.tau for t, _ in mdp.transitions(s, Action.RENEW)] == [1]

    def test_successors_match_transitions(self, mdp):
        actions = np.random.default_rng(3).integers(0, 3, size=mdp.shape)
        hit, miss, p_hit = mdp.successors(actions)
        for s in mdp.states():
            i = mdp.state_index(s)
            branches = [(hit[i], p_hit[i]), (miss[i], 1.0 - p_hit[i])]
            got = [(mdp.state_at(int(j)), float(p)) for j, p in branches if p > 0]
            assert got == mdp.transitions(s, int(actions[s.tau - 1, s.delta - 1]))

    def test_kernel_matches_age_update_rules(self, mdp):
        # The vectorized kernel must agree with the scalar age-update
        # functions at every sampled state.
        ch, (t_max, d_max) = mdp.channel, mdp.shape
        rng = np.random.default_rng(1)
        for _ in range(200):
            s = AgeState(int(rng.integers(1, t_max + 1)), int(rng.integers(1, d_max + 1)))
            for u in (0, 2):
                succ = mdp.transitions(s, u)
                assert len(succ) == 1
                expected = AgeState(
                    aoc_next(ch, s.tau, u, t_max),
                    aoi_next(s.delta, u, False, ch.delta_r, d_max),
                )
                assert succ[0][0] == expected
            succ = dict(mdp.transitions(s, 1))
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
        assert mdp.transitions(AgeState(1, 3), Action.TRANSMIT) == [(AgeState(3, 1), 1.0)]


class TestGridLayout:
    def test_row_major_enumeration(self, mdp):
        states = list(mdp.states())
        assert states[0] == AgeState(1, 1)
        assert states[1] == AgeState(1, 2)
        assert states[mdp.trunc.delta_max] == AgeState(2, 1)
        for i in (0, 57, 841, mdp.n_states - 1):
            assert mdp.state_index(states[i]) == i
            assert mdp.state_at(i) == states[i]

    def test_headroom_enforced(self):
        with pytest.raises(DomainError, match="headroom"):
            build_mdp(benchmark_system(0.9), benchmark_channel(tau_d=6), Truncation(4, 40))
        with pytest.raises(DomainError, match="headroom"):
            build_mdp(benchmark_system(0.9), benchmark_channel(delta_r=15), Truncation(40, 10))

    def test_headroom_can_be_waived(self):
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(tau_d=2, delta_r=2),
            Truncation(1, 1),
            require_headroom=False,
        )
        assert mdp.n_states == 1
        # With full clamping every action self-loops.
        for u in (0, 1, 2):
            assert all(s == AgeState(1, 1) for s, _ in mdp.transitions(AgeState(1, 1), u))

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
