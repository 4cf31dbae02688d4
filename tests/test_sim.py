import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import benchmark_channel, benchmark_mdp, benchmark_system, scalar_simulate
from wearsched import (
    Action,
    AgeState,
    DomainError,
    Policy,
    SolveOptions,
    Truncation,
    boundary_renewal,
    build_mdp,
    check_policy_monotone,
    full_region,
    policy_evaluate,
    replication_rng,
    simulate,
    structured_policy_iteration,
    threshold_policy,
    transmit_always,
)
from wearsched.sim import CHUNK, _fsum_counted


@pytest.fixture(scope="module")
def perfect_channel_mdp():
    return build_mdp(
        benchmark_system(0.9),
        benchmark_channel(theta_max=1.0, theta_min=1.0),
        Truncation(30, 30),
    )


class TestSimulate:
    def test_perfect_channel_transmit_always_exact(self, perfect_channel_mdp):
        mdp = perfect_channel_mdp
        # Power-of-two epoch count: the exactly-rounded mean of identical
        # costs is bit-exact.
        stats = simulate(mdp, transmit_always(mdp.trunc), s0=AgeState(1, 1), epochs=512, seed=3)
        # Every transmission succeeds, so every epoch costs the age-1 MSE.
        assert stats.per_epoch_avg_cost == mdp.mse.at(1)
        assert stats.per_slot_avg_cost == mdp.mse.at(1)
        assert stats.std_error == 0.0
        assert stats.aoi_histogram[0] == 512

    def test_determinism(self, small_case):
        mdp, pol = small_case.mdp, small_case.rvi.policy
        a = simulate(mdp, pol, epochs=5000, seed=99)
        b = simulate(mdp, pol, epochs=5000, seed=99)
        assert a == b

    def test_streams_differ(self, small_case):
        mdp, pol = small_case.mdp, small_case.rvi.policy
        a = simulate(mdp, pol, epochs=5000, seed=99, stream=0)
        b = simulate(mdp, pol, epochs=5000, seed=99, stream=1)
        assert a != b

    def test_counts_consistent(self, small_case):
        mdp, pol = small_case.mdp, small_case.rvi.policy
        stats = simulate(mdp, pol, epochs=4000, seed=5)
        assert stats.action_counts.sum() == 4000
        assert stats.aoi_histogram.sum() == 4000
        assert stats.aoc_histogram.sum() == 4000
        assert 0.0 <= stats.boundary_hit_fraction <= 1.0

    def test_per_slot_accounting_under_renewals(self, small_case):
        mdp = small_case.mdp
        pol_renew = threshold_policy(0, [1] * mdp.trunc.tau_max, mdp.trunc)
        stats = simulate(mdp, pol_renew, epochs=2000, seed=11)
        # Every epoch renews: per-slot average is the per-epoch one divided
        # by the downtime.
        assert stats.per_slot_avg_cost == pytest.approx(
            stats.per_epoch_avg_cost / mdp.channel.delta_r, rel=1e-12
        )
        assert stats.action_counts[Action.RENEW] == 2000

    def test_long_run_average_matches_policy_gain(self, small_case):
        mdp, pol = small_case.mdp, small_case.rvi.policy
        stats = simulate(mdp, pol, epochs=200_000, seed=314)
        assert abs(stats.per_epoch_avg_cost - small_case.rvi.gain) <= 3 * stats.std_error

    def test_long_run_average_on_renewing_instance(self, case_slow_decay):
        stats = simulate(case_slow_decay.mdp, case_slow_decay.rvi.policy, epochs=200_000, seed=272)
        assert abs(stats.per_epoch_avg_cost - case_slow_decay.rvi.gain) <= 3.5 * stats.std_error

    def test_interior_operation_when_renewal_is_used(self, case_marginal):
        # With renewal in play the optimal chain lives far from the clamp.
        stats = simulate(case_marginal.mdp, case_marginal.rvi.policy, epochs=100_000, seed=8)
        assert stats.boundary_hit_fraction < 0.01

    def test_validation(self, small_case):
        mdp, pol = small_case.mdp, small_case.rvi.policy
        with pytest.raises(DomainError):
            simulate(mdp, pol, epochs=0, seed=1)
        with pytest.raises(DomainError):
            simulate(mdp, pol, s0=AgeState(77, 1), epochs=10, seed=1)
        with pytest.raises(DomainError):
            simulate(mdp, transmit_always(Truncation(3, 3)), epochs=10, seed=1)

    def test_rng_validation(self):
        with pytest.raises(DomainError):
            replication_rng(-1)
        with pytest.raises(DomainError):
            replication_rng(2**64)
        with pytest.raises(DomainError):
            replication_rng(5, stream=-2)


class TestMatchesScalarLoop:
    """The chunked, list-driven simulator against the per-epoch numpy-scalar
    loop it replaced (``helpers.scalar_simulate``): every field bit-equal."""

    @pytest.mark.parametrize("epochs", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @settings(max_examples=15)
    @given(
        tau_max=st.integers(1, 12),
        delta_max=st.integers(1, 12),
        tau_d=st.integers(2, 14),
        delta_r=st.integers(2, 14),
        curve=st.sampled_from(["dead", "perfect", "decaying", "tie"]),
        seed=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 3),
        data=st.data(),
    )
    def test_bit_identical(self, epochs, tau_max, delta_max, tau_d, delta_r, curve, seed, stream, data):
        # "tie": the reliability equals the first uniform of the replication,
        # so a transmission from s0 must fail (success needs u < theta).
        u0 = replication_rng(seed, stream).random()
        theta = {"dead": (0.0, 0.0), "perfect": (1.0, 1.0), "decaying": (0.95, 0.1), "tie": (u0, u0)}[curve]
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(0.3, tau_d, delta_r, *theta),
            Truncation(tau_max, delta_max),
            require_headroom=False,
        )
        actions = np.random.default_rng(seed).integers(0, 3, size=mdp.shape).astype(np.int8)
        policy = Policy(actions=actions)
        s0 = AgeState(data.draw(st.integers(1, tau_max)), data.draw(st.integers(1, delta_max)))
        got = simulate(mdp, policy, s0, epochs, seed, stream)
        assert got == scalar_simulate(mdp, policy, s0, epochs, seed, stream)

    def test_draw_equal_to_reliability_is_a_miss(self):
        u0 = replication_rng(5, 0).random()
        mdp = build_mdp(
            benchmark_system(0.9), benchmark_channel(theta_max=u0, theta_min=u0), Truncation(30, 30)
        )
        stats = simulate(mdp, transmit_always(mdp.trunc), AgeState(1, 1), epochs=2, seed=5)
        # The second epoch sits at information age 2, not back at 1.
        assert stats.aoi_histogram[:2].tolist() == [1, 1]
        assert stats == scalar_simulate(mdp, transmit_always(mdp.trunc), AgeState(1, 1), 2, 5)

    def test_pinned_benchmark_marginal(self):
        # benchmark-marginal at 40x40 under its SPI policy, seed 2024, as
        # recorded with the per-epoch numpy-scalar loop.
        mdp = benchmark_mdp(1.0, grid=40)
        policy = structured_policy_iteration(mdp, SolveOptions(tol=1e-9, max_iter=500_000)).policy
        expected = {
            0: dict(
                per_epoch_avg_cost=117.6491962120391,
                per_slot_avg_cost=56.525915236992034,
                std_error=0.23619079282231245,
                boundary_hit_fraction=0.149703,
                aoi_histogram=[123771, 123499, 122864, 121720, 117092, 92010, 82152, 53896, 32386, 31408]
                + [0] * 11 + [23991, 22166, 3264, 33352, 4800, 3010, 2477, 1561, 925, 881]
                + [0] * 8 + [2775],
                aoc_histogram=[77239, 1, 1, 1, 1, 1, 77238, 69275, 69275, 69275, 69275, 1, 7964,
                               3919, 3919, 3919, 69275, 22706, 26751, 23804, 1098, 5017, 47348,
                               9296, 11464, 23153, 3042, 4238, 38529, 4571, 11086, 20110, 3042,
                               3761, 34737, 4502, 11086, 20110, 3042, 146928],
                action_counts=[386694, 536068, 77238],
            ),
            1: dict(
                per_epoch_avg_cost=117.56274618701147,
                per_slot_avg_cost=56.48893897213841,
                std_error=0.18464564240655568,
                boundary_hit_fraction=0.149573,
                aoi_histogram=[123775, 123499, 122855, 121776, 117197, 92074, 82266, 53848, 32294, 31336]
                + [0] * 11 + [23972, 22202, 3331, 33278, 4699, 2992, 2462, 1610, 930, 889]
                + [0] * 8 + [2715],
                aoc_histogram=[77226, 1, 1, 1, 1, 1, 77225, 69298, 69298, 69298, 69298, 1, 7927,
                               3893, 3893, 3893, 69298, 22786, 26820, 23889, 1104, 4996, 47269,
                               9203, 11378, 23224, 2995, 4240, 38519, 4709, 11006, 20230, 2995,
                               3787, 34566, 4642, 11006, 20230, 2995, 146858],
                action_counts=[386855, 535919, 77226],
            ),
        }
        for stream, fields in expected.items():
            stats = simulate(mdp, policy, epochs=1_000_000, seed=2024, stream=stream)
            assert stats.epochs == 1_000_000
            for name, value in fields.items():
                got = getattr(stats, name)
                assert (got.tolist() if isinstance(got, np.ndarray) else got) == value, name

    @settings(max_examples=200)
    @given(
        values=st.lists(st.floats(), min_size=1, max_size=20),
        data=st.data(),
    )
    def test_counted_sum_is_fsum(self, values, data):
        counts = np.array(data.draw(st.lists(st.integers(0, 64), min_size=len(values), max_size=len(values))))
        counts[0] += 1
        values = np.array(values)
        sequence = np.random.default_rng(0).permutation(np.repeat(values, counts))
        try:
            expected = math.fsum(sequence)
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                _fsum_counted(values, counts, sequence)
            return
        got = _fsum_counted(values, counts, sequence)
        assert repr(got) == repr(expected)


class TestTransmitAlways:
    def test_everywhere(self):
        pol = transmit_always(Truncation(9, 7))
        assert pol.action_at(1, 1) == Action.TRANSMIT
        assert pol.action_at(9, 7) == Action.TRANSMIT
        assert np.all(pol.actions == Action.TRANSMIT)

    def test_monotone_on_both_axes(self):
        pol = transmit_always(Truncation(9, 7))
        region = full_region(Truncation(9, 7))
        for axis in ("aoi", "aoc"):
            assert check_policy_monotone(pol, axis, region).passed


class TestBoundaryRenewal:
    def test_stable_system_transmits_everywhere(self):
        # rho^2 (1 - theta(tau)) <= 0.81 < 1 for every age.
        pol = boundary_renewal(benchmark_system(0.9), benchmark_channel(), Truncation(40, 40))
        assert np.all(pol.actions == Action.TRANSMIT)

    def test_unstable_system_renews_past_stable_boundary(self):
        model = benchmark_system(1.1)
        ch = benchmark_channel()
        pol = boundary_renewal(model, ch, Truncation(40, 40))
        # Renew exactly where theta(tau) <= 1 - 1/1.21, i.e. tau >= 18.
        cutoff = 1.0 - 1.0 / 1.21
        for tau in range(1, 41):
            expected = Action.TRANSMIT if ch.reliability(tau) > cutoff else Action.RENEW
            assert pol.action_at(tau, 1) == expected
        assert pol.action_at(17, 5) == Action.TRANSMIT
        assert pol.action_at(18, 5) == Action.RENEW

    def test_channel_age_monotone(self):
        pol = boundary_renewal(benchmark_system(1.1), benchmark_channel(), Truncation(40, 40))
        assert check_policy_monotone(pol, "aoc", full_region(Truncation(40, 40))).passed

    def test_empty_stable_region_rejected(self):
        with pytest.raises(DomainError, match="stable region"):
            boundary_renewal(
                benchmark_system(1.5),
                benchmark_channel(theta_max=0.1),
                Truncation(40, 40),
            )


class TestThresholdPolicy:
    def test_transmit_always_below_renew_line(self):
        trunc = Truncation(6, 5)
        pol = threshold_policy(6, [1] * 6, trunc)
        assert np.all(pol.actions == Action.TRANSMIT)

    def test_renew_everywhere(self):
        trunc = Truncation(6, 5)
        pol = threshold_policy(0, [1] * 6, trunc)
        assert np.all(pol.actions == Action.RENEW)

    def test_mixed_structure(self):
        trunc = Truncation(4, 6)
        pol = threshold_policy(2, [4, 2, 2, 1], trunc)
        acts = pol.actions
        assert np.all(acts[2:, :] == Action.RENEW)
        assert list(acts[0]) == [0, 0, 0, 1, 1, 1]
        assert list(acts[1]) == [0, 1, 1, 1, 1, 1]

    def test_non_monotone_thresholds_rejected(self):
        with pytest.raises(DomainError, match="nonincreasing"):
            threshold_policy(4, [1, 3, 2, 1], Truncation(4, 6))

    def test_thresholds_outside_grid_rejected(self):
        with pytest.raises(DomainError):
            threshold_policy(4, [9, 2, 2, 1], Truncation(4, 6))
        with pytest.raises(DomainError):
            threshold_policy(4, [2, 2, 0, 0], Truncation(4, 6))

    def test_best_threshold_policy_cannot_beat_gain(self, small_case):
        # The optimal average cost lower-bounds every policy in the class;
        # probe a small sweep of renewal thresholds.
        mdp = small_case.mdp
        lam = small_case.rvi.gain
        for tau_renew in (0, 10, 20, 30):
            pol = threshold_policy(tau_renew, [1] * 30, mdp.trunc)
            stats = simulate(mdp, pol, epochs=100_000, seed=55)
            assert stats.per_epoch_avg_cost >= lam - 3 * stats.std_error
            gain, _ = policy_evaluate(mdp, pol)
            assert gain >= lam - 1e-9


def test_perfect_channel_reliability_is_exactly_one():
    # random() draws in [0, 1) so a unit success probability always succeeds.
    assert math.isclose(
        benchmark_channel(theta_max=1.0, theta_min=1.0).reliability(123), 1.0, abs_tol=0
    )
