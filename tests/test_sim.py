import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    action_at,
    benchmark_channel,
    benchmark_mdp,
    benchmark_system,
    reference_reachable,
    scalar_boundary_renewal,
    scalar_simulate,
    sim_stats_equal,
)
from wearsched import (
    Action,
    DomainError,
    Policy,
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
from wearsched import sim
from wearsched.sim import BATCH_COUNT, CHUNK, _fsum_counted


# Walk settings for runs cut into windows of a few draws: one serial
# window; segments of 2 re-run in numpy and checked every step, where a pass
# gives up once most re-runs have not met; segments of 3 re-run in plain
# Python; and one fix-up pass, after which the serial bound finishes an
# unsettled window.
WALKS = [
    {},
    {"SEGMENT": 2, "MIN_SEGMENTS": 2, "PY_FINISH": 0, "CHECK_EVERY": 1},
    {"SEGMENT": 3, "MIN_SEGMENTS": 2},
    {"SEGMENT": 2, "MIN_SEGMENTS": 2, "FIXUP_PASSES": 1},
]


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
        stats = simulate(mdp, transmit_always(mdp.trunc), epochs=512, seed=3)
        # Every transmission succeeds, so every epoch costs the age-1 MSE.
        assert stats.per_epoch_avg_cost == mdp.mse[0]
        assert stats.per_slot_avg_cost == mdp.mse[0]
        assert stats.std_error == 0.0
        assert stats.aoi_histogram[0] == 512

    def test_determinism(self, small_case):
        mdp, pol = small_case.mdp, small_case.rvi.policy
        a = simulate(mdp, pol, epochs=5000, seed=99)
        b = simulate(mdp, pol, epochs=5000, seed=99)
        assert sim_stats_equal(a, b)

    def test_streams_differ(self, small_case):
        mdp, pol = small_case.mdp, small_case.rvi.policy
        a = simulate(mdp, pol, epochs=5000, seed=99, stream=0)
        b = simulate(mdp, pol, epochs=5000, seed=99, stream=1)
        assert not sim_stats_equal(a, b)

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
            simulate(mdp, transmit_always(Truncation(3, 3)), epochs=10, seed=1)

    def test_rng_validation(self):
        with pytest.raises(DomainError):
            replication_rng(-1)
        with pytest.raises(DomainError):
            replication_rng(2**64)
        with pytest.raises(DomainError):
            replication_rng(5, stream=-2)

    def test_integral_float_epochs_are_the_integer(self, small_case):
        mdp, pol = small_case.mdp, small_case.rvi.policy
        assert sim_stats_equal(simulate(mdp, pol, epochs=1e4, seed=3), simulate(mdp, pol, epochs=10_000, seed=3))
        assert simulate(mdp, pol, epochs=1e4, seed=3.0, stream=1.0).epochs == 10_000

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"epochs": 100.5}, "epochs"),
            ({"epochs": float("nan")}, "epochs"),
            ({"epochs": "100"}, "epochs"),
            ({"seed": 1.5}, "seed"),
            ({"seed": float("inf")}, "seed"),
            ({"stream": 0.5}, "stream"),
        ],
    )
    def test_non_integer_arguments_are_named(self, small_case, kwargs, name):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            simulate(small_case.mdp, small_case.rvi.policy, **{"epochs": 10, **kwargs})

    @pytest.mark.parametrize("seed,stream,name", [(1.5, 0, "seed"), (None, 0, "seed"), (5, 2.5, "stream")])
    def test_rng_arguments_must_be_integers(self, seed, stream, name):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            replication_rng(seed, stream)
        assert replication_rng(5.0, 2.0).random() == replication_rng(5, 2).random()


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
    )
    def test_bit_identical(self, epochs, tau_max, delta_max, tau_d, delta_r, curve, seed, stream):
        # "tie": the reliability equals the first uniform of the replication,
        # so a transmission from (1, 1) must fail (success needs u < theta).
        u0 = replication_rng(seed, stream).random()
        theta = {"dead": (0.0, 0.0), "perfect": (1.0, 1.0), "decaying": (0.95, 0.1), "tie": (u0, u0)}[curve]
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(0.3, tau_d, delta_r, *theta),
            Truncation(tau_max, delta_max),
        )
        actions = np.random.default_rng(seed).integers(0, 3, size=mdp.shape).astype(np.int8)
        policy = Policy(actions=actions)
        got = simulate(mdp, policy, epochs, seed, stream)
        assert sim_stats_equal(got, scalar_simulate(mdp, policy, epochs, seed, stream))

    # Chunks of 7 draws: a batch of more than 7 epochs spans several
    # windows, and its last window is short. Each run is walked under every
    # setting in WALKS.
    @pytest.mark.parametrize("epochs", [1, 6, 7, 8, 100, 7 * BATCH_COUNT + 5, 2000])
    @settings(max_examples=10)
    @given(
        tau_max=st.integers(1, 8),
        delta_max=st.integers(1, 8),
        seed=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 3),
    )
    def test_bit_identical_with_small_chunks(self, epochs, tau_max, delta_max, seed, stream):
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(0.3, 3, 4, 0.95, 0.1),
            Truncation(tau_max, delta_max),
        )
        policy = Policy(actions=np.random.default_rng(seed).integers(0, 3, size=mdp.shape).astype(np.int8))
        expected = scalar_simulate(mdp, policy, epochs, seed, stream)
        for walk in WALKS:
            with pytest.MonkeyPatch.context() as mp:
                for name, value in {"CHUNK": 7, **walk}.items():
                    mp.setattr(sim, name, value)
                got = simulate(mdp, policy, epochs, seed, stream)
            assert sim_stats_equal(got, expected), walk

    # Costs that send the total to fsum itself: each visited state's cost is
    # at least 2**1000 / epochs in magnitude or infinite, and with both signs
    # fsum's intermediate overflow depends on the order of the epochs. The
    # MSE and the renewal lump sum are drawn per information age.
    @pytest.mark.parametrize("epochs", [1, 2, 40, 7 * BATCH_COUNT + 5])
    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**64 - 1),
        huge=st.lists(
            st.sampled_from([2.0**1000, -(2.0**1000), 1.7e308, -1.7e308, np.inf, -np.inf]),
            min_size=2 * 4,
            max_size=2 * 4,
        ),
    )
    def test_fsum_fallback_matches_scalar(self, epochs, seed, huge):
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(0.3, 3, 4, 0.95, 0.1),
            Truncation(4, 4),
        )
        mse, renew_cost = np.array(huge).reshape(2, 4)
        mdp = dataclasses.replace(mdp, mse=mse, renew_cost=renew_cost)
        policy = Policy(actions=np.random.default_rng(seed).integers(0, 3, size=mdp.shape).astype(np.int8))
        # The batch means and their spread overflow too.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                expected = scalar_simulate(mdp, policy, epochs, seed)
            except (OverflowError, ValueError) as exc:
                expected = exc
            for walk in WALKS:
                with pytest.MonkeyPatch.context() as mp:
                    for name, value in {"CHUNK": 7, **walk}.items():
                        mp.setattr(sim, name, value)
                    if isinstance(expected, Exception):
                        with pytest.raises(type(expected), match=re.escape(str(expected))):
                            simulate(mdp, policy, epochs, seed)
                    else:
                        assert sim_stats_equal(simulate(mdp, policy, epochs, seed), expected), walk

    def test_fsum_fallback_in_epoch_order(self):
        # One channel age and a perfect channel: idle at information age 1,
        # transmit at 2, so the run alternates between costs +M and -M. fsum
        # adds them in epoch order to M; sorted, they overflow.
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(0.3, 3, 4, 1.0, 1.0),
            Truncation(1, 3),
        )
        m = 1.7e308
        mdp = dataclasses.replace(mdp, mse=np.array([m, -m, 0.0]), renew_cost=np.zeros(3))
        policy = Policy(actions=np.array([[Action.IDLE, Action.TRANSMIT, Action.IDLE]], dtype=np.int8))
        with pytest.raises(OverflowError):
            math.fsum(sorted([m, -m, m, -m, m]))
        with np.errstate(over="ignore", invalid="ignore"):
            got = simulate(mdp, policy, 5, 0)
            assert sim_stats_equal(got, scalar_simulate(mdp, policy, 5, 0))
        assert got.per_epoch_avg_cost == m / 5

    def test_memory_independent_of_epochs(self):
        # The statistics never hold an epoch-length array: 16 B per epoch is
        # what the visited states and their costs would take.
        mdp = build_mdp(benchmark_system(0.9), benchmark_channel(), Truncation(30, 30))
        policy = transmit_always(mdp.trunc)
        epochs = 1 << 20
        tracemalloc.start()
        try:
            simulate(mdp, policy, epochs=epochs, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * epochs

    def test_draw_equal_to_reliability_is_a_miss(self):
        u0 = replication_rng(5, 0).random()
        mdp = build_mdp(
            benchmark_system(0.9), benchmark_channel(theta_max=u0, theta_min=u0), Truncation(30, 30)
        )
        stats = simulate(mdp, transmit_always(mdp.trunc), epochs=2, seed=5)
        # The second epoch sits at information age 2, not back at 1.
        assert stats.aoi_histogram[:2].tolist() == [1, 1]
        assert sim_stats_equal(stats, scalar_simulate(mdp, transmit_always(mdp.trunc), 2, 5))

    def test_non_coupling_chain_is_walked_serially(self):
        # Idle below channel age 5 and renew from it: whatever the draws,
        # the chain cycles with period 5 once the information age clamps,
        # so segments that start in different phases never meet. The first
        # window's fix-up gives up and the serial bound walks the rest of
        # the run.
        mdp = build_mdp(benchmark_system(0.9), benchmark_channel(), Truncation(30, 30))
        actions = np.full(mdp.shape, Action.IDLE, dtype=np.int8)
        actions[4:] = Action.RENEW
        policy = Policy(actions=actions)
        finish = sim._finish_serially
        calls = []

        def spy(*args):
            calls.append(args[3])
            return finish(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "CHUNK", 1 << 12)
            mp.setattr(sim, "SEGMENT", 32)
            mp.setattr(sim, "_finish_serially", spy)
            got = simulate(mdp, policy, epochs=5 * (1 << 12) + 77, seed=3)
        assert calls == [1]
        assert sim_stats_equal(got, scalar_simulate(mdp, policy, 5 * (1 << 12) + 77, 3))

    def test_pinned_benchmark_marginal(self):
        # benchmark-marginal at 40x40 under its SPI policy, seed 2024, as
        # recorded with the per-epoch numpy-scalar loop.
        mdp = benchmark_mdp(1.0, grid=40)
        policy = structured_policy_iteration(mdp).policy
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
                _fsum_counted(values, counts, lambda: sequence)
            return
        got = _fsum_counted(values, counts, lambda: sequence)
        assert repr(got) == repr(expected)


def _reach_case(kind):
    """An (MDP, action grid) pair whose reachable set from (1, 1) is a
    single absorbing state, leaves transmit and renew cells unreached, or
    is the whole grid."""
    if kind == "absorbing":
        # One information age: (1, 1) renews back to itself.
        mdp = build_mdp(benchmark_system(0.9), benchmark_channel(0.3, 3, 4, 0.95, 0.1), Truncation(8, 1))
        actions = np.random.default_rng(0).integers(0, 3, size=mdp.shape).astype(np.int8)
        actions[0, 0] = Action.RENEW
        return mdp, actions
    if kind == "partial":
        mdp = benchmark_mdp(1.0, grid=40)
        return mdp, structured_policy_iteration(mdp).policy.actions
    if kind == "whole-2x2":
        # (1, 1) transmits to (2, 1) or (2, 2), which renews to (1, 2).
        mdp = build_mdp(benchmark_system(0.9), benchmark_channel(0.3, 2, 2, 0.95, 0.1), Truncation(2, 2))
        return mdp, np.array([[Action.TRANSMIT, Action.IDLE], [Action.TRANSMIT, Action.RENEW]], dtype=np.int8)
    # One channel age: idle up to information age 12, transmit there.
    mdp = build_mdp(benchmark_system(0.9), benchmark_channel(0.3, 2, 2, 0.95, 0.1), Truncation(1, 12))
    actions = np.zeros(mdp.shape, dtype=np.int8)
    actions[0, -1] = Action.TRANSMIT
    return mdp, actions


def _perfect_renewing(grid):
    """A perfect channel on a ``grid`` x ``grid`` MDP and the policy that
    transmits below channel age 13 and renews from it."""
    mdp = benchmark_mdp(0.9, grid=grid, theta_max=1.0, theta_min=1.0)
    actions = np.full(mdp.shape, Action.TRANSMIT, dtype=np.int8)
    actions[12:] = Action.RENEW
    return mdp, Policy(actions=actions)


class TestReachableStates:
    """``simulate`` walks only the states its policy reaches from (1, 1)."""

    @pytest.mark.parametrize("kind", ["absorbing", "partial", "whole-2x2", "whole-1x12"])
    def test_bit_identical(self, kind):
        mdp, actions = _reach_case(kind)
        policy = Policy(actions=actions)
        reach = sim._reachable(mdp, policy.actions)
        assert reach.tolist() == sorted(reference_reachable(mdp, policy))
        if kind == "absorbing":
            assert reach.tolist() == [0]
        elif kind == "partial":
            unreached = np.ones(mdp.n_states, dtype=bool)
            unreached[reach] = False
            assert {Action.TRANSMIT, Action.RENEW} <= set(actions.reshape(-1)[unreached].tolist())
        else:
            assert reach.size == mdp.n_states
        for epochs, seed in ((1, 4), (1000, 5), (CHUNK + 3, 6)):
            got = simulate(mdp, policy, epochs, seed)
            assert sim_stats_equal(got, scalar_simulate(mdp, policy, epochs, seed)), epochs

    @settings(max_examples=60)
    @given(
        tau_max=st.integers(1, 12),
        delta_max=st.integers(1, 12),
        tau_d=st.integers(2, 5),
        delta_r=st.integers(2, 5),
        curve=st.sampled_from(["dead", "perfect", "decaying"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tables_cover_the_reference_reachable_set(self, tau_max, delta_max, tau_d, delta_r, curve, seed):
        theta = {"dead": (0.0, 0.0), "perfect": (1.0, 1.0), "decaying": (0.95, 0.1)}[curve]
        mdp = build_mdp(
            benchmark_system(0.9),
            benchmark_channel(0.3, tau_d, delta_r, *theta),
            Truncation(tau_max, delta_max),
        )
        policy = Policy(actions=np.random.default_rng(seed).integers(0, 3, size=mdp.shape).astype(np.int8))
        expected = reference_reachable(mdp, policy)
        assert sim._reachable(mdp, policy.actions).tolist() == sorted(expected)
        walk, sizes = sim._walk, []

        def spy(hit, miss, threshold, rng, batch_sizes):
            sizes.append((len(hit), len(miss), len(threshold)))
            return walk(hit, miss, threshold, rng, batch_sizes)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_walk", spy)
            simulate(mdp, policy, epochs=50, seed=seed)
        assert sizes == [(len(expected),) * 3]

    @pytest.mark.parametrize("epochs", [100_000, CHUNK - 300])
    def test_padding_takes_only_reachable_branches(self, epochs):
        # The last segment of a parallel window is padded past the window's
        # end. A transmit on a perfect channel misses with probability 0, to
        # a state outside the reachable set; the padding must not go there.
        mdp, policy = _perfect_renewing(60)
        segments, short = divmod(epochs, sim.SEGMENT)
        assert short and segments >= sim.MIN_SEGMENTS
        got = simulate(mdp, policy, epochs, seed=1)
        assert sim_stats_equal(got, scalar_simulate(mdp, policy, epochs, seed=1))

    def test_memory_independent_of_grid(self):
        # The chain cycles through (1, 1), (7, 1), (13, 1) and (1, 16) on
        # either grid; only the one-byte mask of the states seen grows with
        # the grid.
        peaks = []
        for grid in (60, 300):
            mdp, policy = _perfect_renewing(grid)
            assert sim._reachable(mdp, policy.actions).tolist() == [0, 15, 6 * grid, 12 * grid]
            simulate(mdp, policy, epochs=20_000, seed=1)
            tracemalloc.start()
            try:
                simulate(mdp, policy, epochs=20_000, seed=1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= 2 * (300**2 - 60**2)


class TestTransmitAlways:
    def test_everywhere(self):
        pol = transmit_always(Truncation(9, 7))
        assert action_at(pol, 1, 1) == Action.TRANSMIT
        assert action_at(pol, 9, 7) == Action.TRANSMIT
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
            assert action_at(pol, tau, 1) == expected
        assert action_at(pol, 17, 5) == Action.TRANSMIT
        assert action_at(pol, 18, 5) == Action.RENEW

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

    @settings(max_examples=200)
    @given(
        beta=st.floats(0.5, 3.0),
        theta=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
        alpha=st.floats(1e-3, 0.3),
        tau_max=st.integers(1, 200),
    )
    def test_matches_the_per_age_reference(self, beta, theta, alpha, tau_max):
        model = benchmark_system(beta)
        ch = benchmark_channel(alpha=alpha, theta_min=theta[0], theta_max=theta[1])
        trunc = Truncation(tau_max, 3)
        try:
            expected = scalar_boundary_renewal(model, ch, trunc)
        except DomainError:
            with pytest.raises(DomainError, match="stable region"):
                boundary_renewal(model, ch, trunc)
        else:
            assert boundary_renewal(model, ch, trunc) == expected


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), None, "3", 2.5], ids=repr)
    def test_non_integer_renewal_threshold_is_named(self, bad):
        with pytest.raises(DomainError, match=re.escape(f"tau_renew must be an integer, got {bad!r}")):
            threshold_policy(bad, [1] * 4, Truncation(4, 6))

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_renewal_threshold_outside_grid_rejected(self, bad):
        with pytest.raises(DomainError, match=re.escape(f"tau_renew must be an integer in [0, 4], got {bad!r}")):
            threshold_policy(bad, [1] * 4, Truncation(4, 6))

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
            gain = policy_evaluate(mdp, pol).gain
            assert gain >= lam - 1e-9


def test_perfect_channel_reliability_is_exactly_one():
    # random() draws in [0, 1) so a unit success probability always succeeds.
    assert math.isclose(
        benchmark_channel(theta_max=1.0, theta_min=1.0).reliability(123), 1.0, abs_tol=0
    )
