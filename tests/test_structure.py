import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import scalar_policy_violations, scalar_submodular_violations, scalar_value_violations
from wearsched import (
    DomainError,
    Policy,
    Region,
    ThresholdFrontier,
    ViolationReport,
    check_policy_monotone,
    check_submodular,
    check_value_monotone,
    full_region,
    interior_region,
    q_backup,
    threshold_frontier,
)
from wearsched.cli import _report_dict


def region_of(case):
    return interior_region(case.mdp.trunc, case.mdp.channel)


class TestValueMonotone:
    def test_constant_grid_clean(self):
        report = check_value_monotone(np.zeros((10, 10)), Region(1, 10, 1, 10))
        assert report.passed and report.count() == 0

    def test_planted_defect_found_exactly(self):
        v = np.tile(np.arange(10.0), (10, 1)) + np.arange(10.0)[:, None]
        v[4, 5] = v[4, 6] + 1.0  # one inverted adjacent pair along the AoI axis
        report = check_value_monotone(v, Region(1, 10, 1, 10))
        flagged = {(x.tau, x.delta, x.axis) for x in report.violations}
        assert (5, 6, "aoi") in flagged
        # the same bump also breaks the neighbouring pairs that touch it
        assert all(t in (4, 5) and d in (5, 6, 7) for t, d, _ in flagged)

    def test_solved_instance_clean(self, case_stable):
        assert check_value_monotone(case_stable.rvi.v, region_of(case_stable)).passed

    def test_all_solved_instances_clean(self, benchmark_cases):
        for name, case in benchmark_cases.items():
            report = check_value_monotone(case.rvi.v, region_of(case))
            assert report.passed, f"{name}: {report.violations[:3]}"

    def test_region_validation(self):
        with pytest.raises(DomainError):
            check_value_monotone(np.zeros((4, 4)), Region(1, 5, 1, 4))


class TestPolicyMonotone:
    def test_constant_policy_clean(self):
        pol = Policy(actions=np.full((8, 8), 1, dtype=np.int8))
        for axis in ("aoi", "aoc"):
            assert check_policy_monotone(pol, axis, Region(1, 8, 1, 8)).passed

    def test_planted_violation_found(self):
        acts = np.zeros((6, 6), dtype=np.int8)
        acts[3:, :] = 1
        acts[4, 2] = 0  # dip below the transmit region along the AoC axis
        pol = Policy(actions=acts)
        report = check_policy_monotone(pol, "aoc", Region(1, 6, 1, 6))
        assert not report.passed
        assert {(v.tau, v.delta) for v in report.violations} == {(4, 3)}
        # and the information-age axis sees the dip too
        report_aoi = check_policy_monotone(pol, "aoi", Region(1, 6, 1, 6))
        assert {(v.tau, v.delta) for v in report_aoi.violations} == {(5, 2)}

    def test_stable_benchmark_clean_on_both_axes(self, case_stable):
        for axis in ("aoi", "aoc"):
            assert check_policy_monotone(case_stable.rvi.policy, axis, region_of(case_stable)).passed

    def test_slow_decay_breaks_information_age_monotonicity(self, case_slow_decay):
        region = region_of(case_slow_decay)
        assert check_policy_monotone(case_slow_decay.rvi.policy, "aoc", region).passed
        assert check_policy_monotone(case_slow_decay.rvi.policy, "aoi", region).count() >= 1

    def test_heavy_wear_restores_information_age_monotonicity(self, case_heavy_wear):
        region = region_of(case_heavy_wear)
        assert check_policy_monotone(case_heavy_wear.rvi.policy, "aoc", region).passed
        assert check_policy_monotone(case_heavy_wear.rvi.policy, "aoi", region).passed

    def test_faster_decay_flips_information_age_verdict(self, case_marginal, case_slow_decay):
        # Same system and wear; only the decay rate differs (0.1 vs 0.05).
        assert check_policy_monotone(
            case_marginal.rvi.policy, "aoi", region_of(case_marginal)
        ).passed
        assert not check_policy_monotone(
            case_slow_decay.rvi.policy, "aoi", region_of(case_slow_decay)
        ).passed

    def test_axis_validation(self, case_stable):
        with pytest.raises(DomainError):
            check_policy_monotone(case_stable.rvi.policy, "time", region_of(case_stable))


class TestSubmodular:
    def test_identical_rows_are_borderline_clean(self):
        # Linear costs with identical rows satisfy the inequality with
        # equality, which must not be flagged.
        q = np.zeros((2, 5, 3))
        q[:, :, 1] = np.arange(5.0)
        q[:, :, 0] = np.arange(5.0)
        report = check_submodular(q, "aoc", Region(1, 2, 1, 5))
        assert report.passed

    def test_planted_violation_found(self):
        q = np.zeros((4, 4, 3))
        # Make transmit's advantage grow with the channel age at one spot.
        q[:, :, 1] = -1.0
        q[2, 1, 1] = -3.0
        report = check_submodular(q, "aoc", Region(1, 4, 1, 4))
        assert {(v.tau, v.delta) for v in report.violations} == {(3, 2)}

    def test_information_age_axis_clean_on_solved_instances(self, benchmark_cases):
        for name, case in benchmark_cases.items():
            report = check_submodular(q_backup(case.mdp, case.rvi.v), "aoi", region_of(case))
            assert report.passed, f"{name}: {report.count()} violations"

    def test_channel_age_axis_reports_known_discrepancy(self, case_stable):
        # The idle/transmit Q-gap is NOT monotone along the channel age on
        # solved instances (the transmit advantage decays with the success
        # probability), so this check genuinely reports violations; the
        # checker itself is exercised here. See the acceptance suite for the
        # claim as stated.
        report = check_submodular(q_backup(case_stable.mdp, case_stable.rvi.v), "aoc", region_of(case_stable))
        assert report.count() > 0
        assert all(v.magnitude > 0 for v in report.violations)

    def test_renew_action_excluded(self, case_stable):
        # Violations are computed from the idle/transmit pair only; crank the
        # renew column and nothing changes.
        q = q_backup(case_stable.mdp, case_stable.rvi.v).copy()
        region = region_of(case_stable)
        before = check_submodular(q, "aoi", region).count()
        q[:, :, 2] = 1e9
        assert check_submodular(q, "aoi", region).count() == before

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            check_submodular(np.zeros((4, 4)), "aoi", Region(1, 4, 1, 4))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf on purpose
class TestMatchesScalarLists:
    """The vectorised violation lists against the per-element loops they
    replaced: equal tuples, plain-python fields, the same verify.json text."""

    SPECIALS = np.array([0.0, 1.0, -1.0, 1e-9, np.nan, np.inf, -np.inf])

    @classmethod
    def _grid(cls, rng, shape):
        # Half the entries from a few values (ties, NaN, +-inf), half normal.
        special = rng.choice(cls.SPECIALS, size=shape)
        return np.where(rng.random(shape) < 0.5, special, rng.normal(scale=10.0, size=shape))

    @staticmethod
    def _region(data, t_max, d_max):
        tau_lo = data.draw(st.integers(1, t_max))
        delta_lo = data.draw(st.integers(1, d_max))
        return Region(
            tau_lo, data.draw(st.integers(tau_lo, t_max)), delta_lo, data.draw(st.integers(delta_lo, d_max))
        )

    @staticmethod
    def _assert_same(report, expected):
        assert report.violations == expected
        for v in report.violations:
            assert type(v.tau) is int and type(v.delta) is int and type(v.magnitude) is float
        reference = ViolationReport(report.kind, expected, report.checked_region)
        assert json.dumps(_report_dict(report)) == json.dumps(_report_dict(reference))

    @given(
        t_max=st.integers(1, 12),
        d_max=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        rel_tol=st.sampled_from([0.0, 1e-9, 1e-7, 0.5]),
        data=st.data(),
    )
    def test_value_monotone(self, t_max, d_max, seed, rel_tol, data):
        v = self._grid(np.random.default_rng(seed), (t_max, d_max))
        region = self._region(data, t_max, d_max)
        self._assert_same(
            check_value_monotone(v, region, rel_tol), scalar_value_violations(v, region, rel_tol)
        )

    @given(
        t_max=st.integers(1, 12),
        d_max=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        axis=st.sampled_from(["aoc", "aoi"]),
        data=st.data(),
    )
    def test_policy_monotone(self, t_max, d_max, seed, axis, data):
        policy = Policy(actions=np.random.default_rng(seed).integers(0, 3, (t_max, d_max)).astype(np.int8))
        region = self._region(data, t_max, d_max)
        self._assert_same(
            check_policy_monotone(policy, axis, region), scalar_policy_violations(policy, axis, region)
        )

    @given(
        t_max=st.integers(1, 12),
        d_max=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        axis=st.sampled_from(["aoc", "aoi"]),
        rel_tol=st.sampled_from([0.0, 1e-7, 0.5]),
        data=st.data(),
    )
    def test_submodular(self, t_max, d_max, seed, axis, rel_tol, data):
        q = self._grid(np.random.default_rng(seed), (t_max, d_max, 3))
        region = self._region(data, t_max, d_max)
        self._assert_same(
            check_submodular(q, axis, region, rel_tol), scalar_submodular_violations(q, axis, region, rel_tol)
        )

    def test_counts_read_the_masks(self, case_stable):
        # verify counts the full-grid violations only; the count and the
        # verdict must not build the list, and must agree with it.
        q = q_backup(case_stable.mdp, case_stable.rvi.v)
        report = check_submodular(q, "aoc", full_region(case_stable.mdp.trunc))
        assert report.count() > 1000 and not report.passed
        assert "violations" not in vars(report)
        assert report.count() == len(report.violations)

    def test_solved_instance(self, case_stable):
        # Thousands of listed violations on a real Q grid (see the
        # channel-age discrepancy above), full grid and interior.
        q = q_backup(case_stable.mdp, case_stable.rvi.v)
        for region in (region_of(case_stable), full_region(case_stable.mdp.trunc)):
            report = check_submodular(q, "aoc", region)
            assert report.count() > 1000
            self._assert_same(report, scalar_submodular_violations(q, "aoc", region, 1e-7))


class TestThresholdFrontier:
    def test_idle_everywhere(self):
        pol = Policy(actions=np.zeros((5, 7), dtype=np.int8))
        fr = threshold_frontier(pol)
        assert fr.transmit == (None,) * 7
        assert fr.renew == (None,) * 7

    def test_renew_everywhere(self):
        pol = Policy(actions=np.full((5, 7), 2, dtype=np.int8))
        fr = threshold_frontier(pol)
        assert fr.transmit == (1,) * 7
        assert fr.renew == (1,) * 7

    def test_banded_policy(self):
        acts = np.zeros((6, 2), dtype=np.int8)
        acts[2:, 0] = 1
        acts[4:, 0] = 2
        acts[5:, 1] = 1
        fr = threshold_frontier(Policy(actions=acts))
        assert fr.transmit == (3, 6)
        assert fr.renew == (5, None)

    def test_transmit_before_renew_everywhere(self, benchmark_cases):
        for case in benchmark_cases.values():
            fr = threshold_frontier(case.rvi.policy)
            for tx, rn in zip(fr.transmit, fr.renew):
                if rn is not None:
                    assert tx is not None and tx <= rn

    def test_inconsistent_frontier_rejected(self):
        with pytest.raises(DomainError):
            ThresholdFrontier(transmit=(5,), renew=(3,))


class TestRegions:
    def test_interior_excludes_clamp_bands(self, case_stable):
        region = region_of(case_stable)
        trunc, ch = case_stable.mdp.trunc, case_stable.mdp.channel
        assert region == Region(1, trunc.tau_max - ch.tau_d, 1, trunc.delta_max - ch.delta_r)

    def test_full_region(self, case_stable):
        assert full_region(case_stable.mdp.trunc) == Region(1, 80, 1, 80)

    @pytest.mark.parametrize("region", [Region(1, -1, 1, 5), Region(3, 2, 1, 5), Region(1, 4, 5, 4)])
    def test_inverted_region_is_rejected_by_every_check(self, region):
        # A grid that decreases everywhere: slicing an inverted region would
        # wrap and report violations where the region holds no state. The
        # first region is the interior of a 5 x 20 grid when tau_d = 6.
        v = -np.arange(20.0).reshape(4, 5)
        policy = Policy(actions=np.full((4, 5), 2, dtype=np.int8))
        q = np.stack([v, -v, v], axis=-1)
        checks = [
            lambda: check_value_monotone(v, region),
            *(lambda axis=axis: check_policy_monotone(policy, axis, region) for axis in ("aoi", "aoc")),
            *(lambda axis=axis: check_submodular(q, axis, region) for axis in ("aoi", "aoc")),
        ]
        for check in checks:
            with pytest.raises(DomainError, match="upper bound below its lower bound"):
                check()

