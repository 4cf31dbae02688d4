import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import aoc_next, aoi_next
from wearsched import ChannelModel, DomainError


def make_channel(**kw):
    base = dict(theta_max=0.99, theta_min=0.0, alpha=0.1, tau_d=6, delta_r=15)
    base.update(kw)
    return ChannelModel(**base)


class TestReliability:
    def test_exponential_at_age_one(self):
        ch = make_channel()
        expected = 0.99 * math.exp(-0.1)  # independent arithmetic
        assert ch.reliability(1) == pytest.approx(expected, abs=1e-15)
        assert ch.reliability(1) == pytest.approx(0.89578, abs=1e-5)

    def test_constant_curve(self):
        ch = make_channel(theta_max=0.42, theta_min=0.42)
        for tau in (1, 3, 1000):
            assert ch.reliability(tau) == pytest.approx(0.42, abs=1e-15)

    def test_large_age_reaches_floor(self):
        ch = make_channel(theta_min=0.05)
        assert ch.reliability(10**6) == pytest.approx(0.05, abs=1e-12)

    def test_rejects_age_below_one(self):
        with pytest.raises(DomainError):
            make_channel().reliability(0)

    def test_vectorized(self):
        ch = make_channel()
        taus = np.arange(1, 11)
        np.testing.assert_allclose(
            ch.reliability(taus), [ch.reliability(int(t)) for t in taus], rtol=1e-15
        )

    @given(
        theta_min=st.floats(0.0, 1.0),
        spread=st.floats(0.0, 1.0),
        alpha=st.floats(1e-4, 2.0),
    )
    def test_nonincreasing_and_bounded(self, theta_min, spread, alpha):
        theta_max = theta_min + (1.0 - theta_min) * spread
        ch = make_channel(theta_max=theta_max, theta_min=theta_min, alpha=alpha)
        taus = np.unique(np.geomspace(1, 10**4, 200).astype(int))
        vals = ch.reliability(taus)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(vals >= theta_min - 1e-12)
        assert np.all(vals <= theta_max + 1e-12)


class TestChannelValidation:
    def test_theta_order(self):
        with pytest.raises(DomainError):
            make_channel(theta_max=0.2, theta_min=0.7)

    def test_theta_range(self):
        with pytest.raises(DomainError):
            make_channel(theta_max=1.2)

    @pytest.mark.parametrize("field", ["tau_d", "delta_r"])
    def test_wear_and_downtime_exceed_one(self, field):
        with pytest.raises(DomainError):
            make_channel(**{field: 1})

    @pytest.mark.parametrize("bad", [6.5, float("nan"), float("inf"), "6"])
    @pytest.mark.parametrize("field", ["tau_d", "delta_r"])
    def test_wear_and_downtime_are_integers(self, field, bad):
        with pytest.raises(DomainError, match=f"^{field} must be an integer"):
            make_channel(**{field: bad})
        assert type(getattr(make_channel(**{field: 6.0}), field)) is int

    def test_alpha_positive(self):
        with pytest.raises(DomainError):
            make_channel(alpha=0.0)


class TestAgeUpdates:
    def test_transmit_wear(self):
        assert aoc_next(make_channel(), tau=3, u=1, tau_max=100) == 9

    def test_renewal_resets(self):
        for tau in (1, 5, 77):
            assert aoc_next(make_channel(), tau=tau, u=2, tau_max=100) == 1

    def test_idle_clamps_at_bound(self):
        assert aoc_next(make_channel(), tau=50, u=0, tau_max=50) == 50

    def test_reception_resets_information_age(self):
        assert aoi_next(delta=7, u=1, success=True, delta_r=15, delta_max=100) == 1

    def test_renewal_downtime_ages_information(self):
        assert aoi_next(delta=7, u=2, success=False, delta_r=15, delta_max=100) == 22

    def test_idle_clamps(self):
        assert aoi_next(delta=60, u=0, success=False, delta_r=15, delta_max=60) == 60

    def test_success_requires_transmit(self):
        with pytest.raises(DomainError):
            aoi_next(delta=3, u=0, success=True, delta_r=15, delta_max=100)

    def test_invalid_action(self):
        with pytest.raises(DomainError):
            aoc_next(make_channel(), tau=3, u=5, tau_max=10)
        with pytest.raises(DomainError):
            aoi_next(delta=3, u=-1, success=False, delta_r=2, delta_max=10)

    def test_age_out_of_grid(self):
        with pytest.raises(DomainError):
            aoc_next(make_channel(), tau=11, u=0, tau_max=10)

    @given(
        tau=st.integers(1, 200),
        delta=st.integers(1, 200),
        u=st.sampled_from([0, 1, 2]),
        success=st.booleans(),
        tau_max=st.integers(1, 200),
        delta_max=st.integers(1, 200),
    )
    def test_updates_never_leave_grid(self, tau, delta, u, success, tau_max, delta_max):
        ch = make_channel(tau_d=4, delta_r=3)
        if tau > tau_max or delta > delta_max:
            return
        assert 1 <= aoc_next(ch, tau, u, tau_max) <= tau_max
        if success and u != 1:
            return
        assert 1 <= aoi_next(delta, u, success, ch.delta_r, delta_max) <= delta_max
