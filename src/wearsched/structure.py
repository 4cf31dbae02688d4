"""Numerical verifiers for the structural properties of solved instances:
value monotonicity in both ages, policy monotonicity along either age axis,
Q-factor submodularity for the idle/transmit pair, and threshold frontiers.

Checks run on a caller-supplied rectangular region; the usual choice is the
interior region that excludes the rows/columns distorted by age clamping.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .channel import ChannelModel
from .errors import DomainError
from .mdp import Truncation
from .solvers import Policy

AXES = ("aoc", "aoi")  # channel-age axis, information-age axis

VALUE_RTOL = 1e-9
SUBMODULAR_RTOL = 1e-7


class Region(NamedTuple):
    """Inclusive 1-based bounds of the grid rectangle a check runs on."""

    tau_lo: int
    tau_hi: int
    delta_lo: int
    delta_hi: int


def interior_region(trunc: Truncation, channel: ChannelModel) -> Region:
    """Grid rectangle unaffected by clamping: drops the last ``tau_d`` rows
    and ``delta_r`` columns, where saturating age updates distort dynamics."""
    return Region(1, trunc.tau_max - channel.tau_d, 1, trunc.delta_max - channel.delta_r)


def full_region(trunc: Truncation) -> Region:
    return Region(1, trunc.tau_max, 1, trunc.delta_max)


class Violation(NamedTuple):
    tau: int
    delta: int
    axis: str
    magnitude: float


@dataclass(frozen=True)
class ViolationReport:
    kind: str
    violations: tuple[Violation, ...]
    checked_region: Region

    @property
    def passed(self) -> bool:
        return not self.violations

    def count(self) -> int:
        return len(self.violations)


def _check_region(region: Region, shape: tuple[int, int]) -> None:
    t_max, d_max = shape
    if region.tau_lo < 1 or region.delta_lo < 1:
        raise DomainError(f"region {region} has bounds below 1")
    if region.tau_hi > t_max or region.delta_hi > d_max:
        raise DomainError(f"region {region} exceeds grid {shape}")


def _adjacent(arr: np.ndarray, region: Region, axis: str) -> tuple[np.ndarray, np.ndarray]:
    """First and second states of every adjacent pair of ``arr`` along an
    age axis inside the region (empty when the region spans one state)."""
    sub = arr[region.tau_lo - 1 : region.tau_hi, region.delta_lo - 1 : region.delta_hi]
    if axis == "aoc":
        return sub[:-1], sub[1:]
    return sub[:, :-1], sub[:, 1:]


def _listed(flagged: np.ndarray, amount: np.ndarray, region: Region, axis: str) -> list[Violation]:
    """Violations at the flagged pairs, anchored at each pair's first state,
    in row-major order, with plain-python fields."""
    ti, di = np.nonzero(flagged)
    taus, deltas = (ti + region.tau_lo).tolist(), (di + region.delta_lo).tolist()
    return list(map(Violation._make, zip(taus, deltas, repeat(axis), amount[ti, di].astype(float).tolist())))


def _axis_violations(arr: np.ndarray, region: Region, axis: str, rel_tol: float):
    """Adjacent-pair decreases of ``arr`` along an age axis inside the region."""
    lo, hi = _adjacent(arr, region, axis)
    drop = lo - hi
    tol = rel_tol * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    return _listed(drop > tol, drop, region, axis)


def check_value_monotone(
    v: np.ndarray, region: Region, rel_tol: float = VALUE_RTOL
) -> ViolationReport:
    """Flag pairs where the relative value decreases in either age."""
    _check_region(region, v.shape)
    violations = _axis_violations(v, region, "aoi", rel_tol) + _axis_violations(
        v, region, "aoc", rel_tol
    )
    return ViolationReport(
        kind="value-monotone", violations=tuple(violations), checked_region=region
    )


def check_policy_monotone(policy: Policy, axis: str, region: Region) -> ViolationReport:
    """Flag pairs where the action index decreases along the given age axis.

    Adjacent pairs suffice: the action order is total, so monotonicity is
    transitive.
    """
    if axis not in AXES:
        raise DomainError(f"axis must be one of {AXES}, got {axis!r}")
    _check_region(region, policy.shape)
    acts = policy.actions.astype(np.int64)
    violations = _axis_violations(acts, region, axis, rel_tol=0.0)
    return ViolationReport(
        kind=f"policy-monotone-{axis}", violations=tuple(violations), checked_region=region
    )


def check_submodular(
    q: np.ndarray, pair_axis: str, region: Region, rel_tol: float = SUBMODULAR_RTOL
) -> ViolationReport:
    """Submodularity of the Q-factors in (age, action) for idle vs transmit.

    Flags adjacent-age quadruples with
    Q(x+1, transmit) + Q(x, idle) > Q(x+1, idle) + Q(x, transmit) beyond
    tolerance. The renew action is deliberately excluded: the lump-sum
    renewal cost makes the corresponding differences supermodular along the
    information age, so no sign holds for the full action set.
    """
    if pair_axis not in AXES:
        raise DomainError(f"pair_axis must be one of {AXES}, got {pair_axis!r}")
    if q.ndim != 3 or q.shape[2] != 3:
        raise DomainError(f"q must have shape (tau_max, delta_max, 3), got {q.shape}")
    _check_region(region, q.shape[:2])
    # Submodularity of Q in (age, u) for u in {0, 1} is equivalent to
    # Q(., transmit) - Q(., idle) nonincreasing along the age.
    lo, hi = _adjacent(q[:, :, 1] - q[:, :, 0], region, pair_axis)
    qlo, qhi = _adjacent(np.abs(q[:, :, :2]).max(axis=2), region, pair_axis)
    excess = hi - lo
    violations = _listed(excess > rel_tol * (1.0 + np.maximum(qlo, qhi)), excess, region, pair_axis)
    return ViolationReport(
        kind=f"submodular-{pair_axis}", violations=tuple(violations), checked_region=region
    )


@dataclass(frozen=True)
class ThresholdFrontier:
    """Per-information-age minimal channel ages at which the policy starts to
    transmit (action >= transmit) and to renew; None where the action never
    appears in the column."""

    transmit: tuple[int | None, ...]
    renew: tuple[int | None, ...]

    def __post_init__(self):
        for tx, rn in zip(self.transmit, self.renew):
            if tx is not None and rn is not None and tx > rn:
                raise DomainError(
                    "transmit threshold must not exceed renew threshold "
                    f"(got transmit={tx}, renew={rn})"
                )


def threshold_frontier(policy: Policy) -> ThresholdFrontier:
    """Extract the per-column transmit/renew frontier indices of a policy."""
    acts = policy.actions
    transmit: list[int | None] = []
    renew: list[int | None] = []
    for dj in range(acts.shape[1]):
        col = acts[:, dj]
        i_tx = np.nonzero(col >= 1)[0]
        i_rn = np.nonzero(col == 2)[0]
        transmit.append(int(i_tx[0]) + 1 if i_tx.size else None)
        renew.append(int(i_rn[0]) + 1 if i_rn.size else None)
    return ThresholdFrontier(transmit=tuple(transmit), renew=tuple(renew))
