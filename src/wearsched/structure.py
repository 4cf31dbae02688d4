"""Numerical verifiers for the structural properties of solved instances:
value monotonicity in both ages, policy monotonicity along either age axis,
Q-factor submodularity for the idle/transmit pair, and threshold frontiers.

Checks run on a caller-supplied rectangular region; the usual choice is the
interior region that excludes the rows/columns distorted by age clamping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
        return self.count() == 0

    def count(self) -> int:
        return len(self.violations)

    def head(self, limit: int | None) -> tuple[Violation, ...]:
        """The first ``limit`` violations (all of them when None)."""
        return self.violations[:limit]


class _FlaggedReport(ViolationReport):
    """The report a check returns: it keeps the flagged adjacent-pair masks,
    counts them without listing, and builds violations only when read."""

    def __init__(self, kind: str, region: Region, flags: list[tuple[np.ndarray, np.ndarray, str]]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "checked_region", region)
        object.__setattr__(self, "_flags", flags)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        return self.head(None)

    def head(self, limit: int | None) -> tuple[Violation, ...]:
        listed: list[Violation] = []
        for flagged, amount, axis in self._flags:
            rest = None if limit is None else limit - len(listed)
            listed += _listed(flagged, amount, self.checked_region, axis, rest)
        return tuple(listed)

    def count(self) -> int:
        return sum(int(np.count_nonzero(flagged)) for flagged, _, _ in self._flags)


def _check_region(region: Region, shape: tuple[int, int]) -> None:
    t_max, d_max = shape
    if region.tau_lo < 1 or region.delta_lo < 1:
        raise DomainError(f"region {region} has bounds below 1")
    if region.tau_hi > t_max or region.delta_hi > d_max:
        raise DomainError(f"region {region} exceeds grid {shape}")
    if region.tau_hi < region.tau_lo or region.delta_hi < region.delta_lo:
        raise DomainError(f"region {region} has an upper bound below its lower bound")


def _adjacent(arr: np.ndarray, region: Region, axis: str) -> tuple[np.ndarray, np.ndarray]:
    """First and second states of every adjacent pair of ``arr`` along an
    age axis inside the region (empty when the region spans one state)."""
    sub = arr[region.tau_lo - 1 : region.tau_hi, region.delta_lo - 1 : region.delta_hi]
    if axis == "aoc":
        return sub[:-1], sub[1:]
    return sub[:, :-1], sub[:, 1:]


def _listed(
    flagged: np.ndarray, amount: np.ndarray, region: Region, axis: str, limit: int | None
) -> list[Violation]:
    """The first ``limit`` (all when None) violations at the flagged pairs,
    anchored at each pair's first state, in row-major order, with
    plain-python fields."""
    ti, di = np.nonzero(flagged)
    ti, di = ti[:limit], di[:limit]
    taus, deltas = (ti + region.tau_lo).tolist(), (di + region.delta_lo).tolist()
    return list(map(Violation._make, zip(taus, deltas, repeat(axis), amount[ti, di].astype(float).tolist())))


def _axis_flags(arr: np.ndarray, region: Region, axis: str, rel_tol: float):
    """Adjacent-pair decreases of ``arr`` along an age axis inside the region:
    the flagged mask, the drops and the axis."""
    lo, hi = _adjacent(arr, region, axis)
    drop = lo - hi
    tol = rel_tol * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    return drop > tol, drop, axis


def check_value_monotone(
    v: np.ndarray, region: Region, rel_tol: float = VALUE_RTOL
) -> ViolationReport:
    """Flag pairs where the relative value decreases in either age."""
    _check_region(region, v.shape)
    flags = [_axis_flags(v, region, "aoi", rel_tol), _axis_flags(v, region, "aoc", rel_tol)]
    return _FlaggedReport("value-monotone", region, flags)


def check_policy_monotone(policy: Policy, axis: str, region: Region) -> ViolationReport:
    """Flag pairs where the action index decreases along the given age axis.

    Adjacent pairs suffice: the action order is total, so monotonicity is
    transitive.
    """
    if axis not in AXES:
        raise DomainError(f"axis must be one of {AXES}, got {axis!r}")
    _check_region(region, policy.shape)
    acts = policy.actions.astype(np.int64)
    return _FlaggedReport(f"policy-monotone-{axis}", region, [_axis_flags(acts, region, axis, 0.0)])


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
    flagged = excess > rel_tol * (1.0 + np.maximum(qlo, qhi))
    return _FlaggedReport(f"submodular-{pair_axis}", region, [(flagged, excess, pair_axis)])


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
