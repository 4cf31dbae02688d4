"""Truncated average-cost MDP over the (channel age, information age) grid.

States are pairs (tau, delta) on [1, tau_max] x [1, delta_max]; ages that
would leave the grid saturate at the boundary. Actions are idle, transmit,
renew. Per-epoch cost is the age-indexed MSE; a renewal epoch pays the lump
sum of the MSE accrued over its whole downtime.

State enumeration is row-major with tau outer and delta inner; this ordering
is part of the exported-artifact contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, NamedTuple

import numpy as np

from .channel import ChannelModel
from .errors import DomainError
from .linear_model import MseTable, SystemModel, mse_table, steady_state


class Action(IntEnum):
    IDLE = 0
    TRANSMIT = 1
    RENEW = 2


class AgeState(NamedTuple):
    tau: int
    delta: int


@dataclass(frozen=True)
class Truncation:
    """Grid bounds for the two age processes."""

    tau_max: int
    delta_max: int

    def __post_init__(self):
        for name, v in (("tau_max", self.tau_max), ("delta_max", self.delta_max)):
            if int(v) != v or v < 1:
                raise DomainError(f"{name} must be a positive integer, got {v}")
        object.__setattr__(self, "tau_max", int(self.tau_max))
        object.__setattr__(self, "delta_max", int(self.delta_max))

    @property
    def n_states(self) -> int:
        return self.tau_max * self.delta_max


@dataclass(frozen=True)
class MdpSpec:
    """Assembled cost table and age-shift transition kernel.

    ``cost_table`` has shape (tau_max, delta_max, 3). Every transition is a
    clamped age shift, stored as 0-based index vectors: idle moves (t, d) to
    (``tau_idle[t]``, ``delta_up[d]``); transmit moves to (``tau_tx[t]``, 0)
    with probability ``theta[t]`` and to (``tau_tx[t]``, ``delta_up[d]``)
    otherwise; renew moves to (0, ``delta_renew[d]``).
    Flat index = (tau-1) * delta_max + (delta-1).
    Immutable after construction; safe for concurrent read-only sweeps.
    """

    trunc: Truncation
    channel: ChannelModel
    mse: MseTable
    theta: np.ndarray        # (tau_max,) reliability at each channel age
    cost_table: np.ndarray   # (tau_max, delta_max, 3)
    tau_idle: np.ndarray     # (tau_max,) channel age after idle
    tau_tx: np.ndarray       # (tau_max,) channel age after a transmission
    delta_up: np.ndarray     # (delta_max,) information age after no delivery
    delta_renew: np.ndarray  # (delta_max,) information age after a renewal

    @property
    def n_states(self) -> int:
        return self.trunc.n_states

    @property
    def shape(self) -> tuple[int, int]:
        return (self.trunc.tau_max, self.trunc.delta_max)

    def state_index(self, s: AgeState) -> int:
        """Flat row-major index of a grid state."""
        tau, delta = s
        if not (1 <= tau <= self.trunc.tau_max and 1 <= delta <= self.trunc.delta_max):
            raise DomainError(f"state {s} outside grid {self.shape}")
        return (tau - 1) * self.trunc.delta_max + (delta - 1)

    def state_at(self, index: int) -> AgeState:
        d = self.trunc.delta_max
        if not 0 <= index < self.n_states:
            raise DomainError(f"flat index {index} outside [0, {self.n_states})")
        return AgeState(index // d + 1, index % d + 1)

    def states(self) -> Iterator[AgeState]:
        """All grid states in the contractual row-major order."""
        for tau in range(1, self.trunc.tau_max + 1):
            for delta in range(1, self.trunc.delta_max + 1):
                yield AgeState(tau, delta)

    def cost(self, s: AgeState, u: Action | int) -> float:
        """Per-epoch cost of action ``u`` in state ``s``."""
        self.state_index(s)
        u = _check_action(u)
        return float(self.cost_table[s.tau - 1, s.delta - 1, u])

    def transitions(self, s: AgeState, u: Action | int) -> list[tuple[AgeState, float]]:
        """Successor states with probabilities (zero-probability entries omitted)."""
        self.state_index(s)
        u = _check_action(u)
        t, d = s.tau - 1, s.delta - 1
        if u == Action.TRANSMIT:
            p_hit = float(self.theta[t])
            branches = [((self.tau_tx[t], 0), p_hit), ((self.tau_tx[t], self.delta_up[d]), 1.0 - p_hit)]
        elif u == Action.IDLE:
            branches = [((self.tau_idle[t], self.delta_up[d]), 1.0)]
        else:
            branches = [((0, self.delta_renew[d]), 1.0)]
        return [(AgeState(int(ti) + 1, int(di) + 1), p) for (ti, di), p in branches if p > 0.0]

    def successors(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat successor indices of every state under an action grid.

        Returns ``(hit, miss, p_hit)``, each of length ``n_states``: the chain
        moves to ``hit`` with probability ``p_hit`` and to ``miss``
        otherwise. Only transmit branches; idle and renew put their sole
        successor in both slots with ``p_hit`` 1.
        """
        d_max = self.trunc.delta_max
        actions = np.asarray(actions)
        tx = actions == Action.TRANSMIT
        renew = actions == Action.RENEW
        tau = np.where(renew, 0, np.where(tx, self.tau_tx[:, None], self.tau_idle[:, None]))
        delta = np.where(renew, self.delta_renew[None, :], self.delta_up[None, :])
        miss = tau * d_max + delta
        hit = np.where(tx, tau * d_max, miss)
        p_hit = np.where(tx, self.theta[:, None], 1.0)
        return hit.reshape(-1), miss.reshape(-1), p_hit.reshape(-1)


def _check_action(u) -> int:
    if u not in (0, 1, 2):
        raise DomainError(f"invalid action {u!r}, expected 0, 1 or 2")
    return int(u)


def build_mdp(
    model: SystemModel,
    channel: ChannelModel,
    trunc: Truncation,
    *,
    require_headroom: bool = True,
    riccati_tol: float = 1e-12,
    riccati_max_iter: int = 100_000,
) -> MdpSpec:
    """Assemble the truncated MDP for a model/channel pair.

    ``require_headroom`` enforces tau_max >= 1 + tau_d and
    delta_max >= 1 + delta_r so every action has an in-range successor before
    clamping dominates; pass False only for deliberately degenerate grids.
    Renewal lump-sum summands beyond the grid clamp to the last table entry,
    consistent with the clamped dynamics.
    """
    t_max, d_max = trunc.tau_max, trunc.delta_max
    if require_headroom:
        if t_max < 1 + channel.tau_d:
            raise DomainError(
                f"tau_max={t_max} leaves no headroom for wear per transmission "
                f"(need >= {1 + channel.tau_d})"
            )
        if d_max < 1 + channel.delta_r:
            raise DomainError(
                f"delta_max={d_max} leaves no headroom for the renewal downtime "
                f"(need >= {1 + channel.delta_r})"
            )

    ss = steady_state(model, tol=riccati_tol, max_iter=riccati_max_iter)
    mse = mse_table(model, ss, d_max)
    f = mse.values  # f[j] = MSE at information age j+1

    theta = np.asarray(channel.reliability(np.arange(1, t_max + 1)), dtype=float).reshape(t_max)

    # Costs: idle and transmit pay the current-age MSE; renewal pays the MSE
    # lump sum over its delta_r-slot downtime, entries clamped to the grid.
    f_pad = np.concatenate([f, np.full(channel.delta_r, f[-1])])
    csum = np.concatenate([[0.0], np.cumsum(f_pad)])
    renew_cost = csum[channel.delta_r : channel.delta_r + d_max] - csum[:d_max]
    cost = np.empty((t_max, d_max, 3))
    cost[:, :, Action.IDLE] = f[np.newaxis, :]
    cost[:, :, Action.TRANSMIT] = f[np.newaxis, :]
    cost[:, :, Action.RENEW] = renew_cost[np.newaxis, :]

    # Clamped age updates, 0-based.
    tau_idle = np.minimum(np.arange(t_max) + 1, t_max - 1)
    tau_tx = np.minimum(np.arange(t_max) + channel.tau_d, t_max - 1)
    delta_up = np.minimum(np.arange(d_max) + 1, d_max - 1)
    delta_renew = np.minimum(np.arange(d_max) + channel.delta_r, d_max - 1)

    for arr in (theta, cost, tau_idle, tau_tx, delta_up, delta_renew):
        arr.flags.writeable = False
    return MdpSpec(
        trunc=trunc,
        channel=channel,
        mse=mse,
        theta=theta,
        cost_table=cost,
        tau_idle=tau_idle,
        tau_tx=tau_tx,
        delta_up=delta_up,
        delta_renew=delta_renew,
    )
