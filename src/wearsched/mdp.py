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

import numpy as np

from .channel import ChannelModel
from .errors import DomainError, check_integer
from .linear_model import SystemModel, mse_table, steady_state


class Action(IntEnum):
    IDLE = 0
    TRANSMIT = 1
    RENEW = 2


@dataclass(frozen=True)
class Truncation:
    """Grid bounds for the two age processes."""

    tau_max: int
    delta_max: int

    def __post_init__(self):
        for name in ("tau_max", "delta_max"):
            v = check_integer(name, getattr(self, name))
            if v < 1:
                raise DomainError(f"{name} must be a positive integer, got {v}")
            object.__setattr__(self, name, v)

    @property
    def n_states(self) -> int:
        return self.tau_max * self.delta_max


@dataclass(frozen=True)
class MdpSpec:
    """Assembled costs and age-shift transition kernel, every array 1-d.

    No cost depends on the channel age: idle and transmit pay ``mse[d]`` and
    renew pays ``renew_cost[d]`` at information age d+1, and ``costs`` reads
    them for an action grid. Every transition is a clamped age shift, stored
    as 0-based index vectors: idle moves (t, d) to
    (``tau_idle[t]``, ``delta_up[d]``); transmit moves to (``tau_tx[t]``, 0)
    with probability ``theta[t]`` and to (``tau_tx[t]``, ``delta_up[d]``)
    otherwise; renew moves to (0, ``delta_renew[d]``).
    Flat index = (tau-1) * delta_max + (delta-1).
    Immutable after construction; safe for concurrent read-only sweeps.
    """

    trunc: Truncation
    channel: ChannelModel
    mse: np.ndarray          # (delta_max,) MSE at each information age
    renew_cost: np.ndarray   # (delta_max,) renewal lump sum at each information age
    theta: np.ndarray        # (tau_max,) reliability at each channel age
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

    def costs(self, actions: np.ndarray, states: np.ndarray | None = None) -> np.ndarray:
        """The cost of each cell's action, for one action grid or a stack
        of them; given flat ``states``, of those states alone under one
        action grid."""
        if states is None:
            return np.where(np.asarray(actions) == Action.RENEW, self.renew_cost, self.mse)
        t, d = np.divmod(states, self.trunc.delta_max)
        return np.where(np.asarray(actions)[t, d] == Action.RENEW, self.renew_cost[d], self.mse[d])

    def successors(
        self, actions: np.ndarray, states: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat successor indices of every state under an action grid, or of
        the flat ``states`` alone.

        Returns ``(hit, miss, p_hit)``, each with one entry per state: the
        chain moves to ``hit`` with probability ``p_hit`` and to ``miss``
        otherwise. Only transmit branches; idle and renew put their sole
        successor in both slots with ``p_hit`` 1.
        """
        d_max = self.trunc.delta_max
        actions = np.asarray(actions)
        if states is None:
            tau_tx, tau_idle, theta = self.tau_tx[:, None], self.tau_idle[:, None], self.theta[:, None]
            delta_up, delta_renew = self.delta_up[None, :], self.delta_renew[None, :]
        else:
            t, d = np.divmod(states, d_max)
            actions = actions[t, d]
            tau_tx, tau_idle, theta = self.tau_tx[t], self.tau_idle[t], self.theta[t]
            delta_up, delta_renew = self.delta_up[d], self.delta_renew[d]
        tx = actions == Action.TRANSMIT
        renew = actions == Action.RENEW
        tau = np.where(renew, 0, np.where(tx, tau_tx, tau_idle))
        delta = np.where(renew, delta_renew, delta_up)
        miss = tau * d_max + delta
        hit = np.where(tx, tau * d_max, miss)
        p_hit = np.where(tx, theta, 1.0)
        return hit.reshape(-1), miss.reshape(-1), p_hit.reshape(-1)

    def restrict(self, tau_max: int, delta_max: int) -> MdpSpec:
        """The MDP on the sub-grid [1, tau_max] x [1, delta_max]: this grid's
        MSE and reliabilities cut to the sub-grid and assembled as
        ``build_mdp`` assembles them, so it equals ``build_mdp`` at the
        sub-grid."""
        trunc = Truncation(tau_max, delta_max)
        if trunc.tau_max > self.trunc.tau_max or trunc.delta_max > self.trunc.delta_max:
            raise DomainError(f"sub-grid {(tau_max, delta_max)} exceeds grid {self.shape}")
        return _assemble(trunc, self.channel, self.mse[: trunc.delta_max], self.theta[: trunc.tau_max])


def build_mdp(model: SystemModel, channel: ChannelModel, trunc: Truncation) -> MdpSpec:
    """Assemble the truncated MDP for a model/channel pair, on any grid.

    A configuration also needs headroom, tau_max >= 1 + tau_d and
    delta_max >= 1 + delta_r, so that every action has an in-range successor
    before clamping dominates; ``validate_config_dict`` checks it, and a
    smaller grid is a deliberately degenerate one.
    """
    t_max, d_max = trunc.tau_max, trunc.delta_max
    f = mse_table(model, steady_state(model), d_max)  # f[j] = MSE at information age j+1
    theta = np.asarray(channel.reliability(np.arange(1, t_max + 1)), dtype=float).reshape(t_max)
    return _assemble(trunc, channel, f, theta)


def _assemble(trunc: Truncation, channel: ChannelModel, mse: np.ndarray, theta: np.ndarray) -> MdpSpec:
    """The MDP on ``trunc``'s grid from its MSE and reliability vectors:
    the renewal lump sums, the clamped age shifts, every array read-only."""
    t_max, d_max = trunc.tau_max, trunc.delta_max
    # Renewal pays the MSE lump sum over its delta_r-slot downtime, summands
    # beyond the grid clamped to the last entry, consistent with the clamped
    # dynamics.
    f_pad = np.concatenate([mse, np.full(channel.delta_r, mse[-1])])
    csum = np.concatenate([[0.0], np.cumsum(f_pad)])
    renew_cost = csum[channel.delta_r : channel.delta_r + d_max] - csum[:d_max]

    # Clamped age updates, 0-based.
    tau_idle = np.minimum(np.arange(t_max) + 1, t_max - 1)
    tau_tx = np.minimum(np.arange(t_max) + channel.tau_d, t_max - 1)
    delta_up = np.minimum(np.arange(d_max) + 1, d_max - 1)
    delta_renew = np.minimum(np.arange(d_max) + channel.delta_r, d_max - 1)

    for arr in (mse, renew_cost, theta, tau_idle, tau_tx, delta_up, delta_renew):
        arr.flags.writeable = False
    return MdpSpec(
        trunc=trunc,
        channel=channel,
        mse=mse,
        renew_cost=renew_cost,
        theta=theta,
        tau_idle=tau_idle,
        tau_tx=tau_tx,
        delta_up=delta_up,
        delta_renew=delta_renew,
    )
