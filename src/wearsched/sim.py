"""Monte-Carlo simulation of the age process under a policy, plus the
baseline policy constructors (transmit-always, boundary-renewal, and explicit
threshold policies).

The simulator runs on the decision-epoch timeline; costs accrue per epoch,
and a renewal epoch is additionally accounted as ``delta_r`` slots when
computing the per-slot average. Randomness comes from numpy's PCG64: one
uniform draw is consumed per epoch regardless of the action, so trajectories
are reproducible bit-for-bit from ``(seed, stream)``. Replication r of an
experiment uses ``stream=r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .errors import DomainError
from .linear_model import SystemModel, stability_report
from .mdp import Action, AgeState, MdpSpec, Truncation
from .solvers import Policy, check_tau_renew, threshold_actions

# Number of contiguous batches used for the batch-means standard error.
BATCH_COUNT = 32
# Epochs drawn and stored per pass of the simulation loop.
CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class SimStats:
    """Trajectory statistics.

    ``per_epoch_avg_cost`` is the empirical long-run average cost per decision
    epoch; ``per_slot_avg_cost`` divides the same cost total by elapsed slots
    (renewal epochs span ``delta_r`` slots, all others one).
    ``std_error`` is the batch-means standard error of the per-epoch average.
    Histograms count epochs by the age value at the decision instant.
    """

    epochs: int
    per_epoch_avg_cost: float
    per_slot_avg_cost: float
    std_error: float
    aoi_histogram: np.ndarray
    aoc_histogram: np.ndarray
    action_counts: np.ndarray
    boundary_hit_fraction: float

    def __post_init__(self):
        if int(self.action_counts.sum()) != self.epochs:
            raise DomainError("action counts must sum to the epoch count")
        if int(self.aoi_histogram.sum()) != self.epochs or int(self.aoc_histogram.sum()) != self.epochs:
            raise DomainError("age histograms must sum to the epoch count")
        if not 0.0 <= self.boundary_hit_fraction <= 1.0:
            raise DomainError("boundary_hit_fraction must lie in [0, 1]")


def _fsum_counted(values: np.ndarray, counts: np.ndarray, replay) -> float:
    """``math.fsum`` of a sequence holding ``counts[i]`` copies of
    ``values[i]``, in the order ``replay()`` yields them.

    fsum returns the exact sum rounded once, so the same float follows from
    the counts: each finite value is an integer over a power of two, and
    Python's integer true division rounds correctly. Sequences that could
    overflow, hold inf or NaN, or sum to zero go to fsum itself, over a fresh
    ``replay()``: its intermediate overflow depends on the order.
    """
    used = np.flatnonzero(counts)
    vals = values[used]
    if not np.all(np.isfinite(vals)) or np.abs(vals).max() >= 2.0**1000 / counts.sum():
        return math.fsum(replay())
    ratios = [x.as_integer_ratio() for x in vals.tolist()]
    den = max(d for _, d in ratios)
    num = sum(k * m * (den // d) for (m, d), k in zip(ratios, counts[used].tolist()))
    return num / den if num else math.fsum(replay())  # fsum signs a zero total


def replication_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator for one replication; streams are split by seeding the
    generator with the entropy pair (seed, stream)."""
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if stream < 0:
        raise DomainError(f"stream index must be nonnegative, got {stream}")
    return np.random.default_rng([seed, stream])


def _walk(hit: list, miss: list, threshold: list, start: int, rng: np.random.Generator, sizes: list):
    """Yield the states visited in each of ``len(sizes)`` consecutive runs of
    ``sizes[i]`` epochs, as int64 arrays.

    The loop touches only plain-python lists and floats: one uniform per
    epoch against a per-state threshold, theta for transmit and -1.0 for idle
    and renew (whose sole successor sits in the miss slot), so
    ``u < threshold[s]`` alone picks the branch. Draws are taken at most
    ``CHUNK`` at a time; PCG64 yields the same uniforms chunked as in one call.
    """
    s = start
    for size in sizes:
        states = np.empty(size, dtype=np.int64)
        for lo in range(0, size, CHUNK):
            visited = []
            append = visited.append
            for u in rng.random(min(CHUNK, size - lo)).tolist():
                append(s)
                s = hit[s] if u < threshold[s] else miss[s]
            states[lo : lo + len(visited)] = visited
        yield states


def simulate(
    mdp: MdpSpec,
    policy: Policy,
    s0: AgeState = AgeState(1, 1),
    epochs: int = 100_000,
    seed: int = 0,
    stream: int = 0,
) -> SimStats:
    """Simulate the controlled age process and collect cost/age statistics.

    Transmission outcomes are drawn with the reliability of the current
    channel age; ages advance exactly as in the MDP kernel (clamped at the
    grid bounds). Identical ``(mdp, policy, s0, epochs, seed, stream)``
    reproduce identical statistics.
    """
    if epochs < 1:
        raise DomainError(f"epochs must be >= 1, got {epochs}")
    if policy.shape != mdp.shape:
        raise DomainError(f"policy grid {policy.shape} does not match MDP grid {mdp.shape}")
    start = mdp.state_index(s0)
    rng = replication_rng(seed, stream)

    n = mdp.n_states
    act_flat = policy.actions.reshape(-1).astype(np.int64)
    cost_flat = mdp.cost_table.reshape(n, 3)[np.arange(n), act_flat]
    succ_hit, succ_miss, p_hit = mdp.successors(policy.actions)

    hit = succ_hit.tolist()
    miss = succ_miss.tolist()
    threshold = np.where(act_flat == Action.TRANSMIT, p_hit, -1.0).tolist()
    # The batch-means batches, sized as np.array_split would cut the run.
    batches = min(BATCH_COUNT, epochs)
    size, extra = divmod(epochs, batches)
    sizes = [size + 1] * extra + [size] * (batches - extra)

    def walk(rng):
        return _walk(hit, miss, threshold, start, rng, sizes)

    # One batch of visited states is held at a time: its visits and its mean
    # cost are all the statistics need.
    visits = np.zeros(n, dtype=np.int64)
    means = []
    # The exactly-rounded total below decides whether the run's cost
    # overflows; these batch statistics follow it without numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for states in walk(rng):
            visits += np.bincount(states, minlength=n)
            means.append(cost_flat[states].mean())
        std_error = float(np.std(means, ddof=1) / np.sqrt(batches)) if batches >= 2 else 0.0
    grid_visits = visits.reshape(mdp.shape)
    action_counts = np.array([visits[act_flat == u].sum() for u in Action], dtype=np.int64)
    slots = action_counts.sum() + (mdp.channel.delta_r - 1) * action_counts[Action.RENEW]
    boundary = grid_visits[-1, :].sum() + grid_visits[:-1, -1].sum()

    # Exactly-rounded summation: with constant costs and a power-of-two epoch
    # count the average is bit-exact. Its fallback to fsum replays the run.
    total_cost = _fsum_counted(
        cost_flat,
        visits,
        lambda: (c for states in walk(replication_rng(seed, stream)) for c in cost_flat[states].tolist()),
    )
    per_epoch = total_cost / epochs
    per_slot = total_cost / int(slots)

    return SimStats(
        epochs=epochs,
        per_epoch_avg_cost=per_epoch,
        per_slot_avg_cost=per_slot,
        std_error=std_error,
        aoi_histogram=grid_visits.sum(axis=0),
        aoc_histogram=grid_visits.sum(axis=1),
        action_counts=action_counts,
        boundary_hit_fraction=int(boundary) / epochs,
    )


def transmit_always(trunc: Truncation) -> Policy:
    """The policy that transmits in every state."""
    return Policy(actions=np.full((trunc.tau_max, trunc.delta_max), Action.TRANSMIT, dtype=np.int8))


def boundary_renewal(model: SystemModel, channel: ChannelModel, trunc: Truncation) -> Policy:
    """Transmit inside the mean-square-stable channel-age region, renew outside.

    The stable region is the one ``stability_report`` finds: the ages with
    rho^2 (1 - theta(tau)) < 1. Renewal resets the system to the best channel
    age whenever the state leaves it. Requires rho^2 (1 - theta_max) < 1,
    otherwise no renewal policy can stabilize the system.
    """
    rep = stability_report(model, channel)
    if not rep.stabilizable_with_renewal:
        raise DomainError(
            "empty stable region: rho^2 * (1 - theta_max) = "
            f"{rep.rho * rep.rho * (1.0 - channel.theta_max):.6g} >= 1, so renewal cannot stabilize"
        )
    n_stable = trunc.tau_max if rep.stable_region_all else (rep.stable_tau_bound or 0)
    col = np.full(trunc.tau_max, Action.RENEW, dtype=np.int8)
    col[:n_stable] = Action.TRANSMIT
    return Policy(actions=np.tile(col[:, None], (1, trunc.delta_max)))


def threshold_policy(tau_renew: int, transmit_thresholds, trunc: Truncation) -> Policy:
    """Renew above a channel-age threshold; below it, transmit once the
    information age reaches a per-channel-age threshold, else idle.

    ``transmit_thresholds`` lists the information-age threshold for each
    channel age 1..tau_max and must be nonincreasing (entries above
    ``tau_renew`` are unused but still validated).
    """
    t_max, d_max = trunc.tau_max, trunc.delta_max
    tau_renew = check_tau_renew(tau_renew, t_max)
    thr = np.asarray(transmit_thresholds, dtype=np.int64)
    if thr.shape != (t_max,):
        raise DomainError(f"need one transmit threshold per channel age (shape ({t_max},)), got {thr.shape}")
    if np.any(thr < 1) or np.any(thr > d_max):
        raise DomainError(f"transmit thresholds must lie in [1, {d_max}]")
    if np.any(np.diff(thr) > 0):
        raise DomainError("transmit thresholds must be nonincreasing in the channel age")
    return Policy(actions=threshold_actions(d_max, tau_renew, thr))
