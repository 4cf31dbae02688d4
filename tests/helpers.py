"""Shared builders for the two-dimensional benchmark family used across the
test suite, plus frozen oracle values computed with independent methods
before the implementation existed (fixed-point iteration cross-checked
against a Riccati eigensolver route, both converged to 1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wearsched import (
    Action,
    AgeState,
    ChannelModel,
    DomainError,
    MdpSpec,
    Policy,
    Region,
    SimStats,
    SolveOptions,
    SolveResult,
    SystemModel,
    Truncation,
    Violation,
    build_mdp,
    replication_rng,
    rvi_solve,
    structured_policy_iteration,
)
from wearsched.sim import BATCH_COUNT

# Steady-state posterior covariance of the beta=0.9 benchmark system.
PBAR_BETA_09 = np.array(
    [
        [0.96862725169017072, -0.61143565767034813],
        [-0.61143565767034802, 1.0077522549796842],
    ]
)
# MSE at information age 1 for the same system: tr(A pbar A' + Q).
F1_BETA_09 = 3.1311954888976441

# Largest channel age keeping rho^2 (1 - theta(tau)) < 1 for beta=1.1 on the
# benchmark channel: theta(tau) > 1 - 1/1.21 up to tau = 17 by direct
# arithmetic on the exponential curve.
STABLE_TAU_BOUND_BETA_11 = 17


def benchmark_system(beta: float) -> SystemModel:
    return SystemModel(
        A=np.array([[beta, 0.5], [0.0, 0.8]]),
        C=np.array([[1.0, 1.0]]),
        Q=np.eye(2),
        R=np.array([[1.0]]),
    )


def benchmark_channel(
    alpha: float = 0.1,
    tau_d: int = 6,
    delta_r: int = 15,
    theta_max: float = 0.99,
    theta_min: float = 0.0,
) -> ChannelModel:
    return ChannelModel(
        theta_max=theta_max, theta_min=theta_min, alpha=alpha, tau_d=tau_d, delta_r=delta_r
    )


def benchmark_mdp(
    beta: float,
    alpha: float = 0.1,
    tau_d: int = 6,
    delta_r: int = 15,
    grid: int = 80,
    theta_max: float = 0.99,
    theta_min: float = 0.0,
) -> MdpSpec:
    return build_mdp(
        benchmark_system(beta),
        benchmark_channel(alpha, tau_d, delta_r, theta_max, theta_min),
        Truncation(grid, grid),
    )


@dataclass(frozen=True)
class SolvedCase:
    """An MDP instance solved by both solvers, shared across tests."""

    mdp: MdpSpec
    rvi: SolveResult
    spi: SolveResult


def solve_case(beta, alpha=0.1, tau_d=6, delta_r=15, grid=80, tol=1e-9) -> SolvedCase:
    mdp = benchmark_mdp(beta, alpha, tau_d, delta_r, grid)
    opts = SolveOptions(tol=tol, max_iter=500_000)
    return SolvedCase(mdp=mdp, rvi=rvi_solve(mdp, opts), spi=structured_policy_iteration(mdp, opts))


def eventually_reachable(mdp: MdpSpec) -> np.ndarray:
    """Boolean (tau_max, delta_max) mask of the states that some trajectory
    can occupy after arbitrarily many epochs, whatever the policy and the
    initial state.

    It is the fixpoint of the kernel's image under all three actions,
    starting from the whole grid: each pass keeps the states that a
    positive-probability branch reaches from a state still in the set. The
    set depends only on the channel and the grid. Every trajectory enters it
    after finitely many epochs and never leaves, so the states outside it are
    transient under every policy.
    """
    src, dst = [], []
    states = np.arange(mdp.n_states)
    for u in Action:
        hit, miss, p_hit = mdp.successors(np.full(mdp.shape, u))
        src += [states[p_hit > 0], states[p_hit < 1]]
        dst += [hit[p_hit > 0], miss[p_hit < 1]]
    src, dst = np.concatenate(src), np.concatenate(dst)
    reach = np.ones(mdp.n_states, dtype=bool)
    while True:
        image = np.zeros_like(reach)
        image[dst[reach[src]]] = True
        if np.array_equal(image, reach):
            return reach.reshape(mdp.shape)
        reach = image


def scalar_spi_improvement(q: np.ndarray) -> tuple[np.ndarray, int]:
    """Reference improvement step of structured policy iteration: a scalar
    scan down every information-age column of a (tau_max, delta_max, 3)
    Q array. Returns the new actions and the skipped Q-evaluation count."""
    t_max, d_max, _ = q.shape
    actions = np.empty((t_max, d_max), dtype=np.int8)
    skipped = 0
    for dj in range(d_max):
        level = 0
        for ti in range(t_max):
            if level == 2:
                actions[ti, dj] = 2
                skipped += 3
                continue
            best_u, best_q = level, q[ti, dj, level]
            for u in range(level + 1, 3):
                if q[ti, dj, u] < best_q:
                    best_u, best_q = u, q[ti, dj, u]
            skipped += level
            actions[ti, dj] = best_u
            level = max(level, best_u)
    return actions, skipped


def scalar_transmit_thresholds(q: np.ndarray, tau_renew: int) -> list[int]:
    """Reference improvement step of the threshold heuristic: per channel
    age below ``tau_renew``, the first information age where transmit beats
    idle, searched only up to the previous channel age's threshold."""
    d_max = q.shape[1]
    thresholds = []
    cap = d_max
    for ti in range(tau_renew):
        thr = cap
        for dj in range(cap):
            if q[ti, dj, 1] < q[ti, dj, 0]:
                thr = dj + 1
                break
        thresholds.append(thr)
        cap = thr
    return thresholds


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def scalar_write_policy_csv(path, policy) -> None:
    """Reference policy writer: one formatted line per state."""
    t_max, d_max = policy.shape
    lines = ["tau,delta,action"]
    acts = policy.actions
    for ti in range(t_max):
        for dj in range(d_max):
            lines.append(f"{ti + 1},{dj + 1},{int(acts[ti, dj])}")
    Path(path).write_text("\n".join(lines) + "\n")


def scalar_write_value_csv(path, v: np.ndarray) -> None:
    """Reference value writer: one formatted line per state."""
    t_max, d_max = v.shape
    lines = ["tau,delta,value"]
    for ti in range(t_max):
        for dj in range(d_max):
            lines.append(f"{ti + 1},{dj + 1},{_fmt(v[ti, dj])}")
    Path(path).write_text("\n".join(lines) + "\n")


def scalar_write_q_csv(path, q: np.ndarray) -> None:
    """Reference Q-factor writer: one formatted line per state."""
    t_max, d_max, _ = q.shape
    lines = ["tau,delta,q_idle,q_transmit,q_renew"]
    for ti in range(t_max):
        for dj in range(d_max):
            row = q[ti, dj]
            lines.append(f"{ti + 1},{dj + 1},{_fmt(row[0])},{_fmt(row[1])},{_fmt(row[2])}")
    Path(path).write_text("\n".join(lines) + "\n")


def scalar_simulate(
    mdp: MdpSpec,
    policy: Policy,
    s0: AgeState = AgeState(1, 1),
    epochs: int = 100_000,
    seed: int = 0,
    stream: int = 0,
) -> SimStats:
    """Reference simulator: one pass over all epochs with numpy-scalar reads
    of the draws and stores into the trajectory, then full-length
    post-processing of the trajectory and an fsum over the cost array."""
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
    theta = p_hit.tolist()
    is_tx = (act_flat == Action.TRANSMIT).tolist()
    draws = rng.random(epochs)
    traj = np.empty(epochs, dtype=np.int64)
    s = start
    for t in range(epochs):
        traj[t] = s
        if is_tx[s] and draws[t] < theta[s]:
            s = hit[s]
        else:
            s = miss[s]

    costs = cost_flat[traj]
    actions = act_flat[traj]
    slots = np.where(actions == Action.RENEW, mdp.channel.delta_r, 1)
    tau_idx = traj // mdp.trunc.delta_max
    delta_idx = traj % mdp.trunc.delta_max

    total_cost = math.fsum(costs)
    per_epoch = total_cost / epochs
    per_slot = total_cost / int(slots.sum())
    batches = min(BATCH_COUNT, epochs)
    if batches >= 2:
        means = np.array([chunk.mean() for chunk in np.array_split(costs, batches)])
        std_error = float(means.std(ddof=1) / np.sqrt(batches))
    else:
        std_error = 0.0

    return SimStats(
        epochs=epochs,
        per_epoch_avg_cost=per_epoch,
        per_slot_avg_cost=per_slot,
        std_error=std_error,
        aoi_histogram=np.bincount(delta_idx, minlength=mdp.trunc.delta_max),
        aoc_histogram=np.bincount(tau_idx, minlength=mdp.trunc.tau_max),
        action_counts=np.bincount(actions, minlength=3),
        boundary_hit_fraction=float(
            np.mean((tau_idx == mdp.trunc.tau_max - 1) | (delta_idx == mdp.trunc.delta_max - 1))
        ),
    )


def _scalar_axis_violations(arr: np.ndarray, region: Region, axis: str, rel_tol: float):
    """Reference violation list: adjacent-pair decreases along an age axis, one
    ``Violation`` per flagged pair from per-element ``int``/``float`` calls."""
    t0, t1 = region.tau_lo - 1, region.tau_hi  # half-open 0-based
    d0, d1 = region.delta_lo - 1, region.delta_hi
    sub = arr[t0:t1, d0:d1]
    ax = 0 if axis == "aoc" else 1
    if sub.shape[ax] < 2:
        return []
    lo = sub[:-1, :] if ax == 0 else sub[:, :-1]
    hi = sub[1:, :] if ax == 0 else sub[:, 1:]
    drop = lo - hi
    tol = rel_tol * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    out = []
    for ti, di in np.argwhere(drop > tol):
        out.append(
            Violation(
                tau=int(t0 + ti + 1),
                delta=int(d0 + di + 1),
                axis=axis,
                magnitude=float(drop[ti, di]),
            )
        )
    return out


def scalar_value_violations(v: np.ndarray, region: Region, rel_tol: float) -> tuple:
    """Reference violations of ``check_value_monotone``."""
    return tuple(
        _scalar_axis_violations(v, region, "aoi", rel_tol)
        + _scalar_axis_violations(v, region, "aoc", rel_tol)
    )


def scalar_policy_violations(policy: Policy, axis: str, region: Region) -> tuple:
    """Reference violations of ``check_policy_monotone``."""
    return tuple(_scalar_axis_violations(policy.actions.astype(np.int64), region, axis, 0.0))


def scalar_submodular_violations(q: np.ndarray, pair_axis: str, region: Region, rel_tol: float) -> tuple:
    """Reference violations of ``check_submodular``."""
    diff = q[:, :, 1] - q[:, :, 0]
    t0, t1 = region.tau_lo - 1, region.tau_hi
    d0, d1 = region.delta_lo - 1, region.delta_hi
    sub = diff[t0:t1, d0:d1]
    ax = 0 if pair_axis == "aoc" else 1
    violations = []
    if sub.shape[ax] >= 2:
        lo = sub[:-1, :] if ax == 0 else sub[:, :-1]
        hi = sub[1:, :] if ax == 0 else sub[:, 1:]
        qreg = q[t0:t1, d0:d1, :]
        qlo = qreg[:-1, :, :] if ax == 0 else qreg[:, :-1, :]
        qhi = qreg[1:, :, :] if ax == 0 else qreg[:, 1:, :]
        scale = 1.0 + np.maximum(
            np.abs(qlo[:, :, :2]).max(axis=2), np.abs(qhi[:, :, :2]).max(axis=2)
        )
        excess = hi - lo
        for ti, di in np.argwhere(excess > rel_tol * scale):
            violations.append(
                Violation(
                    tau=int(t0 + ti + 1),
                    delta=int(d0 + di + 1),
                    axis=pair_axis,
                    magnitude=float(excess[ti, di]),
                )
            )
    return tuple(violations)
