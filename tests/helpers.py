"""Shared builders for the two-dimensional benchmark family used across the
test suite, plus frozen oracle values computed with independent methods
before the implementation existed (fixed-point iteration cross-checked
against a Riccati eigensolver route, both converged to 1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wearsched import (
    ChannelModel,
    MdpSpec,
    SolveOptions,
    SolveResult,
    SystemModel,
    Truncation,
    build_mdp,
    rvi_solve,
    structured_policy_iteration,
)

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
