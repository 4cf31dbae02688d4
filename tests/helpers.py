"""Shared builders for the two-dimensional benchmark family used across the
test suite, frozen oracle values computed with independent methods before
the implementation existed (fixed-point iteration cross-checked against a
Riccati eigensolver route, both converged to 1e-12), and the scalar and
exhaustive references that the package is checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from wearsched import (
    Action,
    AgeState,
    ChannelModel,
    DomainError,
    EvaluationError,
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
    spectral_radius,
    structured_policy_iteration,
)
from wearsched.sim import BATCH_COUNT
from wearsched.solvers import (
    _THRESHOLD_SWEEP_CAP,
    FLOAT_FLOOR_ULPS,
    RVI_DAMPING,
    _bracket,
    _finish,
    _float_floor,
    _lu_evaluate,
    _q_actions,
    _transmit_thresholds,
    greedy_policy,
    threshold_actions,
)

# The six shipped configurations, plus one that sets every optional key.
ECHO_CONFIGS = [
    *sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml")),
    Path(__file__).resolve().parent / "data" / "every-optional-key.yaml",
]

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


def aoc_next(ch: ChannelModel, tau: int, u: int, tau_max: int) -> int:
    """Channel age after one decision epoch, clamped to ``tau_max``."""
    if not 1 <= tau <= tau_max:
        raise DomainError(f"channel age {tau} outside [1, {tau_max}]")
    if u == 0:
        return min(tau + 1, tau_max)
    if u == 1:
        return min(tau + ch.tau_d, tau_max)
    if u == 2:
        return 1
    raise DomainError(f"invalid action {u!r}, expected 0, 1 or 2")


def aoi_next(delta: int, u: int, success: bool, delta_r: int, delta_max: int) -> int:
    """Information age after one decision epoch, clamped to ``delta_max``.

    ``success`` may be True only for the transmit action.
    """
    if not 1 <= delta <= delta_max:
        raise DomainError(f"information age {delta} outside [1, {delta_max}]")
    if u not in (0, 1, 2):
        raise DomainError(f"invalid action {u!r}, expected 0, 1 or 2")
    if success and u != 1:
        raise DomainError("a reception can only happen on a transmit action")
    if u == 1 and success:
        return 1
    if u == 2:
        return min(delta + delta_r, delta_max)
    return min(delta + 1, delta_max)


def states(mdp: MdpSpec) -> Iterator[AgeState]:
    """All grid states in the contractual row-major order."""
    for tau in range(1, mdp.trunc.tau_max + 1):
        for delta in range(1, mdp.trunc.delta_max + 1):
            yield AgeState(tau, delta)


def _checked_action(mdp: MdpSpec, s: AgeState, u) -> int:
    mdp.state_index(s)
    if u not in (0, 1, 2):
        raise DomainError(f"invalid action {u!r}, expected 0, 1 or 2")
    return int(u)


def scalar_cost(mdp: MdpSpec, s: AgeState, u) -> float:
    """Reference per-epoch cost of action ``u`` in state ``s``."""
    return float(mdp.cost_table[s.tau - 1, s.delta - 1, _checked_action(mdp, s, u)])


def scalar_transitions(mdp: MdpSpec, s: AgeState, u) -> list[tuple[AgeState, float]]:
    """Reference kernel: the successor states of one (state, action) pair
    with their probabilities, zero-probability branches omitted."""
    u = _checked_action(mdp, s, u)
    t, d = s.tau - 1, s.delta - 1
    if u == Action.TRANSMIT:
        p_hit = float(mdp.theta[t])
        branches = [((mdp.tau_tx[t], 0), p_hit), ((mdp.tau_tx[t], mdp.delta_up[d]), 1.0 - p_hit)]
    elif u == Action.IDLE:
        branches = [((mdp.tau_idle[t], mdp.delta_up[d]), 1.0)]
    else:
        branches = [((0, mdp.delta_renew[d]), 1.0)]
    return [(AgeState(int(ti) + 1, int(di) + 1), p) for (ti, di), p in branches if p > 0.0]


def reference_q_actions(mdp: MdpSpec, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference Q-backup: Q-values of idle, transmit and renew read off the
    age-shift kernel by index gathers, in the order of operations the
    package's slice-shift kernel must reproduce bit for bit."""
    c = mdp.cost_table
    theta = mdp.theta[:, None]
    v_up = v[:, mdp.delta_up]  # v at (t, delta_up[d])
    q_idle = c[:, :, Action.IDLE] + v_up[mdp.tau_idle]
    q_tx = c[:, :, Action.TRANSMIT] + (
        theta * v[mdp.tau_tx, :1] + (1.0 - theta) * v_up[mdp.tau_tx]
    )
    q_renew = c[:, :, Action.RENEW] + v[0, mdp.delta_renew]
    return q_idle, q_tx, q_renew


def reference_rvi_solve(mdp: MdpSpec, opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Reference relative value iteration: ``rvi_solve``'s damped iteration
    and stopping rule on ``reference_q_actions``, every array allocated
    afresh in each iteration."""
    ref = mdp.state_index(opts.ref_state)
    v = np.zeros(mdp.shape)
    for n in range(1, opts.max_iter + 1):
        q_idle, q_tx, q_renew = q = reference_q_actions(mdp, v)
        diff = np.minimum(np.minimum(q_idle, q_tx), q_renew) - v
        lo, hi = float(diff.min()), float(diff.max())
        span = hi - lo
        if not np.isfinite(span):
            raise AssertionError("reference RVI produced non-finite values")
        gain = float(diff.reshape(-1)[ref])
        if span < max(opts.tol, FLOAT_FLOOR_ULPS * float(np.spacing(np.abs(v).max()))):
            q = np.stack(q, axis=2)
            return SolveResult(
                gain=gain,
                v=v,
                policy=greedy_policy(q),
                iterations=n,
                residual=span,
                q=q,
                lambda_bounds=_bracket(lo, hi, v),
            )
        diff -= gain
        diff *= RVI_DAMPING
        v += diff
    raise AssertionError(f"reference RVI did not converge in {opts.max_iter} iterations")


def reference_renewal_closed_evaluate(
    mdp: MdpSpec, actions: np.ndarray, ref: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Reference back-substitution over the channel age for one policy that
    renews at every cell of the last channel age: (gain, v, q), with q the
    three Q grids at v that its residual gate reads. Its maps keep every
    column of v(1, .), and its ring and block top are the policy's own; the
    batched ``_renewal_closed_evaluate`` must give every member these bits."""
    t_max, d_max = mdp.shape
    idle, tx, renew = (actions == u for u in (Action.IDLE, Action.TRANSMIT, Action.RENEW))
    cost = np.take_along_axis(mdp.cost_table, actions[:, :, None].astype(np.intp), axis=2)[:, :, 0]
    r = max(1, int(np.count_nonzero(~np.logical_and.accumulate(renew.all(axis=1)[::-1]))))
    w = max(1, int((np.maximum(mdp.tau_idle[:r], mdp.tau_tx[:r]) - np.arange(r)).max()))
    k, top = w + 1, min(r + w, t_max)
    succ_t = np.where(idle[:top], mdp.tau_idle[:top, None], np.where(tx[:top], mdp.tau_tx[:top, None], 0))
    succ_d = np.where(renew[:top], mdp.delta_renew, mdp.delta_up)
    hit = np.where(tx[:top], mdp.theta[:top, None], 0.0)
    miss = 1.0 - hit
    has_tx = tx[:top].any(axis=1)

    g_col, c_col = d_max, d_max + 1
    maps = np.zeros((k + 1, d_max, d_max + 2))
    maps[k, :, :d_max] = np.eye(d_max)
    flat = maps.reshape((k + 1) * d_max, d_max + 2)
    src = np.where(renew[:top], k, succ_t % k) * d_max + succ_d
    for t in range(top - 1, -1, -1):
        out = maps[t % k]
        if has_tx[t]:
            np.multiply(flat[src[t]], miss[t, :, None], out=out)
            out += np.multiply.outer(hit[t], maps[mdp.tau_tx[t] % k, 0])
        else:
            np.take(flat, src[t], axis=0, out=out)
        out[:, g_col] -= 1.0
        out[:, c_col] += cost[t]

    border = np.zeros((d_max + 1, d_max + 1))
    np.negative(maps[0, :, : g_col + 1], out=border[:d_max])
    border[np.arange(d_max), np.arange(d_max)] += 1.0
    border[d_max, 0] = 1.0
    rhs = np.append(maps[0, :, c_col], 0.0)
    try:
        x = np.linalg.solve(border, rhs)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(f"singular: {exc}", condition_estimate=float("inf")) from exc

    gain = float(x[d_max])
    v = np.empty(mdp.shape)
    v_flat = v.reshape(-1)
    v[0] = x[:d_max]
    v[r:] = cost[r:] - gain + v[0, mdp.delta_renew]
    succ = succ_t * d_max + succ_d
    for t in range(r - 1, 0, -1):
        nxt = v_flat[succ[t]] * miss[t]
        if has_tx[t]:
            nxt += hit[t] * v[mdp.tau_tx[t], 0]
        v[t] = cost[t] - gain + nxt
    v -= v_flat[ref]

    q = _q_actions(mdp, v)
    rel = float(np.abs(np.choose(actions, q) - v - gain).max() / (1.0 + np.abs(cost).max()))
    if not np.isfinite(rel) or rel > 1e-8:
        raise EvaluationError(f"relative residual {rel:.3e}", condition_estimate=float("inf"))
    return gain, v, q


def reference_evaluation_matrix(mdp: MdpSpec, actions: np.ndarray, ref: int):
    """Reference assembly of the evaluation system, entry lists by kind
    (diagonals, gains, hits, misses) through COO: the CSC matrix that
    ``_evaluation_matrix`` must equal bit for bit."""
    from scipy.sparse import csc_matrix

    n = mdp.n_states
    hit, miss, p_hit = mdp.successors(actions)
    col_of = np.arange(n, dtype=np.int64)
    col_of[ref + 1 :] -= 1

    diag_keep = np.arange(n) != ref
    rows = [np.arange(n)[diag_keep], np.arange(n)]
    cols = [col_of[diag_keep], np.full(n, n - 1, dtype=np.int64)]
    data = [np.ones(diag_keep.sum()), np.ones(n)]
    for succ, p in ((hit, p_hit), (miss, 1.0 - p_hit)):
        keep = (p > 0) & (succ != ref)
        rows.append(np.arange(n)[keep])
        cols.append(col_of[succ[keep]])
        data.append(-p[keep])
    return csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def reference_threshold_heuristic(
    mdp: MdpSpec, opts: SolveOptions = SolveOptions(), tau_renew: int | None = None
) -> SolveResult:
    """Reference threshold heuristic: each renewal threshold's sweeps run to
    the end before the next threshold starts, every policy is evaluated
    alone (``reference_renewal_closed_evaluate``, or the sparse path for the
    table that never renews) and backed up again for its improvement step,
    and a later threshold replaces the best so far only if its gain is lower
    by more than the best's float floor."""
    t_max, d_max = mdp.shape
    ref = mdp.state_index(opts.ref_state)

    def solve_fixed(tau):
        thresholds = [1] * t_max
        seen, best = set(), None
        for sweep in range(1, min(opts.max_iter, _THRESHOLD_SWEEP_CAP) + 1):
            seen.add(tuple(thresholds))
            actions = threshold_actions(d_max, tau, thresholds)
            if tau < t_max:
                gain, v, _ = reference_renewal_closed_evaluate(mdp, actions, ref)
            else:
                gain, v = _lu_evaluate(mdp, actions, ref)
            if best is None or gain < best[0]:
                best = (gain, v, Policy(actions=actions), sweep)
            q_idle, q_tx, _ = _q_actions(mdp, v)
            new = _transmit_thresholds(q_idle, q_tx, tau) + thresholds[tau:]
            if new == thresholds or tuple(new) in seen:
                break
            thresholds = new
        return best

    taus = range(t_max + 1) if tau_renew is None else [tau_renew]
    best = None
    for tau in taus:
        res = solve_fixed(tau)
        if best is None or res[0] < best[0] - _float_floor(best[1], best[0]):
            best = res
    gain, v, policy, iterations = best
    return _finish(gain, v, policy, iterations, _q_actions(mdp, v))


BRUTE_FORCE_MAX_STATES = 12
_ORACLE_CHUNK = 4096  # policies scored per batch


def brute_force_optimal(mdp: MdpSpec, start: AgeState = AgeState(1, 1)) -> tuple[float, Policy]:
    """Exhaustive minimum over all deterministic stationary policies, each
    scored by ``policy_gains`` from ``start``; of equal minima the first in
    ``itertools.product((0, 1, 2), repeat=n)`` order wins. Guarded to tiny
    grids (the enumeration has 3^n policies)."""
    n = mdp.n_states
    if n > BRUTE_FORCE_MAX_STATES:
        raise DomainError(
            f"brute-force enumeration is limited to {BRUTE_FORCE_MAX_STATES} states "
            f"(3^n policies); grid has {n}"
        )
    s0 = mdp.state_index(start)
    digits = 3 ** np.arange(n - 1, -1, -1)
    best_gain, best = np.inf, None
    for lo in range(0, 3**n, _ORACLE_CHUNK):
        assignments = np.arange(lo, min(lo + _ORACLE_CHUNK, 3**n))[:, None] // digits % 3
        gains = policy_gains(mdp, assignments, s0)
        i = int(np.argmin(gains))
        if gains[i] < best_gain:
            best_gain, best = float(gains[i]), assignments[i]
    return best_gain, Policy(actions=best.reshape(mdp.shape))


def policy_gains(mdp: MdpSpec, assignments: np.ndarray, s0: int) -> np.ndarray:
    """Average cost from flat state ``s0`` of each policy in an (m, n_states)
    array of flat action assignments, by exact analysis of its chain.

    A state is recurrent when every state it reaches also reaches it
    (reachability closed by boolean squaring). One linear system per policy
    gives the stationary distributions of all its recurrent classes: each
    class's smallest member trades its balance equation for the class's
    normalisation row, and transient states are pinned to 0. Transient
    states take the absorption-weighted class gains,
    (I - diag(transient) P) G = g_rec.
    """
    m, n = assignments.shape
    rows, policies = np.arange(n), np.arange(m)[:, None]
    per_action = [mdp.successors(np.full(mdp.shape, u)) for u in Action]
    hit, miss, p_hit = (np.stack(table)[assignments, rows] for table in zip(*per_action))
    p = np.zeros((m, n, n))
    p[policies, rows, hit] = p_hit
    p[policies, rows, miss] += 1.0 - p_hit
    c = mdp.cost_table.reshape(n, 3)[rows, assignments]

    reach = (p > 0) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):  # paths of up to 2^k >= n - 1 steps
        reach = reach @ reach
    back = reach.transpose(0, 2, 1)
    recurrent = np.all(~reach | back, axis=2)
    same_class = reach & back & recurrent[:, :, None]
    leader = recurrent & (same_class.argmax(axis=2) == rows)

    eye = np.eye(n)
    balance = np.where(recurrent[:, :, None], p.transpose(0, 2, 1) - eye, eye)
    pi = np.linalg.solve(np.where(leader[:, :, None], same_class, balance), leader[:, :, None] * 1.0)
    g_rec = same_class @ (pi[:, :, 0] * c)[:, :, None]
    gain = np.linalg.solve(eye - ~recurrent[:, :, None] * p, g_rec)
    return gain[:, s0, 0]


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


def reference_write_grid(path, header: str, field_fmt: str, grid: np.ndarray) -> None:
    """Reference grid writer: a (tau_max, delta_max, k) grid as one CSV line
    per state, one channel age at a time, every field formatted by ``%``."""
    t_max, d_max, k = grid.shape
    line_fmt = ",".join(["%d", "%d"] + [field_fmt] * k) + "\n"
    row_fmt = line_fmt * d_max
    deltas = range(1, d_max + 1)
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        for ti in range(t_max):
            fields = zip(itertools.repeat(ti + 1), deltas, *grid[ti].T.tolist())
            f.write(row_fmt % tuple(itertools.chain.from_iterable(fields)))


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


def scalar_boundary_renewal(model: SystemModel, ch: ChannelModel, trunc: Truncation) -> Policy:
    """Reference for ``sim.boundary_renewal``, one channel age at a time:
    renew exactly where rho^2 (1 - theta(tau)) >= 1, and fail when even
    theta_max leaves rho^2 (1 - theta_max) >= 1."""
    rho = spectral_radius(model.A)
    if rho * rho * (1.0 - ch.theta_max) >= 1.0:
        raise DomainError("empty stable region: renewal cannot stabilize")
    col = [
        Action.RENEW if rho * rho * (1.0 - ch.reliability(tau)) >= 1.0 else Action.TRANSMIT
        for tau in range(1, trunc.tau_max + 1)
    ]
    return Policy(actions=np.repeat(np.array(col)[:, None], trunc.delta_max, axis=1))


def action_at(policy: Policy, tau: int, delta: int) -> Action:
    """The action a policy takes at the 1-based state (tau, delta)."""
    t_max, d_max = policy.shape
    if not (1 <= tau <= t_max and 1 <= delta <= d_max):
        raise DomainError(f"state ({tau}, {delta}) outside policy grid {policy.shape}")
    return Action(int(policy.actions[tau - 1, delta - 1]))


def sim_stats_equal(a: SimStats, b: SimStats) -> bool:
    """Every field of two simulation results bit-equal; a NaN standard error
    equals a NaN standard error."""
    return (
        a.epochs == b.epochs
        and a.per_epoch_avg_cost == b.per_epoch_avg_cost
        and a.per_slot_avg_cost == b.per_slot_avg_cost
        and (a.std_error == b.std_error or (np.isnan(a.std_error) and np.isnan(b.std_error)))
        and np.array_equal(a.aoi_histogram, b.aoi_histogram)
        and np.array_equal(a.aoc_histogram, b.aoc_histogram)
        and np.array_equal(a.action_counts, b.action_counts)
        and a.boundary_hit_fraction == b.boundary_hit_fraction
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
