"""Shared builders for the two-dimensional benchmark family used across the
test suite, frozen oracle values computed with independent methods before
the implementation existed (fixed-point iteration cross-checked against a
Riccati eigensolver route, both converged to 1e-12), and the scalar and
exhaustive references that the package is checked against.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple
from unittest import mock

import numpy as np

from wearsched import (
    Action,
    ChannelModel,
    DomainError,
    EvaluationError,
    MdpSpec,
    Policy,
    Region,
    SimStats,
    SolveResult,
    SystemModel,
    Truncation,
    Violation,
    build_mdp,
    q_backup,
    replication_rng,
    rvi_solve,
    spectral_radius,
    structured_policy_iteration,
)
from wearsched import solvers
from wearsched.sim import BATCH_COUNT
from wearsched.solvers import (
    _SWEEP_CAP,
    FLOAT_FLOOR_ULPS,
    RVI_DAMPING,
    RVI_MAX_ITER,
    RVI_TOL,
    _border_lu_solve,
    _bracket,
    _evaluate_stack,
    _finish,
    _float_floor,
    _lu_solve,
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


def assert_same_mdp(got: MdpSpec, want: MdpSpec) -> None:
    """Every field of two MdpSpecs equal, every array read-only and equal
    bit for bit."""
    assert got.trunc == want.trunc and got.channel == want.channel
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
            assert not a.flags.writeable, f.name


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


def solve_case(beta, alpha=0.1, tau_d=6, delta_r=15, grid=80, tol=RVI_TOL) -> SolvedCase:
    """The instance solved by RVI, stopped at span ``tol``, and by SPI."""
    mdp = benchmark_mdp(beta, alpha, tau_d, delta_r, grid)
    with mock.patch.object(solvers, "RVI_TOL", tol):
        rvi = rvi_solve(mdp)
    return SolvedCase(mdp=mdp, rvi=rvi, spi=structured_policy_iteration(mdp))


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


class AgeState(NamedTuple):
    """A grid state as (channel age, information age), both 1-based."""

    tau: int
    delta: int


def state_index(mdp: MdpSpec, s: AgeState) -> int:
    """Flat row-major index of a grid state."""
    tau, delta = s
    if not (1 <= tau <= mdp.trunc.tau_max and 1 <= delta <= mdp.trunc.delta_max):
        raise DomainError(f"state {s} outside grid {mdp.shape}")
    return (tau - 1) * mdp.trunc.delta_max + (delta - 1)


def states(mdp: MdpSpec) -> Iterator[AgeState]:
    """All grid states in the contractual row-major order."""
    for tau in range(1, mdp.trunc.tau_max + 1):
        for delta in range(1, mdp.trunc.delta_max + 1):
            yield AgeState(tau, delta)


def _checked_action(mdp: MdpSpec, s: AgeState, u) -> int:
    state_index(mdp, s)
    if u not in (0, 1, 2):
        raise DomainError(f"invalid action {u!r}, expected 0, 1 or 2")
    return int(u)


def scalar_cost(mdp: MdpSpec, s: AgeState, u) -> float:
    """Reference per-epoch cost of action ``u`` in state ``s``."""
    per_age = mdp.renew_cost if _checked_action(mdp, s, u) == Action.RENEW else mdp.mse
    return float(per_age[s.delta - 1])


def reference_costs(mdp: MdpSpec, actions: np.ndarray) -> np.ndarray:
    """Reference cost gather: the cost of each cell's action in an action
    grid or a stack of them, read off a (tau_max, delta_max, 3) table of
    every action's cost."""
    table = np.broadcast_to(np.stack([mdp.mse, mdp.mse, mdp.renew_cost], axis=1), (*actions.shape, 3))
    return np.take_along_axis(table, actions[..., None].astype(np.intp), axis=-1)[..., 0]


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


def reference_reachable(mdp: MdpSpec, policy: Policy) -> set[int]:
    """Reference for the states ``simulate`` can visit: a depth-first search
    from (1, 1) over the positive-probability branches of
    ``scalar_transitions`` under the policy, one state at a time."""
    start = AgeState(1, 1)
    seen, stack = {start}, [start]
    while stack:
        s = stack.pop()
        for nxt, _ in scalar_transitions(mdp, s, int(policy.actions[s.tau - 1, s.delta - 1])):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return {state_index(mdp, s) for s in seen}


def reference_q_actions(mdp: MdpSpec, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference Q-backup: Q-values of idle, transmit and renew read off the
    age-shift kernel by index gathers, in the order of operations the
    package's slice-shift kernel must reproduce bit for bit."""
    f, r = mdp.mse, mdp.renew_cost
    theta = mdp.theta[:, None]
    v_up = v[:, mdp.delta_up]  # v at (t, delta_up[d])
    q_idle = f + v_up[mdp.tau_idle]
    q_tx = f + (theta * v[mdp.tau_tx, :1] + (1.0 - theta) * v_up[mdp.tau_tx])
    q_renew = np.broadcast_to(r + v[0, mdp.delta_renew], mdp.shape)
    return q_idle, q_tx, q_renew


def reference_rvi_solve(mdp: MdpSpec, tol: float = RVI_TOL, max_iter: int = RVI_MAX_ITER) -> SolveResult:
    """Reference relative value iteration: ``rvi_solve``'s damped iteration,
    stopping rule and result on ``reference_q_actions``, every array
    allocated afresh in each iteration."""
    v = np.zeros(mdp.shape)
    for n in range(1, max_iter + 1):
        q_idle, q_tx, q_renew = q = reference_q_actions(mdp, v)
        diff = np.minimum(np.minimum(q_idle, q_tx), q_renew) - v
        lo, hi = float(diff.min()), float(diff.max())
        span = hi - lo
        if not np.isfinite(span):
            raise AssertionError("reference RVI produced non-finite values")
        gain = float(diff[0, 0])
        if span < max(tol, FLOAT_FLOOR_ULPS * float(np.spacing(np.abs(v).max()))):
            return SolveResult(
                gain=gain,
                v=v,
                policy=greedy_policy(np.stack(q, axis=2)),
                iterations=n,
                residual=max(hi - gain, gain - lo),
                lambda_bounds=_bracket(lo, hi, v),
            )
        diff -= gain
        diff *= RVI_DAMPING
        v += diff
    raise AssertionError(f"reference RVI did not converge in {max_iter} iterations")


def reference_border_lu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference LU factorization of a border: Gaussian elimination with
    partial pivoting in place, one pivot step per column, each step
    updating only the rows and columns where the pivot's column and row are
    nonzero. ``_border_lu`` must give these factors and this ``order`` bit
    for bit, and raise where this raises."""
    order = np.arange(len(a))
    for j in range(len(a)):
        p = j + int(np.abs(a[j:, j]).argmax())
        if a[p, j] == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        if p != j:
            a[[j, p]], order[[j, p]] = a[[p, j]], order[[p, j]]
        rows = j + 1 + np.flatnonzero(a[j + 1 :, j])
        if len(rows):
            a[rows, j] /= a[j, j]
            cols = j + 1 + np.flatnonzero(a[j, j + 1 :])
            a[np.ix_(rows, cols)] -= a[rows, j, None] * a[j, cols]
    return a, order


def reference_backsub_evaluate(mdp: MdpSpec, actions: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Reference back-substitution over the channel age for one policy:
    (gain, v, q), with q the three Q grids at v that its residual gate
    reads. Its maps keep every column of v(1, .), its ring and block top are
    the policy's own, and each row is built whole, by gathering every
    cell's successor map. A policy that renews at every cell of the last
    channel age solves its (D + 1)-square border by LAPACK. Any other solves
    its last row first, in descending information age from the clamped
    corner, factors its (D + 3)-square border by ``reference_border_lu`` and
    takes one step of iterative refinement. ``_renewal_closed_solve`` must
    give every member of a stack these bits."""
    t_max, d_max = mdp.shape
    idle, tx, renew = (actions == u for u in (Action.IDLE, Action.TRANSMIT, Action.RENEW))
    cost = reference_costs(mdp, actions)
    open_ = int(not renew[-1].all())
    r = max(1, int(np.count_nonzero(~np.logical_and.accumulate(renew.all(axis=1)[::-1]))))
    w = max(1, int((np.maximum(mdp.tau_idle[:r], mdp.tau_tx[:r]) - np.arange(r)).max()))
    k, top = w + 1, min(r + w, t_max)
    succ_t = np.where(idle, mdp.tau_idle[:, None], np.where(tx, mdp.tau_tx[:, None], 0))
    succ_d = np.where(renew, mdp.delta_renew, mdp.delta_up)
    succ = succ_t * d_max + succ_d
    hit = np.where(tx, mdp.theta[:, None], 0.0)
    miss = 1.0 - hit
    has_tx = tx.any(axis=1)

    # z = (v(1, .), v(tau_max, 1) and v(tau_max, delta_max) if open, gain, 1)
    size = d_max + 2 * open_
    g_col, c_col = size, size + 1
    src = np.where(renew, k, succ_t % k) * d_max + succ_d

    def row_maps(costs):
        maps = np.zeros((k + 1, d_max, size + 2))
        maps[k, :, :d_max] = np.eye(d_max)
        flat = maps.reshape((k + 1) * d_max, size + 2)
        eqs = np.zeros((2 * open_, size + 2))
        if open_:
            last = maps[(t_max - 1) % k]
            last[-1, d_max + 1] = 1.0
            for d in range(d_max - 1, -1, -1):
                out = eqs[1] if d == d_max - 1 else last[d]
                np.multiply(flat[src[-1, d]], miss[-1, d], out=out)
                out[d_max] += hit[-1, d]
                out[g_col] -= 1.0
                out[c_col] += costs[-1, d]
            eqs[0] = last[0]
        for t in range(top - open_ - 1, -1, -1):
            out = maps[t % k]
            if has_tx[t]:
                np.multiply(flat[src[t]], miss[t, :, None], out=out)
                out += np.multiply.outer(hit[t], maps[mdp.tau_tx[t] % k, 0])
            else:
                np.take(flat, src[t], axis=0, out=out)
            out[:, g_col] -= 1.0
            out[:, c_col] += costs[t]
        return maps[0].copy(), eqs

    def values(costs, x):
        gain = x[size]
        v = np.empty(mdp.shape)
        v_flat = v.reshape(-1)
        v[0] = x[:d_max]
        v[r:] = costs[r:] - gain + v[0, mdp.delta_renew]
        if open_ and t_max > 1:
            v[-1, -1] = x[d_max + 1]
            for d in range(d_max - 2, -1, -1):
                v[-1, d] = costs[-1, d] - gain + (v_flat[succ[-1, d]] * miss[-1, d] + hit[-1, d] * x[d_max])
        for t in range(r - 1 - open_, 0, -1):
            nxt = v_flat[succ[t]] * miss[t]
            if has_tx[t]:
                nxt += hit[t] * v[mdp.tau_tx[t], 0]
            v[t] = costs[t] - gain + nxt
        return v

    m1, eqs = row_maps(cost)
    c0 = int(mdp.delta_renew[0])
    border = np.zeros((size + 1, size + 1))
    np.negative(m1[:, : size + 1], out=border[:d_max])
    np.negative(eqs[:, c0 : size + 1], out=border[d_max:size, c0:])
    border[np.arange(size), np.arange(size)] += 1.0
    border[size, 0] = 1.0
    rhs = np.concatenate([m1[:, c_col], eqs[:, c_col], [0.0]])
    try:
        if open_:
            factors = reference_border_lu(border.copy())
            x = _border_lu_solve(*factors, rhs)
        else:
            x = np.linalg.solve(border, rhs)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(f"singular: {exc}", condition_estimate=float("inf")) from exc
    v = values(cost, x)
    if open_:
        resid = cost - x[size] + v.reshape(-1)[succ] * miss + hit * v[mdp.tau_tx, :1] - v
        m1, eqs = row_maps(resid)
        dx = _border_lu_solve(*factors, np.concatenate([m1[:, c_col], eqs[:, c_col], [0.0]]))
        v += values(resid, dx)
        x[size] += dx[size]
    gain = float(x[size])
    v -= v.reshape(-1)[0]

    q = np.moveaxis(q_backup(mdp, v), 2, 0)
    rel = float(np.abs(np.choose(actions, q) - v - gain).max() / (1.0 + np.abs(cost).max()))
    if not np.isfinite(rel) or rel > 1e-8:
        raise EvaluationError(f"relative residual {rel:.3e}", condition_estimate=float("inf"))
    return gain, v, q


def reference_lu_evaluate(mdp: MdpSpec, actions: np.ndarray):
    """The sparse LU evaluation of one policy of any kind, through the
    package's gate: the reference the renewal-closed path is checked
    against."""
    [ev] = _evaluate_stack(mdp, actions[None], _lu_solve)
    return ev


def reference_evaluation_matrix(mdp: MdpSpec, actions: np.ndarray):
    """Reference assembly of the evaluation system, entry lists by kind
    (diagonals, gains, hits, misses) through COO: the CSC matrix that
    ``_evaluation_matrix`` must equal bit for bit."""
    from scipy.sparse import csc_matrix

    n = mdp.n_states
    hit, miss, p_hit = mdp.successors(actions)
    col_of = np.arange(n, dtype=np.int64)
    col_of[1:] -= 1

    diag_keep = np.arange(n) != 0
    rows = [np.arange(n)[diag_keep], np.arange(n)]
    cols = [col_of[diag_keep], np.full(n, n - 1, dtype=np.int64)]
    data = [np.ones(diag_keep.sum()), np.ones(n)]
    for succ, p in ((hit, p_hit), (miss, 1.0 - p_hit)):
        keep = (p > 0) & (succ != 0)
        rows.append(np.arange(n)[keep])
        cols.append(col_of[succ[keep]])
        data.append(-p[keep])
    return csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def reference_exact_evaluate(mdp: MdpSpec, actions: np.ndarray) -> tuple[Fraction, list[Fraction]] | None:
    """The exact solution of one policy's evaluation system, as floats give
    it: row s reads v(s) + gain - sum_s' P(s'|s) v(s') = c(s) with
    v(1, 1) = 0, every float entry is taken as the rational it is, and
    Gauss-Jordan elimination runs in ``fractions.Fraction``. Returns the gain
    and the flat row-major values, or None if the system is singular."""
    n = mdp.n_states
    hit, miss, p_hit = mdp.successors(actions)
    cost = reference_costs(mdp, actions).reshape(-1)
    # Columns: v(s) for s = 2 .. n as 0 .. n - 2, the gain, the right side.
    rows = []
    for s in range(n):
        row = {n - 1: Fraction(1), n: Fraction(float(cost[s]))}
        if s:
            row[s - 1] = Fraction(1)
        for succ, p in ((int(hit[s]), float(p_hit[s])), (int(miss[s]), 1.0 - float(p_hit[s]))):
            if succ and p:
                row[succ - 1] = row.get(succ - 1, 0) - Fraction(p)
        rows.append(row)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r].get(col)), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        scale = head[col]
        head = rows[col] = {j: a / scale for j, a in head.items() if a}
        for r in range(n):
            f = rows[r].get(col) if r != col else None
            if f:
                row = rows[r]
                for j, a in head.items():
                    row[j] = row.get(j, 0) - f * a
    x = [rows[i].get(n, Fraction(0)) for i in range(n)]
    return x[n - 1], [Fraction(0)] + x[: n - 1]


def reference_threshold_candidate(mdp: MdpSpec, tau: int) -> tuple[float, np.ndarray, Policy, int]:
    """Reference run of the threshold heuristic at the renewal threshold
    ``tau``: its sweeps run to the end, every policy is evaluated alone
    (``reference_backsub_evaluate``, or the sparse path for the table that
    never renews) and backed up again for its improvement step. Returns
    the best iterate's gain, values, policy and sweep."""
    t_max, d_max = mdp.shape
    thresholds = [1] * t_max
    seen, best = set(), None
    for sweep in range(1, _SWEEP_CAP + 1):
        seen.add(tuple(thresholds))
        actions = threshold_actions(d_max, tau, thresholds)
        if tau < t_max:
            gain, v, _ = reference_backsub_evaluate(mdp, actions)
        else:
            gain, v, _ = reference_lu_evaluate(mdp, actions)
        if best is None or gain < best[0]:
            best = (gain, v, Policy(actions=actions), sweep)
        q_idle, q_tx, _ = np.moveaxis(q_backup(mdp, v), 2, 0)
        new = _transmit_thresholds(q_idle, q_tx, tau) + thresholds[tau:]
        if new == thresholds or tuple(new) in seen:
            break
        thresholds = new
    return best


def reference_threshold_heuristic(mdp: MdpSpec) -> SolveResult:
    """Reference threshold heuristic: each renewal threshold's run
    (``reference_threshold_candidate``) ends before the next threshold
    starts, and a later threshold replaces the best so far only if its gain
    is lower by more than the best's float floor."""
    best = None
    for tau in range(mdp.shape[0] + 1):
        res = reference_threshold_candidate(mdp, tau)
        if best is None or res[0] < best[0] - _float_floor(best[1], best[0]):
            best = res
    gain, v, policy, iterations = best
    return _finish(gain, v, policy, iterations, np.moveaxis(q_backup(mdp, v), 2, 0))


BRUTE_FORCE_MAX_STATES = 12
_ORACLE_CHUNK = 4096  # policies scored per batch


def brute_force_optimal(mdp: MdpSpec) -> tuple[float, Policy]:
    """Exhaustive minimum over all deterministic stationary policies, each
    scored by ``policy_gains`` from state (1, 1); of equal minima the first in
    ``itertools.product((0, 1, 2), repeat=n)`` order wins. Guarded to tiny
    grids (the enumeration has 3^n policies)."""
    n = mdp.n_states
    if n > BRUTE_FORCE_MAX_STATES:
        raise DomainError(
            f"brute-force enumeration is limited to {BRUTE_FORCE_MAX_STATES} states "
            f"(3^n policies); grid has {n}"
        )
    digits = 3 ** np.arange(n - 1, -1, -1)
    best_gain, best = np.inf, None
    for lo in range(0, 3**n, _ORACLE_CHUNK):
        assignments = np.arange(lo, min(lo + _ORACLE_CHUNK, 3**n))[:, None] // digits % 3
        gains = policy_gains(mdp, assignments, 0)
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
    c = reference_costs(mdp, assignments.reshape(m, *mdp.shape)).reshape(m, n)

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
    epochs: int = 100_000,
    seed: int = 0,
    stream: int = 0,
) -> SimStats:
    """Reference simulator: one pass over all epochs from state (1, 1) with
    numpy-scalar reads of the draws and stores into the trajectory, then
    full-length post-processing of the trajectory and an fsum over the cost
    array."""
    if epochs < 1:
        raise DomainError(f"epochs must be >= 1, got {epochs}")
    if policy.shape != mdp.shape:
        raise DomainError(f"policy grid {policy.shape} does not match MDP grid {mdp.shape}")
    rng = replication_rng(seed, stream)

    n = mdp.n_states
    act_flat = policy.actions.reshape(-1).astype(np.int64)
    cost_flat = reference_costs(mdp, policy.actions).reshape(-1)
    succ_hit, succ_miss, p_hit = mdp.successors(policy.actions)

    hit = succ_hit.tolist()
    miss = succ_miss.tolist()
    theta = p_hit.tolist()
    is_tx = (act_flat == Action.TRANSMIT).tolist()
    draws = rng.random(epochs)
    traj = np.empty(epochs, dtype=np.int64)
    s = 0
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
