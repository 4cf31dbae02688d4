"""Average-cost solvers: relative value iteration, policy evaluation/iteration
with monotone action-set pruning, an exhaustive oracle for desk-scale grids,
and the renew-above-a-threshold heuristic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, DomainError, EvaluationError, NumericalOverflowError
from .mdp import Action, AgeState, MdpSpec

# Above this state count, policy evaluation switches from a direct sparse
# factorization to fixed-policy relative value iteration.
DIRECT_SOLVE_MAX_STATES = 200_000


@dataclass(frozen=True)
class SolveOptions:
    """Solver options: span-seminorm stopping threshold, iteration cap, and
    the reference state used to anchor relative values."""

    tol: float = 1e-9
    max_iter: int = 200_000
    ref_state: AgeState = AgeState(1, 1)

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True, eq=False)
class Policy:
    """Deterministic action grid; ``actions[t, d]`` is the action at
    channel age t+1, information age d+1."""

    actions: np.ndarray

    def __post_init__(self):
        a = np.array(self.actions, dtype=np.int8)
        if a.ndim != 2:
            raise DomainError(f"policy grid must be 2-d, got ndim={a.ndim}")
        if not np.isin(a, (0, 1, 2)).all():
            raise DomainError("policy actions must be 0, 1 or 2")
        a.flags.writeable = False
        object.__setattr__(self, "actions", a)

    @property
    def shape(self) -> tuple[int, int]:
        return self.actions.shape

    def action_at(self, tau: int, delta: int) -> Action:
        t_max, d_max = self.actions.shape
        if not (1 <= tau <= t_max and 1 <= delta <= d_max):
            raise DomainError(f"state ({tau}, {delta}) outside policy grid {self.actions.shape}")
        return Action(int(self.actions[tau - 1, delta - 1]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Policy) and np.array_equal(self.actions, other.actions)


@dataclass(frozen=True)
class SolveResult:
    """Solver output: optimal average cost, relative values anchored at the
    reference state, the greedy policy, and convergence diagnostics."""

    gain: float
    v: np.ndarray           # (tau_max, delta_max), v[ref] == 0
    policy: Policy
    iterations: int
    residual: float
    q: np.ndarray           # (tau_max, delta_max, 3) Q-factors at v
    skipped_q_evals: int | None = None


def _q_actions(mdp: MdpSpec, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q-values of idle, transmit and renew as three (tau_max, delta_max)
    grids, read off the age-shift kernel."""
    c = mdp.cost_table
    theta = mdp.theta[:, None]
    v_up = v[:, mdp.delta_up]  # v at (t, delta_up[d])
    q_idle = c[:, :, Action.IDLE] + v_up[mdp.tau_idle]
    q_tx = c[:, :, Action.TRANSMIT] + (
        theta * v[mdp.tau_tx, :1] + (1.0 - theta) * v_up[mdp.tau_tx]
    )
    q_renew = c[:, :, Action.RENEW] + v[0, mdp.delta_renew]
    return q_idle, q_tx, q_renew


def q_backup(mdp: MdpSpec, v: np.ndarray) -> np.ndarray:
    """One-step lookahead Q(s, u) = c(s, u) + sum_s' P(s'|s, u) v(s')."""
    return np.stack(_q_actions(mdp, v), axis=2)


def _bellman_residual(q_actions, v: np.ndarray, gain: float) -> float:
    """Largest violation of the optimality equation, max |min_u Q - v - gain|."""
    q_idle, q_tx, q_renew = q_actions
    return float(np.abs(np.minimum(np.minimum(q_idle, q_tx), q_renew) - v - gain).max())


def greedy_policy(q: np.ndarray) -> Policy:
    """Argmin policy; ties resolve to the smallest action index."""
    return Policy(actions=np.argmin(q, axis=2))


def rvi_solve(mdp: MdpSpec, opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Relative value iteration for the optimal average cost.

    Repeats: Q-backup, pointwise minimization, renormalization by the value
    at the reference state; stops when the span seminorm of successive
    relative-value differences drops below ``opts.tol``.
    """
    ref = mdp.state_index(opts.ref_state)
    v = np.zeros(mdp.shape)
    history: list[float] = []
    for n in range(1, opts.max_iter + 1):
        q_idle, q_tx, q_renew = q = _q_actions(mdp, v)
        vt = np.minimum(np.minimum(q_idle, q_tx), q_renew)
        gain = float(vt.reshape(-1)[ref])
        v_new = vt - gain
        diff = v_new - v
        span = float(diff.max() - diff.min())
        if not np.isfinite(span):
            raise NumericalOverflowError(
                "relative value iteration produced non-finite values; the grid "
                "truncation may be too small or the configuration unstable"
            )
        history.append(span)
        v = v_new
        if span < opts.tol:
            q = np.stack(q, axis=2)
            return SolveResult(
                gain=gain,
                v=v,
                policy=greedy_policy(q),
                iterations=n,
                residual=span,
                q=q,
            )
    raise ConvergenceError(
        f"relative value iteration did not reach span < {opts.tol} in "
        f"{opts.max_iter} iterations (last span {history[-1]:.3e})",
        residual=history[-1],
        history=history[-16:],
    )


def _policy_chain(mdp: MdpSpec, policy: Policy):
    """Flat successors, hit probability and cost of every state under a
    policy."""
    hit, miss, p_hit = mdp.successors(policy.actions)
    cost = np.take_along_axis(mdp.cost_table, policy.actions[:, :, None].astype(np.intp), axis=2)
    return hit, miss, p_hit, cost.reshape(-1)


def policy_evaluate(
    mdp: MdpSpec,
    policy: Policy,
    ref_state: AgeState = AgeState(1, 1),
    *,
    iterative_tol: float = 1e-11,
    iterative_max_iter: int = 2_000_000,
) -> tuple[float, np.ndarray]:
    """Gain and relative value of a stationary policy.

    Solves gain + v(s) = c(s, policy(s)) + sum_s' P(s'|s) v(s') subject to
    v(ref_state) = 0. Uses a direct sparse factorization up to
    ``DIRECT_SOLVE_MAX_STATES`` states and fixed-policy relative value
    iteration above that.
    """
    if policy.shape != mdp.shape:
        raise DomainError(f"policy grid {policy.shape} does not match MDP grid {mdp.shape}")
    ref = mdp.state_index(ref_state)
    if mdp.n_states > DIRECT_SOLVE_MAX_STATES:
        return _evaluate_iterative(mdp, policy, ref, iterative_tol, iterative_max_iter)
    return _evaluate_direct(mdp, policy, ref)


def _evaluate_direct(mdp: MdpSpec, policy: Policy, ref: int) -> tuple[float, np.ndarray]:
    n = mdp.n_states
    hit, miss, p_hit, b = _policy_chain(mdp, policy)

    # Unknowns: v at every non-reference state, then the gain (last column).
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
    m = sp.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )

    try:
        lu = spla.splu(m)
        x = lu.solve(b)
    except RuntimeError as exc:  # exactly singular factorization
        raise EvaluationError(
            f"policy evaluation system is singular (condition estimate inf): {exc}",
            condition_estimate=float("inf"),
        ) from exc

    # One step of iterative refinement, then a residual gate.
    resid = b - m @ x
    x = x + lu.solve(resid)
    resid = b - m @ x
    rel = float(np.abs(resid).max() / (1.0 + np.abs(b).max()))
    if not np.isfinite(rel) or rel > 1e-8:
        cond = _condition_estimate(m, lu)
        raise EvaluationError(
            f"policy evaluation system is ill-conditioned "
            f"(relative residual {rel:.3e}, condition estimate {cond:.3e}); "
            "the policy chain is likely multichain",
            condition_estimate=cond,
        )

    v = np.empty(n)
    v[np.arange(n) != ref] = x[:-1]
    v[ref] = 0.0
    return float(x[-1]), v.reshape(mdp.shape)


def _condition_estimate(m: sp.csc_matrix, lu) -> float:
    try:
        norm_m = float(np.abs(m).sum(axis=0).max())
        inv_op = spla.LinearOperator(
            m.shape,
            matvec=lu.solve,
            rmatvec=lambda y: lu.solve(y, trans="T"),
        )
        return norm_m * float(spla.onenormest(inv_op))
    except Exception:
        return float("inf")


def _evaluate_iterative(
    mdp: MdpSpec, policy: Policy, ref: int, tol: float, max_iter: int
) -> tuple[float, np.ndarray]:
    hit, miss, p_hit, c = _policy_chain(mdp, policy)
    v = np.zeros(mdp.n_states)
    gain = 0.0
    span = np.inf
    for _ in range(max_iter):
        w = c + (p_hit * v[hit] + (1.0 - p_hit) * v[miss])
        gain = float(w[ref])
        v_new = w - gain
        diff = v_new - v
        span = float(diff.max() - diff.min())
        v = v_new
        if span < tol:
            return gain, v.reshape(mdp.shape)
    raise ConvergenceError(
        f"iterative policy evaluation did not reach span < {tol} in {max_iter} iterations",
        residual=span,
    )


def structured_policy_iteration(
    mdp: MdpSpec, opts: SolveOptions = SolveOptions()
) -> SolveResult:
    """Policy iteration whose improvement step exploits channel-age
    monotonicity.

    For each fixed information age the improvement sweep runs over increasing
    channel age; once transmit is chosen the remaining candidates shrink to
    {transmit, renew}, and once renew is chosen the action is fixed without
    further Q evaluations. Starts from the idle-everywhere policy and stops
    when the policy is unchanged. ``skipped_q_evals`` counts the Q-factor
    evaluations avoided by the shrinking action sets.
    """
    actions = np.zeros(mdp.shape, dtype=np.int8)
    skipped = 0
    for sweep in range(1, opts.max_iter + 1):
        gain, v = policy_evaluate(mdp, Policy(actions=actions), opts.ref_state)
        q = _q_actions(mdp, v)
        new_actions, skips = _monotone_improvement(*q)
        skipped += skips
        if np.array_equal(new_actions, actions):
            return SolveResult(
                gain=gain,
                v=v,
                policy=Policy(actions=actions),
                iterations=sweep,
                residual=_bellman_residual(q, v, gain),
                q=np.stack(q, axis=2),
                skipped_q_evals=skipped,
            )
        actions = new_actions
    raise ConvergenceError(
        f"policy iteration did not terminate within {opts.max_iter} sweeps",
        residual=float("nan"),
    )


def _monotone_improvement(q_idle, q_tx, q_renew) -> tuple[np.ndarray, int]:
    """Improvement step of structured policy iteration, all information-age
    columns at once.

    Down each column the candidates start as {idle, transmit, renew}, shrink
    to {transmit, renew} at the first cell whose argmin is not idle, and to
    {renew} at the first later cell where renew beats transmit; ties go to
    the smaller action. Each cell skips the Q evaluations its predecessor's
    level rules out: 0 after idle, 1 after transmit, all 3 after renew.
    """
    started = np.logical_or.accumulate((q_tx < q_idle) | (q_renew < q_idle), axis=0)
    renewed = np.logical_or.accumulate(started & (q_renew < q_tx), axis=0)
    skipped = np.count_nonzero(started[:-1]) + 2 * np.count_nonzero(renewed[:-1])
    return started.astype(np.int8) + renewed, int(skipped)


BRUTE_FORCE_MAX_STATES = 12


def brute_force_optimal(
    mdp: MdpSpec, start: AgeState = AgeState(1, 1)
) -> tuple[float, Policy]:
    """Exhaustive minimum over all deterministic stationary policies.

    Each policy is scored by exact stationary analysis of its induced chain
    from ``start``: recurrent classes are found by reachability, each class
    gain comes from its stationary distribution, and transient states
    contribute through absorption probabilities. Guarded to tiny grids
    (the enumeration has 3^n policies).
    """
    n = mdp.n_states
    if n > BRUTE_FORCE_MAX_STATES:
        raise DomainError(
            f"brute-force enumeration is limited to {BRUTE_FORCE_MAX_STATES} states "
            f"(3^n policies); grid has {n}"
        )
    s0 = mdp.state_index(start)
    # Successor tables indexed [action, state].
    per_action = [mdp.successors(np.full(mdp.shape, u)) for u in range(3)]
    hit, miss, p_hit = (np.stack(table) for table in zip(*per_action))
    kernel = (mdp.cost_table.reshape(n, 3).T, hit, miss, p_hit, 1.0 - p_hit)

    best_gain = np.inf
    best_assignment: tuple[int, ...] | None = None
    for assignment in itertools.product((0, 1, 2), repeat=n):
        g = _chain_average_cost(n, kernel, np.array(assignment), s0)
        if g < best_gain:
            best_gain = g
            best_assignment = assignment
    assert best_assignment is not None
    actions = np.array(best_assignment, dtype=np.int8).reshape(mdp.shape)
    return float(best_gain), Policy(actions=actions)


def _chain_average_cost(n, kernel, assignment, s0) -> float:
    cost, hit, miss, p_hit, p_miss = kernel
    rows = np.arange(n)
    c = cost[assignment, rows]
    p = np.zeros((n, n))
    p[rows, hit[assignment, rows]] += p_hit[assignment, rows]
    p[rows, miss[assignment, rows]] += p_miss[assignment, rows]

    # Transitive closure of the support graph.
    reach = p > 0
    np.fill_diagonal(reach, True)
    while True:
        nxt = reach | (reach @ reach)
        if np.array_equal(nxt, reach):
            break
        reach = nxt

    reachable = reach[s0]
    recurrent = np.all(~reach | reach.T, axis=1)  # reach(i) subset of reach^{-1}(i)

    # Group mutually-reaching recurrent states into classes.
    classes: list[np.ndarray] = []
    seen = np.zeros(n, dtype=bool)
    for i in range(n):
        if reachable[i] and recurrent[i] and not seen[i]:
            members = np.where(reach[i] & reach[:, i] & recurrent)[0]
            seen[members] = True
            classes.append(members)

    gains = np.array([_class_gain(p, c, idx) for idx in classes])
    for ci, idx in enumerate(classes):
        if s0 in idx:
            return float(gains[ci])

    transient = np.where(reachable & ~recurrent)[0]
    a = np.eye(len(transient)) - p[np.ix_(transient, transient)]
    b = np.stack([p[np.ix_(transient, idx)].sum(axis=1) for idx in classes], axis=1)
    h = np.linalg.solve(a, b)
    weights = h[list(transient).index(s0)]
    return float(weights @ gains)


def _class_gain(p, c, idx) -> float:
    if len(idx) == 1:
        return float(c[idx[0]])
    sub = p[np.ix_(idx, idx)]
    a = sub.T - np.eye(len(idx))
    a[-1, :] = 1.0
    rhs = np.zeros(len(idx))
    rhs[-1] = 1.0
    dist = np.linalg.solve(a, rhs)
    return float(dist @ c[idx])


def threshold_heuristic(
    mdp: MdpSpec, opts: SolveOptions = SolveOptions(), tau_renew: int | None = None
) -> SolveResult:
    """Best policy that renews whenever the channel age exceeds a threshold.

    For a fixed renewal threshold, alternates policy evaluation with a
    restricted improvement step that only re-optimizes the per-channel-age
    transmission thresholds, kept nonincreasing in the channel age. When
    ``tau_renew`` is None, searches every renewal threshold and returns the
    best. The result is the optimum of the threshold family, not of the full
    policy space.
    """
    t_max, _ = mdp.shape
    if tau_renew is not None:
        if int(tau_renew) != tau_renew or not 0 <= tau_renew <= t_max:
            raise DomainError(f"tau_renew must be an integer in [0, {t_max}], got {tau_renew}")
        return _threshold_solve_fixed(mdp, opts, int(tau_renew))
    best: SolveResult | None = None
    for cand in range(t_max + 1):
        res = _threshold_solve_fixed(mdp, opts, cand)
        if best is None or res.gain < best.gain:
            best = res
    assert best is not None
    return best


def _threshold_policy_actions(d_max, tau_renew, thresholds) -> np.ndarray:
    actions = (np.arange(1, d_max + 1) >= np.array(thresholds)[:, None]).astype(np.int8)
    actions[tau_renew:] = Action.RENEW
    return actions


def _transmit_thresholds(q_idle, q_tx, tau_renew: int) -> list[int]:
    """Restricted improvement step of the threshold heuristic: for each
    channel age up to ``tau_renew``, the first information age where transmit
    beats idle (delta_max if none), kept nonincreasing in the channel age."""
    better = q_tx[:tau_renew] < q_idle[:tau_renew]
    first = np.where(better.any(axis=1), better.argmax(axis=1) + 1, q_idle.shape[1])
    return np.minimum.accumulate(first).tolist()


# Improvement inside a restricted policy class can cycle between equal-gain
# threshold tables, so the per-candidate sweep count is capped and the
# best-evaluated iterate wins.
_THRESHOLD_SWEEP_CAP = 100


def _threshold_solve_fixed(mdp: MdpSpec, opts: SolveOptions, tau_renew: int) -> SolveResult:
    t_max, d_max = mdp.shape
    thresholds = [1] * t_max
    seen: set[tuple[int, ...]] = set()
    best: tuple[float, np.ndarray, np.ndarray, int] | None = None
    sweep_cap = min(opts.max_iter, _THRESHOLD_SWEEP_CAP)
    for sweep in range(1, sweep_cap + 1):
        seen.add(tuple(thresholds))
        actions = _threshold_policy_actions(d_max, tau_renew, thresholds)
        gain, v = policy_evaluate(mdp, Policy(actions=actions), opts.ref_state)
        if best is None or gain < best[0]:
            best = (gain, v, actions, sweep)
        q_idle, q_tx, _ = _q_actions(mdp, v)
        new_thresholds = _transmit_thresholds(q_idle, q_tx, tau_renew) + thresholds[tau_renew:]
        if new_thresholds == thresholds or tuple(new_thresholds) in seen:
            break
        thresholds = new_thresholds
    assert best is not None
    gain, v, actions, sweep = best
    q = _q_actions(mdp, v)
    return SolveResult(
        gain=gain,
        v=v,
        policy=Policy(actions=actions),
        iterations=sweep,
        residual=_bellman_residual(q, v, gain),
        q=np.stack(q, axis=2),
    )
