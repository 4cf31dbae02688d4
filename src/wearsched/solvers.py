"""Average-cost solvers: relative value iteration, policy evaluation/iteration
with monotone action-set pruning continued from coarse to fine grids, and the
renew-above-a-threshold heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError, DomainError, EvaluationError, NumericalOverflowError
from .mdp import Action, AgeState, MdpSpec

if TYPE_CHECKING:
    import scipy.sparse

# Differences of values of size M resolve only to about one unit in the last
# place of M: RVI's stopping span is floored, and every lambda* bracket
# widened, by this many of them.
FLOAT_FLOOR_ULPS = 2


@dataclass(frozen=True)
class SolveOptions:
    """Solver options: span-seminorm stopping threshold, iteration cap, and
    the reference state used to anchor relative values.

    Relative value iteration stops at the first iterate v whose Bellman
    difference Tv - v has span below ``max(tol, 2 * spacing(max|v|))``: the
    span cannot shrink much below one unit in the last place of the values,
    so a tolerance under that float resolution is met at the floor instead.
    """

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
        a = np.asarray(self.actions)
        if a.ndim != 2:
            raise DomainError(f"policy grid must be 2-d, got ndim={a.ndim}")
        # Checked before the cast, which would wrap 256 to 0 and cut 1.7 to 1.
        if not np.isin(a, (0, 1, 2)).all():
            raise DomainError("actions must be 0, 1 or 2")
        a = a.astype(np.int8)
        a.flags.writeable = False
        object.__setattr__(self, "actions", a)

    @property
    def shape(self) -> tuple[int, int]:
        return self.actions.shape

    def __eq__(self, other) -> bool:
        return isinstance(other, Policy) and np.array_equal(self.actions, other.actions)


@dataclass(frozen=True)
class SolveResult:
    """Solver output: optimal average cost, relative values anchored at the
    reference state, the greedy policy, and convergence diagnostics.

    ``lambda_bounds`` is the bracket [min(Tv - v), max(Tv - v)] read off the
    returned Q-factors, widened outward by the float resolution of Tv - v;
    it contains the optimal average cost lambda* (Odoni 1969) whatever
    policy the solver returns, so for the threshold heuristic it also bounds
    the heuristic's gap to the optimum. ``continuation`` is set by
    structured policy iteration only: (tau_max, delta_max, sweeps) for each
    grid it solved, coarsest first.
    """

    gain: float
    v: np.ndarray           # (tau_max, delta_max), v[ref] == 0
    policy: Policy
    iterations: int
    residual: float
    q: np.ndarray           # (tau_max, delta_max, 3) Q-factors at v
    lambda_bounds: tuple[float, float]
    skipped_q_evals: int | None = None
    continuation: tuple[tuple[int, int, int], ...] | None = None


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


def _float_floor(v: np.ndarray, gain: float) -> float:
    """``FLOAT_FLOOR_ULPS`` units in the last place of max|v| + |gain|, the
    rounding error a gain read off the values v carries."""
    return FLOAT_FLOOR_ULPS * float(np.spacing(np.abs(v).max() + abs(gain)))


def _bracket(lo: float, hi: float, v: np.ndarray) -> tuple[float, float]:
    """The bracket [lo, hi] = [min(Tv - v), max(Tv - v)] on lambda*, widened
    outward by the float floor of max|v| + max(|lo|, |hi|), a bound on |Tv|:
    each difference Tv - v carries rounding errors of about that size."""
    eps = _float_floor(v, max(abs(lo), abs(hi)))
    return lo - eps, hi + eps


def _finish(gain, v, policy, iterations, q_actions, **extra) -> SolveResult:
    """Result of a policy-evaluation solver at its final (gain, v): the
    bracket from the Q-factors at v, and as residual the largest violation
    of the optimality equation, max |Tv - v - gain|."""
    q_idle, q_tx, q_renew = q_actions
    diff = np.minimum(np.minimum(q_idle, q_tx), q_renew) - v
    lo, hi = float(diff.min()), float(diff.max())
    return SolveResult(
        gain=gain,
        v=v,
        policy=policy,
        iterations=iterations,
        residual=max(hi - gain, gain - lo),
        q=np.stack(q_actions, axis=2),
        lambda_bounds=_bracket(lo, hi, v),
        **extra,
    )


def greedy_policy(q: np.ndarray) -> Policy:
    """Argmin policy; ties resolve to the smallest action index."""
    return Policy(actions=np.argmin(q, axis=2))


# Share of the Bellman difference each RVI step applies.
RVI_DAMPING = 0.9


def rvi_solve(mdp: MdpSpec, opts: SolveOptions = SolveOptions()) -> SolveResult:
    """Relative value iteration for the optimal average cost.

    Repeats: Q-backup, pointwise minimization, the damped step
    v <- v + RVI_DAMPING * (Tv - v) and renormalization by the value at the
    reference state. Damping is the aperiodicity transform (Schweitzer 1971;
    Puterman 1994, section 8.5.4): it keeps the fixed points and breaks the
    near-periodic age cycles that slow the undamped iteration. Stops as
    ``SolveOptions`` describes and returns that iterate, its gain Tv - v at
    the reference state and its bracket on lambda*.
    """
    ref = mdp.state_index(opts.ref_state)
    v = np.zeros(mdp.shape)
    history: list[float] = []
    for n in range(1, opts.max_iter + 1):
        q_idle, q_tx, q_renew = q = _q_actions(mdp, v)
        diff = np.minimum(np.minimum(q_idle, q_tx), q_renew) - v
        lo, hi = float(diff.min()), float(diff.max())
        span = hi - lo
        if not np.isfinite(span):
            raise NumericalOverflowError(
                "relative value iteration produced non-finite values; the grid "
                "truncation may be too small or the configuration unstable"
            )
        history.append(span)
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
    raise ConvergenceError(
        f"relative value iteration did not reach span < {opts.tol} in "
        f"{opts.max_iter} iterations (last span {history[-1]:.3e})",
        residual=history[-1],
        history=history[-16:],
    )


def policy_evaluate(
    mdp: MdpSpec, policy: Policy, ref_state: AgeState = AgeState(1, 1)
) -> tuple[float, np.ndarray]:
    """Gain and relative value of a stationary policy.

    Solves gain + v(s) = c(s, policy(s)) + sum_s' P(s'|s) v(s') subject to
    v(ref_state) = 0. A renewal-closed policy, one that renews at every cell
    of the last channel age, is solved by back-substitution over the channel
    age (``_renewal_closed_evaluate``); any other policy by a direct sparse
    factorization (``_lu_evaluate``). scipy is imported only by the second,
    so that commands which evaluate no other policy never load it. Both
    paths gate the residual of the whole system at 1e-8 relative and raise
    ``EvaluationError`` for a singular or ill-conditioned system.
    """
    if policy.shape != mdp.shape:
        raise DomainError(f"policy grid {policy.shape} does not match MDP grid {mdp.shape}")
    ref = mdp.state_index(ref_state)
    if (policy.actions[-1] == Action.RENEW).all():
        return _renewal_closed_evaluate(mdp, policy.actions, ref)
    return _lu_evaluate(mdp, policy.actions, ref)


def _check_residual(rel: float, condition_estimate) -> None:
    """The residual gate of both evaluation paths: a relative residual above
    1e-8 (or not finite) raises, with the system's condition estimate,
    computed only then."""
    if not np.isfinite(rel) or rel > 1e-8:
        cond = condition_estimate()
        raise EvaluationError(
            f"policy evaluation system is ill-conditioned "
            f"(relative residual {rel:.3e}, condition estimate {cond:.3e}); "
            "the policy chain is likely multichain",
            condition_estimate=cond,
        )


def _renewal_closed_evaluate(mdp: MdpSpec, actions: np.ndarray, ref: int) -> tuple[float, np.ndarray]:
    """``policy_evaluate`` for a policy that renews at every cell of the last
    channel age, by back-substitution over the channel age.

    Below the last channel age idle and transmit move to a strictly larger
    channel age and only renew returns to the first, so every cycle of the
    chain passes through channel age 1. Each row of values is then an affine
    map of z = (v(1, .), gain, 1), a (D, D + 2) matrix. Built from the top
    down, row t's map combines rows of the maps of rows at most ``w``
    channel ages above it, so a ring buffer of w + 1 maps holds all that is
    alive. The rows of the all-renew block at the top read v(1, .) alone:
    only the lowest w of them get a map, for the rows below to read. The D
    equations of row 1 and v(1, 1) = 0 close a dense (D + 1)-square border
    system for (v(1, .), gain); a second pass down the rows recovers v, which
    is then shifted to v(ref) = 0.
    """
    t_max, d_max = mdp.shape
    idle, tx, renew = (actions == u for u in (Action.IDLE, Action.TRANSMIT, Action.RENEW))
    cost = np.take_along_axis(mdp.cost_table, actions[:, :, None].astype(np.intp), axis=2)[:, :, 0]
    # Rows from r on renew everywhere, and read only v(1, .).
    r = max(1, int(np.count_nonzero(~np.logical_and.accumulate(renew.all(axis=1)[::-1]))))
    w = max(1, int((np.maximum(mdp.tau_idle[:r], mdp.tau_tx[:r]) - np.arange(r)).max()))
    k, top = w + 1, min(r + w, t_max)
    # Cell (t, d) moves to (succ_t, succ_d), or with probability hit[t, d]
    # (transmit cells only) to (tau_tx[t], 1).
    succ_t = np.where(idle[:top], mdp.tau_idle[:top, None], np.where(tx[:top], mdp.tau_tx[:top, None], 0))
    succ_d = np.where(renew[:top], mdp.delta_renew, mdp.delta_up)
    hit = np.where(tx[:top], mdp.theta[:top, None], 0.0)
    miss = 1.0 - hit
    has_tx = tx[:top].any(axis=1)

    # maps[t % k] is the map of row t while the rows below it need it;
    # maps[k] is the map of row 1, the identity, which renew cells read.
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

    # Row 1 reads v(1, .) = M[:, :D] v(1, .) + M[:, D] gain + M[:, D + 1].
    border = np.zeros((d_max + 1, d_max + 1))
    np.negative(maps[0, :, : g_col + 1], out=border[:d_max])
    border[np.arange(d_max), np.arange(d_max)] += 1.0
    border[d_max, 0] = 1.0
    rhs = np.append(maps[0, :, c_col], 0.0)
    del maps, flat

    def condition_estimate():
        try:
            return float(np.linalg.cond(border))
        except np.linalg.LinAlgError:
            return float("inf")

    try:
        x = np.linalg.solve(border, rhs)
    except np.linalg.LinAlgError as exc:  # exactly singular
        cond = condition_estimate()
        raise EvaluationError(
            f"policy evaluation system is singular (condition estimate {cond:.3e}): {exc}",
            condition_estimate=cond,
        ) from exc

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

    resid = np.choose(actions, _q_actions(mdp, v)) - v - gain
    rel = float(np.abs(resid).max() / (1.0 + np.abs(cost).max()))
    _check_residual(rel, condition_estimate)
    return gain, v


def _lu_evaluate(mdp: MdpSpec, actions: np.ndarray, ref: int) -> tuple[float, np.ndarray]:
    """``policy_evaluate`` of any policy by a direct sparse factorization of
    the whole evaluation system, one step of iterative refinement and the
    residual gate."""
    from scipy.sparse.linalg import splu

    n = mdp.n_states
    # Only the system and the cost vector stay alive while splu allocates
    # its workspace: the assembly arrays die inside _evaluation_matrix.
    m = _evaluation_matrix(mdp, actions, ref)
    cost = np.take_along_axis(mdp.cost_table, actions[:, :, None].astype(np.intp), axis=2)
    b = cost.reshape(-1)

    try:
        lu = splu(m)
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
    _check_residual(rel, lambda: _condition_estimate(m, lu))

    v = np.empty(n)
    v[np.arange(n) != ref] = x[:-1]
    v[ref] = 0.0
    return float(x[-1]), v.reshape(mdp.shape)


def _evaluation_matrix(mdp: MdpSpec, actions: np.ndarray, ref: int) -> scipy.sparse.csc_matrix:
    """The n x n evaluation system of a policy: row s reads
    v(s) + gain - sum_s' P(s'|s) v(s'), with v(ref) dropped from the
    unknowns and the gain in the last column."""
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


def _condition_estimate(m: scipy.sparse.csc_matrix, lu) -> float:
    from scipy.sparse.linalg import LinearOperator, onenormest

    try:
        norm_m = float(np.abs(m).sum(axis=0).max())
        inv_op = LinearOperator(
            m.shape,
            matvec=lu.solve,
            rmatvec=lambda y: lu.solve(y, trans="T"),
        )
        return norm_m * float(onenormest(inv_op))
    except Exception:
        return float("inf")


def load_evaluator() -> None:
    """Import the modules ``policy_evaluate`` needs. A process that forks
    workers which evaluate policies calls this first, so that the workers
    inherit the modules instead of each importing them."""
    import scipy.sparse.linalg  # noqa: F401


# Smallest truncation bounds a continuation level may have: at least this
# many channel and information ages, room for one wear step, and
# CONTINUATION_RENEWALS renewal downtimes of information age. Below those a
# coarse policy says too little about the finer grid to save any sweeps.
CONTINUATION_FLOOR = 80
CONTINUATION_RENEWALS = 4


def _continuation_grids(mdp: MdpSpec, ref_state: AgeState = AgeState(1, 1)) -> list[tuple[int, int]]:
    """The grids structured policy iteration solves, coarsest first and
    ending at ``mdp.shape``: both bounds are halved while the halved grid
    keeps at least max(CONTINUATION_FLOOR, 1 + tau_d) channel ages and
    max(CONTINUATION_FLOOR, CONTINUATION_RENEWALS * delta_r) information
    ages, and still contains ``ref_state``."""
    ch = mdp.channel
    min_tau = max(CONTINUATION_FLOOR, 1 + ch.tau_d, ref_state.tau)
    min_delta = max(CONTINUATION_FLOOR, CONTINUATION_RENEWALS * ch.delta_r, ref_state.delta)
    grids = [mdp.shape]
    while grids[-1][0] // 2 >= min_tau and grids[-1][1] // 2 >= min_delta:
        grids.append((grids[-1][0] // 2, grids[-1][1] // 2))
    return grids[::-1]


def structured_policy_iteration(
    mdp: MdpSpec, opts: SolveOptions = SolveOptions()
) -> SolveResult:
    """Structured policy iteration, continued from coarse grids to the grid
    of ``mdp`` (one-way multigrid: Chow and Tsitsiklis 1991).

    Solves the coarsest grid of ``_continuation_grids`` from idle everywhere,
    then each finer grid from the previous grid's policy extended by its
    last row and column, which is the action the clamped dynamics give
    those ages on the coarser grid. Every level runs ``_policy_iteration``
    to its own stopping test, so the result is certified on ``mdp``'s grid
    alone; only the number of sweeps it needs depends on the start.
    ``iterations`` and ``skipped_q_evals`` count the last grid's sweeps,
    and ``continuation`` lists (tau_max, delta_max, sweeps) per level.
    """
    grids = _continuation_grids(mdp, opts.ref_state)
    actions = np.zeros(grids[0], dtype=np.int8)
    levels = []
    for shape in grids:
        level = mdp if shape == mdp.shape else mdp.restrict(*shape)
        res = _policy_iteration(level, opts, _prolong(actions, shape))
        levels.append((*shape, res.iterations))
        actions = res.policy.actions
    return replace(res, continuation=tuple(levels))


def _prolong(actions: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The action grid extended to ``shape`` by repeating its last row and
    column: cell (t, d) of the result takes the action of cell
    (min(t, tau_max - 1), min(d, delta_max - 1)) of ``actions``."""
    (t, d), (t_max, d_max) = actions.shape, shape
    return np.pad(actions, ((0, t_max - t), (0, d_max - d)), mode="edge")


def _policy_iteration(mdp: MdpSpec, opts: SolveOptions, actions: np.ndarray) -> SolveResult:
    """Policy iteration from the policy ``actions`` with the monotone
    improvement step.

    For each fixed information age the improvement sweep runs over increasing
    channel age; once transmit is chosen the remaining candidates shrink to
    {transmit, renew}, and once renew is chosen the action is fixed without
    further Q evaluations. Stops when the policy is unchanged. Rounding
    noise in tied Q-factors can make the improvement step cycle among
    equal-gain policies, so it also stops when the step returns a policy it
    has already evaluated, and then returns the evaluated policy with the
    lowest gain. ``skipped_q_evals`` counts the Q-factor evaluations avoided
    by the shrinking action sets.
    """
    skipped = 0
    seen: set[bytes] = set()
    best = None
    for sweep in range(1, opts.max_iter + 1):
        gain, v = policy_evaluate(mdp, Policy(actions=actions), opts.ref_state)
        if best is None or gain < best[0]:
            best = (gain, v, actions)
        seen.add(actions.tobytes())
        # No Q grid outlives its improvement step, so none is alive during
        # the next factorization; the returned policy's grids are recomputed.
        new_actions, skips = _monotone_improvement(*_q_actions(mdp, v))
        skipped += skips
        if new_actions.tobytes() in seen:
            if not np.array_equal(new_actions, actions):
                gain, v, actions = best
            return _finish(
                gain, v, Policy(actions=actions), sweep, _q_actions(mdp, v), skipped_q_evals=skipped
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


def threshold_heuristic(
    mdp: MdpSpec, opts: SolveOptions = SolveOptions(), tau_renew: int | None = None
) -> SolveResult:
    """Best policy that renews whenever the channel age exceeds a threshold.

    For a fixed renewal threshold, alternates policy evaluation with a
    restricted improvement step that only re-optimizes the per-channel-age
    transmission thresholds, kept nonincreasing in the channel age. When
    ``tau_renew`` is None, searches every renewal threshold and returns the
    best: a later threshold replaces the best so far only if its gain is
    lower by more than the float floor of the best's values and gain, so of
    thresholds tied within rounding the smallest wins. The result is the
    optimum of the threshold family, not of the full policy space.
    """
    t_max, _ = mdp.shape
    if tau_renew is not None:
        return _threshold_solve_fixed(mdp, opts, check_tau_renew(tau_renew, t_max))
    best: SolveResult | None = None
    for cand in range(t_max + 1):
        res = _threshold_solve_fixed(mdp, opts, cand)
        if best is None or res.gain < best.gain - _float_floor(best.v, best.gain):
            best = res
    assert best is not None
    return best


def check_tau_renew(tau_renew, t_max: int) -> int:
    """The renewal threshold as an int, if it is an integer in [0, t_max]."""
    if int(tau_renew) != tau_renew or not 0 <= tau_renew <= t_max:
        raise DomainError(f"tau_renew must be an integer in [0, {t_max}], got {tau_renew}")
    return int(tau_renew)


def threshold_actions(d_max, tau_renew, thresholds) -> np.ndarray:
    """Action grid that renews at channel ages above ``tau_renew`` and below
    them transmits from information age ``thresholds[t]`` on, else idles.
    Arguments are not validated; ``sim.threshold_policy`` checks them."""
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
        actions = threshold_actions(d_max, tau_renew, thresholds)
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
    return _finish(gain, v, Policy(actions=actions), sweep, _q_actions(mdp, v))
