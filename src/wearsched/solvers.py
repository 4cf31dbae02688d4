"""Average-cost solvers: relative value iteration, policy evaluation/iteration
with monotone action-set pruning continued from coarse to fine grids, and the
renew-above-a-threshold heuristic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, EvaluationError, NumericalOverflowError, check_integer
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
        object.__setattr__(self, "max_iter", check_integer("max_iter", self.max_iter))
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
        # Checked before the cast, which would wrap 256 to 0 and cut 1.7 to 1;
        # an integer grid is checked by its range alone.
        if a.dtype.kind in "iu":
            valid = a.size == 0 or (a.min() >= 0 and a.max() <= 2)
        else:
            valid = np.isin(a, (0, 1, 2)).all()
        if not valid:
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
    grid it solved, coarsest first. ``skipped_q_evals`` is the paper's count
    of the comparisons SPI's monotone action sets prune; the backup computes
    every action's Q-factor anyway, so it counts no work saved.
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


def _shift_slices(shift: np.ndarray) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """A clamped age shift min(i + k, n - 1), k = shift[0], as two
    (destination, source) slice pairs along its axis: the first n - k ages
    read the ages from k on, and the rest read the last age."""
    m = len(shift) - int(shift[0])
    return (slice(None, m), slice(-m, None)), (slice(m, None), slice(-1, None))


def _backup(mdp: MdpSpec, v: np.ndarray, costs, out, v_up: np.ndarray) -> None:
    """Q-values of idle, transmit and renew at v, written into the three
    grids of ``out``; ``costs`` holds the matching (tau_max, delta_max) cost
    grids and ``v_up`` is scratch space of v's shape. v may carry leading
    batch axes, which ``out`` and ``v_up`` share, and every member of the
    batch is backed up by the same operations as alone. Every age shift of
    the kernel is read by slices (``_shift_slices``), with no index gather."""
    (c_idle, c_tx, c_renew), (q_idle, q_tx, q_renew) = costs, out
    theta = mdp.theta[:, None]
    for dst, src in _shift_slices(mdp.delta_up):
        v_up[..., dst] = v[..., src]  # v at (t, delta_up[d])
    for dst, src in _shift_slices(mdp.tau_idle):
        np.add(c_idle[dst], v_up[..., src, :], out=q_idle[..., dst, :])
    for dst, src in _shift_slices(mdp.tau_tx):
        q = q_tx[..., dst, :]
        np.multiply(1.0 - theta[dst], v_up[..., src, :], out=q)
        q += theta[dst] * v[..., src, :1]
        q += c_tx[dst]
    for dst, src in _shift_slices(mdp.delta_renew):
        np.add(c_renew[:, dst], v[..., :1, src], out=q_renew[..., dst])


def q_backup(mdp: MdpSpec, v: np.ndarray) -> np.ndarray:
    """One-step lookahead Q(s, u) = c(s, u) + sum_s' P(s'|s, u) v(s')."""
    q = np.empty((*mdp.shape, 3))
    _backup(mdp, v, np.moveaxis(mdp.cost_table, 2, 0), np.moveaxis(q, 2, 0), np.empty(mdp.shape))
    return q


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
    # Buffers every iteration reuses, and the cost grids as contiguous copies.
    q = np.empty((3, *mdp.shape))
    v_up, diff = np.empty(mdp.shape), np.empty(mdp.shape)
    costs = np.moveaxis(mdp.cost_table, 2, 0).copy()
    history: list[float] = []
    for n in range(1, opts.max_iter + 1):
        _backup(mdp, v, costs, q, v_up)
        np.minimum(q[0], q[1], out=diff)
        np.minimum(diff, q[2], out=diff)
        diff -= v
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
            del costs, v_up, diff  # not alive while q is restacked
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


class Evaluation(tuple):
    """What ``policy_evaluate`` returns: the pair (gain, v), v anchored at
    v[ref] == 0, carrying the policy's Q-factors at v as ``q``, three
    (tau_max, delta_max) grids from the one backup ``_evaluate_stack`` makes
    of every evaluated policy, which serves the residual gate and the
    improvement step."""

    q: np.ndarray

    def __new__(cls, gain: float, v: np.ndarray, q: np.ndarray):
        ev = super().__new__(cls, (gain, v))
        ev.q = q
        return ev

    @property
    def gain(self) -> float:
        return self[0]

    @property
    def v(self) -> np.ndarray:
        return self[1]


def policy_evaluate(
    mdp: MdpSpec, policy: Policy, ref_state: AgeState = AgeState(1, 1)
) -> Evaluation:
    """Gain and relative value of a stationary policy, with its Q-factors.

    Solves gain + v(s) = c(s, policy(s)) + sum_s' P(s'|s) v(s') subject to
    v(ref_state) = 0 by back-substitution over the channel age
    (``_renewal_closed_solve``), whatever the policy, so it loads no scipy.
    The solution ends in one backup and residual gate (``_evaluate_stack``),
    which raise ``EvaluationError`` for a singular or ill-conditioned system.
    """
    if policy.shape != mdp.shape:
        raise DomainError(f"policy grid {policy.shape} does not match MDP grid {mdp.shape}")
    [ev] = _evaluate_stack(mdp, policy.actions[None], mdp.state_index(ref_state), _renewal_closed_solve)
    return ev


def _evaluate_stack(mdp: MdpSpec, actions: np.ndarray, ref: int, solve) -> list[Evaluation]:
    """The evaluations of a (B, tau_max, delta_max) stack of policies.

    ``solve(mdp, actions, ref)`` returns the B gains, the B value grids with
    v[ref] == 0, and ``condition``, which gives member b's condition
    estimate when called with b. One backup of the stack at v gives each
    member's Q grids. The gate reads the residual max|Q_pi(v) - v - gain|
    off them: for the sparse system, whose row s reads
    v(s) + gain - sum_s' P(s'|s) v(s') = c(s), that is b - M x. A member
    whose residual is above 1e-8 of 1 + max cost, or not finite, refuses
    the stack. The gate cannot tell a multichain policy from values too
    large for their differences to resolve, so its message names both.
    """
    gain, v, condition = solve(mdp, actions, ref)
    n, (t_max, d_max) = len(actions), mdp.shape
    q = np.empty((n, 3, t_max, d_max))
    _backup(mdp, v, np.moveaxis(mdp.cost_table, 2, 0), q.swapaxes(0, 1), np.empty(v.shape))
    cells = np.arange(t_max)[:, None], np.arange(d_max)
    resid = q[(np.arange(n)[:, None, None], actions, *cells)] - v - gain[:, None, None]
    rel = np.abs(resid).max(axis=(1, 2)) / (1.0 + np.abs(mdp.cost_table[(*cells, actions)]).max(axis=(1, 2)))
    passed = rel <= 1e-8  # false where rel is nan
    if not passed.all():
        b = int(passed.argmin())
        cond = condition(b)
        raise EvaluationError(
            f"policy evaluation system is ill-conditioned "
            f"(relative residual {rel[b]:.3e}, condition estimate {cond:.3e}); "
            "the policy chain may be multichain, or its values too large for "
            "float64 to resolve their differences",
            condition_estimate=cond,
        )
    return [Evaluation(float(gain[b]), v[b], q[b]) for b in range(n)]


def _dense_condition(border: np.ndarray) -> float:
    try:
        return float(np.linalg.cond(border))
    except np.linalg.LinAlgError:
        return float("inf")


# Bound on the working set of one batch of renewal-closed evaluations
# (``_eval_batch_size``). On benchmark-marginal that is 8 policies at
# 80 x 80, 2 at 160 x 160 and one from 165 x 165 on.
EVAL_BATCH_BYTES = 8 * 2**20
# Arrays of 8-byte entries per cell that a batch member holds besides its
# row maps: costs, successor indices and probabilities, v, its scratch
# copy, the three Q grids and the residual's temporaries.
_EVAL_CELL_ARRAYS = 12


def _eval_batch_size(mdp: MdpSpec) -> int:
    """How many renewal-closed policies one ``_evaluate_stack`` call takes:
    as many as keep the batch's working set, the row maps of
    ``_renewal_closed_solve`` at the largest ring the kernel allows and the
    gate's backup and residual, under EVAL_BATCH_BYTES. A policy that
    does not renew along the whole last channel age is evaluated alone, by
    ``policy_evaluate``."""
    t_max, d_max = mdp.shape
    reach = int((np.maximum(mdp.tau_idle, mdp.tau_tx) - np.arange(t_max)).max())
    ring = max(1, reach) + 2
    width = d_max - int(mdp.delta_renew[0]) + 2
    per_policy = 8 * d_max * (ring * width + _EVAL_CELL_ARRAYS * t_max)
    return max(1, EVAL_BATCH_BYTES // per_policy)


def _members(mask: np.ndarray) -> slice | np.ndarray:
    """The batch members ``mask`` selects: a slice if they are consecutive,
    else their indices."""
    sel = np.flatnonzero(mask)
    if sel[-1] - sel[0] == len(sel) - 1:
        return slice(sel[0], sel[-1] + 1)
    return sel


def _renewal_closed_solve(mdp: MdpSpec, actions: np.ndarray, ref: int):
    """``_evaluate_stack``'s solve for a (B, tau_max, delta_max) stack of
    policies, by back-substitution over the channel age. Each member of a
    renewal-closed stack, one whose members all renew at every cell of the
    last channel age, gets the bits it would get alone.

    Below the last channel age idle and transmit move to a strictly larger
    channel age and only renew returns to the first. Along the last channel
    age idle and a failed transmission move to the next information age, a
    delivery lands on (tau_max, 1) and renew reads row 1. So each row of
    values is an affine map, a (D, D + 2) matrix, of z = (v(1, .), gain, 1)
    for a renewal-closed stack, and a (D, D + 4) matrix of
    z = (v(1, .), v(tau_max, 1), v(tau_max, delta_max), gain, 1) for any
    other (an open stack), whose last row is solved first, in descending
    information age from v(tau_max, delta_max). Built from the top down,
    row t's map combines rows of the maps of rows at most ``w`` channel ages
    above it, so a ring buffer of w + 1 maps holds all that is alive. The
    rows of the all-renew block from ``r`` on read v(1, .) alone: only the
    lowest w of them get a map, for the rows below to read. The batch shares
    the largest ring and the highest such block top; a member's rows above
    its own top renew, and none of its rows reads them. Every map reads
    v(1, .) only at the information ages renew reaches, so its columns below
    the first of them are exactly +0.0 and are not kept.

    The D equations of row 1, those of v(tau_max, 1) and of the clamped
    corner v(tau_max, delta_max) for an open stack, and v(1, 1) = 0 close a
    dense (D + 1)- or (D + 3)-square border system; a second pass down the
    rows recovers v, which is then shifted to v(ref) = 0. An open stack's
    solution takes one step of iterative refinement, as the sparse LU path
    does: the maps' constant column alone is rebuilt for the residual's
    costs, and the correction is recovered the same way.
    """
    n, (t_max, d_max) = len(actions), mdp.shape
    idle, tx, renew = (actions == u for u in (Action.IDLE, Action.TRANSMIT, Action.RENEW))
    cells = np.arange(t_max)[:, None], np.arange(d_max)
    cost = mdp.cost_table[(*cells, actions)]
    # 1 for an open stack, whose last row adds two unknowns, else 0.
    open_ = int(not renew[:, -1].all())
    # Rows from r on renew everywhere, and read only v(1, .).
    r = np.maximum(1, np.count_nonzero(~np.logical_and.accumulate(renew.all(axis=2)[:, ::-1], axis=1), axis=1))
    reach = np.maximum.accumulate(np.maximum(mdp.tau_idle, mdp.tau_tx) - np.arange(t_max))
    w = np.maximum(1, reach[r - 1])
    own_top = np.minimum(r + w, t_max)
    k, top = int(w.max()) + 1, int(own_top.max())
    # Row t's map is built for the members from skip[t] on: those before it
    # have their own top at or below t, and none of their rows reads row t.
    skip = np.logical_and.accumulate(own_top <= np.arange(top)[:, None], axis=1).sum(axis=1)
    # Cell (t, d) moves to (succ_t, succ_d), or with probability hit[t, d]
    # (transmit cells only) to (tau_tx[t], 1).
    idle, tx, renew = idle[:, :top], tx[:, :top], renew[:, :top]
    succ_t = np.where(idle, mdp.tau_idle[:top, None], np.where(tx, mdp.tau_tx[:top, None], 0))
    succ_d = np.where(renew, mdp.delta_renew, mdp.delta_up)
    hit = np.where(tx, mdp.theta[:top, None], 0.0)
    miss = 1.0 - hit
    # The members with a transmit cell in row t (a slice when they are
    # consecutive, as a window of ascending thresholds makes them) and the
    # information ages from the first to the last such cell. Outside the
    # transmit cells of that span hit is 0 and miss 1, so updating the
    # whole span changes no bit of a finite map, which holds no -0.0.
    tx_rows, tx_ages = tx.any(axis=2).T, tx.any(axis=0)
    first, stop = tx_ages.argmax(axis=1), d_max - tx_ages[:, ::-1].argmax(axis=1)
    tx_span = [
        (_members(m), slice(a, b)) if m.any() else None for m, a, b in zip(tx_rows, first.tolist(), stop.tolist())
    ]
    members = np.arange(n)[:, None, None]
    # Flat indices of the successors into the ring of maps below, and into v.
    src = (np.where(renew, k, succ_t % k) * n + members) * d_max + succ_d
    succ = (members * t_max + succ_t) * d_max + succ_d
    # A renew cell's map is the identity row of v(1, delta_renew[d]) but
    # for its gain and constant columns. Where row t's slot still holds a
    # renew cell's map of the same member and age, from row t + k, only those
    # two columns are reset (``kept``), and the rest of the row is gathered.
    ring_top = top - open_  # the ring loop builds rows below it
    built = np.arange(n) >= skip[:, None]
    held = np.zeros((n, top + k, d_max), dtype=bool)
    held[:, :ring_top] = renew[:, :ring_top] & built[:ring_top].T[:, :, None]
    if open_:
        held[:, -1 - k, :-1] = renew[:, -1, :-1]
    kept = renew[:, :ring_top] & held[:, k : k + ring_top] & built[:ring_top].T[:, :, None]
    plan = [None] * ring_top
    for t in np.flatnonzero(kept.any(axis=(0, 2))):
        fresh = np.flatnonzero(built[t][:, None] & ~kept[:, t])
        plan[t] = fresh, src[:, t].reshape(-1)[fresh], np.flatnonzero(kept[:, t])
    del idle, tx, renew, succ_t, succ_d, held, kept

    # A map keeps the columns of v(1, c0:), then those of v(tau_max, 1) and
    # v(tau_max, delta_max) for an open stack, the gain and the constant.
    c0 = int(mdp.delta_renew[0])
    a_col = d_max - c0
    g_col = a_col + 2 * open_
    size = d_max + 2 * open_  # border unknowns besides the gain

    def row_maps(costs, width):
        """Row 1's maps and those of the last row's two equations, for the
        cell costs ``costs``: all ``width`` = g_col + 2 columns, or only the
        constant one (width 1). maps[t % k, b] is member b's map of row t
        while the rows below it need it; maps[k] is the map of row 1, the
        identity, which renew cells read."""
        whole = width > 1
        maps = np.zeros((k + 1, n, d_max, width))
        if whole:
            maps[k, :, c0:, :a_col] = np.eye(d_max - c0)
        flat = maps.reshape(-1, width)
        eqs = np.zeros((n, 2 * open_, width))
        if open_:
            last = maps[(t_max - 1) % k]
            if whole:
                last[:, -1, a_col + 1] = 1.0
            # The corner's map, read off its self-loop, is its equation;
            # every other cell's map is its value.
            outs = [eqs[:, 1]] + [last[:, d] for d in range(d_max - 2, -1, -1)]
            for d, out in zip(range(d_max - 1, -1, -1), outs):
                np.multiply(flat[src[:, -1, d]], miss[:, -1, d, None], out=out)
                if whole:
                    out[:, a_col] += hit[:, -1, d]
                    out[:, g_col] -= 1.0
                out[:, -1] += costs[:, -1, d]
            eqs[:, 0] = last[:, 0]
        for t in range(ring_top - 1, -1, -1):
            slot, lo = maps[t % k], skip[t]
            out = slot[lo:]
            if plan[t] is None:
                np.take(flat, src[lo:, t], axis=0, out=out)
            else:
                fresh, fresh_src, kept = plan[t]
                rows = slot.reshape(-1, width)
                rows[fresh] = flat[fresh_src]
                rows[kept, -1] = 0.0
                if whole:
                    rows[kept, g_col] = 0.0
            if tx_span[t] is not None:
                sel, span = tx_span[t]
                slot[sel, span] *= miss[sel, t, span, None]
                slot[sel, span] += hit[sel, t, span, None] * maps[mdp.tau_tx[t] % k, sel, :1]
            if whole:
                out[:, :, g_col] -= 1.0
            out[:, :, -1] += costs[lo:, t]
        return maps[0], eqs

    # Every member renews everywhere from row max(r) on; a member's own rows
    # from its r up to there go through the loop as renew rows, to the same
    # bits.
    r_max = int(r.max())

    def values(costs, x):
        """v from the border solution x, for the cell costs ``costs``."""
        gain = x[:, size, None]
        v = np.empty(actions.shape)
        v[:, 0] = x[:, :d_max]
        v[:, r_max:] = costs[:, r_max:] - gain[:, :, None] + v[:, :1, mdp.delta_renew]
        v_flat = v.reshape(-1)
        if open_ and t_max > 1:
            v[:, -1, -1] = x[:, d_max + 1]
            for d in range(d_max - 2, -1, -1):
                nxt = v_flat[succ[:, -1, d]] * miss[:, -1, d] + hit[:, -1, d] * x[:, d_max]
                v[:, -1, d] = costs[:, -1, d] - gain[:, 0] + nxt
        for t in range(r_max - 1 - open_, 0, -1):
            nxt = v_flat[succ[:, t]] * miss[:, t]
            if tx_span[t] is not None:
                sel, span = tx_span[t]
                nxt[sel, span] += hit[sel, t, span] * v[sel, mdp.tau_tx[t], :1]
            v[:, t] = costs[:, t] - gain + nxt
        return v

    # Row 1 reads v(1, .) = M[:, :D] v(1, .) + M[:, D] gain + M[:, D + 1],
    # and the last row's two unknowns read their own maps likewise.
    m1, eqs = row_maps(cost, g_col + 2)
    border = np.zeros((n, size + 1, size + 1))
    np.negative(border[:, :d_max, :c0], out=border[:, :d_max, :c0])
    np.negative(m1[:, :, : g_col + 1], out=border[:, :d_max, c0:])
    np.negative(eqs[:, :, : g_col + 1], out=border[:, d_max:size, c0:])
    border[:, np.arange(size), np.arange(size)] += 1.0
    border[:, size, 0] = 1.0
    rhs = np.zeros((n, size + 1, 1))
    rhs[:, :d_max, 0] = m1[:, :, -1]
    rhs[:, d_max:size, 0] = eqs[:, :, -1]
    del m1, eqs

    try:
        if open_:
            factors = [_border_lu(m.copy()) for m in border]
            x = np.stack([_border_lu_solve(*f, b) for f, b in zip(factors, rhs[:, :, 0])])
        else:
            x = np.linalg.solve(border, rhs)[:, :, 0]
    except np.linalg.LinAlgError as exc:  # some member is exactly singular
        cond = max(map(_dense_condition, border))
        raise EvaluationError(
            f"policy evaluation system is singular (condition estimate {cond:.3e}): {exc}",
            condition_estimate=cond,
        ) from exc
    v = values(cost, x)
    if open_:
        # The residual c + P v - v - gain is the cost of the correction.
        v_flat = v.reshape(-1)
        resid = cost - x[:, size, None, None] + v_flat[succ] * miss + hit * v[:, mdp.tau_tx, :1] - v
        m1, eqs = row_maps(resid, 1)
        rhs = np.zeros((n, size + 1))
        rhs[:, :d_max], rhs[:, d_max:size] = m1[:, :, 0], eqs[:, :, 0]
        dx = np.stack([_border_lu_solve(*f, b) for f, b in zip(factors, rhs)])
        v += values(resid, dx)
        x[:, size] += dx[:, size]
    v -= v.reshape(n, -1)[:, ref, None, None].copy()
    return x[:, size], v, lambda b: _dense_condition(border[b])


def _border_lu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors of the square matrix ``a`` by Gaussian elimination with
    partial pivoting, in place: (a, order) with a[order] = L U, L unit lower
    triangular below a's diagonal and U on and above it. Each step updates
    only the rows and columns where the pivot's column and row are nonzero,
    so a sparse border costs a few numpy calls per row; and it runs on the
    calling thread, where a multithreaded LAPACK factorization can stall for
    a scheduler period. A zero pivot raises ``LinAlgError``."""
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


def _border_lu_solve(lu: np.ndarray, order: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution x of A x = b from ``_border_lu``'s factors of A."""
    x = b[order]
    for j in range(len(x) - 1):
        x[j + 1 :] -= lu[j + 1 :, j] * x[j]
    for j in range(len(x) - 1, -1, -1):
        x[j] /= lu[j, j]
        x[:j] -= lu[:j, j] * x[j]
    return x


def _lu_solve(mdp: MdpSpec, actions: np.ndarray, ref: int):
    """``_evaluate_stack``'s solve for a stack of one policy of any kind, by
    a direct sparse factorization of the whole evaluation system and one
    step of iterative refinement. Only the threshold heuristic uses it, for
    the tables that renew nowhere (``_threshold_evaluate``)."""
    from scipy.sparse.linalg import splu

    [actions] = actions  # a stack of one
    n = mdp.n_states
    # Only the system and the cost vector stay alive while splu allocates
    # its workspace: the assembly arrays die inside _evaluation_matrix.
    m = _evaluation_matrix(mdp, actions, ref)
    b = mdp.cost_table.reshape(n, 3)[np.arange(n), actions.reshape(-1)]

    try:
        lu = splu(m)
        x = lu.solve(b)
    except RuntimeError as exc:  # exactly singular factorization
        raise EvaluationError(
            f"policy evaluation system is singular (condition estimate inf): {exc}",
            condition_estimate=float("inf"),
        ) from exc

    x = x + lu.solve(b - m @ x)  # one step of iterative refinement
    v = np.insert(x[:-1], ref, 0.0)
    return x[-1:], v.reshape(1, *mdp.shape), lambda _: _condition_estimate(m, lu)


def _evaluation_matrix(mdp: MdpSpec, actions: np.ndarray, ref: int) -> scipy.sparse.csc_matrix:
    """The n x n evaluation system of a policy: row s reads
    v(s) + gain - sum_s' P(s'|s) v(s'), with v(ref) dropped from the
    unknowns and the gain in the last column.

    Row s owns at most four entries, in this order: diag, gain, hit, miss.
    They are built in (n, 4) blocks; where a clamped self-loop puts two or
    three in one column, ``sum_duplicates`` adds them in that order."""
    from scipy.sparse import csr_matrix

    n = mdp.n_states
    hit, miss, p_hit = mdp.successors(actions)
    cols = np.empty((n, 4), dtype=np.int32)
    cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3] = np.arange(n), n, hit, miss
    keep = np.ones((n, 4), dtype=bool)
    keep[ref, 0] = False
    keep[:, 2], keep[:, 3] = (p_hit > 0) & (hit != ref), (1.0 - p_hit > 0) & (miss != ref)
    vals = np.ones((n, 4))
    vals[:, 2], vals[:, 3] = -p_hit, -(1.0 - p_hit)
    del hit, miss, p_hit
    cols -= cols > ref  # v(ref) is not an unknown, and the gain moves to column n - 1
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    m = csr_matrix((vals[keep], cols[keep], indptr), shape=(n, n))
    del cols, vals, keep  # freed before the CSC copy is made
    m = m.tocsc()
    m.sum_duplicates()
    return m


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
    """Import the modules the threshold heuristic's sparse factorization
    (``_lu_solve``) needs. A process that forks workers which run the
    heuristic calls this first, so that the workers inherit the modules
    instead of each importing them."""
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
    lowest gain, evaluated once more. ``skipped_q_evals`` counts the
    comparisons the shrinking action sets prune.
    """
    skipped = 0
    seen: set[bytes] = set()
    best = None
    for sweep in range(1, opts.max_iter + 1):
        ev = policy_evaluate(mdp, Policy(actions=actions), opts.ref_state)
        if best is None or ev.gain < best[0]:
            best = (ev.gain, actions)
        seen.add(actions.tobytes())
        new_actions, skips = _monotone_improvement(*ev.q)
        skipped += skips
        if new_actions.tobytes() in seen:
            if not np.array_equal(new_actions, actions):
                actions = best[1]
                del ev  # not alive while the earlier policy is refactorized
                ev = policy_evaluate(mdp, Policy(actions=actions), opts.ref_state)
            return _finish(ev.gain, ev.v, Policy(actions=actions), sweep, ev.q, skipped_q_evals=skipped)
        actions = new_actions
        # No Q grid outlives its improvement step, so none is alive during
        # the next factorization.
        del ev
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
    the smaller action. Each cell prunes the comparisons its predecessor's
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
    thresholds tied within rounding the smallest wins. The thresholds are
    searched side by side in batched rounds (``_threshold_candidates``),
    with the result of searching them one after another. The result is the
    optimum of the threshold family, not of the full policy space.
    """
    t_max, _ = mdp.shape
    if tau_renew is not None:
        taus = [check_tau_renew(tau_renew, t_max)]
    else:
        taus = list(range(t_max + 1))
    best, *rest = _threshold_candidates(mdp, opts, taus)
    for it in rest:
        if it.gain < best.gain - best.floor:
            best = it
    ev = _threshold_evaluate(mdp, best.policy, opts.ref_state)
    return _finish(ev.gain, ev.v, best.policy, best.iterations, ev.q)


def _threshold_evaluate(mdp: MdpSpec, policy: Policy, ref_state: AgeState) -> Evaluation:
    """``policy_evaluate`` for the threshold heuristic. A table that renews
    nowhere goes to the sparse factorization instead: the 16 x 16 benchmark
    references pin which of two such tables, whose gains tie within 1 ulp,
    wins, and that tie is decided by sparse LU's rounding. Once those
    references are re-recorded under a tie rule, this selector goes."""
    if (policy.actions == Action.RENEW).any():
        return policy_evaluate(mdp, policy, ref_state)
    [ev] = _evaluate_stack(mdp, policy.actions[None], mdp.state_index(ref_state), _lu_solve)
    return ev


def check_tau_renew(tau_renew, t_max: int) -> int:
    """The renewal threshold as an int, if it is an integer in [0, t_max]."""
    tau = check_integer("tau_renew", tau_renew)
    if not 0 <= tau <= t_max:
        raise DomainError(f"tau_renew must be an integer in [0, {t_max}], got {tau_renew!r}")
    return tau


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


class _Iterate(NamedTuple):
    """An evaluated policy of the threshold heuristic, with its fields named
    as in ``SolveResult``: ``iterations`` is the sweep that evaluated it, and
    ``floor`` is ``_float_floor`` of its values and gain."""

    gain: float
    policy: Policy
    iterations: int
    floor: float


class _Candidate:
    """The run of the threshold heuristic at one renewal threshold: its
    transmit thresholds, the tables it has evaluated and its best iterate."""

    def __init__(self, tau_renew: int, t_max: int):
        self.tau_renew = tau_renew
        self.thresholds = [1] * t_max
        self.seen: set[tuple[int, ...]] = set()
        self.best: _Iterate | None = None
        self.sweeps = 0
        self.done = False

    def improve(self, ev: Evaluation, policy: Policy, sweep_cap: int) -> None:
        """Takes the evaluation of the current table, then steps to the next
        one, or finishes at a fixed point, a table seen before or the cap."""
        self.sweeps += 1
        self.seen.add(tuple(self.thresholds))
        if self.best is None or ev.gain < self.best.gain:
            self.best = _Iterate(ev.gain, policy, self.sweeps, _float_floor(ev.v, ev.gain))
        new = _transmit_thresholds(ev.q[0], ev.q[1], self.tau_renew) + self.thresholds[self.tau_renew :]
        self.done = new == self.thresholds or tuple(new) in self.seen or self.sweeps == sweep_cap
        self.thresholds = new


def _threshold_candidates(mdp: MdpSpec, opts: SolveOptions, taus: list[int]) -> list[_Iterate]:
    """The best evaluated iterate of the threshold heuristic at each renewal
    threshold of the ascending list ``taus``.

    The runs advance in rounds over a window of the lowest unfinished
    thresholds, ``_eval_batch_size`` of them: each round evaluates the
    window's renewal-closed tables as one batch, and the table that never
    renews by itself. A finished run leaves its place to the next threshold.
    """
    t_max = mdp.shape[0]
    sweep_cap = min(opts.max_iter, _THRESHOLD_SWEEP_CAP)
    size = _eval_batch_size(mdp)
    runs = [_Candidate(tau, t_max) for tau in taus]
    window: list[_Candidate] = []
    queue = iter(runs)
    while True:
        window += itertools.islice(queue, size - len(window))
        if not window:
            break
        _advance(mdp, window, opts.ref_state, sweep_cap)
        window = [c for c in window if not c.done]
    return [c.best for c in runs]


def _advance(mdp: MdpSpec, window: list[_Candidate], ref_state: AgeState, sweep_cap: int) -> None:
    """One round: evaluates the current table of every run in the window and
    improves it. The table that never renews is factorized first, while no
    batch's grids are alive."""
    t_max, d_max = mdp.shape
    closed = []
    for c in window:
        policy = Policy(actions=threshold_actions(d_max, c.tau_renew, c.thresholds))
        if c.tau_renew == t_max:
            c.improve(_threshold_evaluate(mdp, policy, ref_state), policy, sweep_cap)
        else:
            closed.append((c, policy))
    if closed:
        stack = np.stack([policy.actions for _, policy in closed])
        evs = _evaluate_stack(mdp, stack, mdp.state_index(ref_state), _renewal_closed_solve)
        for (c, policy), ev in zip(closed, evs):
            c.improve(ev, policy, sweep_cap)

