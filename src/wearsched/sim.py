"""Monte-Carlo simulation of the age process under a policy, plus the
baseline policy constructors (transmit-always, boundary-renewal, and explicit
threshold policies).

The simulator runs on the decision-epoch timeline; costs accrue per epoch,
and a renewal epoch is additionally accounted as ``delta_r`` slots when
computing the per-slot average. Randomness comes from numpy's PCG64: one
uniform draw is consumed per epoch regardless of the action, so trajectories
are reproducible bit-for-bit from ``(seed, stream)``. Replication r of an
experiment uses ``stream=r``.

The trajectory is walked a window of at most ``CHUNK`` epochs at a time,
cut into segments of ``SEGMENT`` epochs that numpy advances side by side.
Two copies of the chain driven by the same draws agree from the step where
they meet (they couple), so a segment walked from a guessed start is
re-run from its true start only until the re-run meets it; the stitched
segments are the serial trajectory bit for bit. A chain that does not
couple is walked serially, one epoch at a time, as are short windows.

Only the states reachable from (1, 1) under the policy are walked: a
breadth-first search finds them, and the walk's tables, costs and visit
counts have one entry per reachable state. A one-byte mask of the states
seen is the only array with an entry per grid state, so memory and set-up
time grow with the reachable set, not with the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .errors import DomainError, check_integer
from .linear_model import SystemModel, stability_report
from .mdp import Action, MdpSpec, Truncation
from .solvers import Policy, check_tau_renew, threshold_actions

# Number of contiguous batches used for the batch-means standard error.
BATCH_COUNT = 32
# Most draws held at once: the run is walked one window of at most CHUNK
# epochs at a time.
CHUNK = 1 << 17
# Epochs per segment: a window's segments are advanced side by side.
SEGMENT = 512
# Windows cut into fewer segments are walked serially.
MIN_SEGMENTS = 64
# Fix-up passes before the rest of an unsettled window is walked serially.
FIXUP_PASSES = 4
# Re-runs left when this few are still active finish in plain Python.
PY_FINISH = 32
# Steps a re-run advances between looks at whether it has met its stored
# trajectory.
CHECK_EVERY = 16
# Draws the serial loop turns into a list at a time.
_PIECE = 1 << 14


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
    seed, stream = check_integer("seed", seed), check_integer("stream", stream)
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if stream < 0:
        raise DomainError(f"stream index must be nonnegative, got {stream}")
    return np.random.default_rng([seed, stream])


def _serial(hit: list, miss: list, threshold: list, draws: np.ndarray, s: int, out: np.ndarray) -> int:
    """Walk ``len(draws)`` epochs from state ``s`` one at a time, storing the
    visited states in ``out``; return the state after them.

    The loop touches only plain-python lists and floats: one uniform per
    epoch against a per-state threshold, theta for transmit and -1.0 for idle
    and renew (whose sole successor sits in the miss slot), so
    ``u < threshold[s]`` alone picks the branch.
    """
    visited = []
    append = visited.append
    for u in draws.tolist():
        append(s)
        s = hit[s] if u < threshold[s] else miss[s]
    out[:] = visited
    return s


def _finish_serially(lists, U: np.ndarray, S: np.ndarray, c: int, w: int, out: np.ndarray) -> int:
    """Walk a window serially from the start of segment ``c``, whose
    predecessors are settled, into ``out``; return the state after it."""
    L, segments = U.shape
    s = int(S[L, c - 1]) >> 1
    per = max(1, _PIECE // L)
    for c0 in range(c, segments, per):
        lo, hi = c0 * L, min((c0 + per) * L, w)
        s = _serial(*lists, U[:, c0 : c0 + per].T.reshape(-1)[: hi - lo], s, out[lo:hi])
    return s


def _rerun(lists, succ: np.ndarray, thr: np.ndarray, U: np.ndarray, S: np.ndarray, cols: np.ndarray) -> bool:
    """Re-run segments ``cols`` of a window from their starts ``S[0, cols]``;
    return False if the pass gives up.

    A re-run stops once it meets its stored trajectory: the same state and
    the same draws give the same remaining states, so the stored rest of the
    segment, its end included, is then its own. Re-runs advance
    ``CHECK_EVERY`` steps between looks at whether they have met (states
    written after a meeting equal the stored ones), and the last
    ``PY_FINISH`` finish in plain Python. A pass in which fewer than half the
    re-runs have met by the middle of the segment gives up: the chain is not
    coupling, and the stored trajectories of ``cols`` are left part-written.
    """
    L = U.shape[0]
    total = cols.size
    x = S[0, cols]
    k = 0
    while k < L and cols.size > PY_FINISH:
        k1 = min(k + CHECK_EVERY, L)
        run = np.empty((k1 - k, cols.size), dtype=np.int32)
        for j, u in enumerate(U[k:k1][:, cols]):
            x = succ.take(x + (u < thr.take(x)), out=run[j])
        met = x == S[k1, cols]
        S[k + 1 : k1 + 1, cols] = run
        cols, x, k = cols[~met], x[~met], k1
        if 2 * k >= L and 2 * cols.size > total:
            return False
    hit, miss, threshold = lists
    for c, x0 in zip(cols.tolist(), x.tolist()):
        s, new = x0 >> 1, []
        for u, old in zip(U[k:, c].tolist(), S[k + 1 :, c].tolist()):
            s = hit[s] if u < threshold[s] else miss[s]
            if 2 * s == old:
                break
            new.append(2 * s)
        S[k + 1 : k + 1 + len(new), c] = new
    return True


def _window(lists, succ: np.ndarray, thr: np.ndarray, rng: np.random.Generator, w: int, s: int, serial: bool):
    """The ``w`` states visited from state ``s``, as an int32 array in epoch
    order, the state after them, and whether the rest of the run is to be
    walked serially.

    The window's draws are laid out as segments of ``SEGMENT`` consecutive
    epochs, step-major, so that step k of every segment is one row; states
    are held doubled, 2s, so that ``succ[2s + hit]`` is the next one. Pass 1
    advances every segment from ``s``, a guess for all but the first. A
    segment is settled once its start equals its predecessor's end, and then
    so is its trajectory if its predecessors are settled. The fix-up re-runs
    the unsettled segments from their corrected starts (``_rerun``). If the
    window is not settled after ``FIXUP_PASSES`` passes, or a pass gives up,
    its rest is walked serially from the first unsettled segment. A pass
    gives up on a chain that does not couple within a segment, so the rest
    of the run is then walked serially too, as are windows too short to cut
    into ``MIN_SEGMENTS`` segments. Every stored state follows from its
    predecessor by the serial update on the same draw, so the result is the
    serial trajectory bit for bit.
    """
    L = SEGMENT
    segments = -(-w // L)
    if serial or segments < MIN_SEGMENTS:
        out = np.empty(w, dtype=np.int32)
        for lo in range(0, w, _PIECE):
            hi = min(lo + _PIECE, w)
            s = _serial(*lists, rng.random(hi - lo), s, out[lo:hi])
        return out, s, serial
    # Draw in epoch order, 64 KiB at a time; a short last segment's steps
    # past the window are padding whose states are never used. Padding
    # draws are 0, which, like every real draw, lies in [0, 1): it takes
    # only branches of positive probability.
    U = np.zeros((L, segments))
    full, short = divmod(w, L)
    per = max(1, (1 << 13) // L)
    for c0 in range(0, full, per):
        c1 = min(c0 + per, full)
        U[:, c0:c1] = rng.random((c1 - c0, L)).T
    U[:short, full:] = rng.random((short, 1))
    S = np.empty((L + 1, segments), dtype=np.int32)
    S[0] = 2 * s
    for k in range(L):
        succ.take(S[k] + (U[k] < thr.take(S[k])), out=S[k + 1])

    def unsettled():
        return np.flatnonzero(S[0, 1:] != S[L, :-1]) + 1

    cols = unsettled()
    for _ in range(FIXUP_PASSES):
        if not cols.size:
            break
        S[0, cols] = S[L, cols - 1]
        if not _rerun(lists, succ, thr, U, S, cols):
            serial = True
            break
        cols = unsettled()
    if not cols.size:
        del U  # spent: the output takes its place
    out = np.empty(segments * L, dtype=np.int32)
    np.right_shift(S[:L].T, 1, out=out.reshape(segments, L))
    if cols.size:
        return out[:w], _finish_serially(lists, U, S, int(cols[0]), w, out), serial
    return out[:w], int(S[w - (segments - 1) * L, -1]) >> 1, serial


def _walk(hit: list, miss: list, threshold: list, rng: np.random.Generator, sizes: list):
    """Yield the states visited in each of ``len(sizes)`` consecutive runs of
    ``sizes[i]`` epochs from state (1, 1), as int32 arrays.

    The run is walked one window of at most ``CHUNK`` draws at a time
    (``_window``); PCG64 yields the same uniforms in windows as in one call.
    """
    lists = (hit, miss, threshold)
    succ = 2 * np.column_stack([miss, hit]).astype(np.int32).reshape(-1)
    thr = np.repeat(threshold, 2)
    left = sum(sizes)
    win, pos, s, serial = np.empty(0, dtype=np.int32), 0, 0, False
    for size in sizes:
        lo, states = 0, None
        while lo < size:
            if pos == win.size:
                win = None  # released before the next window is walked
                win, s, serial = _window(lists, succ, thr, rng, min(CHUNK, left), s, serial)
                left -= win.size
                pos = 0
            if states is None:  # allocated once the window it starts in is walked
                states = np.empty(size, dtype=np.int32)
            take = min(size - lo, win.size - pos)
            states[lo : lo + take] = win[pos : pos + take]
            lo += take
            pos += take
        yield states


def _reachable(mdp: MdpSpec, actions: np.ndarray) -> np.ndarray:
    """Flat indices of the states the walk can reach from (1, 1) under
    ``actions``, sorted, so (1, 1) comes first.

    A breadth-first search asks ``mdp.successors`` for the successors of
    each level's frontier alone; the one-byte mask of states seen is its
    only array with an entry per grid state.
    """
    seen = np.zeros(mdp.n_states, dtype=bool)
    seen[0] = True
    frontier, levels = np.zeros(1, dtype=np.int64), []
    while frontier.size:
        levels.append(frontier)
        hit, miss, p_hit = mdp.successors(actions, frontier)
        # A draw u in [0, 1) takes the hit if u < p_hit: never when p_hit
        # is 0, always when it is 1.
        nxt = np.unique(np.concatenate([hit[p_hit > 0.0], miss[p_hit < 1.0]]))
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True
    return np.sort(np.concatenate(levels))


def simulate(
    mdp: MdpSpec,
    policy: Policy,
    epochs: int = 100_000,
    seed: int = 0,
    stream: int = 0,
) -> SimStats:
    """Simulate the controlled age process from state (1, 1) and collect
    cost/age statistics.

    Transmission outcomes are drawn with the reliability of the current
    channel age; ages advance exactly as in the MDP kernel (clamped at the
    grid bounds). Identical ``(mdp, policy, epochs, seed, stream)``
    reproduce identical statistics.

    Only the states reachable from (1, 1) are walked (``_reachable``), and
    the histograms, action counts and boundary fraction are rebuilt from
    their coordinates. Memory is O(CHUNK + epochs / BATCH_COUNT + reachable
    states) plus one byte per grid state.
    """
    epochs = check_integer("epochs", epochs)
    if epochs < 1:
        raise DomainError(f"epochs must be >= 1, got {epochs}")
    if policy.shape != mdp.shape:
        raise DomainError(f"policy grid {policy.shape} does not match MDP grid {mdp.shape}")
    rng = replication_rng(seed, stream)

    # The walk runs over the states reachable from (1, 1), each labelled by
    # its rank in ``reach``, so (1, 1) is 0. A branch of probability 0 may
    # lead outside ``reach`` and get a meaningless label: every draw the walk
    # makes, padding included, lies in [0, 1), so it never takes such a branch.
    reach = _reachable(mdp, policy.actions)
    t_max, d_max = mdp.shape
    tau, delta = np.divmod(reach, d_max)
    act = policy.actions[tau, delta]
    cost = mdp.costs(policy.actions, reach)
    succ_hit, succ_miss, p_hit = mdp.successors(policy.actions, reach)

    hit = np.searchsorted(reach, succ_hit).tolist()
    miss = np.searchsorted(reach, succ_miss).tolist()
    threshold = np.where(act == Action.TRANSMIT, p_hit, -1.0).tolist()
    # The batch-means batches, sized as np.array_split would cut the run.
    batches = min(BATCH_COUNT, epochs)
    size, extra = divmod(epochs, batches)
    sizes = [size + 1] * extra + [size] * (batches - extra)

    def walk(rng):
        return _walk(hit, miss, threshold, rng, sizes)

    # One batch of visited states is held at a time: its visits and its mean
    # cost are all the statistics need.
    visits = np.zeros(reach.size, dtype=np.int64)
    means = []
    # The exactly-rounded total below decides whether the run's cost
    # overflows; these batch statistics follow it without numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for states in walk(rng):
            visits += np.bincount(states, minlength=reach.size)
            means.append(cost[states].mean())
        std_error = float(np.std(means, ddof=1) / np.sqrt(batches)) if batches >= 2 else 0.0
    aoi_histogram = np.zeros(d_max, dtype=np.int64)
    np.add.at(aoi_histogram, delta, visits)
    aoc_histogram = np.zeros(t_max, dtype=np.int64)
    np.add.at(aoc_histogram, tau, visits)
    action_counts = np.array([visits[act == u].sum() for u in Action], dtype=np.int64)
    slots = action_counts.sum() + (mdp.channel.delta_r - 1) * action_counts[Action.RENEW]
    boundary = visits[(tau == t_max - 1) | (delta == d_max - 1)].sum()

    # Exactly-rounded summation: with constant costs and a power-of-two epoch
    # count the average is bit-exact. Its fallback to fsum replays the run.
    total_cost = _fsum_counted(
        cost,
        visits,
        lambda: (c for states in walk(replication_rng(seed, stream)) for c in cost[states].tolist()),
    )
    per_epoch = total_cost / epochs
    per_slot = total_cost / int(slots)

    return SimStats(
        epochs=epochs,
        per_epoch_avg_cost=per_epoch,
        per_slot_avg_cost=per_slot,
        std_error=std_error,
        aoi_histogram=aoi_histogram,
        aoc_histogram=aoc_histogram,
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
