"""Linear Gaussian plant/sensor model and its steady-state filter quantities.

Provides the steady-state posterior error covariance of the sensor-side
filter, the estimation MSE as a function of information age, and the
mean-square stability conditions that govern when renewal is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .errors import ConvergenceError, DomainError, InvalidModelError, NumericalOverflowError

# Singular values below this fraction of the largest one count as zero in
# rank tests.
RANK_RTOL = 1e-9
# Stopping rule of ``steady_state``: the Frobenius step below which the
# covariance recursion has converged, and the most steps it may take.
STEADY_STATE_TOL = 1e-12
STEADY_STATE_MAX_ITER = 100_000


def _as_matrix(x, name: str) -> np.ndarray:
    m = np.array(x, dtype=float)
    if m.ndim != 2:
        raise InvalidModelError(f"{name} must be a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InvalidModelError(f"{name} contains non-finite entries")
    m.flags.writeable = False
    return m


def _rank(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def _psd_sqrt(q: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(q)
    return u @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ u.T


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    m = _as_matrix(a, "A")
    if m.shape[0] != m.shape[1]:
        raise InvalidModelError(f"A must be square, got shape {m.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


@dataclass(frozen=True)
class SystemModel:
    """Discrete-time linear Gaussian system x' = A x + w, y = C x + v.

    Q is the process-noise covariance (symmetric PSD), R the measurement-noise
    covariance (symmetric PD). Construction checks observability of (A, C) and
    controllability of (A, sqrt(Q)); controllability deficiency is tolerated
    when A is strictly stable, where the filter recursion converges regardless.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        a = _as_matrix(self.A, "A")
        c = _as_matrix(self.C, "C")
        q = _as_matrix(self.Q, "Q")
        r = _as_matrix(self.R, "R")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "R", r)

        l = a.shape[0]
        if a.shape != (l, l):
            raise InvalidModelError(f"A must be square, got shape {a.shape}")
        if c.shape[1] != l:
            raise InvalidModelError(f"C must have {l} columns, got shape {c.shape}")
        m = c.shape[0]
        if q.shape != (l, l):
            raise InvalidModelError(f"Q must be {l}x{l}, got shape {q.shape}")
        if r.shape != (m, m):
            raise InvalidModelError(f"R must be {m}x{m}, got shape {r.shape}")

        scale_q = max(1.0, float(np.abs(q).max()))
        if not np.allclose(q, q.T, atol=1e-10 * scale_q):
            raise InvalidModelError("Q must be symmetric")
        if np.linalg.eigvalsh(q).min() < -1e-10 * scale_q:
            raise InvalidModelError("Q must be positive semidefinite")
        scale_r = max(1.0, float(np.abs(r).max()))
        if not np.allclose(r, r.T, atol=1e-10 * scale_r):
            raise InvalidModelError("R must be symmetric")
        if np.linalg.eigvalsh(r).min() <= 1e-12 * scale_r:
            raise InvalidModelError("R must be positive definite")

        obs = np.vstack([c @ np.linalg.matrix_power(a, k) for k in range(l)])
        if _rank(obs) < l:
            raise InvalidModelError("(A, C) is not observable (observability matrix rank-deficient)")
        b = _psd_sqrt(q)
        ctr = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(l)])
        if _rank(ctr) < l and spectral_radius(a) >= 1.0:
            raise InvalidModelError(
                "(A, sqrt(Q)) is not controllable and A is not strictly stable"
            )

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]


def riccati_step(model: SystemModel, p: np.ndarray) -> np.ndarray:
    """One measurement-updated covariance recursion step.

    prior = A P A' + Q;  gain = prior C' (C prior C' + R)^-1;
    posterior = (I - gain C) prior.
    """
    prior = model.A @ p @ model.A.T + model.Q
    innov = model.C @ prior @ model.C.T + model.R
    gain = prior @ model.C.T @ np.linalg.inv(innov)
    return (np.eye(model.state_dim) - gain @ model.C) @ prior


def steady_state(model: SystemModel) -> np.ndarray:
    """Read-only fixed point P̄ of the measurement-updated covariance
    recursion.

    Iterates from the zero matrix until the Frobenius norm of successive
    iterates falls below ``STEADY_STATE_TOL``, for at most
    ``STEADY_STATE_MAX_ITER`` steps.
    """
    p = np.zeros((model.state_dim, model.state_dim))
    residual = np.inf
    for _ in range(STEADY_STATE_MAX_ITER):
        nxt = riccati_step(model, p)
        residual = float(np.linalg.norm(nxt - p, "fro"))
        p = nxt
        if residual < STEADY_STATE_TOL:
            p = (p + p.T) / 2.0
            p.flags.writeable = False
            return p
    raise ConvergenceError(
        f"covariance recursion did not converge in {STEADY_STATE_MAX_ITER} iterations "
        f"(last residual {residual:.3e})",
        residual=residual,
    )


def mse_table(model: SystemModel, p_bar: np.ndarray, delta_max: int) -> np.ndarray:
    """MSE-versus-age table via the covariance recurrence P -> A P A' + Q.

    Starts from the steady-state posterior covariance ``p_bar``; entry ``k`` of the
    returned read-only array is the MSE at information age k+1, the trace
    after k+1 recurrence steps. Raises on overflow to non-finite values,
    naming the first offending age.
    """
    if delta_max < 1:
        raise DomainError("delta_max must be >= 1")
    values = np.empty(delta_max)
    p = p_bar
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(1, delta_max + 1):
            p = model.A @ p @ model.A.T + model.Q
            t = float(np.trace(p))
            if not np.isfinite(t) or not np.all(np.isfinite(p)):
                raise NumericalOverflowError(
                    f"MSE overflowed to non-finite values at age {d}", first_offending_index=d
                )
            values[d - 1] = t
    scale = max(1.0, float(np.abs(values).max()))
    if np.any(np.diff(values) < -1e-12 * scale):
        raise InvalidModelError("MSE values must be nondecreasing in the age")
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class StabilityReport:
    """Mean-square stability conditions for a model/channel pair.

    ``stable_without_renewal``: rho^2 (1 - theta_min) < 1, so the system can
    be stabilized without ever renewing. ``stabilizable_with_renewal``:
    rho^2 (1 - theta_max) < 1, so renewal suffices for stability.
    ``stable_tau_bound`` is the largest channel age whose reliability keeps
    rho^2 (1 - theta(tau)) < 1 (None if no age qualifies);
    ``stable_region_all`` flags that every age qualifies.
    """

    rho: float
    stable_without_renewal: bool
    stabilizable_with_renewal: bool
    stable_tau_bound: int | None
    stable_region_all: bool


def stability_report(model: SystemModel, channel: ChannelModel) -> StabilityReport:
    """Evaluate the stability inequalities and the stable-region boundary."""
    rho = spectral_radius(model.A)
    rho2 = rho * rho
    without = rho2 * (1.0 - channel.theta_min) < 1.0
    with_renewal = rho2 * (1.0 - channel.theta_max) < 1.0

    def stable(tau: int) -> bool:
        return rho2 * (1.0 - channel.reliability(tau)) < 1.0

    if without:
        # 1 - theta(tau) <= 1 - theta_min for every age, hence all ages stable.
        return StabilityReport(rho, without, with_renewal, None, True)
    if not stable(1):
        return StabilityReport(rho, without, with_renewal, None, False)
    # Exponential search for the first unstable age, then bisect.
    lo, hi = 1, 2
    cap = 2**62
    while stable(hi):
        if hi >= cap:
            return StabilityReport(rho, without, with_renewal, None, True)
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return StabilityReport(rho, without, with_renewal, lo, False)
