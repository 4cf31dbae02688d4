"""Wearing channel: the reliability-versus-age curve and the wear parameters.

The channel ages by one slot per idle epoch, by ``tau_d`` slots per
transmission, and resets to 1 on renewal (which occupies ``delta_r`` slots).
Reliability decays exponentially in the channel age, from ``theta_max``
toward ``theta_min``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_integer


@dataclass(frozen=True)
class ChannelModel:
    """Wear parameters plus the reliability-versus-age curve
    ``theta(tau) = (theta_max - theta_min) * exp(-alpha * tau) + theta_min``.
    """

    theta_max: float
    theta_min: float
    alpha: float
    tau_d: int
    delta_r: int

    def __post_init__(self):
        if not 0.0 <= self.theta_min <= self.theta_max <= 1.0:
            raise DomainError(
                f"need 0 <= theta_min <= theta_max <= 1, got "
                f"theta_min={self.theta_min}, theta_max={self.theta_max}"
            )
        if not self.alpha > 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        for name in ("tau_d", "delta_r"):
            v = check_integer(name, getattr(self, name))
            if v <= 1:
                raise DomainError(f"{name} must be an integer > 1, got {v}")
            object.__setattr__(self, name, v)

    def reliability(self, tau):
        """Success probability at channel age ``tau`` (scalar or array)."""
        arr = np.asarray(tau)
        if np.any(arr < 1):
            raise DomainError(f"channel age must be >= 1, got {tau}")
        vals = (self.theta_max - self.theta_min) * np.exp(-self.alpha * arr) + self.theta_min
        if np.isscalar(tau) or arr.ndim == 0:
            return float(vals)
        return vals
