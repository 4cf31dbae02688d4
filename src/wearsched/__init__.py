"""Optimal transmission/renewal scheduling for remote state estimation over a
channel that wears with time and use.

The package builds the two-age average-cost MDP for a linear Gaussian system
watched through a wearing channel, solves it (relative value iteration,
structured policy iteration, threshold heuristic), verifies the structural
properties of solutions numerically, and validates them by Monte-Carlo
simulation. The MDP's kernel is one representation, the clamped age-shift
index vectors of ``MdpSpec``; the command line (``wearsched.cli``) runs the
solve, verify, simulate and sweep pipelines.
"""

__version__ = "0.1.0"

from .channel import ChannelModel
from .errors import (
    ArtifactParseError,
    ConfigError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    InvalidModelError,
    MissingArtifactError,
    NumericalOverflowError,
    WearschedError,
)
from .linear_model import (
    StabilityReport,
    SystemModel,
    mse_table,
    spectral_radius,
    stability_report,
    steady_state,
)
from .mdp import Action, MdpSpec, Truncation, build_mdp
from .sim import SimStats, boundary_renewal, replication_rng, simulate, threshold_policy, transmit_always
from .solvers import (
    Policy,
    SolveOptions,
    SolveResult,
    greedy_policy,
    policy_evaluate,
    q_backup,
    rvi_solve,
    structured_policy_iteration,
    threshold_heuristic,
)
from .structure import (
    Region,
    ThresholdFrontier,
    Violation,
    ViolationReport,
    check_policy_monotone,
    check_submodular,
    check_value_monotone,
    full_region,
    interior_region,
    threshold_frontier,
)

__all__ = [
    "Action",
    "ArtifactParseError",
    "ChannelModel",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "EvaluationError",
    "InvalidModelError",
    "MdpSpec",
    "MissingArtifactError",
    "NumericalOverflowError",
    "Policy",
    "Region",
    "SimStats",
    "SolveOptions",
    "SolveResult",
    "StabilityReport",
    "SystemModel",
    "ThresholdFrontier",
    "Truncation",
    "Violation",
    "ViolationReport",
    "WearschedError",
    "boundary_renewal",
    "build_mdp",
    "check_policy_monotone",
    "check_submodular",
    "check_value_monotone",
    "full_region",
    "greedy_policy",
    "interior_region",
    "mse_table",
    "policy_evaluate",
    "q_backup",
    "replication_rng",
    "rvi_solve",
    "simulate",
    "spectral_radius",
    "stability_report",
    "steady_state",
    "structured_policy_iteration",
    "threshold_frontier",
    "threshold_heuristic",
    "threshold_policy",
    "transmit_always",
]
