"""Collaboration gains for two-user decode-and-forward relaying.

Exact root solvers for the fair resource-allocation problem of a
source/partner/destination triple, the rate-energy dual, closed-form
rate brackets with their asymptotic limits, path-loss geometry sweeps,
and relay selection over candidate partners.
"""

from .allocation import collaboration_gain, cp_allocate, ncp_allocate
from .bounds import (BoundPair, cp_bounds_high_tern, cp_bounds_low_tern,
                     high_tern_gain_limit, low_tern_gain_limit,
                     ncp_bounds_high_tern, ncp_bounds_low_tern, small_k_gain_slope)
from .energy import (EnergySolution, ResourceUsage, energy_gain, feasibility_bound,
                     feasible, min_tern, resource_usage)
from .errors import (DeadLinkError, GeometryError, InfeasibleRateError,
                     IterationLimitError, NaNResidualError, NoFeasibleOptionError,
                     NoSignChangeError, RelayGainError, ValidationError)
from .geometry import (OVERFLOW_GAIN, Placement, SweepRecord, collinear_gains,
                       gains_from_placement, grid_values, max_geometric_gain,
                       optimal_relay_location, sweep, sweep_columns, SWEEP_KINDS)
from .model import (Allocation, GainReport, LinkGains, OperatingPoint, Protocol,
                    rate_curve)
from .rootfind import Bracket, solve_monotone
from .selection import (Flow, FlowResult, RelayCandidate, SelectionDecision,
                        evaluate_network, rate_energy_score, select_relay_rate,
                        select_relay_resource)

__version__ = "0.1.0"

__all__ = [
    "Allocation", "BoundPair", "Bracket", "DeadLinkError", "EnergySolution",
    "Flow", "FlowResult", "GainReport", "GeometryError", "InfeasibleRateError",
    "IterationLimitError", "LinkGains", "NaNResidualError", "NoFeasibleOptionError",
    "NoSignChangeError", "OperatingPoint", "OVERFLOW_GAIN", "Placement",
    "Protocol", "RelayCandidate", "RelayGainError", "ResourceUsage",
    "SelectionDecision", "SweepRecord", "SWEEP_KINDS", "ValidationError",
    "collaboration_gain", "collinear_gains", "cp_allocate",
    "cp_bounds_high_tern", "cp_bounds_low_tern", "energy_gain",
    "evaluate_network", "feasibility_bound", "feasible", "gains_from_placement",
    "grid_values", "high_tern_gain_limit", "low_tern_gain_limit",
    "max_geometric_gain", "min_tern", "ncp_allocate", "ncp_bounds_high_tern",
    "ncp_bounds_low_tern", "optimal_relay_location", "rate_curve",
    "rate_energy_score", "resource_usage", "select_relay_rate",
    "select_relay_resource", "small_k_gain_slope", "solve_monotone", "sweep",
    "sweep_columns",
]
