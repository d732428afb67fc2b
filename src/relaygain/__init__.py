"""Collaboration gains for two-user decode-and-forward relaying.

Exact root solvers for the fair resource-allocation problem of a
source/partner/destination triple, the rate-energy dual, closed-form
rate brackets with their asymptotic limits, path-loss geometry sweeps,
and relay selection over candidate partners.

The package imports lazily (PEP 562): `import relaygain` loads no
submodule, and the first access to a public name imports its home
module only.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, in the order of __all__, and the submodule that defines it
_HOME = {
    "Allocation": "model", "BoundPair": "bounds", "Bracket": "rootfind",
    "EnergySolution": "energy", "Flow": "model", "FlowResult": "selection",
    "GainReport": "model", "GeometryError": "errors",
    "InfeasibleRateError": "errors", "IterationLimitError": "errors", "LinkGains": "model",
    "NaNResidualError": "errors", "NoFeasibleOptionError": "errors",
    "NoSignChangeError": "errors", "OperatingPoint": "model", "OVERFLOW_GAIN": "geometry",
    "Placement": "geometry", "Protocol": "model", "RelayCandidate": "model",
    "RelayGainError": "errors", "ResourceUsage": "energy", "SelectionDecision": "selection",
    "SweepRecord": "geometry", "SWEEP_KINDS": "geometry", "ValidationError": "errors",
    "collaboration_gain": "allocation", "collinear_gains": "geometry",
    "cp_allocate": "allocation", "cp_bounds_high_tern": "bounds",
    "cp_bounds_low_tern": "bounds", "evaluate_network": "selection",
    "feasibility_bound": "energy", "feasible": "energy", "gains_from_placement": "geometry",
    "grid_values": "geometry", "high_tern_gain_limit": "bounds",
    "low_tern_gain_limit": "bounds", "max_geometric_gain": "geometry", "min_tern": "energy",
    "ncp_allocate": "allocation", "ncp_bounds_high_tern": "bounds",
    "ncp_bounds_low_tern": "bounds", "optimal_relay_location": "geometry",
    "rate_energy_score": "selection", "resource_usage": "energy",
    "select_relay_rate": "selection", "select_relay_resource": "selection",
    "small_k_gain_slope": "bounds", "solve_monotone": "rootfind", "sweep": "geometry",
    "sweep_columns": "geometry",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
