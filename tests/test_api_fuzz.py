"""A seeded fuzz of the library's error contract, in process: the twin of
test_cli_fuzz.py's main(argv) fuzz for the public numeric entry points.

Each case draws gains, eps, k and a rate log-uniform in e^+-300, eta in
e^(-5..8), a collinear position d in (0, 1) and zero to four relay
candidates, then calls every public numeric entry point on them: the
allocators and the collaboration gain, the four bound pairs and the three
limits, min_tern, resource_usage, feasible and feasibility_bound per
protocol, the collinear geometry, the candidate score and both
selections. Each call must return only finite floats, with None only in a
field that documents it, or raise a RelayGainError.
"""

import math
import random

from relaygain import (BoundPair, LinkGains, OperatingPoint, Protocol, RelayCandidate,
                       RelayGainError, SelectionDecision, collaboration_gain, collinear_gains,
                       cp_allocate, cp_bounds_high_tern, cp_bounds_low_tern, feasibility_bound,
                       feasible, high_tern_gain_limit, low_tern_gain_limit, max_geometric_gain,
                       min_tern, ncp_allocate, ncp_bounds_high_tern, ncp_bounds_low_tern,
                       optimal_relay_location, rate_energy_score, resource_usage,
                       select_relay_rate, select_relay_resource, small_k_gain_slope)

# the record fields documented to be None in some results
NULLABLE = {BoundPair: {"beta_at_bound"}, SelectionDecision: {"relay_id", "exact_gain"}}


def wide(rng: random.Random) -> float:
    return math.exp(rng.uniform(-300.0, 300.0))


def result_problem(value, nullable=False) -> str | None:
    """What in a returned value breaks the contract, or None."""
    if value is None:
        return None if nullable else "None in a field that is never None"
    if isinstance(value, float):
        return None if math.isfinite(value) else f"non-finite float {value!r}"
    if isinstance(value, tuple):
        allowed = NULLABLE.get(type(value), ())
        for name, field in zip(getattr(value, "_fields", ()), value):
            problem = result_problem(field, name in allowed)
            if problem:
                return f"{name}: {problem}"
    return None  # a bool, a str or a Protocol


def entry_points(rng: random.Random):
    """One drawn case: (name, call) per public numeric entry point."""
    gains = LinkGains(wide(rng), wide(rng), wide(rng))
    eps, k, rate = wide(rng), wide(rng), wide(rng)
    op = OperatingPoint(eps, k)
    eta, d = math.exp(rng.uniform(-5.0, 8.0)), rng.uniform(0.0, 1.0) or 0.5
    candidates = [RelayCandidate(f"r{i}", wide(rng), wide(rng))
                  for i in range(rng.randint(0, 4))]
    calls = [
        ("ncp_allocate", lambda: ncp_allocate(gains, op)),
        ("cp_allocate", lambda: cp_allocate(gains, op)),
        ("collaboration_gain", lambda: collaboration_gain(gains, op)),
        ("ncp_bounds_high_tern", lambda: ncp_bounds_high_tern(gains, op)),
        ("cp_bounds_high_tern", lambda: cp_bounds_high_tern(gains, op)),
        ("ncp_bounds_low_tern", lambda: ncp_bounds_low_tern(gains, op)),
        ("cp_bounds_low_tern", lambda: cp_bounds_low_tern(gains, op)),
        ("low_tern_gain_limit", lambda: low_tern_gain_limit(gains, k)),
        ("high_tern_gain_limit", lambda: high_tern_gain_limit(k)),
        ("small_k_gain_slope", lambda: small_k_gain_slope(gains, eps)),
        ("collinear_gains", lambda: collinear_gains(d, eta)),
        ("optimal_relay_location", lambda: optimal_relay_location(k, eta)),
        ("max_geometric_gain", lambda: max_geometric_gain(k, eta)),
        ("select_relay_rate", lambda: select_relay_rate(gains.h13, candidates, op)),
        ("select_relay_resource",
         lambda: select_relay_resource(gains.h13, candidates, op, rate)),
    ]
    for protocol in Protocol:
        calls += [
            (f"min_tern {protocol.value}", lambda p=protocol: min_tern(p, gains, k, rate)),
            (f"resource_usage {protocol.value}",
             lambda p=protocol: resource_usage(p, gains, op, rate)),
            (f"feasible {protocol.value}", lambda p=protocol: feasible(p, gains, op, rate)),
            (f"feasibility_bound {protocol.value}",
             lambda p=protocol: feasibility_bound(p, gains, k)),
        ]
    calls += [(f"rate_energy_score {cand.id}", lambda c=cand: rate_energy_score(gains.h13, c, k))
              for cand in candidates]
    return (gains, op, rate, eta, d, candidates), calls


def test_seeded_calls_return_finite_floats_or_raise_relaygain_errors():
    rng = random.Random(25)
    failures = []
    for i in range(1000):
        case, calls = entry_points(rng)
        for name, call in calls:
            try:
                problem = result_problem(call())
            except RelayGainError:
                continue
            except Exception as exc:  # the contract: only RelayGainErrors escape
                problem = f"{exc!r} escaped"
            if problem:
                failures.append((i, name, case, problem))
    assert not failures, "\n".join(map(repr, failures[:5]))
