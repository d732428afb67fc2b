"""Energy-minimization dual of the rate problem, and resource usage.

For a demanded base rate R the minimal TERN is the unique eps at which the
protocol's optimal base rate equals R; the achievable rate is strictly
increasing and unbounded in eps, so a bracket always exists for alive
links and bisection (in log-eps, for uniform relative resolution) finds it.

Resource usage drops the unit budget: each user independently solves

    target = beta * ln(1 + h * eps_user / beta)      over beta in (0, inf)

whose left side increases to the supremum h*eps_user, hence the demand is
servable iff target stays strictly below that chord bound; near the bound
the usage diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .allocation import cp_allocate, ncp_allocate
from .errors import InfeasibleRateError, ValidationError
from .model import LinkGains, OperatingPoint, Protocol, _check_positive
from .rootfind import Bracket, solve_monotone

_LOG_EPS_TOL = 1e-12
_LOG_BETA_TOL = 1e-13


@dataclass(frozen=True)
class ResourceUsage:
    """Per-user resource slots for a fixed (rate, TERN) demand; total may exceed 1."""

    protocol: Protocol
    beta1: float
    beta2: float
    total: float


@dataclass(frozen=True)
class EnergySolution:
    """Minimal TERN of user 1 achieving a demanded base rate, and its allocation."""

    protocol: Protocol
    epsilon_min: float
    beta: float


def _links(protocol: Protocol, gains: LinkGains) -> tuple[float, float]:
    if protocol is Protocol.NCP:
        gains.require_alive("h13", "h23")
        return gains.h13, gains.h23
    gains.require_alive("h12", "h23")
    return gains.h12, gains.h23


def feasibility_bound(protocol: Protocol, gains: LinkGains, k: float) -> float:
    """Gain factor m with servable rates characterized by rate < eps * m."""
    k = _check_positive("k", k)
    if protocol is Protocol.NCP:
        return min(gains.h13, gains.h23)
    return min(gains.h12, gains.h23 * k / (k + 1.0))


def feasible(protocol: Protocol, gains: LinkGains, op: OperatingPoint, rate: float) -> bool:
    """Whether the demanded base rate is strictly below the chord bound."""
    rate = _check_positive("rate", rate)
    return rate < op.epsilon * feasibility_bound(protocol, gains, op.k)


def min_tern(protocol: Protocol, gains: LinkGains, k: float, rate: float) -> EnergySolution:
    """Minimal TERN at which the protocol's optimal base rate reaches `rate`."""
    rate = _check_positive("rate", rate)
    k = _check_positive("k", k)
    h_first, h_second = _links(protocol, gains)
    allocate = ncp_allocate if protocol is Protocol.NCP else cp_allocate

    def base_rate(eps: float) -> float:
        return allocate(gains, OperatingPoint(eps, k)).base_rate

    # base_rate(eps) <= eps * min(h) keeps the lower end on the short side;
    # the upper end grows geometrically until it overshoots.
    lo = rate / (1e6 * max(h_first, h_second))
    hi = rate / min(h_first, h_second)
    while base_rate(hi) <= rate:
        hi *= 4.0

    def residual(u: float) -> float:
        return base_rate(math.exp(u)) - rate

    bracket = Bracket.scan(residual, math.log(lo), math.log(hi))
    eps = math.exp(solve_monotone(residual, bracket, abs_tol=_LOG_EPS_TOL))
    return EnergySolution(protocol, eps, allocate(gains, OperatingPoint(eps, k)).beta)


def energy_gain(gains: LinkGains, k: float, rate: float) -> float:
    """TERN collaboration gain eps_NCP / eps_CP at a common demanded base rate."""
    gains.require_alive("h12", "h13", "h23")
    eps_ncp = min_tern(Protocol.NCP, gains, k, rate).epsilon_min
    eps_cp = min_tern(Protocol.CP, gains, k, rate).epsilon_min
    return eps_ncp / eps_cp


def _solve_slot(h: float, eps_user: float, target: float) -> float:
    """beta in (0, inf) with beta * ln(1 + h*eps_user/beta) = target."""
    chord = h * eps_user
    if not target < chord:
        raise InfeasibleRateError("slot", target, chord)

    def overshoot(b: float) -> float:
        return b * math.log1p(chord / b) - target

    lo = target
    while overshoot(lo) >= 0.0:
        lo *= 0.125
    hi = max(target, 1.0)
    while overshoot(hi) <= 0.0:
        hi *= 8.0

    def residual(u: float) -> float:
        return overshoot(math.exp(u))

    bracket = Bracket.scan(residual, math.log(lo), math.log(hi))
    return math.exp(solve_monotone(residual, bracket, abs_tol=_LOG_BETA_TOL))


def resource_usage(protocol: Protocol, gains: LinkGains, op: OperatingPoint, rate: float) -> ResourceUsage:
    """Resource slots required by both users to serve (rate, k*rate)."""
    rate = _check_positive("rate", rate)
    h_first, h23 = _links(protocol, gains)
    bound = op.epsilon * feasibility_bound(protocol, gains, op.k)
    if not rate < bound:
        raise InfeasibleRateError(protocol.value, rate, bound)
    k, eps = op.k, op.epsilon
    # under CP the partner's slot also carries the re-encoded source message
    kappa = k if protocol is Protocol.NCP else k + 1.0
    beta1 = _solve_slot(h_first, eps, rate)
    beta2 = _solve_slot(h23, k * eps, kappa * rate)
    return ResourceUsage(protocol, beta1, beta2, beta1 + beta2)
