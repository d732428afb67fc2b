"""Energy-minimization dual of the rate problem, and resource usage.

For a demanded base rate R the minimal TERN is where both users'
constraints bind: with share b user 1 needs eps1(b) = b*expm1(R/b)/h_first,
and the partner, with share 1 - b and TERN k*eps, needs
eps2(b) = (1-b)*expm1(kappa*R/(1-b))/(k*h23), where kappa, h_first are
k, h13 for NCP and k + 1, h12 for CP (as in allocation). eps1 falls in b
and eps2 rises, so one bracketed solve finds the root beta of

    ln eps1 - ln eps2 = ln(k*h23/(kappa*h_first)) + L(R/b) - L(kappa*R/(1-b)),

L(x) = ln(expm1(x)/x), down to adjacent doubles, and eps_min = eps1(beta).
Written with L the ln R terms cancel, which keeps near-tie crossings at low
rates accurate. The logarithms stay finite where eps overflows, so a TERN
beyond the float range is a ValidationError rather than a wrong number.

Resource usage drops the unit budget: each user independently solves

    target = beta * ln(1 + h * eps_user / beta)      over beta in (0, inf)

whose left side increases to the supremum h*eps_user, hence the demand is
servable iff target stays strictly below that chord bound; near the bound
the usage diverges. Where h*eps_user/beta overflows, ln(1 + x) is taken from
ln x, and a share outside the normal float range is a ValidationError. The
solve runs in ln beta and stops at beta's own resolution, 2**-53 relative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# unused here; bench/spans.py hooks the allocators where this module binds them
from .allocation import cp_allocate, ncp_allocate  # noqa: F401
from .errors import InfeasibleRateError, ValidationError
from .model import LinkGains, OperatingPoint, Protocol, _check_positive
from .rootfind import Bracket, solve_monotone

# bisection of [0, 1] reaches adjacent doubles within this many halvings,
# subnormal shares included; the solver halves once per 3 evaluations
_SHARE_HALVINGS = 1100
# the slot bracket in ln beta spans less than ln(DBL_MAX/DBL_MIN) < 2**11 and
# stops at beta's own relative resolution 2**-53: 64 halvings
_SLOT_HALVINGS = 64
_LOG_FLOAT_MIN = math.log(sys.float_info.min)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ResourceUsage:
    """Per-user resource slots for a fixed (rate, TERN) demand; total may exceed 1."""

    protocol: Protocol
    beta1: float
    beta2: float
    total: float


@dataclass(frozen=True)
class EnergySolution:
    """Minimal TERN of user 1 achieving a demanded base rate, and user 1's share there."""

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


def _log_expm1(x: float) -> float:
    """ln(expm1(x)) for x > 0, finite where expm1 overflows."""
    return x + math.log1p(-math.exp(-x)) if x > 1.0 else math.log(math.expm1(x))


def _log_expm1_ratio(x: float) -> float:
    """ln(expm1(x)/x) for x > 0, finite where expm1 overflows and +inf at x = inf."""
    if x > 1.0:
        return _log_expm1(x) - math.log(x) if x < math.inf else x
    if x < 1e-3:
        return x * (0.5 + x * (1.0 / 24.0 - x * x / 2880.0))
    return math.log(math.expm1(x) / x)


def min_tern(protocol: Protocol, gains: LinkGains, k: float, rate: float) -> EnergySolution:
    """Minimal TERN at which the protocol's optimal base rate reaches `rate`.

    Raises ValidationError when that TERN is outside the normal float range.
    """
    rate = _check_positive("rate", rate)
    k = _check_positive("k", k)
    h_first, h23 = _links(protocol, gains)
    kappa = k if protocol is Protocol.NCP else k + 1.0
    # the rate the partner's slot carries; a product that under- or overflows is rejected
    partner_rate = _check_positive("partner rate", kappa * rate)
    if rate + partner_rate > 0.5 * sys.float_info.max:
        # R/b and kappa*R/(1-b) could both overflow and leave the gap NaN; the TERN is
        # at least expm1(R)/h_first, far beyond the float range
        raise ValidationError(
            f"{protocol.value}: the minimal TERN for rate {rate!r} is above "
            f"e^{_log_expm1(rate) - math.log(h_first):.6g}, outside the float range")
    # ln eps1(b) - ln eps2(b) with ln(b*expm1(R/b)) = ln R + L(R/b): the ln R terms cancel
    offset = math.log(k / kappa) + math.log(h23) - math.log(h_first)

    def gap(b: float) -> float:
        if b == 0.0:
            return math.inf  # a zero share carries no rate at any TERN
        if b == 1.0:
            return -math.inf
        return offset + _log_expm1_ratio(rate / b) - _log_expm1_ratio(partner_rate / (1.0 - b))

    bracket = Bracket.scan(gap, 0.0, 1.0)
    beta = solve_monotone(gap, bracket, abs_tol=math.ulp(0.0), max_iter=3 * _SHARE_HALVINGS)
    log_eps = math.log(beta) + _log_expm1(rate / beta) - math.log(h_first)
    if not _LOG_FLOAT_MIN <= log_eps <= _LOG_FLOAT_MAX:
        raise ValidationError(
            f"{protocol.value}: the minimal TERN for rate {rate!r} is e^{log_eps:.6g}, "
            "outside the float range")
    return EnergySolution(protocol, math.exp(log_eps), beta)


def energy_gain(gains: LinkGains, k: float, rate: float) -> float:
    """TERN collaboration gain eps_NCP / eps_CP at a common demanded base rate."""
    gains.require_alive("h12", "h13", "h23")
    eps_ncp = min_tern(Protocol.NCP, gains, k, rate).epsilon_min
    eps_cp = min_tern(Protocol.CP, gains, k, rate).epsilon_min
    return eps_ncp / eps_cp


def _solve_slot(h: float, eps_user: float, target: float) -> float:
    """beta in (0, inf) with beta * ln(1 + h*eps_user/beta) = target.

    Raises ValidationError when beta lies outside the normal float range.
    """
    chord = h * eps_user
    if not target < chord:
        raise InfeasibleRateError("slot", target, chord)

    def residual(u: float) -> float:
        """beta*ln(1 + chord/beta) - target at beta = e^u."""
        b = math.exp(u)
        x = chord / b
        if x < math.inf:
            return b * math.log1p(x) - target
        t = math.log(h) + math.log(eps_user) - u  # ln x, finite where x overflows
        return b * (t + math.log1p(math.exp(-t))) - target

    if residual(_LOG_FLOAT_MIN) >= 0.0:
        raise ValidationError(f"the share for rate {target!r} is below the normal float range")
    lo = target
    while residual(math.log(lo)) >= 0.0:
        lo *= 0.125
    hi = max(target, 1.0)
    while residual(math.log(hi)) <= 0.0:
        hi *= 8.0
        if hi == math.inf:
            raise ValidationError(f"the share for rate {target!r} is above the float range")
    bracket = Bracket.scan(residual, math.log(lo), math.log(hi))
    return math.exp(solve_monotone(residual, bracket, abs_tol=2.0 ** -53, max_iter=3 * _SLOT_HALVINGS))


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
