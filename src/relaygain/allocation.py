"""Exact optimal resource allocation for NCP and CP under proportional fairness.

For the non-collaborative protocol the optimal share beta of user 1 is the
unique root in (0, 1) of

    k * beta * ln(1 + h13*eps/beta) = (1 - beta) * ln(1 + h23*k*eps/(1 - beta))

and for the collaborative protocol (destination switched off while the
partner decodes, so h13 drops out) of

    (k+1) * beta * ln(1 + h12*eps/beta) = (1 - beta) * ln(1 + h23*k*eps/(1 - beta)).

Both residuals are strictly increasing with a sign change across (0, 1),
so a bracketed solve finds the share down to adjacent doubles. The two
are one residual

    kappa * beta * ln(1 + h_first*eps/beta) - (1 - beta) * ln(1 + h23*k*eps/(1 - beta))

with kappa = k, h_first = h13 for NCP and kappa = k + 1, h_first = h12 for CP.
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .model import Allocation, GainReport, LinkGains, OperatingPoint, Protocol
from .rootfind import Bracket, solve_monotone

# The residual extends continuously to the endpoints (b*ln(1+c/b) -> 0 as
# b -> 0+), so clamped endpoints keep the sign change without evaluating
# log of infinity.
_BETA_LO = 1e-15
_BETA_HI = 1.0 - 1e-15
# bisection reaches adjacent doubles of [_BETA_LO, _BETA_HI] within 103
# halvings (ulp(1e-15) = 2**-102); the solver halves once per 3 evaluations
_MAX_EVALS = 3 * 103


def _allocate(protocol: Protocol, h_first: float, h23: float, op: OperatingPoint) -> Allocation:
    eps, k = op.epsilon, op.k
    kappa = k if protocol is Protocol.NCP else k + 1.0
    chord1, chord2 = h_first * eps, h23 * k * eps

    def residual(b: float) -> float:
        return kappa * b * math.log1p(chord1 / b) - (1.0 - b) * math.log1p(chord2 / (1.0 - b))

    bracket = Bracket.scan(residual, _BETA_LO, _BETA_HI)
    beta = solve_monotone(residual, bracket, max_iter=_MAX_EVALS)
    base_rate = beta * math.log1p(chord1 / beta)
    rate2 = k * base_rate
    return Allocation(protocol, beta, base_rate, rate2, base_rate + rate2)


def ncp_allocate(gains: LinkGains, op: OperatingPoint) -> Allocation:
    """Optimal NCP allocation; both users transmit directly to the destination."""
    gains.require_alive("h13", "h23")
    return _allocate(Protocol.NCP, gains.h13, gains.h23, op)


def cp_allocate(gains: LinkGains, op: OperatingPoint) -> Allocation:
    """Optimal CP allocation; the partner re-encodes and forwards both messages."""
    gains.require_alive("h12", "h23")
    return _allocate(Protocol.CP, gains.h12, gains.h23, op)


def collaboration_gain(gains: LinkGains, op: OperatingPoint) -> GainReport:
    """Ratio of CP to NCP base rate; > 1 means collaboration pays off."""
    gains.require_alive("h12", "h13", "h23")
    ncp = ncp_allocate(gains, op)
    cp = cp_allocate(gains, op)
    if ncp.base_rate <= 0.0:
        raise ValidationError("NCP base rate vanished; gain undefined")
    gain = cp.base_rate / ncp.base_rate
    return GainReport(gain=gain, ncp=ncp, cp=cp, collaborate=gain > 1.0)
