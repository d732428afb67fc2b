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
_crossing runs the safeguarded Illinois steps of rootfind.solve_monotone
inline on [0, 1], with the gap written out at each evaluation and each
window of three steps written out in full (see rootfind), and bumps
rootfind's solve counters as solve_monotone does. A drift test in
tests/test_energy.py pins the two copies together: bitwise-equal shares,
errors and counts.

Resource usage drops the unit budget: each user independently solves

    target = beta * ln(1 + h * eps_user / beta)      over beta in (0, inf)

whose left side increases to the supremum h*eps_user, hence the demand is
servable iff target stays strictly below that chord bound; near the bound
the usage diverges. With c the chord, r = target/c in (0, 1) and x = c/beta
this is log1p(x) = r*x, whose root is -W_{-1}(-r e^{-r})/r - 1 on the lower
branch of the Lambert W function (Corless et al., Adv. Comput. Math. 5,
1996). g(x) = log1p(x) - r*x is concave, so Newton started right of the
root falls onto it monotonically, in about 4 steps; more than
_SLOT_NEWTON_CAP raise IterationLimitError. For r > 1/2 it starts from
3(1-r)/r, and the chord is carried exactly as a two-product (Dekker, Numer.
Math. 18, 1971), scaled into [1/4, 1) by a power of two, so 1 - r is exact
(only this start forms the product's error term);
g is evaluated as x*((log1p(x)/x - 1) + (1 - r)), by a series below
x = 0.05, and beta = c/x. Otherwise the same Newton runs in u = r*x, which
is ln(1 + x) at the root and cannot overflow, from L + ln(L+1) + 1 with
L = ln(1/r), and beta = target/u. Against 50-digit mpmath the share is
within 6e-16 relative for r up to 1/2 and for 1 - r from 1e-11 to 0.02, and
within 4e-15 in between, where log1p(x)/x - 1 still cancels. A share
outside the normal float range is a ValidationError. Since x only falls
from its start, the share at the start bounds the slot from below
(_slot_bound); resource selection prunes options with it. The start
(_slot_start) is computed once per slot: selection takes an option's bound
from it and, if it solves the option, hands the same start to _solve_slot,
which computes a start itself only when given none.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

# unused here; bench/spans.py hooks the allocators where this module binds them
from .allocation import cp_allocate, ncp_allocate  # noqa: F401
from .errors import InfeasibleRateError, IterationLimitError, NaNResidualError, ValidationError
from .model import LinkGains, OperatingPoint, Protocol, _check_positive
from .rootfind import _COUNTS
# unused here; bench/spans.py hooks the solver where this module binds it
from .rootfind import solve_monotone  # noqa: F401

# bisection of [0, 1] reaches adjacent doubles within 1,074 halvings, toward 0
# (the subnormal spacing 2**-1074); the solver halves once per window of 3
# evaluations, so no solve reaches 3 * _SHARE_HALVINGS of them
_SHARE_HALVINGS = 1100
# Newton from the right falls onto the slot's root quadratically: 4.1 steps on
# average and 6 at most over flow_batch passes, 6 at most over Lambert-W draws
_SLOT_NEWTON_CAP = 16
# below this r = target/chord the scaled target may be subnormal, and ln(1/r) is
# taken from unscaled logarithms
_R_LOG = 1e-300
# after a Newton step below this fraction of x the error is about the step's square,
# under an ulp: a further step would only walk x through the residual's rounding noise
_SLOT_STEP_TOL = 2.0 ** -28
# 2**27 + 1 splits a double into two 26-bit halves (Veltkamp)
_SPLIT = 134217729.0
# log1p(x)/x - 1 = sum over n >= 1 of (-x)**n/(n+1), in Horner order: for x < 0.05
# twelve terms reach 2**-53 relative
_LOG1P_SERIES = tuple((-1.0) ** n / (n + 1) for n in range(12, 0, -1))
_LOG_FLOAT_MIN = math.log(sys.float_info.min)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class ResourceUsage(NamedTuple):
    """Per-user resource slots for a fixed (rate, TERN) demand; total may exceed 1."""

    protocol: Protocol
    beta1: float
    beta2: float
    total: float


class EnergySolution(NamedTuple):
    """Minimal TERN of user 1 achieving a demanded base rate, and user 1's share there."""

    protocol: Protocol
    epsilon_min: float
    beta: float


def _first(protocol: Protocol, gains: LinkGains) -> float:
    return gains.h13 if protocol is Protocol.NCP else gains.h12


def _bound(protocol: Protocol, h_first: float, h23: float, k: float) -> float:
    """feasibility_bound on raw floats, with h_first = h13 for NCP and h12 for CP."""
    if protocol is Protocol.NCP:
        return min(h_first, h23)
    return min(h_first, h23 * k / (k + 1.0))


def _shortfall(protocol: Protocol, h_first: float, h23: float, eps: float, k: float,
               rate: float) -> tuple[str, float, str, float] | None:
    """What fails in the pair for (rate, k*rate), on raw floats: (quantity,
    value, limit, value), or None when both slots exist.

    The rate must lie below eps times the feasibility bound, which also
    keeps user 1's target below its chord, and the partner's target
    kappa*rate below its chord h23*(k*eps) compared in the floats
    _solve_slot compares. The bound is tested first, so a rate above it
    fails there even where k*eps overflows.
    """
    bound = eps * _bound(protocol, h_first, h23, k)
    if not rate < bound:
        return "rate", rate, "bound", bound
    kappa = k if protocol is Protocol.NCP else k + 1.0
    target, chord = kappa * rate, h23 * (k * eps)
    return None if target < chord else ("partner target", target, "chord", chord)


def feasibility_bound(protocol: Protocol, gains: LinkGains, k: float) -> float:
    """Gain factor m with servable rates characterized by rate < eps * m."""
    return _bound(protocol, _first(protocol, gains), gains.h23, _check_positive("k", k))


def feasible(protocol: Protocol, gains: LinkGains, op: OperatingPoint, rate: float) -> bool:
    """Whether resource_usage can serve the demanded base rate: it is below the
    chord bound, and so is the partner's rate in the floats its slot solve uses."""
    rate = _check_positive("rate", rate)
    return _shortfall(protocol, _first(protocol, gains), gains.h23, op.epsilon, op.k, rate) is None


def _log_expm1(x: float) -> float:
    """ln(expm1(x)) for x > 0, finite where expm1 overflows."""
    return x + math.log1p(-math.exp(-x)) if x > 1.0 else math.log(math.expm1(x))


def _crossing(offset: float, rate: float, partner_rate: float) -> float:
    """Root in [0, 1] of the gap offset + L(rate/b) - L(partner_rate/(1-b)).

    The bracket [0, 1] with the gap's end values +inf and -inf, then the
    steps of solve_monotone with the gap written out at each evaluation,
    L(x) = ln(expm1(x)/x) by a series below 1e-3, ln(expm1(x)/x) up to 1,
    and x + log1p(-e^-x) - ln x above, +inf at x = inf, and the zero, NaN
    and sign tests of each gap value taken in one comparison chain, the
    side tests first: the same float operations in the same order, so the
    share, the errors and the _COUNTS deltas are those of
    solve_monotone(gap, Bracket.scan(gap, 0.0, 1.0), 3 * _SHARE_HALVINGS).
    Each pass of the loop is one window of three steps, written out as in
    allocation._share, and the limit is a whole number of windows, which no
    solve reaches; the IterationLimitError after the loop stays as its
    guard. Every evaluated share lies strictly inside (0, 1), but the share
    returned where the bracket closes is its midpoint, which can round to
    an end of [0, 1]: 0.0 at a subnormal rate.
    L is written out for u and v rather than called: two helper calls per
    evaluation cost 11% of the energy_dual benchmark's wall time with the
    compact loop, and make the crossings of its demand pool 10% slower with
    the window written out.
    """
    log, log1p, exp, expm1, inf = math.log, math.log1p, math.exp, math.expm1, math.inf
    # the gap falls from +inf at 0, where a share carries no rate at any TERN, to -inf at 1
    lo, hi, f_lo, f_hi = 0.0, 1.0, inf, -inf
    mid, kept, width = 0.5, 0, 1.0
    n = 0  # evaluations beyond the bracket's two, at every exit
    try:
        # one window of three steps per pass; n counts the evaluations up to the
        # window's first step, and its later steps add their offset where they exit
        for n in range(1, 3 * _SHARE_HALVINGS + 1, 3):
            # first step: the secant point
            x = mid
            t = f_lo / (f_lo - f_hi)
            if 0.0 < t <= 0.5:
                x = lo + (hi - lo) * t
                if x <= lo:
                    x = math.nextafter(lo, hi)
            elif t > 0.5:
                x = hi - (hi - lo) * (f_hi / (f_hi - f_lo))
                if x >= hi:
                    x = math.nextafter(hi, lo)
            u = rate / x
            if u > 1.0:
                l_u = u + log1p(-exp(-u)) - log(u) if u < inf else u
            elif u < 1e-3:
                l_u = u * (0.5 + u * (1.0 / 24.0 - u * u / 2880.0))
            else:
                l_u = log(expm1(u) / u)
            v = partner_rate / (1.0 - x)
            if v > 1.0:
                l_v = v + log1p(-exp(-v)) - log(v) if v < inf else v
            elif v < 1e-3:
                l_v = v * (0.5 + v * (1.0 / 24.0 - v * v / 2880.0))
            else:
                l_v = log(expm1(v) / v)
            fx = offset + l_u - l_v
            if fx > 0.0:
                lo, f_lo = x, fx
                if kept < 0:
                    f_hi *= 0.5
                kept = -1
            elif fx < 0.0:
                hi, f_hi = x, fx
                if kept > 0:
                    f_lo *= 0.5
                kept = 1
            elif fx == 0.0:
                return x
            else:
                raise NaNResidualError(x)
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                return mid

            # second step: the secant point
            x = mid
            t = f_lo / (f_lo - f_hi)
            if 0.0 < t <= 0.5:
                x = lo + (hi - lo) * t
                if x <= lo:
                    x = math.nextafter(lo, hi)
            elif t > 0.5:
                x = hi - (hi - lo) * (f_hi / (f_hi - f_lo))
                if x >= hi:
                    x = math.nextafter(hi, lo)
            u = rate / x
            if u > 1.0:
                l_u = u + log1p(-exp(-u)) - log(u) if u < inf else u
            elif u < 1e-3:
                l_u = u * (0.5 + u * (1.0 / 24.0 - u * u / 2880.0))
            else:
                l_u = log(expm1(u) / u)
            v = partner_rate / (1.0 - x)
            if v > 1.0:
                l_v = v + log1p(-exp(-v)) - log(v) if v < inf else v
            elif v < 1e-3:
                l_v = v * (0.5 + v * (1.0 / 24.0 - v * v / 2880.0))
            else:
                l_v = log(expm1(v) / v)
            fx = offset + l_u - l_v
            if fx > 0.0:
                lo, f_lo = x, fx
                if kept < 0:
                    f_hi *= 0.5
                kept = -1
            elif fx < 0.0:
                hi, f_hi = x, fx
                if kept > 0:
                    f_lo *= 0.5
                kept = 1
            elif fx == 0.0:
                n += 1
                return x
            else:
                n += 1
                raise NaNResidualError(x)
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                n += 1
                return mid

            # third step: the midpoint, unless the window's first two halved the bracket
            x = mid
            if hi - lo <= 0.5 * width:
                t = f_lo / (f_lo - f_hi)
                if 0.0 < t <= 0.5:
                    x = lo + (hi - lo) * t
                    if x <= lo:
                        x = math.nextafter(lo, hi)
                elif t > 0.5:
                    x = hi - (hi - lo) * (f_hi / (f_hi - f_lo))
                    if x >= hi:
                        x = math.nextafter(hi, lo)
            u = rate / x
            if u > 1.0:
                l_u = u + log1p(-exp(-u)) - log(u) if u < inf else u
            elif u < 1e-3:
                l_u = u * (0.5 + u * (1.0 / 24.0 - u * u / 2880.0))
            else:
                l_u = log(expm1(u) / u)
            v = partner_rate / (1.0 - x)
            if v > 1.0:
                l_v = v + log1p(-exp(-v)) - log(v) if v < inf else v
            elif v < 1e-3:
                l_v = v * (0.5 + v * (1.0 / 24.0 - v * v / 2880.0))
            else:
                l_v = log(expm1(v) / v)
            fx = offset + l_u - l_v
            if fx > 0.0:
                lo, f_lo = x, fx
                if kept < 0:
                    f_hi *= 0.5
                kept = -1
            elif fx < 0.0:
                hi, f_hi = x, fx
                if kept > 0:
                    f_lo *= 0.5
                kept = 1
            elif fx == 0.0:
                n += 2
                return x
            else:
                n += 2
                raise NaNResidualError(x)
            width = hi - lo
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                n += 2
                return mid
        n = 3 * _SHARE_HALVINGS
        raise IterationLimitError(lo, hi, n)
    finally:
        _COUNTS.solves += 1
        _COUNTS.evals += n + 2


def min_tern(protocol: Protocol, gains: LinkGains, k: float, rate: float) -> EnergySolution:
    """Minimal TERN at which the protocol's optimal base rate reaches `rate`.

    Raises ValidationError when that TERN is outside the normal float range,
    or when the share that carries `rate` underflows to 0.
    """
    rate = _check_positive("rate", rate)
    k = _check_positive("k", k)
    h_first, h23 = _first(protocol, gains), gains.h23
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
    beta = _crossing(offset, rate, partner_rate)
    if beta == 0.0:
        raise ValidationError(f"{protocol.value}: the share for rate {rate!r} underflows to 0")
    log_eps = math.log(beta) + _log_expm1(rate / beta) - math.log(h_first)
    if not _LOG_FLOAT_MIN <= log_eps <= _LOG_FLOAT_MAX:
        raise ValidationError(
            f"{protocol.value}: the minimal TERN for rate {rate!r} is e^{log_eps:.6g}, "
            "outside the float range")
    return EnergySolution(protocol, math.exp(log_eps), beta)


def _two_product(a: float, b: float) -> tuple[float, float]:
    """(p, err) with p = fl(a*b) and p + err = a*b exactly (Dekker), for a*b far from
    the ends of the float range."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _step_near_bound(x: float, q: float, _: float) -> float:
    """Newton step on g(x) = x*((log1p(x)/x - 1) + q), g'(x) = q - x/(1+x), q = 1 - r."""
    if x < 0.05:
        s = 0.0
        for coef in _LOG1P_SERIES:
            s = s * x + coef
        s *= x
    else:
        s = math.log1p(x) / x - 1.0
    return x * (s + q) / (q - x / (1.0 + x))


def _step_low(u: float, r: float, log_inv_r: float) -> float:
    """Newton step on g(u) = ln(u + r) + ln(1/r) - u, that is log1p(x) - r*x at u = r*x."""
    return (math.log(u + r) + log_inv_r - u) / (1.0 / (u + r) - 1.0)


def _descend(step, x: float, a: float, b: float = 0.0) -> float:
    """Root of a concave residual, by Newton from a start to the right of it;
    step(x, a, b) is the residual over its slope at x.

    On a concave function the tangent lies above the curve, so every
    iterate stays right of the root and x falls onto it monotonically.
    It stops once x no longer falls, or after a step below _SLOT_STEP_TOL
    of x, since convergence is quadratic. More than _SLOT_NEWTON_CAP steps
    raise IterationLimitError with the root's bracket (0, x].
    """
    for _ in range(_SLOT_NEWTON_CAP):
        nxt = x - step(x, a, b)
        if not nxt < x:
            return x
        if x - nxt <= _SLOT_STEP_TOL * x:
            return nxt
        x = nxt
    raise IterationLimitError(0.0, x, _SLOT_NEWTON_CAP)


def _slot_start(h: float, eps_user: float,
                target: float) -> tuple[float, float, float, float, float, int]:
    """Newton's start for a slot whose target lies below its chord: (x0, r, a, c, c_lo, e).

    The chord is h*eps_user = c * 2**e with c in [1/4, 1), and r = target/chord.
    For r <= 1/2 Newton runs in u = r*x, x0 = L + ln(L+1) + 1 and a = L = ln(1/r);
    c_lo is 0 there, and only x0, r and a are read. Otherwise it runs in x,
    x0 = 3q/r and a = q = 1 - r, and the chord is (c + c_lo) * 2**e exactly.
    Either start lies right of the root.
    """
    # the scaled product neither under- nor overflows, and target scaled alike
    # stays below 1
    m_h, e_h = math.frexp(h)
    m_eps, e_eps = math.frexp(eps_user)
    # c is the two-product's rounded part; only r > 1/2 reads its error term
    c = m_h * m_eps
    e = e_h + e_eps
    # a TERN k*eps that overflowed to inf has frexp (inf, 0) and leaves r = 0
    t_scaled = math.ldexp(target, -e) if c < math.inf else 0.0
    r = t_scaled / c
    if r <= 0.5:
        # ln(1/r) from the unscaled logarithms where the scaled target has left the
        # normal range; a target that underflowed to 0 has L = inf and share 0
        if r > _R_LOG:
            log_inv_r = -math.log(r)
        elif target > 0.0:
            log_inv_r = math.log(h) + math.log(eps_user) - math.log(target)
        else:
            log_inv_r = math.inf
        return log_inv_r + math.log(log_inv_r + 1.0) + 1.0, r, log_inv_r, c, 0.0, e
    _, c_lo = _two_product(m_h, m_eps)
    # c - t_scaled is exact (Sterbenz), so q = 1 - r carries no rounding of the chord
    q = ((c - t_scaled) + c_lo) / c
    return 3.0 * q / r, r, q, c, c_lo, e


def _slot_bound(h: float, eps_user: float, target: float, start=None) -> float:
    """A lower bound on _solve_slot(h, eps_user, target) for a target below its chord:
    the share that _solve_slot would return at Newton's start, +inf where that
    overflows. `start` is _slot_start(h, eps_user, target), computed here if not given.

    _descend only lowers x from the start, and the share falls as x rises. For
    r > 1/2 the start is at least 1.19 times the root, far beyond the rounding of
    c_lo/x, which may fall as x does.
    """
    x0, r, _, c, c_lo, e = _slot_start(h, eps_user, target) if start is None else start
    if r <= 0.5:
        return target / x0
    try:
        return math.ldexp(c / x0 + c_lo / x0, e)
    except OverflowError:
        return math.inf


def _solve_slot(h: float, eps_user: float, target: float, start=None) -> float:
    """beta in (0, inf) with beta * ln(1 + h*eps_user/beta) = target.

    With r = target/chord and x = chord/beta the equation is log1p(x) = r*x,
    solved by monotone Newton (_descend, at most _SLOT_NEWTON_CAP steps) from
    `start`, _slot_start(h, eps_user, target), computed here if not given: in x
    for r > 1/2, and in u = r*x, which cannot overflow, otherwise.
    Raises ValidationError when beta lies outside the normal float range.
    """
    chord = h * eps_user
    if not target < chord:
        raise InfeasibleRateError("slot", target, chord, "target", "chord")
    x0, r, a, c, c_lo, e = _slot_start(h, eps_user, target) if start is None else start
    if r <= 0.5:
        beta = target / _descend(_step_low, x0, r, a)
    else:
        x = _descend(_step_near_bound, x0, a)
        try:
            beta = math.ldexp(c / x + c_lo / x, e)
        except OverflowError:
            raise ValidationError(
                f"the share for rate {target!r} is above the float range") from None
    if beta < sys.float_info.min:
        raise ValidationError(f"the share for rate {target!r} is below the normal float range")
    return beta


def _pair_slots(protocol: Protocol, h_first: float, h23: float, eps: float, k: float,
                rate: float) -> tuple[float, float]:
    """Both users' slots for (rate, k*rate), for a pair with no _shortfall."""
    # under CP the partner's slot also carries the re-encoded source message
    kappa = k if protocol is Protocol.NCP else k + 1.0
    return _solve_slot(h_first, eps, rate), _solve_slot(h23, k * eps, kappa * rate)


def resource_usage(protocol: Protocol, gains: LinkGains, op: OperatingPoint, rate: float) -> ResourceUsage:
    """Resource slots required by both users to serve (rate, k*rate)."""
    rate = _check_positive("rate", rate)
    h_first, h23 = _first(protocol, gains), gains.h23
    eps, k = op.epsilon, op.k
    shortfall = _shortfall(protocol, h_first, h23, eps, k, rate)
    if shortfall is not None:
        quantity, value, limit, limit_value = shortfall
        raise InfeasibleRateError(protocol.value, value, limit_value, quantity, limit)
    beta1, beta2 = _pair_slots(protocol, h_first, h23, eps, k, rate)
    total = beta1 + beta2
    if total == math.inf:
        raise ValidationError(f"{protocol.value}: the total of slots {beta1!r} and {beta2!r} "
                              "lies outside the float range")
    return ResourceUsage(protocol, beta1, beta2, total)
