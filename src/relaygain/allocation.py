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

_share solves it between the clamped ends [_BETA_LO, _BETA_HI] with the
safeguarded Illinois steps of rootfind.solve_monotone, run inline: the
residual is written out at each evaluation, so a solve calls no function
per evaluation and builds no Bracket, and each window of three steps is
written out in full, so no step tests its place in the window (see
rootfind). The loop runs whole windows up to a limit of 3 * _SHARE_HALVINGS
evaluations, which no solve reaches; the IterationLimitError after it
stays as the loop's guard. It bumps rootfind's solve counters as
solve_monotone does. A drift test in tests/test_allocation.py pins the two
copies together: bitwise-equal shares, errors and counts, also at limits
of one and two windows.
"""

from __future__ import annotations

import math
import sys

from .errors import IterationLimitError, NaNResidualError, NoSignChangeError, ValidationError
from .model import Allocation, GainReport, LinkGains, OperatingPoint, Protocol
from .rootfind import _COUNTS
# unused here; bench/spans.py hooks the solver where this module binds it
from .rootfind import solve_monotone  # noqa: F401

# The residual extends continuously to the endpoints (b*ln(1+c/b) -> 0 as
# b -> 0+), so clamped endpoints keep the sign change without evaluating
# log of infinity.
_BETA_LO = 1e-15
_BETA_HI = 1.0 - 1e-15
# a chord at or above this overflows log1p(chord/b) at a clamped end, where the
# residual's sign then says nothing about the root
_CHORD_MAX = sys.float_info.max * (1.0 - _BETA_HI)
# bisection reaches adjacent doubles of [_BETA_LO, _BETA_HI] within 102
# halvings, toward _BETA_LO (ulp(1e-15) = 2**-102); the solver halves once per
# window of 3 evaluations, so no solve reaches 3 * _SHARE_HALVINGS of them
_SHARE_HALVINGS = 103


def _share(kappa: float, chord1: float, chord2: float) -> float:
    """Root in [_BETA_LO, _BETA_HI] of kappa*b*log1p(chord1/b) - (1-b)*log1p(chord2/(1-b)).

    The endpoint scan of Bracket.scan, then the steps of solve_monotone
    with the residual written out at each evaluation and the zero, NaN and
    sign tests of its value taken in one comparison chain, the side test
    first: the same float operations in the same order, so the share, the
    errors and the _COUNTS deltas are those of solve_monotone(residual,
    Bracket.scan(residual, _BETA_LO, _BETA_HI), 3 * _SHARE_HALVINGS). Each
    pass of the loop is one window: two secant steps, then a step that
    bisects unless they halved the bracket. The window's later steps add
    their place in it to n where they exit. The limit is a whole number of
    windows, so no step inside a window tests it.
    """
    log1p = math.log1p
    lo, hi = _BETA_LO, _BETA_HI
    f_lo = kappa * lo * log1p(chord1 / lo) - (1.0 - lo) * log1p(chord2 / (1.0 - lo))
    f_hi = kappa * hi * log1p(chord1 / hi) - (1.0 - hi) * log1p(chord2 / (1.0 - hi))
    if f_lo != f_lo or f_hi != f_hi:
        raise NaNResidualError(lo if f_lo != f_lo else hi)
    if (f_lo > 0.0) is (f_hi > 0.0) and (f_lo < 0.0) is (f_hi < 0.0):
        raise NoSignChangeError(lo, hi, f_lo, f_hi)
    n = 0  # evaluations beyond the bracket's two, at every exit
    try:
        if f_lo == 0.0:
            return lo
        if f_hi == 0.0:
            return hi
        # the ends are constants far apart: the scan never closes the bracket
        mid = 0.5 * (lo + hi)
        lo_negative = f_lo < 0.0
        kept = 0
        width = hi - lo
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
            y = 1.0 - x
            fx = kappa * x * log1p(chord1 / x) - y * log1p(chord2 / y)
            if fx < 0.0 if lo_negative else fx > 0.0:
                lo, f_lo = x, fx
                if kept < 0:
                    f_hi *= 0.5
                kept = -1
            elif fx != 0.0:
                if fx != fx:
                    raise NaNResidualError(x)
                hi, f_hi = x, fx
                if kept > 0:
                    f_lo *= 0.5
                kept = 1
            else:
                return x
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
            y = 1.0 - x
            fx = kappa * x * log1p(chord1 / x) - y * log1p(chord2 / y)
            if fx < 0.0 if lo_negative else fx > 0.0:
                lo, f_lo = x, fx
                if kept < 0:
                    f_hi *= 0.5
                kept = -1
            elif fx != 0.0:
                if fx != fx:
                    n += 1
                    raise NaNResidualError(x)
                hi, f_hi = x, fx
                if kept > 0:
                    f_lo *= 0.5
                kept = 1
            else:
                n += 1
                return x
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
            y = 1.0 - x
            fx = kappa * x * log1p(chord1 / x) - y * log1p(chord2 / y)
            if fx < 0.0 if lo_negative else fx > 0.0:
                lo, f_lo = x, fx
                if kept < 0:
                    f_hi *= 0.5
                kept = -1
            elif fx != 0.0:
                if fx != fx:
                    n += 2
                    raise NaNResidualError(x)
                hi, f_hi = x, fx
                if kept > 0:
                    f_lo *= 0.5
                kept = 1
            else:
                n += 2
                return x
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


def _rates(kappa: float, h_first: float, h23: float, eps: float, k: float) -> tuple[float, float]:
    """(beta, base_rate) of the share residual with this kappa and h_first, from raw floats.

    The core of both allocators and of the rate sweeps: a caller passes
    positive gains and a valid operating point. It checks only the chords
    h_first*eps and h23*k*eps, which must lie below _CHORD_MAX (a
    ValidationError otherwise). beta lies in [_BETA_LO, _BETA_HI] and
    base_rate is >= 0, so the checks of an Allocation, which the sweeps do
    not build, always pass.
    """
    chord1, chord2 = h_first * eps, h23 * k * eps
    if not (chord1 < _CHORD_MAX and chord2 < _CHORD_MAX):
        raise ValidationError(f"chords {chord1!r} and {chord2!r} must lie below {_CHORD_MAX!r}, "
                              "where the share residual overflows at the clamped ends")
    beta = _share(kappa, chord1, chord2)
    return beta, beta * math.log1p(chord1 / beta)


def ncp_allocate(gains: LinkGains, op: OperatingPoint) -> Allocation:
    """Optimal NCP allocation; both users transmit directly to the destination."""
    eps, k = op.epsilon, op.k
    beta, base_rate = _rates(k, gains.h13, gains.h23, eps, k)
    rate2 = k * base_rate
    return Allocation(Protocol.NCP, beta, base_rate, rate2, base_rate + rate2)


def cp_allocate(gains: LinkGains, op: OperatingPoint) -> Allocation:
    """Optimal CP allocation; the partner re-encodes and forwards both messages."""
    eps, k = op.epsilon, op.k
    beta, base_rate = _rates(k + 1.0, gains.h12, gains.h23, eps, k)
    rate2 = k * base_rate
    return Allocation(Protocol.CP, beta, base_rate, rate2, base_rate + rate2)


def _gain(ncp_rate: float, cp_rate: float) -> float:
    """The collaboration gain, CP over NCP base rate, defined while the NCP rate is positive."""
    if ncp_rate <= 0.0:
        raise ValidationError("NCP base rate vanished; gain undefined")
    return cp_rate / ncp_rate


def collaboration_gain(gains: LinkGains, op: OperatingPoint) -> GainReport:
    """Ratio of CP to NCP base rate; > 1 means collaboration pays off."""
    ncp = ncp_allocate(gains, op)
    cp = cp_allocate(gains, op)
    gain = _gain(ncp.base_rate, cp.base_rate)
    return GainReport(gain=gain, ncp=ncp, cp=cp, collaborate=gain > 1.0)
