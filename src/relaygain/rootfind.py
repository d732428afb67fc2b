"""Bracketed Illinois root finding on monotone continuous scalar functions.

The step is regula falsi with the Illinois modification (Dowell and
Jarratt, BIT 11, 1971): a secant through the bracket's end values, and
when the same end is kept twice in a row its stored value is halved, so
neither end stays put for long. A secant that rounds onto an end steps
one double inside it instead, which ends the solve at once when the root
lies in that last gap; infinite end values give the midpoint. A bisection
safeguard bounds the worst case: every third step bisects unless the two
steps before it halved the bracket. The solve is bitwise deterministic,
and it stops on adjacent doubles or on an exact zero of f.

_COUNTS keeps running totals of the solves, counted once per solve: read
its deltas around a call. allocation (the fair share) and energy (the
energy dual's crossing share) run the same steps inline and bump the same
totals. They write each window of three steps out in full, two secant
steps and then the third, so that no step pays the window bookkeeping of
the loop below (its index mod 3, the third-step test, the width update):
that bookkeeping cost about 7% of a share solve and 8% of a crossing.
Their limits are whole numbers of windows, stated in halvings, and the
halving bound below keeps every solve under them; the IterationLimitError
after each loop stays as its guard. solve_monotone keeps the compact
loop, the reference that the drift tests of both inline copies compare
against.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import IterationLimitError, NaNResidualError, NoSignChangeError, ValidationError


class _Counts:
    """Solves started, and the evaluations of f they made, the bracket's two included.

    A solve that fails after its bracket counts; a scan that finds no
    sign change is no solve and counts nothing.
    """

    __slots__ = ("solves", "evals")

    def __init__(self):
        self.solves = 0
        self.evals = 0


_COUNTS = _Counts()


def _sign(value: float) -> int:
    if value > 0.0:
        return 1
    if value < 0.0:
        return -1
    return 0


class _Bracket(NamedTuple):
    lo: float
    hi: float
    f_lo: float
    f_hi: float


class Bracket(_Bracket):
    """An interval [lo, hi] and the values of f there, of opposite signs (or one zero)."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, f_lo: float, f_hi: float):
        if not lo < hi:
            raise ValidationError(f"bracket needs lo < hi, got [{lo!r}, {hi!r}]")
        if math.isnan(f_lo) or math.isnan(f_hi):
            raise ValidationError("bracket values must not be NaN")
        if _sign(f_lo) == _sign(f_hi):
            raise ValidationError("bracket endpoints must carry different signs")
        return tuple.__new__(cls, (lo, hi, f_lo, f_hi))

    @classmethod
    def scan(cls, f: Callable[[float], float], lo: float, hi: float) -> "Bracket":
        """Evaluate f at the endpoints and build a Bracket, or fail."""
        f_lo, f_hi = f(lo), f(hi)
        if math.isnan(f_lo) or math.isnan(f_hi):
            raise NaNResidualError(lo if math.isnan(f_lo) else hi)
        if _sign(f_lo) == _sign(f_hi):
            raise NoSignChangeError(lo, hi, f_lo, f_hi)
        return cls(lo, hi, f_lo, f_hi)


def solve_monotone(f: Callable[[float], float], bracket: Bracket, max_iter: int) -> float:
    """Root of f inside `bracket` by safeguarded Illinois steps.

    Stops once the bracket's ends are adjacent doubles, and returns its
    midpoint; stops at once on an exact zero of f. The steps come in
    windows of three: the third step of a window bisects unless the first
    two have halved the width the bracket had when the window began. So
    after n evaluations of f (beyond those of the bracket) the width is at
    most W * 2**-floor(n/3), W the initial width, and a bracket that
    bisection would reach adjacent doubles of in m halvings needs at most
    3*m evaluations. A NaN value of f raises NaNResidualError; running out
    of max_iter evaluations raises IterationLimitError with the last
    bracket. The result always lies inside the initial bracket and is
    bitwise identical across calls with identical inputs. Each call adds
    one solve and n + 2 evaluations to _COUNTS.
    """
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter!r}")
    lo, hi, f_lo, f_hi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    n = 0  # evaluations of f so far, at every exit
    try:
        if f_lo == 0.0:
            return lo
        if f_hi == 0.0:
            return hi
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid

        lo_negative = f_lo < 0.0
        kept = 0  # +1 after lo was kept (hi moved), -1 after hi was kept
        width = hi - lo  # width at the start of the current window of three steps
        for n in range(1, max_iter + 1):
            x = mid
            if n % 3 or hi - lo <= 0.5 * width:
                # the secant point, measured from the end it lies nearer to; NaN
                # or 0 from infinite end values leaves the midpoint
                t = f_lo / (f_lo - f_hi)
                if 0.0 < t <= 0.5:
                    x = lo + (hi - lo) * t
                    if x <= lo:
                        x = math.nextafter(lo, hi)
                elif t > 0.5:
                    x = hi - (hi - lo) * (f_hi / (f_hi - f_lo))
                    if x >= hi:
                        x = math.nextafter(hi, lo)
            fx = f(x)
            if fx == 0.0:
                return x
            if fx != fx:
                raise NaNResidualError(x)
            if (fx < 0.0) is lo_negative:
                lo, f_lo = x, fx
                if kept < 0:
                    f_hi *= 0.5
                kept = -1
            else:
                hi, f_hi = x, fx
                if kept > 0:
                    f_lo *= 0.5
                kept = 1
            if n % 3 == 0:
                width = hi - lo
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                return mid
        raise IterationLimitError(lo, hi, max_iter)
    finally:
        _COUNTS.solves += 1
        _COUNTS.evals += n + 2
