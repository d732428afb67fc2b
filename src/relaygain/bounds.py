"""Closed-form bounds on the optimal base rate, and its asymptotic limits.

Two constructions sandwich the exact base rate, with the exceptions below:

* high-TERN pair: first-order tangents to the two rate curves at the
  share each protocol approaches as eps -> inf (1/(k+1) for NCP,
  1/(k+2) for CP); tangents of concave curves lie above them, so their
  intersection upper-bounds the max-min. The chord through each curve's
  endpoints lies below, so the chord intersection is a lower bound.
* low-TERN pair: the quadratic ln(1+x) >= x - x^2/2 under each curve
  gives two parabolas whose equalization point (a stable quadratic root)
  lower-bounds the rate; the curve endpoints min{...} upper-bound it.

Tightness alternates with regime. A parabola value below zero, or above
its pair's upper bound, is reported as lower 0: rates are nonnegative, and
the exact rate lies at or below the upper. The brackets do not hold for
every eps:

* the low-TERN lower bound can exceed the exact rate by rounding, since
  h_a*eps - h_a^2*eps^2/(2*beta) cancels: by up to ~4e-5 relative over
  wide seeded draws (gains e^+-10, eps e^+-25, k e^+-5), and never over
  the ranges of the benchmark's flows and of verify's grids. Where
  h_a^2 leaves the normal range the value is taken as a - a*(a/(2*beta))
  with a = h_a*eps, so that h_a^2 cannot vanish from it. Where
  eps*h_a^2/2 underflows the peak share is 0, a ValidationError rather
  than a bound. A discriminant that overflows from finite coefficients
  is taken from the coefficients scaled by a power of two;
* the high-TERN pair and the low-TERN upper bound showed no violation in
  those draws. A high-TERN chord that overflows is a ValidationError
  rather than a NaN upper. Where k*h23*eps underflows the low-TERN upper
  loses its digits, down to 0; a parabola value above it gives lower 0.

An upper bound, limit or slope past the float range is a ValidationError.

ROADMAP item 8 tracks the rest.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import ValidationError
from .model import LinkGains, OperatingPoint, _check_positive

# Below this the direct formula for ln(1+c) - c/(1+c) loses ~half its
# digits to cancellation; the series keeps full precision and the bound
# construction stays continuous through c -> 0.
_SERIES_CUTOFF = 1e-4
_DEGENERATE_REL = 1e-12


class BoundPair(NamedTuple):
    """A (lower, upper) bracket on the base rate, in nats.

    ``beta_at_bound`` is the resource share realizing the bound
    construction when it falls inside (0, 1); ``degenerate`` marks the
    equal-gain case where the low-TERN quadratic collapses to its linear
    limit.
    """

    lower: float
    upper: float
    beta_at_bound: float | None = None
    degenerate: bool = False


def _tangent_gap(c: float) -> float:
    """ln(1+c) - c/(1+c), the curvature gap of the tangent construction."""
    if c < _SERIES_CUTOFF:
        return c * c * (0.5 + c * (-2.0 / 3.0 + c * (0.75 - 0.8 * c)))
    return math.log1p(c) - c / (1.0 + c)


def _tangent_construction(h_first: float, h23: float, eps: float, k: float,
                          kappa: float) -> tuple[float, float]:
    """Intersection (beta, value) of the two tangent lines.

    kappa = k for NCP, k+1 for CP; the tangent point sits at 1/(kappa+1).
    Where both tangent gaps underflow the lines are parallel: no bound.
    Where a tangent chord overflows its gap is NaN: no bound either. Each
    tangent chord is an endpoint chord times a factor above 1 (kappa + 1
    for user 1, (kappa+1)/kappa for the partner), so this also rejects
    every infinite chord of _chord_intersection.
    """
    m = kappa + 1.0
    a = m * h_first * eps
    b = h23 * k * eps * m / kappa
    if not (a < math.inf and b < math.inf):
        raise ValidationError(f"high-TERN bound undefined: the tangent chords {a!r} and {b!r} "
                              "must be finite")
    big_a, big_b = math.log1p(a), math.log1p(b)
    gap_a, gap_b = _tangent_gap(a), _tangent_gap(b)
    den = kappa * gap_a + gap_b
    if den == 0.0:
        raise ValidationError(f"high-TERN bound undefined: the tangent gaps of user 1's chord "
                              f"{h_first * eps!r} and user 2's chord {k * h23 * eps!r} "
                              "underflow to 0")
    upper = (big_a * gap_b + kappa * big_b * gap_a) / (m * den)
    beta = 1.0 / m + kappa * (big_b - big_a) / (m * den)
    return beta, upper


def _chord_intersection(h_first: float, h23: float, eps: float, k: float,
                        kappa: float) -> float:
    """Value where the two endpoint chords cross: X*Y/(X+Y), or its limit 0 where
    both chords underflow to 0."""
    x = math.log1p(h_first * eps)
    y = math.log1p(k * h23 * eps) / kappa
    return x * y / (x + y) if x + y > 0.0 else 0.0


def _parabola_peak(h_a: float, h_b: float, eps: float, kappa: float) -> tuple[float, float, bool]:
    """Equalize the two second-order lower parabolas.

    f(b) = (h_b - h_a) b^2 + (eps*(h_a^2 + kappa*h_b^2)/2 + h_a - h_b) b - eps*h_a^2/2
    has f(0) < 0 < f(1) = eps*kappa*h_b^2/2, so one root lies in (0, 1). With the
    stable q = -(lin + sign(lin)*sqrt(D))/2 it is const/q where lin >= 0, else q/quad
    (f(1) > 0 forces quad > 0, so the other root is negative). Where D overflows
    to inf, the coefficients are scaled first by the power of two that brings the
    largest into [1/2, 1), which leaves the root as it is. Returns (beta, parabola
    value, degenerate flag); where h_a^2 is not a normal float the value is
    a - a*(a/(2*beta)) with a = h_a*eps. A share of 0 (underflow) or inf (an infinite
    coefficient) raises; a NaN share, from an infinite curvature term or from
    D = inf - inf, clamps to lower 0.
    """
    quad = h_b - h_a
    lin = 0.5 * eps * (h_a * h_a + kappa * h_b * h_b) + h_a - h_b
    const = -0.5 * eps * h_a * h_a
    degenerate = abs(quad) <= _DEGENERATE_REL * max(h_a, h_b)
    if degenerate:
        if lin == 0.0:
            raise ValidationError(f"low-TERN bound undefined: the parabola slope at "
                                  f"eps={eps!r} underflows to 0")
        beta = -const / lin
    else:
        d = lin * lin - 4.0 * quad * const
        if d == math.inf:
            # scaled, lin*lin and 4*quad*const stay below 4; an infinite coefficient
            # has frexp exponent 0 and is left as it is
            e = -math.frexp(max(abs(quad), abs(lin), abs(const)))[1]
            quad, lin, const = math.ldexp(quad, e), math.ldexp(lin, e), math.ldexp(const, e)
            d = lin * lin - 4.0 * quad * const
        disc = math.sqrt(max(d, 0.0))
        q = -0.5 * (lin + math.copysign(disc, lin))
        beta = q / quad if lin < 0.0 else const / q if q else 0.0
    if beta == 0.0 or beta == math.inf:
        raise ValidationError(f"low-TERN bound undefined: the parabola peak share at eps={eps!r} "
                              + ("underflows to 0" if beta == 0.0 else "overflows"))
    square = h_a * h_a
    if sys.float_info.min <= square < math.inf:
        value = h_a * eps - square * eps * eps / (2.0 * beta)
    else:
        # h_a^2 underflows, which would leave user 1's whole chord, or overflows
        chord = h_a * eps
        value = chord - chord * (chord / (2.0 * beta))
    return beta, value, degenerate


def _in_float_range(value: float, what: str) -> float:
    if not value < math.inf:  # inf, or NaN from inf/inf
        raise ValidationError(f"{what} lies outside the float range")
    return value


def _in_unit(beta: float) -> float | None:
    return beta if 0.0 < beta < 1.0 else None


def _parabola_lower(value: float, upper: float) -> float:
    """The parabola value as a lower bound: 0 where it is negative, NaN or above the upper."""
    return value if 0.0 < value <= upper else 0.0


def ncp_bounds_high_tern(gains: LinkGains, op: OperatingPoint) -> BoundPair:
    """Tangent upper / chord lower bracket on the NCP base rate."""
    beta, upper = _tangent_construction(gains.h13, gains.h23, op.epsilon, op.k, op.k)
    lower = _chord_intersection(gains.h13, gains.h23, op.epsilon, op.k, op.k)
    return BoundPair(lower, upper, _in_unit(beta))


def cp_bounds_high_tern(gains: LinkGains, op: OperatingPoint) -> BoundPair:
    """Tangent upper / chord lower bracket on the CP base rate."""
    kappa = op.k + 1.0
    beta, upper = _tangent_construction(gains.h12, gains.h23, op.epsilon, op.k, kappa)
    lower = _chord_intersection(gains.h12, gains.h23, op.epsilon, op.k, kappa)
    return BoundPair(lower, upper, _in_unit(beta))


def ncp_bounds_low_tern(gains: LinkGains, op: OperatingPoint) -> BoundPair:
    """Parabola lower / endpoint upper bracket on the NCP base rate."""
    h13, h23, eps, k = gains.h13, gains.h23, op.epsilon, op.k
    beta, value, degenerate = _parabola_peak(h13, h23, eps, k)
    upper = _in_float_range(min(math.log1p(h13 * eps), math.log1p(k * h23 * eps) / k),
                            "the NCP low-TERN upper bound")
    return BoundPair(_parabola_lower(value, upper), upper, _in_unit(beta), degenerate)


def cp_bounds_low_tern(gains: LinkGains, op: OperatingPoint) -> BoundPair:
    """Parabola lower / endpoint upper bracket on the CP base rate.

    The partner curve enters through its low-TERN slope k*h23/(k+1) with
    fairness weight k+1 in the curvature term.
    """
    h12, h23, eps, k = gains.h12, gains.h23, op.epsilon, op.k
    relayed = k * h23 / (k + 1.0)
    beta, value, degenerate = _parabola_peak(h12, relayed, eps, k + 1.0)
    upper = _in_float_range(min(math.log1p(h12 * eps), math.log1p(k * h23 * eps) / (k + 1.0)),
                            "the CP low-TERN upper bound")
    return BoundPair(_parabola_lower(value, upper), upper, _in_unit(beta), degenerate)


def low_tern_gain_limit(gains: LinkGains, k: float) -> float:
    """Limit of the collaboration gain as eps -> 0+."""
    k = _check_positive("k", k)
    return _in_float_range(_low_tern_limit(gains.h12, gains.h13, gains.h23, k),
                           "the low-TERN gain limit")


def _low_tern_limit(h12: float, h13: float, h23: float, k: float) -> float:
    """low_tern_gain_limit from raw positive gains and k, unchecked: inf past the float range."""
    return min(h12, k / (k + 1.0) * h23) / min(h13, h23)


def high_tern_gain_limit(k: float) -> float:
    """Limit of the collaboration gain as eps -> inf: (k+1)/(k+2) < 1."""
    k = _check_positive("k", k)
    return (k + 1.0) / (k + 2.0)


def small_k_gain_slope(gains: LinkGains, eps: float) -> float:
    """Limit of gain/k as k -> 0+: h23*eps / ln(1 + h13*eps).

    Where h13*eps or h23*eps is not a normal float, that quotient loses
    its digits or divides by 0; there the slope is (h23/h13) * (x/ln(1+x))
    with x = h13*eps, the factor taken as 1 where x is not a normal float.
    """
    eps = _check_positive("eps", eps)
    run, rise = gains.h13 * eps, gains.h23 * eps
    if min(run, rise) >= sys.float_info.min:
        slope = rise / math.log1p(run)
    else:
        normal = sys.float_info.min <= run < math.inf
        slope = gains.h23 / gains.h13 * (run / math.log1p(run) if normal else 1.0)
    return _in_float_range(slope, "the small-k gain slope")
