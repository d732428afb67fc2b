"""Self-check suites behind the `verify` CLI subcommand.

Each suite re-derives a family of analytic claims numerically with fixed
seeds: bound sandwiches over a gain/TERN/ratio grid, rate-energy duality
roundtrips, asymptotic limits, placement optima and selection
consistency. The low-TERN inequality survey is informational only (the
claimed universal bound demonstrably fails at moderate TERN and is
reported, not asserted).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import NamedTuple

from .allocation import _gain, _rates, collaboration_gain, cp_allocate, ncp_allocate
from .bounds import (_low_tern_limit, cp_bounds_high_tern, cp_bounds_low_tern,
                     high_tern_gain_limit, low_tern_gain_limit, ncp_bounds_high_tern,
                     ncp_bounds_low_tern, small_k_gain_slope)
from .energy import min_tern
from .errors import ValidationError
from .geometry import (MAX_GRID_POINTS, _collinear_pair, max_geometric_gain,
                       optimal_relay_location)
from .model import LinkGains, OperatingPoint, Protocol, _check_positive
from .selection import RelayCandidate, rate_energy_score, select_relay_rate

GRID_GAINS = (0.1, 0.5, 1.0, 2.0, 10.0)
GRID_EPS = (1e-4, 1e-2, 1.0, 1e2, 1e4)
GRID_K = (0.1, 1.0, 10.0)
# a bound may miss its exact rate by this share of the rate
SANDWICH_SLACK = 1e-12


class CheckResult(NamedTuple):
    """One verification line; passed=None marks informational entries."""

    name: str
    passed: bool | None
    detail: str


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def sandwich_violations() -> tuple[int, int]:
    """(checked, violations) over the full grid for all four bound operations.

    Each protocol's two bound pairs and exact base rate are computed once
    per the inputs they read, NCP's per (h13, h23, eps, k) and CP's per
    (h12, h23, eps, k), and shared across the third gain: 375 calls per
    bound function for the 1,875 grid points. A bound must hold to a
    relative SANDWICH_SLACK of the exact rate.
    """
    def breaches(exact: float, *pairs) -> int:
        slack = SANDWICH_SLACK * exact
        return sum(not (pair.lower <= exact + slack and exact <= pair.upper + slack)
                   for pair in pairs)

    @functools.cache
    def ncp(h13: float, h23: float, eps: float, k: float) -> int:
        gains, op = LinkGains(1.0, h13, h23), OperatingPoint(eps, k)  # NCP reads no h12
        return breaches(_rates(k, h13, h23, eps, k)[1],
                        ncp_bounds_high_tern(gains, op), ncp_bounds_low_tern(gains, op))

    @functools.cache
    def cp(h12: float, h23: float, eps: float, k: float) -> int:
        gains, op = LinkGains(h12, 1.0, h23), OperatingPoint(eps, k)  # CP reads no h13
        return breaches(_rates(k + 1.0, h12, h23, eps, k)[1],
                        cp_bounds_high_tern(gains, op), cp_bounds_low_tern(gains, op))

    grid = list(itertools.product(GRID_GAINS, GRID_GAINS, GRID_GAINS, GRID_EPS, GRID_K))
    violations = sum(ncp(h13, h23, eps, k) + cp(h12, h23, eps, k)
                     for h12, h13, h23, eps, k in grid)
    return 4 * len(grid), violations


def _suite_sandwich() -> list[CheckResult]:
    checked, violations = sandwich_violations()
    return [CheckResult("sandwich.grid", violations == 0,
                        f"{checked} bound evaluations, {violations} violations")]


def _suite_duality() -> list[CheckResult]:
    rng = random.Random(20080324)
    worst = 0.0
    for _ in range(100):
        gains = LinkGains(*(_log_uniform(rng, 0.1, 10.0) for _ in range(3)))
        eps = _log_uniform(rng, 1e-3, 1e2)
        k = _log_uniform(rng, 0.1, 10.0)
        op = OperatingPoint(eps, k)
        for protocol, allocate in ((Protocol.NCP, ncp_allocate), (Protocol.CP, cp_allocate)):
            rate = allocate(gains, op).base_rate
            recovered = min_tern(protocol, gains, k, rate).epsilon_min
            worst = max(worst, abs(recovered - eps) / eps)
    return [CheckResult("duality.roundtrip", worst <= 1e-12,
                        f"100 instances x 2 protocols, worst relative error {worst:.3e}")]


def _suite_limits() -> list[CheckResult]:
    rng = random.Random(19121030)
    results = []
    worst = 0.0
    for _ in range(20):
        gains = LinkGains(*(_log_uniform(rng, 0.1, 10.0) for _ in range(3)))
        for k in GRID_K:
            gain = collaboration_gain(gains, OperatingPoint(1e-6, k)).gain
            limit = low_tern_gain_limit(gains, k)
            worst = max(worst, abs(gain - limit) / limit)
    results.append(CheckResult("limits.low_tern", worst <= 1e-3,
                               f"20 triples x 3 ratios at eps=1e-6, worst {worst:.3e}"))

    ones = LinkGains(1.0, 1.0, 1.0)
    gain = collaboration_gain(ones, OperatingPoint(1e8, 1.0)).gain
    dev = abs(gain - high_tern_gain_limit(1.0)) / high_tern_gain_limit(1.0)
    results.append(CheckResult("limits.high_tern", dev <= 1e-2,
                               f"equal gains, k=1, eps=1e8: gain {gain:.6f}, deviation {dev:.3e}"))

    slope = small_k_gain_slope(ones, 1.0)
    gain_small = collaboration_gain(ones, OperatingPoint(1.0, 1e-4)).gain
    dev = abs(gain_small / 1e-4 - slope) / slope
    below = collaboration_gain(ones, OperatingPoint(1.0, 1e-3)).gain
    results.append(CheckResult("limits.small_k", dev <= 1e-2 and below < 1.0,
                               f"gain/k at k=1e-4 off by {dev:.3e}; gain(k=1e-3)={below:.3e}"))

    gain_large = collaboration_gain(ones, OperatingPoint(1.0, 1e4)).gain
    results.append(CheckResult("limits.large_k", abs(gain_large - 1.0) <= 0.01,
                               f"gain(k=1e4)={gain_large:.6f}"))
    return results


def collinear_grid_peak(k: float, eta: float, step: float = 1e-3) -> tuple[float, float]:
    """(argmax d, max value) of the collinear low-TERN gain on the grid d = i*step in (0, 1).

    Each value is low_tern_gain_limit(collinear_gains(d, eta), k), bit for
    bit, from the raw cores of both. The grid has round(1/step) - 1 points:
    a step that leaves none, or more than MAX_GRID_POINTS, is a
    ValidationError.
    """
    k, eta = _check_positive("k", k), _check_positive("eta", eta)
    step = _check_positive("step", step)
    if not 1.0 / step < MAX_GRID_POINTS:  # inf where the quotient overflows
        raise ValidationError(f"placement grid by step {step!r} has more than "
                              f"{MAX_GRID_POINTS} points")
    n = round(1.0 / step) - 1
    if n < 1:
        raise ValidationError(f"placement grid by step {step!r} has no point in (0, 1)")
    best_d, best_v = None, -1.0
    for i in range(1, n + 1):
        d = i * step
        h12, h23 = _collinear_pair(d, eta)
        v = _low_tern_limit(h12, 1.0, h23, k)
        if v > best_v:
            best_d, best_v = d, v
    return best_d, best_v


def placement_shortfall_bound(k: float, eta: float, step: float = 1e-3) -> float:
    """Largest relative shortfall of the grid max below the closed-form peak.

    The peak is a kink at d* where the gain falls like (m/d)^eta, m = min(d*, 1-d*),
    and a grid of spacing `step` has a point within step/2 of d*.
    """
    d_star = optimal_relay_location(k, eta)
    m = min(d_star, 1.0 - d_star)
    return 1.0 - (m / (m + step / 2)) ** eta


def _suite_placement() -> list[CheckResult]:
    results = []
    argmax_ok = value_ok = True
    worst = 0.0
    deficits = []
    for k in (1.0, 10.0):
        for eta in (2.0, 3.0):
            d_grid, v_grid = collinear_grid_peak(k, eta)
            d_star = optimal_relay_location(k, eta)
            v_star = max_geometric_gain(k, eta)
            argmax_ok &= abs(d_grid - d_star) <= 2e-3
            shortfall = (v_star - v_grid) / v_star
            bound = placement_shortfall_bound(k, eta)
            value_ok &= v_grid <= v_star * (1 + 1e-12) and shortfall <= bound
            worst = max(worst, shortfall / bound)
            deficits.append(f"(k={k:g},eta={eta:g}): {abs(v_star - v_grid) / v_star:.2e}")
    results.append(CheckResult("placement.argmax", argmax_ok,
                               "grid argmax within 2e-3 of closed form for all four combos"))
    results.append(CheckResult("placement.value", value_ok,
                               "all four combos: grid max <= closed form, shortfall within "
                               f"the kink sampling bound (worst {worst:.2f} of it)"))
    results.append(CheckResult("placement.value_survey", None,
                               "grid-max deficits " + ", ".join(deficits)))
    mono = all(max_geometric_gain(1.0, eta) < max_geometric_gain(1.0, eta + 0.5)
               for eta in (2.0, 2.5, 3.0, 3.5))
    results.append(CheckResult("placement.monotone_eta", mono,
                               "max geometric gain increases with the path-loss exponent"))
    return results


def _suite_selection() -> list[CheckResult]:
    rng = random.Random(4242)
    mismatches = checked = 0
    while checked < 50:
        h_sd = _log_uniform(rng, 0.25, 4.0)
        k = _log_uniform(rng, 0.1, 10.0)
        cands = [RelayCandidate(f"c{i}", _log_uniform(rng, 0.25, 4.0),
                                _log_uniform(rng, 0.25, 4.0))
                 for i in range(rng.randint(2, 6))]
        scores = sorted(rate_energy_score(h_sd, c, k) for c in cands)
        if scores[-1] - scores[-2] < 0.01 * scores[-2]:
            continue
        checked += 1
        op = OperatingPoint(1e-4, k)
        fast = select_relay_rate(h_sd, cands, op)
        full = select_relay_rate(h_sd, cands, op, confirm_all=True)
        if (fast.protocol, fast.relay_id) != (full.protocol, full.relay_id):
            mismatches += 1
    results = [CheckResult("selection.low_tern_consistency", mismatches == 0,
                           f"{checked} candidate sets, {mismatches} decision mismatches")]

    never_bad = True
    for _ in range(200):
        h_sd = _log_uniform(rng, 0.1, 10.0)
        k = _log_uniform(rng, 0.1, 10.0)
        eps = _log_uniform(rng, 1e-4, 1e2)
        cands = [RelayCandidate(f"c{i}", _log_uniform(rng, 0.1, 10.0),
                                _log_uniform(rng, 0.1, 10.0))
                 for i in range(rng.randint(1, 4))]
        decision = select_relay_rate(h_sd, cands, OperatingPoint(eps, k))
        if decision.protocol is Protocol.CP and (decision.exact_gain or 0.0) <= 1.0:
            never_bad = False
    results.append(CheckResult("selection.no_losing_cp", never_bad,
                               "200 instances: CP only returned with exact gain > 1"))

    cand = RelayCandidate("a", 3.0, 2.0)
    base = rate_energy_score(1.5, cand, 0.7)
    scaled = rate_energy_score(1.5 * 8.0, RelayCandidate("a", 3.0 * 8.0, 2.0 * 8.0), 0.7)
    results.append(CheckResult("selection.scale_invariance", scaled == base,
                               "score unchanged under common gain scaling"))
    return results


def _suite_inequality() -> list[CheckResult]:
    holds = fails = 0
    worst_excess, example = 0.0, ""
    rates = functools.cache(_rates)  # each base rate solved once per the inputs it reads
    for h12 in (0.25, 1.0, 4.0):
        for h13 in (0.25, 1.0, 4.0):
            for h23 in (0.25, 1.0, 4.0):
                gains = LinkGains(h12, h13, h23)
                for eps in (1e-3, 1e-1, 1.0, 10.0, 1e3):
                    for k in GRID_K:
                        gain = _gain(rates(k, h13, h23, eps, k)[1],
                                     rates(k + 1.0, h12, h23, eps, k)[1])
                        limit = low_tern_gain_limit(gains, k)
                        if gain <= limit + 1e-12:
                            holds += 1
                        else:
                            fails += 1
                            if (gain - limit) / limit > worst_excess:
                                worst_excess = (gain - limit) / limit
                                example = (f"h=({h12},{h13},{h23}) eps={eps} k={k}: "
                                           f"gain {gain:.4f} > limit {limit:.4f}")
    detail = f"gain <= low-TERN limit held at {holds} and failed at {fails} points"
    if example:
        detail += f"; worst {example}"
    return [CheckResult("inequality.survey", None, detail)]


_SUITES = {
    "sandwich": _suite_sandwich,
    "duality": _suite_duality,
    "limits": _suite_limits,
    "placement": _suite_placement,
    "selection": _suite_selection,
    "inequality": _suite_inequality,
}

SUITES = (*_SUITES, "all")


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite (or 'all'); returns one CheckResult per check."""
    if name == "all":
        results = []
        for fn in _SUITES.values():
            results.extend(fn())
        return results
    if name not in _SUITES:
        raise ValidationError(f"unknown suite {name!r}; expected one of {SUITES}")
    return _SUITES[name]()
