"""Self-check suites behind the `verify` CLI subcommand.

Each suite re-derives a family of analytic claims numerically: bound
sandwiches over a gain/TERN/ratio grid, rate-energy duality roundtrips,
asymptotic limits, placement optima and selection consistency. Each claim
is measured by one function, which the suites and the acceptance criteria
call; a seeded one takes (rng, n). The low-TERN inequality survey is only
informational: the claimed universal bound fails at moderate TERN.
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
from .geometry import _collinear_pair, max_geometric_gain, optimal_relay_location
from .model import LinkGains, OperatingPoint, Protocol, _check_positive
from .selection import RelayCandidate, rate_energy_score, select_relay_rate

GRID_GAINS = (0.1, 0.5, 1.0, 2.0, 10.0)
GRID_EPS = (1e-4, 1e-2, 1.0, 1e2, 1e4)
GRID_K = (0.1, 1.0, 10.0)
# a bound may miss its exact rate by this share of the rate
SANDWICH_SLACK = 1e-12
# the spacing of the placement suite's grid of relay locations d
PLACEMENT_STEP = 1e-3
_ONES = LinkGains(1.0, 1.0, 1.0)


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


def duality_error(rng: random.Random, n: int) -> float:
    """Worst relative error of the TERN that min_tern recovers from each
    protocol's base rate, over n drawn gain triples, TERNs and ratios."""
    worst = 0.0
    for _ in range(n):
        gains = LinkGains(*(_log_uniform(rng, 0.1, 10.0) for _ in range(3)))
        eps = _log_uniform(rng, 1e-3, 1e2)
        k = _log_uniform(rng, 0.1, 10.0)
        op = OperatingPoint(eps, k)
        for protocol, allocate in ((Protocol.NCP, ncp_allocate), (Protocol.CP, cp_allocate)):
            rate = allocate(gains, op).base_rate
            recovered = min_tern(protocol, gains, k, rate).epsilon_min
            worst = max(worst, abs(recovered - eps) / eps)
    return worst


def _suite_duality() -> list[CheckResult]:
    worst = duality_error(random.Random(20080324), 100)
    return [CheckResult("duality.roundtrip", worst <= 1e-12,
                        f"100 instances x 2 protocols, worst relative error {worst:.3e}")]


def low_tern_deviation(rng: random.Random, n: int) -> float:
    """Worst relative deviation of the gain at eps=1e-6 from its low-TERN
    limit, over n drawn gain triples at each k of GRID_K."""
    worst = 0.0
    for _ in range(n):
        gains = LinkGains(*(_log_uniform(rng, 0.1, 10.0) for _ in range(3)))
        for k in GRID_K:
            gain = collaboration_gain(gains, OperatingPoint(1e-6, k)).gain
            limit = low_tern_gain_limit(gains, k)
            worst = max(worst, abs(gain - limit) / limit)
    return worst


def unit_high_tern_deviation() -> tuple[float, float]:
    """(gain, relative deviation from its high-TERN limit) at equal unit gains, k=1, eps=1e8."""
    gain = collaboration_gain(_ONES, OperatingPoint(1e8, 1.0)).gain
    return gain, abs(gain - high_tern_gain_limit(1.0)) / high_tern_gain_limit(1.0)


def small_k_deviation() -> tuple[float, float]:
    """(relative gap of gain/k at k=1e-4 to the slope, gain at k=1e-3) at unit gains, eps=1."""
    slope = small_k_gain_slope(_ONES, 1.0)
    gain_small = collaboration_gain(_ONES, OperatingPoint(1.0, 1e-4)).gain
    return (abs(gain_small / 1e-4 - slope) / slope,
            collaboration_gain(_ONES, OperatingPoint(1.0, 1e-3)).gain)


def large_k_gain() -> float:
    """The gain at equal unit gains, eps=1 and k=1e4; it tends to 1 as k grows."""
    return collaboration_gain(_ONES, OperatingPoint(1.0, 1e4)).gain


def _suite_limits() -> list[CheckResult]:
    worst = low_tern_deviation(random.Random(19121030), 20)
    results = [CheckResult("limits.low_tern", worst <= 1e-3,
                           f"20 triples x 3 ratios at eps=1e-6, worst {worst:.3e}")]
    gain, dev = unit_high_tern_deviation()
    results.append(CheckResult("limits.high_tern", dev <= 1e-2,
                               f"equal gains, k=1, eps=1e8: gain {gain:.6f}, deviation {dev:.3e}"))
    dev, below = small_k_deviation()
    results.append(CheckResult("limits.small_k", dev <= 1e-2 and below < 1.0,
                               f"gain/k at k=1e-4 off by {dev:.3e}; gain(k=1e-3)={below:.3e}"))
    gain_large = large_k_gain()
    results.append(CheckResult("limits.large_k", abs(gain_large - 1.0) <= 0.01,
                               f"gain(k=1e4)={gain_large:.6f}"))
    return results


def collinear_grid_peak(k: float, eta: float) -> tuple[float, float]:
    """(argmax d, max value) of the collinear low-TERN gain on d = i*PLACEMENT_STEP in (0, 1).

    Each value is low_tern_gain_limit(collinear_gains(d, eta), k), bit for
    bit, from the raw cores of both.
    """
    k, eta = _check_positive("k", k), _check_positive("eta", eta)
    best_d, best_v = None, -1.0
    for i in range(1, round(1.0 / PLACEMENT_STEP)):
        d = i * PLACEMENT_STEP
        h12, h23 = _collinear_pair(d, eta)
        v = _low_tern_limit(h12, 1.0, h23, k)
        if v > best_v:
            best_d, best_v = d, v
    return best_d, best_v


def placement_peaks() -> list[tuple[float, float, float, float, float]]:
    """(k, eta, |d_grid - d*|, (v* - v_grid)/v*, shortfall bound) at k in {1, 10}, eta in {2, 3}.

    The peak is a kink at d* where the gain falls like (m/d)^eta, m = min(d*, 1-d*),
    and the grid has a point within PLACEMENT_STEP/2 of d*: its maximum falls short
    of v* by at most the bound 1 - (m/(m + PLACEMENT_STEP/2))^eta.
    """
    peaks = []
    for k, eta in itertools.product((1.0, 10.0), (2.0, 3.0)):
        d_grid, v_grid = collinear_grid_peak(k, eta)
        d_star, v_star = optimal_relay_location(k, eta), max_geometric_gain(k, eta)
        m = min(d_star, 1.0 - d_star)
        peaks.append((k, eta, abs(d_grid - d_star), (v_star - v_grid) / v_star,
                      1.0 - (m / (m + PLACEMENT_STEP / 2)) ** eta))
    return peaks


def _suite_placement() -> list[CheckResult]:
    peaks = placement_peaks()
    argmax_ok = all(d_err <= 2e-3 for _, _, d_err, _, _ in peaks)
    value_ok = all(-1e-12 <= shortfall <= bound for *_, shortfall, bound in peaks)
    worst = max(shortfall / bound for *_, shortfall, bound in peaks)
    deficits = ", ".join(f"(k={k:g},eta={eta:g}): {abs(shortfall):.2e}"
                         for k, eta, _, shortfall, _ in peaks)
    mono = all(max_geometric_gain(1.0, eta) < max_geometric_gain(1.0, eta + 0.5)
               for eta in (2.0, 2.5, 3.0, 3.5))
    return [CheckResult("placement.argmax", argmax_ok,
                        "grid argmax within 2e-3 of closed form for all four combos"),
            CheckResult("placement.value", value_ok,
                        "all four combos: grid max <= closed form, shortfall within "
                        f"the kink sampling bound (worst {worst:.2f} of it)"),
            CheckResult("placement.value_survey", None, "grid-max deficits " + deficits),
            CheckResult("placement.monotone_eta", mono,
                        "max geometric gain increases with the path-loss exponent")]


def selection_mismatches(rng: random.Random, n: int) -> int:
    """Decisions, over n drawn candidate sets whose two best scores differ by
    at least 1%, where the score-ranked selection at eps=1e-4 differs from
    confirm_all."""
    mismatches = checked = 0
    while checked < n:
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
        mismatches += (fast.protocol, fast.relay_id) != (full.protocol, full.relay_id)
    return mismatches


def losing_cp_decisions(rng: random.Random, n: int) -> int:
    """Decisions, over n drawn flows, that choose CP at an exact gain of at most 1."""
    losing = 0
    for _ in range(n):
        h_sd = _log_uniform(rng, 0.1, 10.0)
        k = _log_uniform(rng, 0.1, 10.0)
        eps = _log_uniform(rng, 1e-4, 1e2)
        cands = [RelayCandidate(f"c{i}", _log_uniform(rng, 0.1, 10.0),
                                _log_uniform(rng, 0.1, 10.0))
                 for i in range(rng.randint(1, 4))]
        decision = select_relay_rate(h_sd, cands, OperatingPoint(eps, k))
        losing += decision.protocol is Protocol.CP and (decision.exact_gain or 0.0) <= 1.0
    return losing


def _suite_selection() -> list[CheckResult]:
    rng = random.Random(4242)  # both loops draw from it, in turn
    mismatches = selection_mismatches(rng, 50)
    results = [CheckResult("selection.low_tern_consistency", mismatches == 0,
                           f"50 candidate sets, {mismatches} decision mismatches"),
               CheckResult("selection.no_losing_cp", losing_cp_decisions(rng, 200) == 0,
                           "200 instances: CP only returned with exact gain > 1")]
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
