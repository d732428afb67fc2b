"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Where `relaygain.verify` measures a claim, the criterion calls that
measurement with its own seeds and counts and asserts its own bound.
Three criteria check a limit that the program reaches only slowly, only at
a kink or only as the rate vanishes, so where and how tightly each one is
sampled follows from the mathematics:

* Criterion 04, the high-TERN limit. With L = ln(eps), each base rate
  expands as R = (L + C)/(kappa+1) + O(1/L), where

      C = [ln((kappa+1)*h_first) + kappa*ln((kappa+1)*k*h23/kappa)] / (kappa+1),

  with kappa = k, h_first = h13 for NCP and kappa = k+1, h_first = h12 for
  CP. Hence gain/((k+1)/(k+2)) - 1 = (C_CP - C_NCP)/L + O(1/L^2). Over the
  60 cases |C_CP - C_NCP| reaches 3.35, so a 1e-2 match needs L >~ 335
  (eps >~ 1e146); at eps=1e8 (L = 18.4) the gap reaches 16.9%. The match is
  asserted at eps=1e200 (L = 460.5), below the eps >~ 1e295 region where
  the share solver overflows; the worst gap at eps=1e8 is printed as an
  unasserted diagnostic. At equal unit gains and k=1, C_CP - C_NCP is
  only (ln3 + 2 ln1.5)/3 - ln2 = -0.057, so there the 1e-2 match holds
  already at eps=1e8, where it is asserted too.

* Criterion 06, the placement peak. The collinear low-TERN gain
  min(d^-eta, c*(1-d)^-eta), c = k/(k+1), peaks at the kink
  d* = 1/(1 + c^(1/eta)) with value v* = d*^-eta. A grid of step h has a
  point within h/2 of d*, so its maximum v_grid obeys

      v_grid <= v*   and   (v* - v_grid)/v* <= 1 - (m/(m + h/2))^eta,

  with m = min(d*, 1-d*): a shortfall of order eta*h, not h^2, because the
  peak is not smooth. Both conditions are asserted for each (k, eta), with
  the shortfall and its bound printed side by side.

* Criterion 14, the energy gain at the placement peak. At d* the gains of
  collinear_gains(d*, eta) are h13 = 1 and h12 = c*h23 = m, the peak value.
  min_tern(rate R) crosses eps1(b) = b*expm1(R/b)/h_first with
  eps2(b) = (1-b)*expm1(kappa*R/(1-b))/(k*h23). For CP (kappa = k+1,
  h_first = h12 = c*h23) the two are equal at b = 1/(k+2) for every R, so

      eps_CP = (R/m)*(1 + (k+2)R/2 + (k+2)^2 R^2/6 + O(R^3)).

  For NCP (kappa = k, h_first = 1) the share tends to 1 - kR/y0, where y0
  solves expm1(y0)/y0 = h23, and eps_NCP = R*(1 + R/2 + (1/6 + k/(2 y0))R^2
  + O(R^3)). The ratio eps_NCP/eps_CP therefore tends to m from below, and

      gap = 1 - ratio/m = (k+1)R/2 * (1 + c2*R + O(R^2)),
      c2 = -2*[1/6 + k/(2 y0) + (k+2)(k-1)/12]/(k+1).

  At (k, eta) in {1, 10} x {2, 3} c2 is -0.340, -0.298, -2.044 and -1.936,
  and (gap/((k+1)R/2) - 1)/(c2*R) reads 1.000 at R = 1e-3 and 1e-4. The
  criterion asserts ratio <= m*(1 + 1e-12) and
  |gap/((k+1)R/2) - 1| <= 2|c2|R at R in {1e-3, 1e-4, 1e-6}: twice the
  second-order term, which a first-order term of kR/2 would miss by 1/k.
"""

import math
import random
import time

import numpy as np
import pytest

from relaygain import (LinkGains, OperatingPoint, Protocol, collaboration_gain,
                       collinear_gains, cp_allocate, high_tern_gain_limit,
                       max_geometric_gain, min_tern, ncp_allocate, optimal_relay_location,
                       small_k_gain_slope, sweep)
from relaygain.bounds import _tangent_construction, _tangent_gap
from relaygain.verify import (duality_error, large_k_gain, losing_cp_decisions,
                              low_tern_deviation, placement_peaks, sandwich_violations,
                              selection_mismatches, small_k_deviation,
                              unit_high_tern_deviation)

SEED = 20260809
ONES = LinkGains(1, 1, 1)
LN3 = math.log(3)


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")


def random_triples(n=20, lo=0.1, hi=10.0):
    rng = random.Random(SEED)
    return [tuple(math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(3))
            for _ in range(n)]


def test_criterion_01_symmetric_exactness():
    op = OperatingPoint(1.0, 1.0)
    alloc = ncp_allocate(ONES, op)  # warm-up
    elapsed = math.inf
    for _ in range(5):
        start = time.perf_counter()
        ncp_allocate(ONES, op)
        elapsed = min(elapsed, time.perf_counter() - start)
    ok = (abs(alloc.beta - 0.5) <= 1e-10
          and abs(alloc.base_rate - 0.5 * LN3) <= 1e-10
          and elapsed < 1e-3)
    report(1, ok, f"symmetric NCP beta/base exact to 1e-10, runtime {elapsed * 1e6:.0f}us")
    assert abs(alloc.beta - 0.5) <= 1e-10
    assert abs(alloc.base_rate - 0.5 * LN3) <= 1e-10
    assert elapsed < 1e-3


def test_criterion_02_bound_sandwich_grid():
    start = time.perf_counter()
    checked, violations = sandwich_violations()
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    report(2, ok, f"{checked} bound checks, {violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_03_low_tern_gain_limit():
    worst = {seed: low_tern_deviation(random.Random(seed), n) for seed, n in ((SEED, 20), (5, 10))}
    ok = max(worst.values()) <= 1e-3
    report(3, ok, f"60 + 30 cases at eps=1e-6, worst relative deviation by seed "
                  + ", ".join(f"{seed}: {dev:.2e}" for seed, dev in worst.items()))
    assert ok, worst


def test_criterion_04_high_tern_gain_limit():
    def worst_gap(eps):
        worst = {k: 0.0 for k in (0.1, 1.0, 10.0)}
        for h12, h13, h23 in random_triples():
            gains = LinkGains(h12, h13, h23)
            for k in worst:
                gain = collaboration_gain(gains, OperatingPoint(eps, k)).gain
                limit = high_tern_gain_limit(k)
                worst[k] = max(worst[k], abs(gain - limit) / limit)
        return worst

    worst = worst_gap(1e200)
    worst_1e8 = max(worst_gap(1e8).values())
    _, unit_gap = unit_high_tern_deviation()
    ok = max(worst.values()) <= 1e-2 and unit_gap <= 1e-2
    by_k = ", ".join(f"k={k:g}: {dev:.1e}" for k, dev in worst.items())
    report(4, ok, f"60 cases at eps=1e200 vs (k+1)/(k+2), worst gap {by_k}; "
                  f"unit gains at eps=1e8, k=1: gap {unit_gap:.2e}; "
                  f"diagnostic worst gap at eps=1e8 {worst_1e8:.2e}")
    assert max(worst.values()) <= 1e-2, (
        f"worst relative gap by k {worst} exceeds 1e-2 at eps=1e200, where "
        "the 1/ln(eps) term predicts at most 7.3e-3")
    assert unit_gap <= 1e-2


def test_criterion_05_duality_roundtrip():
    worst = {seed: duality_error(random.Random(seed), n)
             for seed, n in ((SEED + 1, 100), (11, 40))}
    ok = max(worst.values()) <= 1e-12
    report(5, ok, "100 + 40 instances x 2 protocols, worst eps recovery error by seed "
                  + ", ".join(f"{seed}: {err:.2e}" for seed, err in worst.items()))
    assert ok, worst


def test_criterion_06_placement_grid():
    peaks = placement_peaks()
    bad = [(k, eta, d_err, shortfall, bound) for k, eta, d_err, shortfall, bound in peaks
           if not (d_err <= 2e-3 and -1e-12 <= shortfall <= bound)]
    details = [f"(k={k:g},eta={eta:g}): d_err={d_err:.1e} shortfall={shortfall:.2e} "
               f"bound={bound:.2e}" for k, eta, d_err, shortfall, bound in peaks]
    spot_ok = (abs(optimal_relay_location(1.0, 2.0) - 0.585786) <= 1e-6
               and abs(max_geometric_gain(1.0, 2.0) - 2.91421) <= 1e-5)
    ok = not bad and spot_ok
    report(6, ok, "; ".join(details))
    assert spot_ok
    assert not bad, (
        f"(k, eta, d_err, shortfall, bound) out of range at {bad}: the grid "
        "argmax must lie within 2e-3 of d*, no grid value may exceed v*, and "
        "the shortfall below v* must stay within the kink sampling bound")


def test_criterion_07_small_k_slope():
    slope = small_k_gain_slope(ONES, 1.0)
    rel, below = small_k_deviation()
    ok = rel <= 1e-2 and below < 1.0
    report(7, ok, f"(gain/k)(k=1e-4) off 1/ln2 by {rel:.2e}; gain(k=1e-3)={below:.2e} < 1")
    assert slope == pytest.approx(1.0 / math.log(2), rel=1e-12)
    assert rel <= 1e-2
    assert below < 1.0


def test_criterion_08_large_k_convergence():
    gain = large_k_gain()
    ok = abs(gain - 1.0) <= 0.01
    report(8, ok, f"gain(k=1e4, equal gains, eps=1) = {gain:.6f}")
    assert abs(gain - 1.0) <= 0.01


def test_criterion_09_oracle_equivalence():
    rng = random.Random(SEED + 2)
    betas = np.arange(1, 1_000_000) * 1e-6
    worst = 0.0
    for _ in range(100):
        h12, h13, h23 = (math.exp(rng.uniform(math.log(0.1), math.log(10)))
                         for _ in range(3))
        eps = 10 ** rng.uniform(-3, 2)
        k = 10 ** rng.uniform(-1, 1)
        gains, op = LinkGains(h12, h13, h23), OperatingPoint(eps, k)
        res_ncp = np.abs(k * betas * np.log1p(h13 * eps / betas)
                         - (1 - betas) * np.log1p(h23 * k * eps / (1 - betas)))
        res_cp = np.abs((k + 1) * betas * np.log1p(h12 * eps / betas)
                        - (1 - betas) * np.log1p(h23 * k * eps / (1 - betas)))
        worst = max(worst,
                    abs(ncp_allocate(gains, op).beta - betas[int(np.argmin(res_ncp))]),
                    abs(cp_allocate(gains, op).beta - betas[int(np.argmin(res_cp))]))
    ok = worst <= 1e-5
    report(9, ok, f"100 instances vs 1e-6-step grid argmin, worst |beta gap| {worst:.2e}")
    assert worst <= 1e-5


def test_criterion_10_plane_gain_figure_property():
    start = time.perf_counter()
    records = sweep("plane_gain", {
        "x_min": -1.0, "x_max": 1.0, "x_step": 2.0 / 199,
        "y_min": -0.75, "y_max": 0.75, "y_step": 1.5 / 149,
        "epsilon": 0.01, "k": 0.1, "eta": 3.0})
    elapsed = time.perf_counter() - start
    assert len(records) == 200 * 150

    by_coord = {rec.coords: rec for rec in records}
    mirror_ok = all(by_coord[(x, -y)].gain == rec.gain
                    for (x, y), rec in by_coord.items())
    gt1 = sum(1 for rec in records if rec.gain is not None and rec.gain > 1.0)
    best = max((rec for rec in records if rec.gain is not None),
               key=lambda rec: rec.gain)
    min_abs_y = min(abs(rec.coords[1]) for rec in records)
    on_axis = abs(best.coords[1]) == min_abs_y
    ok = mirror_ok and gt1 > 0 and on_axis and elapsed < 30.0
    report(10, ok, f"200x150 grid in {elapsed:.1f}s; {gt1} points with gain>1; "
                   f"mirror exact={mirror_ok}; max at y={best.coords[1]:+.4f}")
    assert elapsed < 30.0
    assert gt1 > 0
    assert mirror_ok
    assert on_axis


def test_criterion_11_resource_ratio_figure_property():
    records = sweep("resource_ratio", {
        "d_min": 0.05, "d_max": 0.95, "d_step": 0.01,
        "epsilon": 0.01, "k": 1.0, "eta": 3.0, "rate": 0.005})
    ratios = [rec.gain for rec in records if rec.feasible]
    best = max(ratios)
    ok = best > 1.0
    report(11, ok, f"max resource ratio {best:.4f} over {len(ratios)} feasible points")
    assert best > 1.0


def test_criterion_12_tangent_intersection_consistency():
    rng = random.Random(SEED + 3)
    worst = 0.0
    for _ in range(50):
        h13 = math.exp(rng.uniform(math.log(0.25), math.log(4)))
        h23 = math.exp(rng.uniform(math.log(0.25), math.log(4)))
        eps = 10 ** rng.uniform(-2, 2)
        k = 10 ** rng.uniform(-1, 1)
        beta, upper = _tangent_construction(h13, h23, eps, k, k)
        # independent spelling: weighted-harmonic closed form over the
        # negative denominators 1 - 1/(1+c) - ln(1+c)
        a, b = (k + 1) * h13 * eps, (k + 1) * h23 * eps
        da = 1 - 1 / (1 + a) - math.log1p(a)
        db = 1 - 1 / (1 + b) - math.log1p(b)
        closed = ((math.log1p(a) / da + k * math.log1p(b) / db)
                  / ((k + 1) / da + k * (k + 1) / db))
        tangent_value = (math.log1p(a) / (k + 1)
                         + (beta - 1 / (k + 1)) * _tangent_gap(a))
        worst = max(worst, abs(tangent_value - closed) / closed,
                    abs(upper - closed) / closed)
    ok = worst <= 1e-9
    report(12, ok, f"50 instances, worst closed-form mismatch {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_13_selection_consistency():
    rng = random.Random(SEED + 4)  # as in verify, the losing-CP draws follow the ranked sets
    mismatches = selection_mismatches(rng, 50)
    losing = {SEED + 4: losing_cp_decisions(rng, 1000),
              99: losing_cp_decisions(random.Random(99), 200)}
    ok = mismatches == 0 and not any(losing.values())
    report(13, ok, f"50 ranked sets: {mismatches} mismatches; 1000 + 200 instances: "
                   "losing CP decisions by seed "
                   + ", ".join(f"{seed}: {n}" for seed, n in losing.items()))
    assert mismatches == 0
    assert not any(losing.values()), losing


def expm1_ratio_root(h):
    """The y > 0 with expm1(y)/y = h, for h > 1, bisected to adjacent doubles."""
    lo, hi = 0.0, 1.0
    while math.expm1(hi) / hi < h:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if math.expm1(mid) / mid < h else (lo, mid)
    return lo


def test_criterion_14_energy_gain_at_placement_peak():
    bad, details = [], []
    for k in (1.0, 10.0):
        for eta in (2.0, 3.0):
            gains = collinear_gains(optimal_relay_location(k, eta), eta)
            m = max_geometric_gain(k, eta)
            y0 = expm1_ratio_root(gains.h23)
            c2 = -2.0 * (1 / 6 + k / (2 * y0) + (k + 2) * (k - 1) / 12) / (k + 1)
            worst = 0.0
            for rate in (1e-3, 1e-4, 1e-6):
                ratio = (min_tern(Protocol.NCP, gains, k, rate).epsilon_min
                         / min_tern(Protocol.CP, gains, k, rate).epsilon_min)
                rel = (1.0 - ratio / m) / ((k + 1) * rate / 2) - 1.0
                worst = max(worst, abs(rel) / (abs(c2) * rate))
                if not (ratio <= m * (1 + 1e-12) and abs(rel) <= 2 * abs(c2) * rate):
                    bad.append((k, eta, rate, ratio, m, rel, c2))
            details.append(f"(k={k:g},eta={eta:g}): c2={c2:.3f} worst {worst:.3f}")
    ok = not bad
    report(14, ok, "eps_NCP/eps_CP below m by (k+1)R/2*(1 + c2*R) at R = 1e-3, 1e-4, 1e-6, "
                   "|relative error| in units of |c2|R (at most 2): " + "; ".join(details))
    assert not bad, (
        f"(k, eta, R, ratio, m, gap/((k+1)R/2) - 1, c2) out of range at {bad}: the "
        "energy ratio must stay below m and follow its expansion to twice the R^2 term")
