import collections
import math
import random

import pytest

from relaygain import (BoundPair, LinkGains, OperatingPoint, cp_allocate, cp_bounds_high_tern,
                       cp_bounds_low_tern, high_tern_gain_limit, low_tern_gain_limit,
                       ncp_allocate, ncp_bounds_high_tern, ncp_bounds_low_tern,
                       small_k_gain_slope)
from relaygain.allocation import _rates
from relaygain.bounds import _parabola_peak, _tangent_construction, _tangent_gap
import relaygain.verify as verify
from relaygain.errors import RelayGainError, ValidationError
from relaygain.verify import sandwich_violations

LN2, LN3 = math.log(2), math.log(3)
ONES = LinkGains(1, 1, 1)


class TestNcpHighTern:
    def test_symmetric_tangents_touch_optimum(self):
        pair = ncp_bounds_high_tern(ONES, OperatingPoint(1, 1))
        assert pair.upper == pytest.approx(0.5 * LN3, abs=1e-12)
        assert pair.lower == pytest.approx(0.5 * LN2, abs=1e-12)
        assert pair.beta_at_bound == pytest.approx(0.5, abs=1e-12)

    def test_equal_gains_give_share_one_over_k_plus_one(self):
        for k in (0.3, 1.0, 4.0):
            pair = ncp_bounds_high_tern(LinkGains(1, 2.5, 2.5), OperatingPoint(7.0, k))
            assert pair.beta_at_bound == pytest.approx(1.0 / (k + 1.0), rel=1e-12)

    def test_sandwich_spot(self):
        gains, op = LinkGains(1, 1, 2), OperatingPoint(100, 1)
        exact = ncp_allocate(gains, op).base_rate
        pair = ncp_bounds_high_tern(gains, op)
        assert pair.lower == pytest.approx(2.4676690, abs=1e-6)
        assert pair.upper == pytest.approx(2.8115464, abs=1e-6)
        assert pair.lower <= exact <= pair.upper

    def test_underflowing_chords_give_a_zero_lower(self):
        # both chords, log1p(h13*eps) and log1p(k*h23*eps)/k, underflow to 0, and
        # X*Y/(X+Y) tends to 0 there
        pair = ncp_bounds_high_tern(LinkGains(1, 1e-10, 1e-10), OperatingPoint(1e-320, 1e200))
        assert (pair.lower, pair.upper) == (0.0, 0.0)


class TestCpHighTern:
    def test_chord_lower_closed_form(self):
        pair = cp_bounds_high_tern(ONES, OperatingPoint(1, 1))
        assert pair.lower == pytest.approx(LN2 / 3.0, abs=1e-12)

    def test_tangent_tight_at_high_tern(self):
        op = OperatingPoint(1e6, 1)
        exact = cp_allocate(ONES, op).base_rate
        pair = cp_bounds_high_tern(ONES, op)
        assert exact <= pair.upper
        assert pair.upper / exact == pytest.approx(1.0, abs=2e-2)

    def test_construction_share_tends_to_one_over_k_plus_two(self):
        # the offset decays like ln(k/(k+1))/ln(eps), so convergence is slow
        for k in (0.5, 1.0, 10.0):
            betas = [cp_bounds_high_tern(LinkGains(2, 1, 2), OperatingPoint(e, k)).beta_at_bound
                     for e in (1e4, 1e8, 1e12)]
            targets = [abs(b - 1.0 / (k + 2.0)) for b in betas]
            assert all(x > y for x, y in zip(targets, targets[1:]))
            assert targets[-1] < 1e-2


class TestNcpLowTern:
    def test_tight_pair_at_low_tern(self):
        gains, op = LinkGains(1, 1, 2), OperatingPoint(1e-3, 1)
        pair = ncp_bounds_low_tern(gains, op)
        exact = ncp_allocate(gains, op).base_rate
        assert pair.lower == pytest.approx(9.99499e-4, abs=1e-8)
        assert pair.upper == pytest.approx(math.log1p(1e-3), abs=1e-15)
        assert pair.lower <= exact <= pair.upper
        assert pair.beta_at_bound == pytest.approx(0.998001, abs=1e-6)
        assert not pair.degenerate

    def test_equal_gain_degeneracy_falls_back_to_linear(self):
        pair = ncp_bounds_low_tern(ONES, OperatingPoint(1e-3, 1))
        assert pair.degenerate
        assert pair.beta_at_bound == pytest.approx(0.5, rel=1e-12)
        assert pair.upper == pytest.approx(math.log1p(1e-3), abs=1e-15)
        exact = ncp_allocate(ONES, OperatingPoint(1e-3, 1)).base_rate
        assert pair.lower <= exact <= pair.upper

    def test_loose_but_valid_at_high_tern(self):
        gains, op = LinkGains(1, 1, 2), OperatingPoint(10, 1)
        pair = ncp_bounds_low_tern(gains, op)
        exact = ncp_allocate(gains, op).base_rate
        assert pair.lower <= exact <= pair.upper
        assert pair.lower == 0.0  # parabola construction clamps at zero here


class TestCpLowTern:
    def test_tight_at_low_tern(self):
        gains, op = LinkGains(1, 1, 4), OperatingPoint(1e-4, 1)
        pair = cp_bounds_low_tern(gains, op)
        assert pair.upper == pytest.approx(1e-4, rel=1e-4)
        assert pair.lower == pytest.approx(pair.upper, rel=1e-3)
        exact = cp_allocate(gains, op).base_rate
        assert pair.lower <= exact <= pair.upper

    def test_forced_degeneracy(self):
        # h12 == k*h23/(k+1) exactly
        pair = cp_bounds_low_tern(LinkGains(1.0, 1.0, 2.0), OperatingPoint(1e-3, 1))
        assert pair.degenerate

    def test_sandwich_spot_at_unit_tern(self):
        pair = cp_bounds_low_tern(ONES, OperatingPoint(1, 1))
        exact = cp_allocate(ONES, OperatingPoint(1, 1)).base_rate
        assert exact == pytest.approx(0.328098, abs=1e-6)
        assert pair.lower <= exact <= pair.upper


class TestParabolaRoot:
    # the peak share is the one root of the equalization quadratic in (0, 1). A
    # search over both roots kept the other one, just above 1, where it rounded
    # to 1, and returned user 1's parabola there, far above the exact rate
    OP = OperatingPoint(1e-6, 0.01)

    @pytest.mark.parametrize("bound, allocate, gains, lower, beta", [
        (cp_bounds_low_tern, cp_allocate, LinkGains(1e4, 1, 1e-4), 9.90100e-13, 0.005),
        # the parabola value 1.0000000000000751e-10 lies above the upper 9.999999999995001e-11
        (ncp_bounds_low_tern, ncp_allocate, LinkGains(1e4, 1, 1e-4), 0.0, 5.0005e-7),
        (ncp_bounds_low_tern, ncp_allocate, LinkGains(1, 1e4, 1e-4), 9.99999996e-11, 0.005),
    ])
    def test_share_inside_the_unit_interval(self, bound, allocate, gains, lower, beta):
        pair = bound(gains, self.OP)
        exact = allocate(gains, self.OP).base_rate
        assert pair.beta_at_bound == pytest.approx(beta, rel=1e-6)
        assert pair.lower == pytest.approx(lower, rel=1e-6)
        assert pair.lower <= exact * (1.0 + 1e-5)


class TestParabolaValue:
    """The parabola value stays a lower bound where h_a^2 is not a normal float, and
    a value above its pair's upper is reported as lower 0."""

    @pytest.mark.parametrize("bound, gains, op, upper", [
        # h12^2 underflows to 0, which left user 1's whole chord, 9.26e67, as the
        # lower; the exact rate is 119.27
        pytest.param(cp_bounds_low_tern, LinkGains(8.05e-183, 7.19e65, 3.45e113),
                     OperatingPoint(1.15e250, 2.19e-148), 156.4986352644067,
                     id="cp_square_underflows"),
        # k*h23*eps is subnormal, so the upper lost its digits below the value 1.11e-165
        pytest.param(ncp_bounds_low_tern, LinkGains(1, 1, 1e-160), OperatingPoint(1e-160, 1),
                     1e-320, id="ncp_upper_subnormal"),
    ])
    def test_value_above_the_upper_gives_lower_zero(self, bound, gains, op, upper):
        pair = bound(gains, op)
        assert (pair.lower, pair.upper) == (0.0, upper)

    def test_square_underflow_keeps_the_parabola_value(self):
        # h12^2 = 1e-326 underflows to 0: the value was user 1's chord 1e-3, above
        # the exact rate; a - a*(a/(2*beta)) with beta = 1/2 is 1e-3 - 1e-6
        gains, op = LinkGains(1e-163, 1, 3e-163), OperatingPoint(1e160, 2)
        pair = cp_bounds_low_tern(gains, op)
        assert pair.lower == pytest.approx(0.000999, rel=1e-15)
        assert pair.lower <= cp_allocate(gains, op).base_rate <= pair.upper


class TestSandwichProperty:
    def test_wide_draws_bracket_the_exact_rate(self):
        # seeded draws far past verify's grid: gains in e^+-10, eps in e^+-25 and
        # k in e^+-5. The low-TERN lower keeps the cancellation of
        # h_a*eps - h_a^2*eps^2/(2*beta), up to ~4e-5 relative here.
        rng = random.Random(24)
        checked = 0
        for _ in range(20000):
            h12, h13, h23 = (math.exp(rng.uniform(-10.0, 10.0)) for _ in range(3))
            eps, k = math.exp(rng.uniform(-25.0, 25.0)), math.exp(rng.uniform(-5.0, 5.0))
            gains, op = LinkGains(h12, h13, h23), OperatingPoint(eps, k)
            for kappa, h_first, high, low in ((k, h13, ncp_bounds_high_tern, ncp_bounds_low_tern),
                                              (k + 1.0, h12, cp_bounds_high_tern,
                                               cp_bounds_low_tern)):
                try:
                    exact = _rates(kappa, h_first, h23, eps, k)[1]
                except RelayGainError:
                    continue
                checked += 1
                high_pair, low_pair = high(gains, op), low(gains, op)
                assert high_pair.lower <= exact, (gains, op, kappa)
                assert min(high_pair.upper, low_pair.upper) >= exact * (1.0 - 1e-15), (gains, op)
                assert low_pair.lower <= exact * (1.0 + 1e-4), (gains, op, kappa)
        assert checked > 39000


def count_rate_solves(monkeypatch) -> collections.Counter:
    """Count verify's base-rate solves by protocol: kappa is k for NCP and k + 1 for CP."""
    calls = collections.Counter()
    solve = verify._rates

    def counting(kappa, h_first, h23, eps, k):
        calls["ncp" if kappa == k else "cp"] += 1
        return solve(kappa, h_first, h23, eps, k)

    monkeypatch.setattr(verify, "_rates", counting)
    return calls


class TestSandwichGrid:
    def test_each_exact_rate_solved_once_per_input_it_reads(self, monkeypatch):
        # NCP reads (h13, h23) and CP (h12, h23): 5*5 gain pairs x 5 eps x 3 k each
        calls = count_rate_solves(monkeypatch)
        assert sandwich_violations() == (7500, 0)
        assert calls == {"ncp": 375, "cp": 375}

    def test_slack_is_relative_to_the_exact_rate(self, monkeypatch):
        # an NCP upper 1e-10 below the exact rate: an absolute slack of 1e-9
        # forgave it wherever the rate is below 10 nats, most of the grid
        def short_upper(gains, op):
            exact = _rates(op.k, gains.h13, gains.h23, op.epsilon, op.k)[1]
            return BoundPair(0.0, exact * (1.0 - 1e-10))

        monkeypatch.setattr(verify, "ncp_bounds_high_tern", short_upper)
        assert sandwich_violations() == (7500, 1875)


class TestInequalitySurvey:
    def test_each_base_rate_solved_once_per_input_it_reads(self, monkeypatch):
        # NCP reads (h13, h23) and CP (h12, h23): 3*3 gain pairs x 5 eps x 3 k each
        calls = count_rate_solves(monkeypatch)
        assert verify.run_suite("inequality") == [verify.CheckResult(
            "inequality.survey", None,
            "gain <= low-TERN limit held at 119 and failed at 286 points; worst "
            "h=(0.25,4.0,4.0) eps=1000.0 k=10.0: gain 0.8898 > limit 0.0625")]
        assert calls == {"ncp": 135, "cp": 135}

    def test_unknown_suite_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unknown suite 'nope'"):
            verify.run_suite("nope")


class TestLimits:
    def test_low_tern_gain_limit_values(self):
        assert low_tern_gain_limit(LinkGains(8, 1, 8), 1.0) == 4.0
        assert low_tern_gain_limit(LinkGains(3, 3, 3), 2.0) == pytest.approx(2.0 / 3.0)
        assert low_tern_gain_limit(LinkGains(0.1, 1, 10), 1.0) == pytest.approx(0.1)

    def test_high_tern_gain_limit_values(self):
        assert high_tern_gain_limit(1.0) == pytest.approx(2.0 / 3.0)
        assert high_tern_gain_limit(0.1) == pytest.approx(1.1 / 2.1)
        ks = [1.0, 10.0, 100.0, 1000.0]
        values = [high_tern_gain_limit(k) for k in ks]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=2e-3)

    def test_small_k_slope_values(self):
        assert small_k_gain_slope(ONES, 1.0) == pytest.approx(1.0 / LN2, rel=1e-12)
        # ln(1+x) ~ x makes the slope approach h23/h13
        assert small_k_gain_slope(LinkGains(1, 1e-4, 2), 1.0) == pytest.approx(
            2.0 / 1e-4, rel=1e-3)

    @pytest.mark.parametrize("gains, eps", [
        # h13*eps underflows to 0: the slope divided by zero
        ((1.0, 1e-300, 1.0), 1e-30),
        # h13*eps is subnormal: ln(1 + h13*eps) kept 8 digits, the slope read 10000000015.18
        ((1.0, 1e-160, 1e-150), 1e-155),
        ((1.0, 1e-300, 1.0), 1e-10),
        # h23*eps is subnormal, h13*eps normal
        ((1.0, 1.0, 1e-300), 1e-10),
    ])
    def test_small_k_slope_where_a_product_is_not_normal(self, gains, eps):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            h13, h23, e = (mpmath.mpf(v) for v in (gains[1], gains[2], eps))
            exact = h23 * e / mpmath.log1p(h13 * e)
        slope = small_k_gain_slope(LinkGains(*gains), eps)
        assert abs(slope - exact) <= 2 ** -52 * abs(exact)


class TestTangentConstruction:
    def test_gap_series_matches_direct_form(self):
        for c in (1e-7, 1e-5, 9.9e-5, 1.1e-4, 1e-3, 0.1):
            direct = math.log1p(c) - c / (1.0 + c)
            assert _tangent_gap(c) == pytest.approx(direct, rel=1e-7)

    def test_intersection_reproduces_closed_form(self):
        # the tangent line of user 1 evaluated at the intersection share must
        # return exactly the closed-form upper bound
        rng = random.Random(17)
        for _ in range(50):
            h13 = math.exp(rng.uniform(math.log(0.25), math.log(4)))
            h23 = math.exp(rng.uniform(math.log(0.25), math.log(4)))
            eps = 10 ** rng.uniform(-2, 2)
            k = 10 ** rng.uniform(-1, 1)
            beta, upper = _tangent_construction(h13, h23, eps, k, k)
            a = (k + 1.0) * h13 * eps
            tangent = math.log1p(a) / (k + 1.0) + (beta - 1.0 / (k + 1.0)) * _tangent_gap(a)
            assert tangent == pytest.approx(upper, rel=1e-9)


class TestUnderflow:
    # every gain, eps and k at 1e-300: each chord underflows, so the tangent
    # lines are parallel and the equal-gain parabola has no slope
    TINY = LinkGains(1e-300, 1e-300, 1e-300), OperatingPoint(1e-300, 1e-300)

    @pytest.mark.parametrize("bound", [ncp_bounds_high_tern, cp_bounds_high_tern])
    def test_parallel_tangents_rejected(self, bound):
        with pytest.raises(ValidationError, match="tangent gaps .* underflow"):
            bound(*self.TINY)

    def test_flat_parabola_rejected(self):
        with pytest.raises(ValidationError, match="parabola slope .* underflows"):
            ncp_bounds_low_tern(*self.TINY)

    @pytest.mark.parametrize("bound, gains, op", [
        # gains 1e-300 square to 0 in the parabola's constant term, so the
        # equal-gain peak share -const/lin is 0 though the slope is not
        pytest.param(ncp_bounds_low_tern, LinkGains(1e-300, 1e-300, 1e-300),
                     OperatingPoint(1e12, 1e300), id="ncp_bounds_low_tern"),
        pytest.param(cp_bounds_low_tern, LinkGains(1e-300, 1e-300, 1e-300),
                     OperatingPoint(1e12, 1e300), id="cp_bounds_low_tern"),
        # eps*h13^2/2 underflows, so the root const/q is 0; a search over both
        # roots returned lower 1e-170 against upper 1e-210 here
        pytest.param(ncp_bounds_low_tern, LinkGains(1, 1e-160, 1e-200), OperatingPoint(1e-10, 1),
                     id="ncp_bounds_low_tern_root"),
    ])
    def test_underflowing_peak_share_rejected(self, bound, gains, op):
        with pytest.raises(ValidationError, match="parabola peak share .* underflows"):
            bound(gains, op)


class TestOverflow:
    @pytest.mark.parametrize("bound, gains, op", [
        # lin^2 overflows; the share lies 5e-111 below 1 and rounds to 1
        pytest.param(ncp_bounds_low_tern, LinkGains(1, 1, 1e200), OperatingPoint(1e-10, 1e-300),
                     id="ncp_share_rounds_to_1"),
        pytest.param(ncp_bounds_low_tern, LinkGains(1, 1e100, 1e200),
                     OperatingPoint(1e-100, 1e-100), id="ncp_interior"),
        # 4*quad*const overflows as well
        pytest.param(cp_bounds_low_tern, LinkGains(2e100, 1, 3e100), OperatingPoint(1e-40, 1.0),
                     id="cp_interior"),
    ])
    def test_overflowing_discriminant_is_scaled(self, bound, gains, op):
        """Where D overflows, the peak share is the root of the coefficients scaled by a
        power of two, within 1e-15 of the 50-digit root of the unscaled ones."""
        mpmath = pytest.importorskip("mpmath")
        eps, k = op.epsilon, op.k
        if bound is ncp_bounds_low_tern:
            args = gains.h13, gains.h23, eps, k
        else:
            args = gains.h12, k * gains.h23 / (k + 1.0), eps, k + 1.0
        h_a, h_b, _, kappa = args
        lin = 0.5 * eps * (h_a * h_a + kappa * h_b * h_b) + h_a - h_b
        assert abs(lin) < math.inf and lin * lin == math.inf
        beta = _parabola_peak(*args)[0]
        with mpmath.workdps(50):
            h_a, h_b, eps, kappa = (mpmath.mpf(v) for v in args)
            quad = h_b - h_a
            lin = eps * (h_a * h_a + kappa * h_b * h_b) / 2 + h_a - h_b
            const = -eps * h_a * h_a / 2
            q = -(lin + mpmath.sign(lin) * mpmath.sqrt(lin * lin - 4 * quad * const)) / 2
            root = q / quad if lin < 0 else const / q
            # 50 digits round the share of ncp_share_rounds_to_1 to 1
            assert 0 < root <= 1
            assert abs(beta - root) <= 1e-15 * root
        pair = bound(gains, op)
        assert pair.beta_at_bound == (beta if beta < 1.0 else None)
        assert pair.lower <= pair.upper

    @pytest.mark.parametrize("bound", [ncp_bounds_high_tern, cp_bounds_high_tern])
    @pytest.mark.parametrize("gains, op", [
        # the partner's tangent chord is 1e12, but h23*k*eps*(kappa+1) overflows first
        (LinkGains(1e-300, 1e-300, 1e-300), OperatingPoint(1e12, 1e300)),
        # every chord overflows
        (LinkGains(1e300, 1e300, 1e300), OperatingPoint(1e300, 1.0)),
    ])
    def test_infinite_chord_rejected_not_nan(self, bound, gains, op):
        with pytest.raises(ValidationError, match="tangent chords .* must be finite"):
            bound(gains, op)

    @pytest.mark.parametrize("call, args", [
        # h13*eps underflows to 0, and the slope h23/h13 overflows
        pytest.param(small_k_gain_slope, (LinkGains(1, 1e-300, 1e10), 1e-30), id="slope_run"),
        # h23*eps overflows: the slope was inf
        pytest.param(small_k_gain_slope, (LinkGains(1, 1, 1e300), 1e10), id="slope_rise"),
        pytest.param(low_tern_gain_limit, (LinkGains(1e300, 1e-300, 1e300), 1.0),
                     id="low_tern_gain_limit"),
        # both endpoint chords overflow: the pair was the vacuous (0, inf)
        pytest.param(ncp_bounds_low_tern,
                     (LinkGains(1e200, 1e200, 1e200), OperatingPoint(1e200, 1)),
                     id="ncp_bounds_low_tern"),
        pytest.param(cp_bounds_low_tern,
                     (LinkGains(1e200, 1e200, 1e200), OperatingPoint(1e200, 1)),
                     id="cp_bounds_low_tern"),
    ])
    def test_value_past_the_float_range_rejected(self, call, args):
        with pytest.raises(ValidationError, match="lies outside the float range$"):
            call(*args)
