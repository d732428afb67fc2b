import csv
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import relaygain.energy as energy
from relaygain import (LinkGains, OperatingPoint, Protocol, collinear_gains, cp_allocate,
                       feasibility_bound, feasible, grid_values, min_tern, resource_usage,
                       sweep)
from relaygain.cli import main
from relaygain.errors import (InfeasibleRateError, IterationLimitError, NaNResidualError,
                              RelayGainError, ValidationError)
from relaygain.rootfind import _COUNTS, Bracket, solve_monotone
from support import bench_module, log_uniform, min_tern as reference_min_tern, outcome, slot

ONES = LinkGains(1, 1, 1)


class TestMinTern:
    def test_roundtrip_of_symmetric_rate(self):
        sol = min_tern(Protocol.NCP, ONES, 1.0, 0.549306)
        assert sol.epsilon_min == pytest.approx(1.0, rel=1e-5)
        assert sol.beta == pytest.approx(0.5, abs=1e-9)

    def test_roundtrip_of_cp_rate(self):
        sol = min_tern(Protocol.CP, ONES, 1.0, 0.328)
        assert sol.epsilon_min == pytest.approx(1.0, rel=1e-3)

    def test_low_rate_duality_region(self):
        sol = min_tern(Protocol.NCP, ONES, 1.0, 1e-6)
        assert sol.epsilon_min == pytest.approx(1e-6, rel=1e-3)

    def test_achieved_rate_matches_demand(self):
        rate = 0.37
        sol = min_tern(Protocol.CP, LinkGains(2.0, 1.0, 0.8), 1.7, rate)
        achieved = cp_allocate(LinkGains(2.0, 1.0, 0.8),
                               OperatingPoint(sol.epsilon_min, 1.7)).base_rate
        assert abs(achieved - rate) <= 1e-9 * rate

    def test_zero_rate_rejected(self):
        with pytest.raises(ValidationError):
            min_tern(Protocol.NCP, ONES, 1.0, 0.0)

    def test_dead_link_rejected(self):
        with pytest.raises(ValidationError, match="^h12 must be > 0, got 0.0$"):
            min_tern(Protocol.CP, LinkGains(0.0, 1.0, 1.0), 1.0, 0.1)


def energy_gain(gains, k, rate):
    """TERN collaboration gain eps_NCP / eps_CP, as the energy report and sweep compute it."""
    return (min_tern(Protocol.NCP, gains, k, rate).epsilon_min
            / min_tern(Protocol.CP, gains, k, rate).epsilon_min)


class TestEnergyGain:
    def test_low_rate_limit_all_ones(self):
        assert energy_gain(ONES, 1.0, 1e-6) == pytest.approx(0.5, rel=1e-3)

    def test_low_rate_limit_strong_relay(self):
        assert energy_gain(LinkGains(8, 1, 8), 1.0, 1e-6) == pytest.approx(4.0, rel=1e-2)

    def test_moderate_rate_frozen_roundtrip(self):
        # derived by inverting both protocols at the common rate 0.549306
        gain = energy_gain(ONES, 1.0, 0.549306)
        assert gain == pytest.approx(0.4140480, abs=1e-6)
        eps_cp = min_tern(Protocol.CP, ONES, 1.0, 0.549306).epsilon_min
        assert eps_cp == pytest.approx(2.4151779, abs=1e-6)
        forward = cp_allocate(ONES, OperatingPoint(eps_cp, 1.0)).base_rate
        assert forward == pytest.approx(0.549306, rel=1e-9)


class TestFeasible:
    def test_bound_gates_ncp(self):
        assert not feasible(Protocol.NCP, LinkGains(1, 1, 0.4), OperatingPoint(1, 1), 0.5)

    def test_bound_gates_cp(self):
        assert feasible(Protocol.CP, ONES, OperatingPoint(1, 1), 0.4)
        assert not feasible(Protocol.CP, ONES, OperatingPoint(1, 1), 0.5)

    def test_tiny_rate_always_feasible(self):
        for protocol in Protocol:
            assert feasible(protocol, LinkGains(0.3, 0.2, 0.1), OperatingPoint(1, 2), 1e-12)

    def test_bound_values(self):
        gains = LinkGains(3.0, 2.0, 1.5)
        assert feasibility_bound(Protocol.NCP, gains, 1.0) == 1.5
        assert feasibility_bound(Protocol.CP, gains, 1.0) == 0.75
        assert feasibility_bound(Protocol.CP, gains, 3.0) == pytest.approx(1.125)


class TestServability:
    """feasible() and resource_usage decide servability by one predicate."""

    def test_feasible_exactly_when_usage_serves_just_below_the_bound(self):
        # at the last two doubles below eps*bound the partner's target kappa*rate and its
        # chord h23*(k*eps) round otherwise than the bound does
        rng = random.Random(13)
        mismatches = []
        for _ in range(4000):
            gains = LinkGains(*(math.exp(rng.uniform(-5.0, 5.0)) for _ in range(3)))
            op = OperatingPoint(math.exp(rng.uniform(-5.0, 5.0)), math.exp(rng.uniform(-3.0, 3.0)))
            for protocol in Protocol:
                rate = op.epsilon * feasibility_bound(protocol, gains, op.k)
                for _ in range(2):
                    rate = math.nextafter(rate, 0.0)
                    try:
                        resource_usage(protocol, gains, op, rate)
                        served = True
                    except RelayGainError:
                        served = False
                    if feasible(protocol, gains, op, rate) is not served:
                        mismatches.append((gains, op, protocol, rate, served))
        assert not mismatches, mismatches[:3]

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_overflowing_partner_tern_is_an_infeasible_rate(self, protocol):
        # k*eps overflows to inf, so only the bound eps*1e-5 = 1e5 tells this rate apart
        gains, op = LinkGains(1.0, 1.0, 1e-5), OperatingPoint(1e10, 1e299)
        assert not feasible(protocol, gains, op, 1e6)
        with pytest.raises(InfeasibleRateError) as err:
            resource_usage(protocol, gains, op, 1e6)
        assert err.value.protocol == protocol.value

    def test_partner_target_on_its_chord_names_target_and_chord(self):
        # rate < 2.5*1.2 = 3.0 holds, but 0.2*rate rounds onto the chord 1.2*(0.2*2.5)
        gains, op, rate = LinkGains(1.0, 2.0, 1.2), OperatingPoint(2.5, 0.2), 2.9999999999999996
        with pytest.raises(InfeasibleRateError) as err:
            resource_usage(Protocol.NCP, gains, op, rate)
        assert str(err.value) == (
            "NCP: partner target 0.6 is not servable (requires partner target < chord 0.6)")
        assert (err.value.rate, err.value.bound) == (0.6, 0.6)


class TestResourceUsage:
    def test_ncp_frozen_and_grid_checked(self):
        usage = resource_usage(Protocol.NCP, ONES, OperatingPoint(1, 1), 0.2)
        assert usage.beta1 == pytest.approx(0.0751766918, abs=1e-9)
        assert usage.beta2 == pytest.approx(usage.beta1, rel=1e-12)
        assert usage.total == usage.beta1 + usage.beta2
        assert usage.beta1 == pytest.approx(float(slot(1.0, 1.0, 0.2)), rel=1e-14)

    def test_cp_frozen_and_grid_checked(self):
        usage = resource_usage(Protocol.CP, ONES, OperatingPoint(1, 1), 0.2)
        assert usage.beta1 == pytest.approx(0.0751766918, abs=1e-9)
        assert usage.beta2 == pytest.approx(0.2470984274, abs=1e-9)
        assert usage.total == pytest.approx(0.3222751191, abs=1e-9)
        assert usage.beta2 == pytest.approx(float(slot(1.0, 1.0, 0.4)), rel=1e-14)

    def test_infeasible_rate_is_structured(self):
        with pytest.raises(InfeasibleRateError) as err:
            resource_usage(Protocol.NCP, ONES, OperatingPoint(1, 1), 1.5)
        assert err.value.bound == 1.0
        assert err.value.protocol == "NCP"

    def test_resubstitution_residuals(self):
        rng = random.Random(3)
        for _ in range(20):
            gains = LinkGains(*(math.exp(rng.uniform(math.log(0.2), math.log(5)))
                                for _ in range(3)))
            op = OperatingPoint(10 ** rng.uniform(-2, 1), 10 ** rng.uniform(-0.5, 0.5))
            for protocol in Protocol:
                bound = op.epsilon * feasibility_bound(protocol, gains, op.k)
                rate = 0.6 * bound
                usage = resource_usage(protocol, gains, op, rate)
                h1 = gains.h13 if protocol is Protocol.NCP else gains.h12
                got1 = usage.beta1 * math.log1p(h1 * op.epsilon / usage.beta1)
                assert abs(got1 - rate) <= 1e-10 * (1.0 + rate)
                target2 = op.k * rate if protocol is Protocol.NCP else (op.k + 1) * rate
                got2 = usage.beta2 * math.log1p(gains.h23 * op.k * op.epsilon / usage.beta2)
                assert abs(got2 - target2) <= 1e-10 * (1.0 + target2)

    def test_usage_diverges_near_bound(self):
        for gains, op in [(ONES, OperatingPoint(1, 1)),
                          (LinkGains(2, 0.5, 3), OperatingPoint(0.4, 2.0))]:
            for protocol in Protocol:
                bound = op.epsilon * feasibility_bound(protocol, gains, op.k)
                mid = resource_usage(protocol, gains, op, 0.5 * bound).total
                near = resource_usage(protocol, gains, op, 0.99 * bound).total
                assert near > 10 * mid


class TestSlotExtremes:
    """Where h*eps/beta overflows the slot solves, or says its share is out of float range."""

    def test_share_below_float_range_is_a_validation_error(self):
        for protocol in Protocol:
            with pytest.raises(ValidationError, match="below the normal float range"):
                resource_usage(protocol, ONES, OperatingPoint(1, 1), 1e-306)

    def test_share_above_float_range_is_a_validation_error(self):
        # a demand within an ulp of a chord of 1e300 needs a share of about 2e315
        huge = LinkGains(1e300, 1e300, 1e300)
        with pytest.raises(ValidationError, match="above the float range"):
            resource_usage(Protocol.NCP, huge, OperatingPoint(1, 1), math.nextafter(1e300, 0))

    def test_total_above_float_range_is_a_validation_error(self):
        # each slot is ~9.03e307, within the float range, and their sum is not
        op, rate = OperatingPoint(4e292, 1), math.nextafter(4e292, 0)
        with pytest.raises(ValidationError, match="^NCP: the total of slots .* lies outside "
                                                  "the float range$"):
            resource_usage(Protocol.NCP, ONES, op, rate)

    # shares from a 50-digit mpmath Lambert-W solve of beta*ln(1 + h*eps/beta) = target
    @pytest.mark.parametrize("protocol, beta1, beta2", [
        (Protocol.NCP, 1.4107315187845726e-8, 1.4107315187845726e-8),
        (Protocol.CP, 7.0603511025837359e-7, 2.8242285975552778e-8),
    ])
    def test_overflowing_chord_ratio_solved(self, protocol, beta1, beta2):
        usage = resource_usage(protocol, LinkGains(1, 1e300, 1e300), OperatingPoint(1, 1), 1e-5)
        assert usage.beta1 == pytest.approx(beta1, rel=1e-12)
        assert usage.beta2 == pytest.approx(beta2, rel=1e-12)

    def test_underflowed_partner_target_is_a_validation_error(self):
        # k*rate = 1e-600 rounds to 0: a zero share, not log(0)'s ValueError
        op = OperatingPoint(1e10, 1e-300)
        with pytest.raises(ValidationError, match="share for rate 0.0 is below"):
            resource_usage(Protocol.NCP, ONES, op, 1e-300)
        assert energy._slot_bound(1.0, 1e-290, 0.0) == 0.0

    def test_overflowed_partner_tern_is_a_validation_error(self):
        # k*eps = inf; scaling the target 1e220 by the partner gain's exponent alone
        # overflowed in ldexp. The true share exists (FOUND in CHANGES.md), but the
        # slot reads an infinite chord and a share of 0.
        op = OperatingPoint(1e100, 1e250)
        with pytest.raises(ValidationError, match="share for rate 1e\\+220 is below"):
            resource_usage(Protocol.NCP, LinkGains(1, 1, 1e-120), op, 1e-30)
        assert energy._slot_bound(1e-120, math.inf, 1e220) == 0.0
        assert energy._slot_bound(1.0, math.inf, 1e299) == 0.0

    def test_overflowing_share_is_a_validation_error_and_an_infinite_bound(self):
        # r = target/chord is near 1, so the share c/x near the bound overflows
        with pytest.raises(ValidationError, match="share for rate 9.999e\\+307 is above"):
            energy._solve_slot(1e300, 1e8, 0.9999e308)
        assert energy._slot_bound(1e300, 1e8, 0.9999e308) == math.inf

    def test_cli_reports_the_share_error(self, tmp_path, capsys):
        path = tmp_path / "tiny_rate.json"
        path.write_text('{"gains": {"h12": 1, "h13": 1, "h23": 1}, '
                        '"operating": {"epsilon": 1, "k": 1}, "rate": 1e-306}')
        assert main(["resource", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: the share for rate 1e-306 is below the normal float range\n")


class TestMinTernRange:
    """Far from unit rates min_tern solves, or says its TERN is out of float range."""

    @pytest.mark.parametrize("protocol, rate, log_eps", [
        (Protocol.CP, 700.0, "2099.36"),
        (Protocol.NCP, 700.0, "1399.31"),
        (Protocol.CP, 300.0, "899.364"),
        # R/b and 2R/(1-b) overflow together near b = 1/2
        (Protocol.NCP, 1e308, "1e+308"),
    ])
    def test_overflow_is_a_validation_error(self, protocol, rate, log_eps):
        with pytest.raises(ValidationError) as err:
            min_tern(protocol, ONES, 1.0, rate)
        message = str(err.value)
        assert message.startswith(f"{protocol.value}: ")
        assert f"rate {rate!r}" in message and f"e^{log_eps}" in message

    def test_share_underflow_is_a_validation_error(self):
        # the crossing of [0, 5e-324] rounds to the share 0.0, whose log is undefined
        for protocol in Protocol:
            with pytest.raises(ValidationError, match=(
                    f"{protocol.value}: the share for rate 5e-324 underflows to 0")):
                min_tern(protocol, LinkGains(1, 100, 1), 1.0, 5e-324)

    # eps_min and beta from a 50-digit mpmath solve of the crossing equations
    @pytest.mark.parametrize("rate, eps_min, beta", [
        (235.0, 7.9660135401231759e+305, 0.33311460875718671),
        (1e-12, 2.000000000002e-12, 7.9590509463078089e-13),
    ])
    def test_cp_extreme_rates_solved(self, rate, eps_min, beta):
        sol = min_tern(Protocol.CP, ONES, 1.0, rate)
        assert sol.epsilon_min == pytest.approx(eps_min, rel=1e-12)
        assert sol.beta == pytest.approx(beta, rel=1e-12)


class TestSolveCounts:
    """Residual evaluations per min_tern solve, beyond the bracket's two, on the README
    energy sweep: 19.5 measured (bisection took 54.6). The slot makes no bracketed solve:
    its Newton steps stay within a cap of 12 (6 at most measured). min_tern's solves are
    read from the solve counters, over the sweep and around each of its calls."""

    def test_min_tern_and_slot_evaluations(self, monkeypatch):
        solves, evals = _COUNTS.solves, _COUNTS.evals
        sweep("energy_ratio", {"d_min": 0.05, "d_max": 0.95, "d_step": 0.01,
                               "k": 1.0, "eta": 3.0, "rate": 0.01})
        swept = (_COUNTS.solves - solves, _COUNTS.evals - evals)
        assert swept[0] == 182
        assert (swept[1] - 2 * 182) / 182 <= 22
        calls = []
        for d in grid_values(0.05, 0.95, 0.01):
            gains = collinear_gains(d, 3.0)
            for protocol in Protocol:
                solves, evals = _COUNTS.solves, _COUNTS.evals
                min_tern(protocol, gains, 1.0, 0.01)
                assert _COUNTS.solves - solves == 1
                calls.append(_COUNTS.evals - evals - 2)
        # the same solves as the sweep's, one per point and protocol
        assert swept == (len(calls), sum(calls) + 2 * len(calls))
        assert max(calls) <= 3 * energy._SHARE_HALVINGS
        monkeypatch.setattr(energy, "_SLOT_NEWTON_CAP", 12)
        slots = []
        solve_slot = energy._solve_slot

        def counting_slot(*args):
            slots.append(args)
            return solve_slot(*args)

        monkeypatch.setattr(energy, "_solve_slot", counting_slot)
        solves = _COUNTS.solves
        sweep("resource_ratio", {"d_min": 0.05, "d_max": 0.95, "d_step": 0.01,
                                 "epsilon": 0.01, "k": 1.0, "eta": 3.0, "rate": 0.005})
        assert _COUNTS.solves - solves == 0
        assert len(slots) == 364
        # every property draw either solves within the lowered cap or is out of float range
        for h, eps_user, target in slot_draws(2000, seed=17):
            try:
                solve_slot(h, eps_user, target)
            except ValidationError as exc:
                assert "float range" in str(exc)


@pytest.mark.parametrize("target", [0.2, 0.9], ids=["steps_in_u", "steps_in_x"])
def test_slot_newton_cap_raises(monkeypatch, target):
    # at r = target/chord <= 1/2 Newton steps in u = r*x, above it in x; one step
    # reaches neither root
    monkeypatch.setattr(energy, "_SLOT_NEWTON_CAP", 1)
    with pytest.raises(IterationLimitError) as err:
        energy._solve_slot(1.0, 1.0, target)
    assert err.value.iterations == 1


def _log_expm1_ratio(x):
    """ln(expm1(x)/x) for x > 0, finite where expm1 overflows and +inf at x = inf."""
    if x > 1.0:
        return energy._log_expm1(x) - math.log(x) if x < math.inf else x
    if x < 1e-3:
        return x * (0.5 + x * (1.0 / 24.0 - x * x / 2880.0))
    return math.log(math.expm1(x) / x)


def _crossing_pair(offset, rate, partner_rate, max_iter):
    """The inlined crossing solve and solve_monotone on the same gap, as outcomes."""

    def gap(b):
        if b == 0.0:
            return math.inf
        if b == 1.0:
            return -math.inf
        return offset + _log_expm1_ratio(rate / b) - _log_expm1_ratio(partner_rate / (1.0 - b))

    inline = outcome(lambda: energy._crossing(offset, rate, partner_rate))
    reference = outcome(lambda: solve_monotone(gap, Bracket.scan(gap, 0.0, 1.0), max_iter))
    return inline, reference


def _min_tern_crossing(protocol, gains, k, rate):
    """The gap offset and the two rates that min_tern hands to its crossing solve."""
    h_first = gains.h13 if protocol is Protocol.NCP else gains.h12
    kappa = k if protocol is Protocol.NCP else k + 1.0
    return math.log(k / kappa) + math.log(gains.h23) - math.log(h_first), rate, kappa * rate


class TestInlineMinTernDrift:
    """energy runs solve_monotone's steps inline; the two copies must not drift."""

    def test_seeded_draws_match_bitwise(self):
        rng = random.Random(1971)
        for _ in range(2000):
            gains = LinkGains(*(math.exp(rng.uniform(-25.0, 25.0)) for _ in range(3)))
            k, rate = math.exp(rng.uniform(-10.0, 10.0)), math.exp(rng.uniform(-40.0, 9.0))
            for protocol in Protocol:
                inline, reference = _crossing_pair(*_min_tern_crossing(protocol, gains, k, rate),
                                                   3 * energy._SHARE_HALVINGS)
                assert inline == reference, (protocol, gains, k, rate)
                assert isinstance(inline[0], str)

    @pytest.mark.parametrize("offset, rate, partner_rate, result", [
        (0.0, 0.3, 0.3, (0.5).hex()),  # an exact zero of the gap at the first step
        (0.0, 1e308, 1e308, (NaNResidualError, str(NaNResidualError(0.5)))),
    ])
    def test_zero_and_nan_gap_match(self, offset, rate, partner_rate, result):
        inline, reference = _crossing_pair(offset, rate, partner_rate, 3 * energy._SHARE_HALVINGS)
        assert inline == reference
        assert inline == (result, (1, 3))

    @pytest.mark.parametrize("rate, partner_rate", [(1e308, 1.0), (1.0, 1e308)])
    def test_infinite_argument_of_l_matches(self, rate, partner_rate):
        # beyond min_tern's rate guard: rate/b or partner_rate/(1-b) overflows at some shares
        inline, reference = _crossing_pair(0.0, rate, partner_rate, 3 * energy._SHARE_HALVINGS)
        assert inline == reference
        assert isinstance(inline[0], str)

    def test_iteration_limit_matches(self, monkeypatch):
        monkeypatch.setattr(energy, "_SHARE_HALVINGS", 1)
        for protocol in Protocol:
            crossing = _min_tern_crossing(protocol, LinkGains(1, 2, 3), 2.0, 0.3)
            inline, reference = _crossing_pair(*crossing, 3)
            assert inline == reference
            assert inline[0][0] is IterationLimitError
            assert inline[1] == (1, 5)

    @pytest.mark.parametrize("halvings", [1, 2])
    def test_limits_at_the_end_of_a_window_match(self, monkeypatch, halvings):
        monkeypatch.setattr(energy, "_SHARE_HALVINGS", halvings)
        rng = random.Random(halvings)
        for _ in range(300):
            gains = LinkGains(*(math.exp(rng.uniform(-25.0, 25.0)) for _ in range(3)))
            k, rate = math.exp(rng.uniform(-10.0, 10.0)), math.exp(rng.uniform(-40.0, 9.0))
            for protocol in Protocol:
                inline, reference = _crossing_pair(*_min_tern_crossing(protocol, gains, k, rate),
                                                   3 * halvings)
                assert inline == reference, (protocol, gains, k, rate)
                assert inline[0][0] is IterationLimitError

    def test_readme_energy_sweep_matches_bitwise(self, monkeypatch, tmp_path):
        """Every crossing of the README energy_ratio sweep, as the sweep asks for it."""
        crossings = []
        crossing = energy._crossing
        monkeypatch.setattr(energy, "_crossing",
                            lambda *args: crossings.append(args) or crossing(*args))
        assert main(["sweep", "--kind", "energy_ratio", "--d-min", "0.05", "--d-max", "0.95",
                     "--d-step", "0.01", "--k", "1", "--eta", "3", "--rate", "0.01",
                     "--out", str(tmp_path / "energy.csv")]) == 0
        monkeypatch.undo()
        assert len(crossings) == 182
        for args in crossings:
            inline, reference = _crossing_pair(*args, 3 * energy._SHARE_HALVINGS)
            assert inline == reference, args
            assert isinstance(inline[0], str)

    def test_bench_demand_pool_matches_bitwise(self):
        """Every 8th crossing of the energy_dual benchmark's demand pool."""
        crossings = [_min_tern_crossing(protocol, LinkGains(*d["gains"]), d["k"], d["rate"])
                     for d in bench_module("workloads").demand_pool() for protocol in Protocol][::8]
        assert len(crossings) == 400
        for args in crossings:
            inline, reference = _crossing_pair(*args, 3 * energy._SHARE_HALVINGS)
            assert inline == reference, args
            assert isinstance(inline[0], str)


class TestMinTernAgainstMpmath:
    def test_draws_match_or_raise_overflow(self):
        mp = pytest.importorskip("mpmath")
        rng = random.Random(5)
        log_max = math.log(sys.float_info.max)
        matched = 0
        for _ in range(600):
            gains = LinkGains(*(log_uniform(rng, math.log(1e-3), math.log(1e3)) for _ in range(3)))
            k = log_uniform(rng, math.log(1e-2), math.log(1e2))
            rate = log_uniform(rng, math.log(1e-10), math.log(300.0))
            for protocol in Protocol:
                h_first = gains.h13 if protocol is Protocol.NCP else gains.h12
                log_eps, beta = reference_min_tern(protocol, h_first, gains.h23, k, rate)
                if log_eps > log_max:
                    with pytest.raises(ValidationError, match="outside the float range"):
                        min_tern(protocol, gains, k, rate)
                    continue
                sol = min_tern(protocol, gains, k, rate)
                assert sol.epsilon_min == pytest.approx(float(mp.exp(log_eps)), rel=1e-12)
                assert sol.beta == pytest.approx(float(beta), rel=1e-12)
                matched += 1
        assert matched >= 1100

    def test_readme_energy_csv_matches_mpmath(self, tmp_path, readme_csv_sha256):
        """Every printed cell of the README energy_ratio sweep is the
        12-digit rounding of its 50-digit value, and the file has the README's sha256."""
        mp = pytest.importorskip("mpmath")
        out = tmp_path / "energy.csv"
        assert main(["sweep", "--kind", "energy_ratio", "--d-min", "0.05", "--d-max", "0.95",
                     "--d-step", "0.01", "--k", "1", "--eta", "3", "--rate", "0.01",
                     "--out", str(out)]) == 0
        with out.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        grid = grid_values(0.05, 0.95, 0.01)
        assert len(rows) == len(grid) == 91
        for d, row in zip(grid, rows):
            assert row["feasible"] == "true"
            gains = collinear_gains(d, 3.0)
            with mp.workdps(50):
                eps_ncp = mp.exp(reference_min_tern(Protocol.NCP, gains.h13, gains.h23, 1.0, 0.01)[0])
                eps_cp = mp.exp(reference_min_tern(Protocol.CP, gains.h12, gains.h23, 1.0, 0.01)[0])
                expected = {"energy_ratio": eps_ncp / eps_cp, "eps_ncp": eps_ncp, "eps_cp": eps_cp}
            assert {c: row[c] for c in expected} == {
                c: format(float(v), ".12g") for c, v in expected.items()}, f"d={d!r}"
        readme_csv_sha256(out, "energy.csv")


class TestResourceAgainstMpmath:
    def test_readme_resource_csv_matches_mpmath(self, tmp_path, readme_csv_sha256):
        """Every solved cell of the README resource_ratio sweep is the
        12-digit rounding of its 50-digit value, and the file has the README's sha256."""
        mp = pytest.importorskip("mpmath")
        out = tmp_path / "resource.csv"
        assert main(["sweep", "--kind", "resource_ratio", "--d-min", "0.05", "--d-max", "0.95",
                     "--d-step", "0.01", "--epsilon", "0.01", "--k", "1", "--eta", "3",
                     "--rate", "0.005", "--out", str(out)]) == 0
        with out.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        grid = grid_values(0.05, 0.95, 0.01)
        assert len(rows) == len(grid) == 91
        op, rate = OperatingPoint(0.01, 1.0), 0.005
        for d, row in zip(grid, rows):
            assert row["feasible"] == "true"
            gains = collinear_gains(d, 3.0)
            totals = {}
            with mp.workdps(50):
                for protocol in Protocol:
                    h_first = gains.h13 if protocol is Protocol.NCP else gains.h12
                    kappa = op.k if protocol is Protocol.NCP else op.k + 1
                    totals[protocol] = (
                        slot(h_first, op.epsilon, rate)
                        + slot(gains.h23, mp.mpf(op.k) * op.epsilon, mp.mpf(kappa) * rate))
                expected = {"resource_ratio": totals[Protocol.NCP] / totals[Protocol.CP],
                            "total_ncp": totals[Protocol.NCP], "total_cp": totals[Protocol.CP]}
            assert {c: row[c] for c in expected} == {
                c: format(float(v), ".12g") for c, v in expected.items()}, f"d={d!r}"
        readme_csv_sha256(out, "resource.csv")


def slot_draws(count, seed):
    """(h, eps_user, target) with target = r*h*eps_user: r log-uniform in [1e-9, 1/2] and
    1 - r log-uniform in [1e-11, 1/2] by turns, h and eps_user in e^±690, the chord
    finite and the target a positive float below it."""
    rng = random.Random(seed)
    for i in range(count):
        r = (log_uniform(rng, math.log(1e-9), math.log(0.5)) if i % 2
             else 1.0 - log_uniform(rng, math.log(1e-11), math.log(0.5)))
        while True:
            h, eps_user = math.exp(rng.uniform(-690, 690)), math.exp(rng.uniform(-690, 690))
            target = r * (h * eps_user)
            if 0.0 < target < h * eps_user < math.inf:
                yield h, eps_user, target
                break


class TestSlotAgainstLambertW:
    def test_draws_match_or_raise_out_of_float_range(self):
        matched = 0
        for h, eps_user, target in slot_draws(2000, seed=23):
            beta = slot(h, eps_user, target)
            if not sys.float_info.min <= beta <= sys.float_info.max:
                with pytest.raises(ValidationError, match="float range"):
                    energy._solve_slot(h, eps_user, target)
                continue
            got = energy._solve_slot(h, eps_user, target)
            assert abs(got - beta) <= 1e-14 * beta, (h, eps_user, target)
            matched += 1
        assert matched >= 1900

    def test_demand_within_1e_11_of_the_chord(self):
        # a rounded chord h*eps = 0.30000000000000004 would put this share 1.4e-5 off
        rate = (1.0 - 1e-11) * (3.0 * 0.1)
        usage = resource_usage(Protocol.NCP, LinkGains(1.0, 3.0, 3.0), OperatingPoint(0.1, 1.0), rate)
        # 50-digit mpmath Lambert-W value
        assert usage.beta1 == pytest.approx(15000193050.208279, rel=1e-15)
        assert usage.beta2 == usage.beta1


# r = target/chord near 0 (below _R_LOG too), near 1/2 and near 1
_RATIOS = st.one_of(st.floats(-745.0, -1.0).map(math.exp), st.floats(0.499, 0.501),
                    st.floats(-36.0, -0.7).map(lambda t: 1.0 - math.exp(t)))


class TestSlotBound:
    """_slot_bound, the share at Newton's start, never exceeds the slot it bounds."""

    @settings(max_examples=500, deadline=None)
    @given(log_h=st.floats(-690.0, 690.0), log_eps=st.floats(-690.0, 690.0), r=_RATIOS)
    def test_bound_is_at_most_the_solved_slot(self, log_h, log_eps, r):
        h, eps_user = math.exp(log_h), math.exp(log_eps)
        target = r * h * eps_user
        if not 0.0 < target < h * eps_user or target == math.inf:
            return
        bound = energy._slot_bound(h, eps_user, target)
        try:
            beta = energy._solve_slot(h, eps_user, target)
        except ValidationError as exc:
            assert "float range" in str(exc)
            return
        assert 0.0 <= bound <= beta

    @pytest.mark.parametrize("h, eps_user, target", [
        (3.0, 0.1, 3e-10),                  # r = 1e-9
        (1.0, 1.0, 0.5),                    # r = 1/2, the last start in u
        (2.0, 0.25, 0.25000005),            # r just above 1/2, the first start in x
        (1.0, 0.3, (1.0 - 1e-12) * 0.3),    # r near 1
        (1e200, 1e200, 1e50),               # r = 1e-350, ln(1/r) from unscaled logarithms
        (0.7, 1e-290, 1e-300),              # chord near the bottom of the float range
    ])
    def test_bound_against_lambert_w(self, h, eps_user, target):
        bound = energy._slot_bound(h, eps_user, target)
        assert 0.0 < bound <= energy._solve_slot(h, eps_user, target)
        assert bound <= slot(h, eps_user, target)
