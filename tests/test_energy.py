import csv
import math
import random
import sys

import numpy as np
import pytest

from relaygain import (LinkGains, OperatingPoint, Protocol, collinear_gains, cp_allocate,
                       energy_gain, feasibility_bound, feasible, grid_values, min_tern,
                       ncp_allocate, resource_usage)
from relaygain.cli import main
from relaygain.errors import DeadLinkError, InfeasibleRateError, ValidationError

ONES = LinkGains(1, 1, 1)


def slot_oracle(h, eps_user, target, step=1e-7):
    """Brute-force grid solve of beta*ln(1 + h*eps_user/beta) = target."""
    betas = np.arange(1, 4_000_000) * step
    values = betas * np.log1p(h * eps_user / betas)
    return float(betas[int(np.argmin(np.abs(values - target)))])


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
        with pytest.raises(DeadLinkError):
            min_tern(Protocol.CP, LinkGains(0.0, 1.0, 1.0), 1.0, 0.1)


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


class TestResourceUsage:
    def test_ncp_frozen_and_grid_checked(self):
        usage = resource_usage(Protocol.NCP, ONES, OperatingPoint(1, 1), 0.2)
        assert usage.beta1 == pytest.approx(0.0751766918, abs=1e-9)
        assert usage.beta2 == pytest.approx(usage.beta1, rel=1e-12)
        assert usage.total == usage.beta1 + usage.beta2
        assert usage.beta1 == pytest.approx(slot_oracle(1.0, 1.0, 0.2), abs=2e-7)

    def test_cp_frozen_and_grid_checked(self):
        usage = resource_usage(Protocol.CP, ONES, OperatingPoint(1, 1), 0.2)
        assert usage.beta1 == pytest.approx(0.0751766918, abs=1e-9)
        assert usage.beta2 == pytest.approx(0.2470984274, abs=1e-9)
        assert usage.total == pytest.approx(0.3222751191, abs=1e-9)
        assert usage.beta2 == pytest.approx(slot_oracle(1.0, 1.0, 0.4), abs=2e-7)

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


class TestDualityRoundtrip:
    def test_roundtrip_both_protocols(self):
        rng = random.Random(11)
        worst = 0.0
        for _ in range(40):
            gains = LinkGains(*(math.exp(rng.uniform(math.log(0.1), math.log(10)))
                                for _ in range(3)))
            eps = 10 ** rng.uniform(-3, 2)
            k = 10 ** rng.uniform(-1, 1)
            op = OperatingPoint(eps, k)
            for protocol, allocate in ((Protocol.NCP, ncp_allocate),
                                       (Protocol.CP, cp_allocate)):
                rate = allocate(gains, op).base_rate
                recovered = min_tern(protocol, gains, k, rate).epsilon_min
                worst = max(worst, abs(recovered - eps) / eps)
        assert worst <= 1e-6


class TestMinTernRange:
    """Far from unit rates min_tern solves, or says its TERN is out of float range."""

    @pytest.mark.parametrize("protocol, rate, log_eps", [
        (Protocol.CP, 700.0, "2099.36"),
        (Protocol.NCP, 700.0, "1399.31"),
        (Protocol.CP, 300.0, "899.364"),
    ])
    def test_overflow_is_a_validation_error(self, protocol, rate, log_eps):
        with pytest.raises(ValidationError) as err:
            min_tern(protocol, ONES, 1.0, rate)
        message = str(err.value)
        assert message.startswith(f"{protocol.value}: ")
        assert f"rate {rate!r}" in message and f"e^{log_eps}" in message

    # eps_min and beta from a 50-digit mpmath solve of the crossing equations
    @pytest.mark.parametrize("rate, eps_min, beta", [
        (235.0, 7.9660135401231759e+305, 0.33311460875718671),
        (1e-12, 2.000000000002e-12, 7.9590509463078089e-13),
    ])
    def test_cp_extreme_rates_solved(self, rate, eps_min, beta):
        sol = min_tern(Protocol.CP, ONES, 1.0, rate)
        assert sol.epsilon_min == pytest.approx(eps_min, rel=1e-12)
        assert sol.beta == pytest.approx(beta, rel=1e-12)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def mp_min_tern(mp, protocol, gains, k, rate):
    """(ln eps_min, beta) at 50 digits, where both users' constraints bind:
    b*expm1(R/b)/h_first = (1-b)*expm1(w*R/(1-b))/(k*h23), w = k (NCP) or k+1 (CP)."""
    with mp.workdps(50):
        k, rate = mp.mpf(k), mp.mpf(rate)
        h_first = mp.mpf(gains.h13 if protocol is Protocol.NCP else gains.h12)
        h23 = mp.mpf(gains.h23)
        w = k if protocol is Protocol.NCP else k + 1

        def log_eps1(b):
            return mp.log(b) + mp.log(mp.expm1(rate / b)) - mp.log(h_first)

        def log_eps2(b):
            return mp.log(1 - b) + mp.log(mp.expm1(w * rate / (1 - b))) - mp.log(k * h23)

        tiny = mp.mpf("1e-45")
        beta = mp.findroot(lambda b: log_eps2(b) - log_eps1(b), (tiny, 1 - tiny),
                           solver="anderson")
        return log_eps1(beta), beta


class TestMinTernAgainstMpmath:
    def test_draws_match_or_raise_overflow(self):
        mp = pytest.importorskip("mpmath")
        rng = random.Random(5)
        log_max = math.log(sys.float_info.max)
        matched = 0
        for _ in range(600):
            gains = LinkGains(*(_log_uniform(rng, 1e-3, 1e3) for _ in range(3)))
            k = _log_uniform(rng, 1e-2, 1e2)
            rate = _log_uniform(rng, 1e-10, 300.0)
            for protocol in Protocol:
                log_eps, beta = mp_min_tern(mp, protocol, gains, k, rate)
                if log_eps > log_max:
                    with pytest.raises(ValidationError, match="outside the float range"):
                        min_tern(protocol, gains, k, rate)
                    continue
                sol = min_tern(protocol, gains, k, rate)
                assert sol.epsilon_min == pytest.approx(float(mp.exp(log_eps)), rel=1e-12)
                assert sol.beta == pytest.approx(float(beta), rel=1e-12)
                matched += 1
        assert matched >= 1100

    def test_readme_energy_csv_matches_mpmath(self, tmp_path):
        """Every printed cell of the README energy_ratio sweep is the
        12-digit rounding of its 50-digit value."""
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
            eps_ncp = mp.exp(mp_min_tern(mp, Protocol.NCP, gains, 1.0, 0.01)[0])
            eps_cp = mp.exp(mp_min_tern(mp, Protocol.CP, gains, 1.0, 0.01)[0])
            expected = {"energy_ratio": eps_ncp / eps_cp, "eps_ncp": eps_ncp, "eps_cp": eps_cp}
            assert {c: row[c] for c in expected} == {
                c: format(float(v), ".12g") for c, v in expected.items()}, f"d={d!r}"
