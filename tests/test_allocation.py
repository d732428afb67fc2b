import csv
import itertools
import math
import random

import numpy as np
import pytest

import relaygain.allocation as allocation
from relaygain import (LinkGains, OperatingPoint, Protocol, collaboration_gain,
                       collinear_gains, cp_allocate, grid_values, ncp_allocate)
from relaygain.cli import main
from relaygain.errors import (DeadLinkError, IterationLimitError, NaNResidualError,
                              NoSignChangeError, RelayGainError)
from relaygain.rootfind import _COUNTS, Bracket, solve_monotone

LN3 = math.log(3)


def ncp_residual(gains, op, beta):
    return (op.k * beta * np.log1p(gains.h13 * op.epsilon / beta)
            - (1.0 - beta) * np.log1p(gains.h23 * op.k * op.epsilon / (1.0 - beta)))


def cp_residual(gains, op, beta):
    return ((op.k + 1.0) * beta * np.log1p(gains.h12 * op.epsilon / beta)
            - (1.0 - beta) * np.log1p(gains.h23 * op.k * op.epsilon / (1.0 - beta)))


def grid_argmin(residual_fn, gains, op, step=1e-6):
    """Independent brute-force oracle: grid point minimizing |residual|."""
    betas = np.arange(1, int(round(1.0 / step))) * step
    res = np.abs(residual_fn(gains, op, betas))
    return float(betas[int(np.argmin(res))])


class TestNcpAllocate:
    def test_symmetric_case_forces_half(self):
        alloc = ncp_allocate(LinkGains(1, 1, 1), OperatingPoint(1, 1))
        assert alloc.protocol is Protocol.NCP
        assert alloc.beta == pytest.approx(0.5, abs=1e-12)
        assert alloc.base_rate == pytest.approx(0.5 * LN3, abs=1e-12)
        assert alloc.sum_rate == pytest.approx(LN3, abs=1e-11)

    def test_matches_brute_force_grid(self):
        # oracle: step-1e-6 grid argmin of the defining residual
        gains, op = LinkGains(1, 1, 4), OperatingPoint(0.1, 1)
        beta_grid = grid_argmin(ncp_residual, gains, op)
        alloc = ncp_allocate(gains, op)
        assert beta_grid == pytest.approx(0.960526, abs=1e-6)
        assert alloc.beta == pytest.approx(beta_grid, abs=1e-6)
        assert alloc.base_rate == pytest.approx(0.0951297646, abs=1e-8)

    def test_low_tern_chord_limit(self):
        # base/eps -> min{h13, h23} as eps -> 0
        alloc = ncp_allocate(LinkGains(1, 1, 2), OperatingPoint(1e-6, 1))
        assert alloc.base_rate / 1e-6 == pytest.approx(1.0, rel=1e-3)

    def test_residual_below_contract(self):
        for h13, h23, eps, k in [(1, 1, 1, 1), (0.3, 7, 20, 0.4), (5, 0.2, 1e-3, 9)]:
            gains, op = LinkGains(1, h13, h23), OperatingPoint(eps, k)
            alloc = ncp_allocate(gains, op)
            res = abs(float(ncp_residual(gains, op, alloc.beta)))
            assert res <= 1e-10 * (1.0 + alloc.base_rate)

    @pytest.mark.parametrize("gains", [LinkGains(1, 0, 1), LinkGains(1, 1, 0)])
    def test_dead_link_rejected(self, gains):
        with pytest.raises(DeadLinkError):
            ncp_allocate(gains, OperatingPoint(1, 1))


class TestCpAllocate:
    def test_all_ones_frozen_from_grid_oracle(self):
        gains, op = LinkGains(1, 1, 1), OperatingPoint(1, 1)
        beta_grid = grid_argmin(cp_residual, gains, op)
        alloc = cp_allocate(gains, op)
        assert alloc.beta == pytest.approx(beta_grid, abs=1e-6)
        assert alloc.beta == pytest.approx(0.170163, abs=1e-6)
        assert alloc.base_rate == pytest.approx(0.328098, abs=1e-6)
        assert alloc.sum_rate == pytest.approx(0.656196, abs=1e-6)

    def test_h13_is_ignored(self):
        op = OperatingPoint(0.7, 2.0)
        a = cp_allocate(LinkGains(1.5, 123.0, 2.5), op)
        b = cp_allocate(LinkGains(1.5, 0.0, 2.5), op)
        assert a == b

    def test_low_tern_relayed_limit(self):
        # base/eps -> min{h12, k/(k+1)*h23}
        alloc = cp_allocate(LinkGains(1, 1, 4), OperatingPoint(1e-6, 1))
        assert alloc.base_rate / 1e-6 == pytest.approx(1.0, rel=1e-3)
        alloc = cp_allocate(LinkGains(1, 1, 1), OperatingPoint(1e-6, 1))
        assert alloc.base_rate / 1e-6 == pytest.approx(0.5, rel=1e-3)

    def test_residual_below_contract(self):
        for h12, h23, eps, k in [(1, 1, 1, 1), (0.3, 7, 20, 0.4), (5, 0.2, 1e-3, 9)]:
            gains, op = LinkGains(h12, 1, h23), OperatingPoint(eps, k)
            alloc = cp_allocate(gains, op)
            res = abs(float(cp_residual(gains, op, alloc.beta)))
            assert res <= 1e-10 * (1.0 + alloc.base_rate)

    @pytest.mark.parametrize("gains", [LinkGains(0, 1, 1), LinkGains(1, 1, 0)])
    def test_dead_link_rejected(self, gains):
        with pytest.raises(DeadLinkError):
            cp_allocate(gains, OperatingPoint(1, 1))


class TestCollaborationGain:
    def test_all_ones_below_unity(self):
        report = collaboration_gain(LinkGains(1, 1, 1), OperatingPoint(1, 1))
        assert report.gain == pytest.approx(0.597295, abs=1e-6)
        assert not report.collaborate

    def test_low_tern_strong_relay(self):
        report = collaboration_gain(LinkGains(8, 1, 8), OperatingPoint(1e-6, 1))
        assert report.gain == pytest.approx(4.0, rel=1e-2)
        assert report.collaborate

    def test_high_tern_two_thirds(self):
        for h in (0.5, 1.0, 3.0):
            report = collaboration_gain(LinkGains(h, h, h), OperatingPoint(1e8, 1))
            assert report.gain == pytest.approx(2.0 / 3.0, rel=1e-2)

    def test_gain_equals_sum_rate_ratio(self):
        report = collaboration_gain(LinkGains(2, 0.5, 3), OperatingPoint(0.3, 2.5))
        assert report.gain == pytest.approx(report.cp.sum_rate / report.ncp.sum_rate,
                                            rel=1e-9)


class TestInvariants:
    def test_fairness_of_defining_equation(self):
        # user 2's curve value equals k * base_rate at the solution
        rng = random.Random(1)
        for _ in range(30):
            gains = LinkGains(*(math.exp(rng.uniform(math.log(0.1), math.log(10)))
                                for _ in range(3)))
            op = OperatingPoint(10 ** rng.uniform(-3, 2), 10 ** rng.uniform(-1, 1))
            for alloc, h_first in ((ncp_allocate(gains, op), gains.h13),
                                   (cp_allocate(gains, op), gains.h12)):
                slot2 = 1.0 - alloc.beta
                user2 = slot2 * math.log1p(gains.h23 * op.k * op.epsilon / slot2)
                weight = op.k if alloc.protocol is Protocol.NCP else op.k + 1.0
                assert user2 == pytest.approx(weight * alloc.base_rate, rel=1e-9)

    def test_base_rate_monotone_in_inputs(self):
        op = OperatingPoint(1.0, 1.0)
        ncp_h13 = [ncp_allocate(LinkGains(1, h, 1), op).base_rate for h in (0.5, 1, 2, 4)]
        assert all(a < b for a, b in zip(ncp_h13, ncp_h13[1:]))
        ncp_h23 = [ncp_allocate(LinkGains(1, 1, h), op).base_rate for h in (0.5, 1, 2, 4)]
        assert all(a < b for a, b in zip(ncp_h23, ncp_h23[1:]))
        cp_eps = [cp_allocate(LinkGains(1, 1, 1), OperatingPoint(e, 1)).base_rate
                  for e in (0.1, 1, 10, 100)]
        assert all(a < b for a, b in zip(cp_eps, cp_eps[1:]))

    def test_residual_sign_structure(self):
        # strictly increasing residual, negative near 0 and positive near 1
        gains, op = LinkGains(2.0, 0.7, 1.3), OperatingPoint(3.0, 0.6)
        grid = np.linspace(1e-6, 1 - 1e-6, 500)
        for residual_fn in (ncp_residual, cp_residual):
            values = residual_fn(gains, op, grid)
            assert values[0] < 0 < values[-1]
            assert np.all(np.diff(values) > 0)

    def test_oracle_equivalence_sampled(self):
        rng = random.Random(7)
        for _ in range(10):
            gains = LinkGains(*(math.exp(rng.uniform(math.log(0.1), math.log(10)))
                                for _ in range(3)))
            op = OperatingPoint(10 ** rng.uniform(-3, 2), 10 ** rng.uniform(-1, 1))
            assert ncp_allocate(gains, op).beta == pytest.approx(
                grid_argmin(ncp_residual, gains, op), abs=1e-5)
            assert cp_allocate(gains, op).beta == pytest.approx(
                grid_argmin(cp_residual, gains, op), abs=1e-5)


def mp_share(mp, protocol, gains, op, start):
    """(beta, base_rate, band) at 50 digits, by Newton steps on the share residual from `start`.

    band bounds how far the root of the float residual may sit from beta: each of
    the residual's two terms T carries a few rounding errors, so band is
    3 * 2**-52 * (T1 + T2) / residual'(beta).
    """
    with mp.workdps(50):
        eps, k, h23 = mp.mpf(op.epsilon), mp.mpf(op.k), mp.mpf(gains.h23)
        c1 = mp.mpf(gains.h13 if protocol is Protocol.NCP else gains.h12) * eps
        c2 = h23 * k * eps
        kappa = k if protocol is Protocol.NCP else k + 1
        beta = mp.mpf(start)
        for _ in range(8):
            log1, log2 = mp.log1p(c1 / beta), mp.log1p(c2 / (1 - beta))
            t1, t2 = kappa * beta * log1, (1 - beta) * log2
            slope = kappa * (log1 - c1 / (beta + c1)) + log2 - c2 / (1 - beta + c2)
            step = (t1 - t2) / slope
            beta -= step
            if abs(step) <= mp.mpf("1e-45") * beta:
                band = 3 * mp.mpf(2) ** -52 * (t1 + t2) / slope
                return beta, beta * mp.log1p(c1 / beta), band
        raise AssertionError(f"no Newton convergence from {start!r}")


def _log_uniform(rng, scale):
    return math.exp(rng.uniform(-scale, scale))


class TestShareAgainstMpmath:
    def test_shares_within_four_ulps_and_the_rounding_band(self):
        """Over 600 seeded shares (gains e^+-7, eps e^+-9, k e^+-4.6), each lies
        within 4 ulps of the 50-digit root, widened where the residual's own
        rounding band is wider (about 1 share in 200)."""
        mp = pytest.importorskip("mpmath")
        rng = random.Random(2008)
        for _ in range(300):
            gains = LinkGains(*(_log_uniform(rng, 7.0) for _ in range(3)))
            op = OperatingPoint(_log_uniform(rng, 9.0), _log_uniform(rng, 4.6))
            for alloc in (ncp_allocate(gains, op), cp_allocate(gains, op)):
                beta, _, band = mp_share(mp, alloc.protocol, gains, op, alloc.beta)
                assert abs(alloc.beta - beta) <= 4 * math.ulp(float(beta)) + band, (gains, op)

    def test_evaluations_per_share(self):
        """Residual evaluations per share solve, beyond the bracket's two, on the
        README collinear sweep: at most 14 on average (12.2 measured; plain
        bisection took 47), and within the stated bound. Read from the solve
        counters around each allocation, which makes one solve."""
        counts = []
        op = OperatingPoint(0.01, 1.0)
        for d in grid_values(0.01, 0.99, 0.001):
            gains = collinear_gains(d, 2.0)
            for allocate in (ncp_allocate, cp_allocate):
                solves, evals = _COUNTS.solves, _COUNTS.evals
                allocate(gains, op)
                assert _COUNTS.solves - solves == 1
                counts.append(_COUNTS.evals - evals - 2)
        assert sum(counts) / len(counts) <= 14
        assert max(counts) <= allocation._MAX_EVALS


def _outcome(run):
    """(share as hex, or error class and message; solve and evaluation count deltas)."""
    solves, evals = _COUNTS.solves, _COUNTS.evals
    try:
        result = run().hex()
    except RelayGainError as exc:
        result = (type(exc), str(exc))
    return result, (_COUNTS.solves - solves, _COUNTS.evals - evals)


def _share_pair(protocol, gains, op, max_iter):
    """The inlined share solve and solve_monotone on the same residual, as outcomes."""
    eps, k = op.epsilon, op.k
    kappa, h_first = (k, gains.h13) if protocol is Protocol.NCP else (k + 1.0, gains.h12)
    chord1, chord2 = h_first * eps, gains.h23 * k * eps

    def residual(b):
        return kappa * b * math.log1p(chord1 / b) - (1.0 - b) * math.log1p(chord2 / (1.0 - b))

    inline = _outcome(lambda: allocation._rates(kappa, h_first, gains.h23, eps, k)[0])
    reference = _outcome(lambda: solve_monotone(
        residual, Bracket.scan(residual, allocation._BETA_LO, allocation._BETA_HI), max_iter))
    return inline, reference


class TestInlineShareDrift:
    """allocation runs solve_monotone's steps inline; the two copies must not drift."""

    def test_seeded_draws_match_bitwise(self):
        rng = random.Random(1971)
        solved = 0
        for _ in range(2000):
            gains = LinkGains(*(_log_uniform(rng, 7.0) for _ in range(3)))
            op = OperatingPoint(_log_uniform(rng, 9.0), _log_uniform(rng, 4.6))
            for protocol in Protocol:
                inline, reference = _share_pair(protocol, gains, op, allocation._MAX_EVALS)
                assert inline == reference, (protocol, gains, op)
                solved += isinstance(inline[0], str)
        assert solved >= 3900

    @pytest.mark.parametrize("gains, op, error", [
        (LinkGains(1, 1e-4, 1e3), OperatingPoint(1e-8, 0.01), NoSignChangeError),
        (LinkGains(1e200, 1e200, 1e200), OperatingPoint(1e200, 1), NaNResidualError),
    ])
    def test_error_paths_match(self, gains, op, error):
        outcomes = [_share_pair(p, gains, op, allocation._MAX_EVALS) for p in Protocol]
        for inline, reference in outcomes:
            assert inline == reference
        assert any(inline[0][0] is error for inline, _ in outcomes)

    def test_iteration_limit_matches(self, monkeypatch):
        monkeypatch.setattr(allocation, "_MAX_EVALS", 4)
        for protocol in Protocol:
            inline, reference = _share_pair(protocol, LinkGains(1, 2, 3), OperatingPoint(0.5, 2), 4)
            assert inline == reference
            assert inline[0][0] is IterationLimitError
            assert inline[1] == (1, 6)


def _bits(run):
    """The floats run() returns, as hex, or the class and message of the error it raises."""
    try:
        return tuple(value.hex() for value in run())
    except RelayGainError as exc:
        return type(exc), str(exc)


class TestRatesCore:
    def test_seeded_draws_match_the_allocators_bitwise(self):
        """The raw-float core the rate sweeps call gives the allocators' beta and
        base_rate bits, and raises as they do, over 2,000 seeded draws."""
        rng = random.Random(1923)
        solved = 0
        for _ in range(2000):
            gains = LinkGains(*(_log_uniform(rng, 7.0) for _ in range(3)))
            op = OperatingPoint(_log_uniform(rng, 9.0), _log_uniform(rng, 4.6))
            eps, k = op.epsilon, op.k
            for allocate, kappa, h_first in ((ncp_allocate, k, gains.h13),
                                             (cp_allocate, k + 1.0, gains.h12)):
                core = _bits(lambda: allocation._rates(kappa, h_first, gains.h23, eps, k))
                public = _bits(lambda: allocate(gains, op)[1:3])
                assert core == public, (allocate.__name__, gains, op)
                solved += isinstance(core[0], str)
        assert solved >= 3900


# The README's rate sweeps, the stride of rows checked in each and the
# name of its CSV in the README.
README_RATE_SWEEPS = {
    "plane": (["--kind", "plane_gain", "--x-min", "-1", "--x-max", "1", "--x-step", "0.01",
               "--y-min", "-0.75", "--y-max", "0.75", "--y-step", "0.01",
               "--epsilon", "0.01", "--k", "0.1", "--eta", "3"], 41, "plane.csv"),
    "collinear_a": (["--kind", "collinear_gain", "--d-min", "0.01", "--d-max", "0.99",
                     "--d-step", "0.001", "--epsilon", "0.01", "--k", "1", "--eta", "2"], 3,
                    "collinear_a.csv"),
    "collinear_b": (["--kind", "collinear_gain", "--d-min", "0.01", "--d-max", "0.99",
                     "--d-step", "0.001", "--epsilon", "0.1", "--k", "1", "--eta", "2"], 3,
                    "collinear_b.csv"),
    "rate_ratio": (["--kind", "rate_ratio", "--k-min", "0.1", "--k-max", "10", "--k-step", "0.1",
                    "--d", "0.5", "--epsilon", "0.01", "--eta", "3"], 1, "ratio.csv"),
}


def _readme_points(name, argv):
    """(gains, op) of every row of a README rate sweep, in CSV order; None on an endpoint."""
    opt = dict(zip(argv[::2], argv[1::2]))

    def axis(a):
        return grid_values(float(opt[f"--{a}-min"]), float(opt[f"--{a}-max"]),
                           float(opt[f"--{a}-step"]))

    eta = float(opt["--eta"])
    if name == "plane":
        op = OperatingPoint(float(opt["--epsilon"]), float(opt["--k"]))
        for x, y in itertools.product(axis("x"), axis("y")):
            d12_sq, d23_sq = (x + 0.5) ** 2 + y * y, (x - 0.5) ** 2 + y * y
            yield ((LinkGains(d12_sq ** (-eta / 2), 1.0, d23_sq ** (-eta / 2)), op)
                   if d12_sq and d23_sq else None)
    elif name == "rate_ratio":
        gains = collinear_gains(float(opt["--d"]), eta)
        for k in axis("k"):
            yield gains, OperatingPoint(float(opt["--epsilon"]), k)
    else:
        op = OperatingPoint(float(opt["--epsilon"]), float(opt["--k"]))
        for d in axis("d"):
            yield collinear_gains(d, eta), op


@pytest.mark.parametrize("name", sorted(README_RATE_SWEEPS))
def test_readme_rate_csv_matches_mpmath(name, tmp_path, readme_csv_sha256):
    """Every checked cell of a README rate sweep is the 12-digit rounding of its
    50-digit value, and the file has the README's sha256."""
    mp = pytest.importorskip("mpmath")
    argv, stride, readme_name = README_RATE_SWEEPS[name]
    out = tmp_path / f"{name}.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    with out.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    points = list(_readme_points(name, argv))
    assert len(rows) == len(points)
    for i in range(0, len(rows), stride):
        if rows[i]["degenerate"] == "true":
            continue
        row, (gains, op) = rows[i], points[i]
        beta_ncp, rate_ncp, _ = mp_share(mp, Protocol.NCP, gains, op, ncp_allocate(gains, op).beta)
        beta_cp, rate_cp, _ = mp_share(mp, Protocol.CP, gains, op, cp_allocate(gains, op).beta)
        with mp.workdps(50):
            gain = rate_cp / rate_ncp
        expected = {"gain": gain, "beta_ncp": beta_ncp, "beta_cp": beta_cp,
                    "rate_ncp": rate_ncp, "rate_cp": rate_cp}
        assert {c: row[c] for c in expected} == {
            c: format(float(v), ".12g") for c, v in expected.items()}, f"row {i}"
    readme_csv_sha256(out, readme_name)
