import collections
import hashlib
import itertools
import math
import re

import pytest

import relaygain.geometry as geometry
from relaygain import (LinkGains, OperatingPoint, Placement, Protocol, collinear_gains,
                       cp_allocate, feasible, gains_from_placement, grid_values,
                       low_tern_gain_limit, max_geometric_gain, min_tern, ncp_allocate,
                       optimal_relay_location, resource_usage, sweep, sweep_columns)
from relaygain.cli import main
from relaygain.errors import GeometryError, ValidationError
from relaygain.geometry import MAX_GRID_POINTS
from relaygain.verify import PLACEMENT_STEP, collinear_grid_peak


class TestGainsFromPlacement:
    def test_midpoint_relay(self):
        p = Placement((-0.5, 0.0), (0.5, 0.0), (0.0, 0.0), eta=2.0)
        gains = gains_from_placement(p)
        assert gains.h12 == pytest.approx(4.0)
        assert gains.h23 == pytest.approx(4.0)
        assert gains.h13 == pytest.approx(1.0)

    def test_pythagorean_relay(self):
        p = Placement((-0.5, 0.0), (0.5, 0.0), (0.0, 0.5), eta=2.0)
        gains = gains_from_placement(p)
        assert gains.h12 == pytest.approx(2.0)
        assert gains.h23 == pytest.approx(2.0)

    def test_coincident_relay_rejected(self):
        p = Placement((-0.5, 0.0), (0.5, 0.0), (-0.5, 0.0), eta=2.0)
        with pytest.raises(GeometryError):
            gains_from_placement(p)

    def test_overflowing_gain_rejected(self):
        # d12 = 1e-10 and d12^-40 = 1e400
        p = Placement((-0.5, 0.0), (0.5, 0.0), (-0.4999999999, 0.0), eta=40.0)
        with pytest.raises(GeometryError, match=r"a gain d\^-eta overflows at eta=40.0"):
            gains_from_placement(p)

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(GeometryError):
            Placement((0.0, 0.0), (0.0, 0.0), (1.0, 0.0), eta=2.0)

    def test_point_that_is_not_a_tuple_rejected(self):
        with pytest.raises(ValidationError, match=r"relay must be an \(x, y\) tuple, got \["):
            Placement((0.0, 0.0), (1.0, 0.0), [1.0, 0.0], eta=2.0)


class TestCollinearGains:
    def test_fig3_parameterization(self):
        gains = collinear_gains(0.5, 3.0)
        assert gains.h12 == pytest.approx(8.0)
        assert gains.h23 == pytest.approx(8.0)
        assert gains.h13 == 1.0

    def test_quarter_point(self):
        gains = collinear_gains(0.25, 2.0)
        assert gains.h12 == pytest.approx(16.0)
        assert gains.h23 == pytest.approx(16.0 / 9.0)

    @pytest.mark.parametrize("d", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_out_of_range(self, d):
        with pytest.raises(ValidationError):
            collinear_gains(d, 2.0)


class TestPlacementFormulas:
    def test_optimal_location_spots(self):
        assert optimal_relay_location(1.0, 2.0) == pytest.approx(0.585786, abs=1e-6)
        assert optimal_relay_location(10.0, 3.0) == pytest.approx(0.50794, abs=1e-5)

    def test_location_tends_to_midpoint(self):
        assert optimal_relay_location(1e9, 4.0) == pytest.approx(0.5, abs=1e-9)

    def test_location_always_past_midpoint(self):
        for k in (0.1, 1.0, 50.0):
            for eta in (2.0, 3.0, 6.0):
                assert 0.5 < optimal_relay_location(k, eta) < 1.0

    def test_max_gain_spots(self):
        assert max_geometric_gain(1.0, 2.0) == pytest.approx(2.91421, abs=1e-5)
        assert max_geometric_gain(10.0, 3.0) == pytest.approx(7.6305, abs=1e-4)

    def test_max_gain_equals_limit_at_optimum(self):
        for k, eta in [(1.0, 2.0), (0.4, 3.0), (10.0, 2.5)]:
            d = optimal_relay_location(k, eta)
            limit = low_tern_gain_limit(collinear_gains(d, eta), k)
            assert limit == pytest.approx(max_geometric_gain(k, eta), rel=1e-12)

    def test_max_gain_increasing_in_eta(self):
        values = [max_geometric_gain(2.0, eta) for eta in (2.0, 2.5, 3.0, 4.0, 6.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestGridPeak:
    @pytest.mark.parametrize("k, eta", [(1.0, 2.0), (1.0, 3.0), (10.0, 2.0), (10.0, 3.0)])
    def test_peak_is_that_of_the_public_functions_bitwise(self, k, eta):
        grid = [i * PLACEMENT_STEP for i in range(1, round(1.0 / PLACEMENT_STEP))]
        values = [low_tern_gain_limit(collinear_gains(d, eta), k) for d in grid]
        best = max(values)
        expected = grid[values.index(best)], best  # the first d of the largest value
        assert [x.hex() for x in collinear_grid_peak(k, eta)] == [x.hex() for x in expected]

    def test_overflowing_gain_is_a_geometry_error(self):
        with pytest.raises(GeometryError, match="overflows at d=0.001, eta=800.0"):
            collinear_grid_peak(1.0, 800.0)


class TestGridValues:
    def test_inclusive_endpoints(self):
        values = grid_values(0.0, 1.0, 0.25)
        assert values == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_symmetric_ranges_mirror_exactly(self):
        values = grid_values(-0.75, 0.75, 1.5 / 149)
        assert len(values) == 150
        for i in range(75):
            assert values[149 - i] == -values[i]

    def test_odd_symmetric_grid_hits_zero(self):
        values = grid_values(-1.0, 1.0, 0.5)
        assert values == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_step_larger_than_range_is_empty(self):
        with pytest.raises(ValidationError):
            grid_values(0.0, 1.0, 2.0)

    def test_reversed_range_with_a_tiny_step_is_empty(self):
        # (hi - lo)/step is -inf, which no point count can take
        with pytest.raises(ValidationError, match="empty grid: step 1e-310 exceeds range"):
            grid_values(2.0, 1.0, 1e-310)

    def test_points_up_to_the_limit(self):
        assert len(grid_values(0.0, 1.0, 1.0 / (MAX_GRID_POINTS - 1))) == MAX_GRID_POINTS
        with pytest.raises(ValidationError, match=f"more than {MAX_GRID_POINTS} points"):
            grid_values(0.0, 1.0, 1.0 / MAX_GRID_POINTS)


def count_allocations(monkeypatch):
    """Count the share solves the sweep engine makes per protocol, through the
    one allocation core it calls: kappa is k for NCP and k + 1 for CP."""
    calls = collections.Counter()

    def counting(kappa, h_first, h23, eps, k, _solve=geometry._rates):
        calls["ncp" if kappa == k else "cp"] += 1
        return _solve(kappa, h_first, h23, eps, k)

    monkeypatch.setattr(geometry, "_rates", counting)
    return calls


def plane_gains(x, y, eta):
    """(h12, h23) of a plane relay from squared distances, as the sweeps take
    them (hypot would move some last printed digits); inf on an endpoint."""
    d12_sq, d23_sq = (x + 0.5) ** 2 + y * y, (x - 0.5) ** 2 + y * y
    if d12_sq == 0.0 or d23_sq == 0.0:
        return math.inf, math.inf
    return d12_sq ** -(eta / 2.0), d23_sq ** -(eta / 2.0)


def unmemoized_sweep(kind, params):
    """sweep() from the public functions, every grid point solved afresh: the
    reference that the raw-float walk, its reuse of repeated points and its
    NCP table must match bitwise."""
    spec = geometry._KINDS[kind]
    grids = [grid_values(params[f"{a}_min"], params[f"{a}_max"], params[f"{a}_step"])
             for a in spec.axes]
    records, inputs = [], []
    for coords in itertools.product(*grids):
        p = {**{name: params[name] for name in spec.fixed}, **dict(zip(spec.axes, coords))}
        if "d" in p:
            h12, h23 = collinear_gains(p["d"], p["eta"])[::2]
        else:
            h12, h23 = plane_gains(p["x"], p["y"], p["eta"])
        if max(h12, h23) > geometry.OVERFLOW_GAIN:
            records.append(geometry.SweepRecord(coords, None, {}, degenerate=True))
            continue
        gains = LinkGains(h12, 1.0, h23)
        op = OperatingPoint(p["epsilon"], p["k"]) if "epsilon" in p else None
        if kind == "resource_ratio":
            extra = {f"{pr.value.lower()}_feasible": feasible(pr, gains, op, p["rate"])
                     for pr in Protocol}
            value = None
            if all(extra.values()):
                totals = [resource_usage(pr, gains, op, p["rate"]).total for pr in Protocol]
                extra.update(total_ncp=totals[0], total_cp=totals[1])
                value = totals[0] / totals[1]
        elif kind == "energy_ratio":
            eps_ncp, eps_cp = (min_tern(pr, gains, p["k"], p["rate"]).epsilon_min
                               for pr in Protocol)
            value, extra = eps_ncp / eps_cp, {"eps_ncp": eps_ncp, "eps_cp": eps_cp}
        else:
            ncp, cp = ncp_allocate(gains, op), cp_allocate(gains, op)
            value = cp.base_rate / ncp.base_rate
            extra = {"beta_ncp": ncp.beta, "beta_cp": cp.beta,
                     "rate_ncp": ncp.base_rate, "rate_cp": cp.base_rate}
        if "h12" in spec.extras:
            extra = {"h12": h12, "h23": h23, **extra}
        records.append(geometry.SweepRecord(coords, value, extra, value is not None))
        inputs.append((gains, op))
    return records, inputs


# One tiny grid per sweep kind with a repeated point: the plane grid is
# mirrored, and each one-axis grid steps by a quarter ulp of its start, so
# that rounding repeats the start and then the next double.
REPEATING_GRIDS = {
    "plane_gain": {"x_min": -0.25, "x_max": 0.25, "x_step": 0.25,
                   "y_min": -0.5, "y_max": 0.5, "y_step": 0.5,
                   "epsilon": 0.01, "k": 1.0, "eta": 3.0},
    "collinear_gain": {"d_min": 0.5, "d_max": math.nextafter(0.5, 1.0), "d_step": 2.0 ** -55,
                       "epsilon": 0.01, "k": 1.0, "eta": 3.0},
    # at eps=1 and k=4 one ulp of k moves the NCP share, which a key that
    # left out k would miss
    "rate_ratio": {"k_min": 4.0, "k_max": math.nextafter(4.0, 8.0), "k_step": 2.0 ** -52,
                   "d": 0.3, "epsilon": 1.0, "eta": 3.0},
    "resource_ratio": {"d_min": 0.5, "d_max": math.nextafter(0.5, 1.0), "d_step": 2.0 ** -55,
                       "epsilon": 0.01, "k": 1.0, "eta": 3.0, "rate": 0.005},
    "energy_ratio": {"d_min": 0.5, "d_max": math.nextafter(0.5, 1.0), "d_step": 2.0 ** -55,
                     "k": 1.0, "eta": 3.0, "rate": 0.01},
}


class TestSweeps:
    def test_plane_gain_mirror_symmetry(self, monkeypatch):
        calls = count_allocations(monkeypatch)
        records = sweep("plane_gain", {
            "x_min": -1.0, "x_max": 1.0, "x_step": 0.25,
            "y_min": -0.5, "y_max": 0.5, "y_step": 0.125,
            "epsilon": 0.01, "k": 0.1, "eta": 3.0})
        ny = 9
        by_coord = {rec.coords: rec for rec in records}
        assert len(records) == 9 * ny
        # CP: 9x5 distinct points, less the two on an endpoint, each solved
        # once. NCP reads only h23: x=0.25 and 0.75 (and 0 and 1) reflect
        # about the destination, and (|x-1/2|, |y|) pairs such as (0.25, 0.5)
        # and (0.5, 0.25) give bitwise-equal h23
        assert calls == {"ncp": 30, "cp": 43}
        for (x, y), rec in by_coord.items():
            mirrored = by_coord[(x, -y)]
            assert mirrored.gain == rec.gain
            assert mirrored.extra == rec.extra
            if y:
                assert mirrored.extra is not rec.extra

    def test_readme_plane_grid_solve_counts(self, monkeypatch):
        # the README plane sweep: CP once per distinct point of a row (the
        # y-mirror repeats), NCP once per distinct h23 over the whole grid
        calls = count_allocations(monkeypatch)
        records = sweep("plane_gain", {
            "x_min": -1.0, "x_max": 1.0, "x_step": 0.01,
            "y_min": -0.75, "y_max": 0.75, "y_step": 0.01,
            "epsilon": 0.01, "k": 0.1, "eta": 3.0})
        assert len(records) == 201 * 151
        assert calls == {"ncp": 8743, "cp": 15274}

    def test_collinear_gain_solves_every_point(self, monkeypatch):
        calls = count_allocations(monkeypatch)
        records = sweep("collinear_gain", {
            "d_min": 0.1, "d_max": 0.9, "d_step": 0.1,
            "epsilon": 0.01, "k": 1.0, "eta": 2.0})
        assert len(records) == 9
        assert calls == {"ncp": 9, "cp": 9}

    @pytest.mark.parametrize("kind", sorted(geometry._KINDS))
    def test_repeated_points_match_unmemoized_evaluation(self, kind):
        params = REPEATING_GRIDS[kind]
        expected, inputs = unmemoized_sweep(kind, params)
        assert len(set(inputs)) < len(inputs)
        assert sweep(kind, params) == expected

    @pytest.mark.parametrize("kind", sorted(geometry._KINDS))
    def test_records_match_the_public_functions(self, kind):
        # STREAM_GRIDS hold degenerate plane points and infeasible resource points
        expected, _ = unmemoized_sweep(kind, STREAM_GRIDS[kind])
        assert sweep(kind, STREAM_GRIDS[kind]) == expected

    def test_gain_past_the_float_range_is_degenerate(self):
        # d^-3 and (y*y)^-1.5 at 1e-110 overflow the floats: past OVERFLOW_GAIN
        collinear = sweep("collinear_gain", with_params("collinear_gain", d_min=1e-110,
                                                         d_max=0.5, d_step=0.25))
        plane = sweep("plane_gain", with_params("plane_gain", x_min=-0.5, x_max=0.0,
                                                x_step=0.5, y_min=1e-110, y_max=1.0,
                                                y_step=0.5))
        for records in (collinear, plane):
            assert records[0] == geometry.SweepRecord(records[0].coords, None, {},
                                                      degenerate=True)
            assert not any(rec.degenerate for rec in records[1:])

    def test_plane_gain_row_major_order(self):
        records = sweep("plane_gain", {
            "x_min": 0.0, "x_max": 0.2, "x_step": 0.1,
            "y_min": 0.0, "y_max": 0.1, "y_step": 0.1,
            "epsilon": 0.01, "k": 1.0, "eta": 2.0})
        coords = [rec.coords for rec in records]
        assert coords == [(0.0, 0.0), (0.0, 0.1), (0.1, 0.0), (0.1, 0.1),
                          (0.2, 0.0), (0.2, 0.1)]

    def test_plane_gain_degenerate_at_endpoint(self):
        records = sweep("plane_gain", {
            "x_min": -0.5, "x_max": 0.5, "x_step": 0.5,
            "y_min": 0.0, "y_max": 0.5, "y_step": 0.5,
            "epsilon": 0.01, "k": 1.0, "eta": 2.0})
        by_coord = {rec.coords: rec for rec in records}
        assert by_coord[(-0.5, 0.0)].degenerate
        assert by_coord[(-0.5, 0.0)].gain is None
        assert not by_coord[(0.0, 0.5)].degenerate

    def test_collinear_gain_peak_near_formula(self):
        # grid argmax of the exact gain at eps=0.01 lands by the closed-form
        # optimum and the peak value sits within 5% of the low-TERN formula
        records = sweep("collinear_gain", {
            "d_min": 0.3, "d_max": 0.9, "d_step": 1e-3,
            "epsilon": 0.01, "k": 1.0, "eta": 2.0})
        best = max(records, key=lambda r: r.gain)
        assert best.gain == pytest.approx(2.81504, abs=1e-4)
        assert best.coords[0] == pytest.approx(0.588, abs=1e-9)
        assert abs(best.coords[0] - optimal_relay_location(1.0, 2.0)) <= 3e-3
        assert abs(best.gain - max_geometric_gain(1.0, 2.0)) <= 0.05 * max_geometric_gain(1.0, 2.0)

    def test_rate_ratio_gain_rises_with_k(self):
        records = sweep("rate_ratio", {
            "k_min": 0.1, "k_max": 2.1, "k_step": 0.5,
            "d": 0.5, "epsilon": 0.01, "eta": 3.0})
        gains = [rec.gain for rec in records]
        assert gains[0] < 1.0 < gains[-1]

    def test_resource_ratio_exceeds_unity_somewhere(self):
        records = sweep("resource_ratio", {
            "d_min": 0.1, "d_max": 0.9, "d_step": 0.05,
            "epsilon": 0.01, "k": 1.0, "eta": 3.0, "rate": 0.005})
        ratios = [rec.gain for rec in records if rec.feasible]
        assert ratios and max(ratios) > 1.0

    def test_energy_ratio_matches_low_rate_limit(self):
        records = sweep("energy_ratio", {
            "d_min": 0.4, "d_max": 0.7, "d_step": 0.1,
            "k": 1.0, "eta": 3.0, "rate": 1e-4})
        for rec in records:
            d = rec.coords[0]
            limit = low_tern_gain_limit(collinear_gains(d, 3.0), 1.0)
            assert rec.gain == pytest.approx(limit, rel=2e-2)

    def test_collinear_overflow_guard_flags_degenerate(self):
        # at eta=3 a relay within ~1e-4 of the source pushes h12 past 1e12
        records = sweep("collinear_gain", {
            "d_min": 5e-6, "d_max": 0.500005, "d_step": 0.25,
            "epsilon": 0.01, "k": 1.0, "eta": 3.0})
        assert records[0].degenerate and records[0].gain is None
        assert not records[-1].degenerate and records[-1].gain is not None

    def test_rate_ratio_overflow_guard_flags_degenerate(self):
        # the fixed relay at d=1e-5 gives h12 = 1e15: every k is degenerate,
        # as the same relay is in collinear_gain
        records = sweep("rate_ratio", {
            "k_min": 0.5, "k_max": 1.0, "k_step": 0.5,
            "d": 1e-5, "epsilon": 0.01, "eta": 3.0})
        assert [rec.coords for rec in records] == [(0.5,), (1.0,)]
        assert all(rec.degenerate and rec.gain is None and rec.extra == {}
                   for rec in records)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            sweep("nope", {})

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValidationError):
            sweep("collinear_gain", {"d_min": 0.1, "d_max": 0.9})

    def test_columns_are_stable(self):
        assert sweep_columns("plane_gain")[:3] == ["x", "y", "gain"]
        assert sweep_columns("resource_ratio")[-2:] == ["feasible", "degenerate"]


def count_evaluations(monkeypatch):
    """The (h12, h23) of every point each sweep kind's evaluator solves, in order."""
    evaluated = []
    for kind, spec in geometry._KINDS.items():
        def counting(h12, h23, *rest, _evaluate=spec.evaluate):
            evaluated.append((h12, h23))
            return _evaluate(h12, h23, *rest)
        monkeypatch.setitem(geometry._KINDS, kind, spec._replace(evaluate=counting))
    return evaluated


# One small grid per sweep kind whose first point is solved, not degenerate;
# the resource grid has infeasible points
STREAM_GRIDS = {
    "plane_gain": {"x_min": -0.4, "x_max": 0.4, "x_step": 0.2,
                   "y_min": -0.2, "y_max": 0.2, "y_step": 0.2,
                   "epsilon": 0.01, "k": 0.1, "eta": 3.0},
    "collinear_gain": {"d_min": 0.2, "d_max": 0.8, "d_step": 0.2,
                       "epsilon": 0.01, "k": 1.0, "eta": 2.0},
    "rate_ratio": {"k_min": 0.5, "k_max": 2.0, "k_step": 0.5,
                   "d": 0.5, "epsilon": 0.01, "eta": 3.0},
    "resource_ratio": {"d_min": 0.1, "d_max": 0.9, "d_step": 0.2,
                       "epsilon": 0.01, "k": 1.0, "eta": 3.0, "rate": 0.008},
    "energy_ratio": {"d_min": 0.3, "d_max": 0.7, "d_step": 0.2,
                     "k": 1.0, "eta": 3.0, "rate": 0.01},
}


def with_params(kind, **changes):
    return {**STREAM_GRIDS[kind], **changes}


# Each check sweep_rows makes when it is called, with the message it raises
BAD_SWEEPS = {
    "unknown kind": ("nope", {}, "unknown sweep kind 'nope'"),
    "missing parameter": ("collinear_gain", {"d_min": 0.1, "d_max": 0.9},
                          "missing parameters: d_step, epsilon, k, eta"),
    "unknown parameter": ("collinear_gain", with_params("collinear_gain", rate=1.0),
                          "got unknown parameters: rate"),
    "empty grid": ("energy_ratio", with_params("energy_ratio", d_step=1.0), "empty grid"),
    "non-positive fixed": ("resource_ratio", with_params("resource_ratio", rate=0.0),
                           "rate must be > 0, got 0.0"),
    # every earlier point of the grid is valid
    "d axis past 1": ("collinear_gain", with_params("collinear_gain", d_min=0.5, d_max=1.0,
                                                     d_step=0.25),
                      "d must lie in (0, 1), got 1.0"),
    # both ends are out of range: the first in grid order is named
    "d axis from 0": ("energy_ratio", with_params("energy_ratio", d_min=0.0, d_max=1.0),
                      "d must lie in (0, 1), got 0.0"),
    "fixed d": ("rate_ratio", with_params("rate_ratio", d=1.5), "d must lie in (0, 1), got 1.5"),
    # k <= 0 is no operating point, as a fixed k is not
    "k axis from 0": ("rate_ratio", with_params("rate_ratio", k_min=0.0), "k must be > 0, got 0.0"),
    # (x + 0.5)**2 overflows on the first row, y*y on the first column: the
    # first such point in row-major order is named
    "plane x squared overflows": ("plane_gain", with_params("plane_gain", x_min=-2e154, x_max=0.0,
                                                            x_step=1e154, y_min=0.0, y_max=1.0,
                                                            y_step=0.5),
                                  "plane point (x=-2e+154, y=0.0) lies too far"),
    "plane y squared overflows": ("plane_gain", with_params("plane_gain", y_min=1e200,
                                                            y_max=2e200, y_step=1e200),
                                  "plane point (x=-0.4, y=1e+200) lies too far"),
    # finite squared distances whose gain d^-3 underflows to 0 from x = 5e149 on
    "plane gain underflows": ("plane_gain", with_params("plane_gain", x_min=0.0, x_max=1e150,
                                                        x_step=5e149),
                              "plane point (x=5e+149, y=-0.2) lies too far"),
    # at eta = 1e4 the gain from the destination, 2.25^-5000, underflows while
    # the one from the source, 0.25^-5000, overflows: one side is enough
    "plane gain underflows on one side": ("plane_gain", with_params(
        "plane_gain", x_min=-1.0, x_max=1.0, x_step=1.0, y_min=0.0, y_max=0.5, y_step=0.5,
        eta=1e4), "plane point (x=-1.0, y=0.0) lies too far"),
    # (hi - lo)/step overflows to inf
    "grid count infinite": ("collinear_gain", with_params("collinear_gain", d_step=1e-320),
                            "grid [0.2, 0.8] by step 1e-320 has more than 1000000 points"),
    # ~2e200 and 1,000,000,001 points, counted and rejected before any is built
    "grid too many points": ("plane_gain", with_params("plane_gain", y_min=1e200, y_max=2e200,
                                                       y_step=0.5),
                             "grid [1e+200, 2e+200] by step 0.5 has more than 1000000 points"),
    "grid of a billion points": ("energy_ratio", with_params("energy_ratio", d_min=0.0,
                                                             d_max=1.0, d_step=1e-9),
                                 "grid [0.0, 1.0] by step 1e-09 has more than 1000000 points"),
    # each axis is within the limit, the grid is not: two 999,999-point axes are
    # counted, and neither is built
    "plane of two long axes": ("plane_gain", with_params("plane_gain", x_min=2.0,
                                                         x_max=1_000_000.0, x_step=1.0,
                                                         y_min=0.0, y_max=999_998.0, y_step=1.0),
                               "sweep 'plane_gain' grid has 999998000001 points, "
                               "more than 1000000"),
    "plane one point past the limit": ("plane_gain", with_params(
        "plane_gain", x_min=2.0, x_max=3.0, x_step=0.001, y_min=0.0, y_max=0.999, y_step=0.001),
        "sweep 'plane_gain' grid has 1001000 points, more than 1000000"),
}


class TestIterSweep:
    """sweep_rows, the stream the sweep command writes, and sweep, its records."""

    @pytest.mark.parametrize("kind", sorted(STREAM_GRIDS))
    def test_streams_the_records_of_sweep(self, kind, monkeypatch):
        params = STREAM_GRIDS[kind]
        expected = list(geometry.sweep_rows(kind, params))
        n = len(geometry._KINDS[kind].axes)
        assert [(*r.coords, r.gain, r.feasible, r.degenerate) for r in sweep(kind, params)] == [
            (*row[:n + 1], *row[-2:]) for row in expected]
        evaluated = count_evaluations(monkeypatch)
        rows = geometry.sweep_rows(kind, params)
        assert evaluated == []
        first = next(rows)
        assert len(evaluated) == 1
        assert [first, *rows] == expected
        assert len(evaluated) > 1

    @pytest.mark.parametrize("case", sorted(BAD_SWEEPS))
    def test_every_check_raises_at_call_time(self, case, monkeypatch):
        kind, params, message = BAD_SWEEPS[case]
        evaluated = count_evaluations(monkeypatch)
        for run in (geometry.sweep_rows, sweep):
            with pytest.raises(ValidationError, match=re.escape(message)):
                run(kind, params)
        assert evaluated == []

    def test_grid_up_to_the_limit(self, monkeypatch):
        # 1000 x 1000 points: as many as MAX_GRID_POINTS, so the call is accepted
        evaluated = count_evaluations(monkeypatch)
        rows = geometry.sweep_rows("plane_gain", with_params(
            "plane_gain", x_min=2.0, x_max=2.999, x_step=0.001, y_min=0.0, y_max=0.999,
            y_step=0.001))
        assert len(next(rows)) == len(sweep_columns("plane_gain"))
        assert len(evaluated) == 1


# the plane grids whose squares overflow, with the first point each names
FAR_PLANES = {
    "x squared": (["--x-min=-2e154", "--x-max", "0", "--x-step", "1e154",
                   "--y-min", "0", "--y-max", "1", "--y-step", "0.5"], "-2e+154", "0.0"),
    "y squared": (["--x-min", "0", "--x-max", "1", "--x-step", "0.5",
                   "--y-min", "1e200", "--y-max", "2e200", "--y-step", "1e200"], "0.0", "1e+200"),
}


@pytest.mark.parametrize("case", sorted(FAR_PLANES))
def test_far_plane_points_exit_2(case, tmp_path, capsys):
    flags, x, y = FAR_PLANES[case]
    out = tmp_path / "o.csv"
    assert main(["sweep", "--kind", "plane_gain", *flags, "--epsilon", "0.01", "--k", "1",
                 "--eta", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: plane point (x={x}, y={y}) lies too far")
    assert not out.exists()


# One small grid per sweep kind, written through the CLI; each CSV's sha256
# was recorded before the sweeps were rebuilt on one shared loop, so a
# change to any row, column or flag shows up as a different digest. The
# plane and collinear digests were recorded again once the share solve
# stopped on adjacent doubles; each cell that changed then is the 12-digit
# rounding of its 50-digit value.
SMALL_SWEEPS = {
    # (-0.5, 0) and (0.5, 0) sit on an endpoint: degenerate rows
    "plane_gain": (["--kind", "plane_gain", "--x-min", "-0.5", "--x-max", "0.5",
                    "--x-step", "0.25", "--y-min", "0", "--y-max", "0.5", "--y-step", "0.25",
                    "--epsilon", "0.01", "--k", "1", "--eta", "2"],
                   "684fe5f4b14c4a2734c0e6f5b2fbe68d63b8d9ca2b6c4daca424bd2c827a9e43"),
    # y from -0.5 to 0.5: every row holds mirrored pairs (digest recorded
    # before sweeps reused repeated points)
    "plane_gain_mirrored": (["--kind", "plane_gain", "--x-min", "-1", "--x-max", "1",
                             "--x-step", "0.25", "--y-min", "-0.5", "--y-max", "0.5",
                             "--y-step", "0.125", "--epsilon", "0.01", "--k", "1", "--eta", "2"],
                            "c0d7a01850ba63c252cae56e1ab5d9ca38246f65f504ab6c6e4eca1e282f3435"),
    # d=5e-6 pushes h12 past OVERFLOW_GAIN: a degenerate row
    "collinear_gain": (["--kind", "collinear_gain", "--d-min", "5e-6", "--d-max", "0.500005",
                        "--d-step", "0.125", "--epsilon", "0.01", "--k", "1", "--eta", "3"],
                       "fc62bb0115492330336a8ce309db8422d0ac1485b03740514687a8c71338643b"),
    "rate_ratio": (["--kind", "rate_ratio", "--k-min", "0.5", "--k-max", "2", "--k-step", "0.5",
                    "--d", "0.5", "--epsilon", "0.01", "--eta", "3"],
                   "f142da7d83a5831839d62cb501eb80404421320a192d135db6c42792ee268d3f"),
    # at d=0.1 the CP chord bound 0.01*0.5/0.9**3 lies below the rate: infeasible
    "resource_ratio": (["--kind", "resource_ratio", "--d-min", "0.1", "--d-max", "0.9",
                        "--d-step", "0.2", "--epsilon", "0.01", "--k", "1", "--eta", "3",
                        "--rate", "0.008"],
                       "bd07187d848ba6b7aae67ff7abe493eb11c65b3c66ec5a7adef956488f2184d0"),
    "energy_ratio": (["--kind", "energy_ratio", "--d-min", "0.3", "--d-max", "0.7",
                      "--d-step", "0.2", "--k", "1", "--eta", "3", "--rate", "0.01"],
                     "010aad41f0b773a68f8fffac4a64b0cbb8d7ce95499187f4237fa31bb1052523"),
}


@pytest.mark.parametrize("case", sorted(SMALL_SWEEPS))
def test_small_sweep_csv_digest(case, tmp_path):
    flags, digest = SMALL_SWEEPS[case]
    out = tmp_path / f"{case}.csv"
    assert main(["sweep", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
