"""Path-loss geometry: gains from positions, relay placement, figure sweeps.

Gains follow h_ij = d_ij^(-eta) on the plane, with the source/destination
pair at (-1/2, 0) and (1/2, 0) in the standard configurations so that
h13 = 1. For a collinear relay at distance d from the source the maximal
low-TERN collaboration gain over d is (1 + (k/(k+1))^(1/eta))^eta,
attained at d* = 1/(1 + (k/(k+1))^(1/eta)).

Each sweep kind is one table entry: grid axes, fixed parameters, a point
evaluator (rate, resource or energy) and its CSV columns. sweep_rows()
checks every input when it is called and returns a generator whose one
loop walks the cartesian grid in row-major order (first axis outer),
yielding each row, a flat tuple in CSV column order, as it is solved;
iter_sweep() makes a SweepRecord of each row and sweep() is their list.
For every kind the loop flags a point degenerate, without evaluating it,
when the relay sits on an endpoint or a gain exceeds OVERFLOW_GAIN.
Symmetric ranges are mirrored exactly so that rows at (x, y) and (x, -y)
are bitwise identical. Repeated points of a row, mirrored ones included,
are solved once. The NCP share reads only the direct links, so a rate
sweep solves it once per (h23, k).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Mapping, NamedTuple

from .allocation import _rates
# unused here; bench/spans.py hooks the allocators where this module binds them
from .allocation import cp_allocate, ncp_allocate  # noqa: F401
from .energy import feasible, min_tern, resource_usage
from .errors import GeometryError, ValidationError
from .model import LinkGains, OperatingPoint, Protocol, _check_finite, _check_positive

# Beyond this the relay sits so close to an endpoint that solver brackets
# lose meaning; grid points are flagged degenerate instead of evaluated.
OVERFLOW_GAIN = 1e12

Point = tuple[float, float]


def _check_point(name: str, p: Point) -> Point:
    if not (isinstance(p, tuple) and len(p) == 2):
        raise ValidationError(f"{name} must be an (x, y) tuple, got {p!r}")
    return _check_finite(f"{name}.x", p[0]), _check_finite(f"{name}.y", p[1])


class _Placement(NamedTuple):
    source: Point
    destination: Point
    relay: Point
    eta: float


class Placement(_Placement):
    """Node positions on the plane plus the path-loss exponent."""

    __slots__ = ()

    def __new__(cls, source: Point, destination: Point, relay: Point, eta: float):
        source = _check_point("source", source)
        destination = _check_point("destination", destination)
        relay = _check_point("relay", relay)
        eta = _check_positive("eta", eta)
        if source == destination:
            raise GeometryError("source and destination coincide")
        return tuple.__new__(cls, (source, destination, relay, eta))


class SweepRecord(NamedTuple):
    """One grid point of a sweep: coordinates, headline value, extras."""

    coords: tuple[float, ...]
    gain: float | None
    extra: dict
    feasible: bool = True
    degenerate: bool = False


def _distance(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def gains_from_placement(p: Placement) -> LinkGains:
    """h_ij = d_ij^(-eta) with Euclidean distances."""
    d12 = _distance(p.source, p.relay)
    d13 = _distance(p.source, p.destination)
    d23 = _distance(p.relay, p.destination)
    if d12 == 0.0 or d23 == 0.0:
        raise GeometryError("relay coincides with an endpoint")
    return LinkGains(h12=d12 ** -p.eta, h13=d13 ** -p.eta, h23=d23 ** -p.eta)


def collinear_gains(d: float, eta: float) -> LinkGains:
    """Relay on the unit source-destination segment at distance d from the source."""
    d = _check_finite("d", d)
    eta = _check_positive("eta", eta)
    if not 0.0 < d < 1.0:
        raise ValidationError(f"d must lie in (0, 1), got {d!r}")
    return LinkGains(h12=d ** -eta, h13=1.0, h23=(1.0 - d) ** -eta)


def optimal_relay_location(k: float, eta: float) -> float:
    """Collinear relay position maximizing the low-TERN gain; always in (1/2, 1)."""
    k = _check_positive("k", k)
    eta = _check_positive("eta", eta)
    return 1.0 / (1.0 + (k / (k + 1.0)) ** (1.0 / eta))


def max_geometric_gain(k: float, eta: float) -> float:
    """Peak low-TERN collaboration gain over collinear relay placements."""
    k = _check_positive("k", k)
    eta = _check_positive("eta", eta)
    return (1.0 + (k / (k + 1.0)) ** (1.0 / eta)) ** eta


def grid_values(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive-endpoint grid lo, lo+step, ...; symmetric ranges mirror exactly."""
    lo = _check_finite("lo", lo)
    hi = _check_finite("hi", hi)
    step = _check_positive("step", step)
    n = int(math.floor((hi - lo) / step * (1.0 + 1e-12))) + 1
    if n < 2:
        raise ValidationError(f"empty grid: step {step!r} exceeds range [{lo!r}, {hi!r}]")
    values = [lo + i * step for i in range(n)]
    if abs(values[-1] - hi) <= 1e-9 * step:
        values[-1] = hi
    if lo == -hi and values[-1] == hi:
        # mirror so that y and -y rows are bitwise-identical inputs
        for i in range(n // 2):
            values[n - 1 - i] = -values[i]
        if n % 2 and abs(values[n // 2]) <= 1e-6 * step:
            values[n // 2] = 0.0
    return values


def _points(b12s, b23s, power: float, ks) -> list[tuple[float, float, float] | None]:
    """(h12, h23, k) per point, h_ij = b_ij ** -power, or None where the
    point is degenerate; h13 is 1 in every sweep geometry."""
    points, neg = [], -power
    for b12, b23, k in zip(b12s, b23s, ks):
        try:
            h12, h23 = b12 ** neg, b23 ** neg
        except (ZeroDivisionError, OverflowError):
            # the relay on an endpoint (a zero base), or a gain past the float range
            points.append(None)
            continue
        points.append(None if h12 > OVERFLOW_GAIN or h23 > OVERFLOW_GAIN else (h12, h23, k))
    return points


def _gain_rows(axes: tuple[str, ...], grids: list[list[float]], fixed: dict):
    """Per row of the inner axis: the outer coordinates, the inner values and
    their points (see _points), each axis term computed once.

    Plane gains raise squared distances to -eta/2: going through hypot
    would move some plane CSV values in the last printed digit. The sweep
    has already checked its inputs.
    """
    eta, k = fixed["eta"], fixed.get("k")
    if axes == ("x", "y"):
        xs, ys = grids
        yys = [y * y for y in ys]
        for x in xs:
            s12, s23 = (x + 0.5) ** 2, (x - 0.5) ** 2
            yield ((x,), ys, _points([s12 + v for v in yys], [s23 + v for v in yys], eta / 2.0,
                                     itertools.repeat(k)))
        return
    values = grids[0]
    ds = values if axes == ("d",) else [fixed["d"]] * len(values)
    ks = values if axes == ("k",) else itertools.repeat(k)
    yield (), values, _points(ds, [1.0 - d for d in ds], eta, ks)


def _check_plane(xs: list[float], ys: list[float], eta: float) -> None:
    """Reject the first plane point, in row-major order, whose squared
    distance to an endpoint is not finite or whose gain underflows to 0.
    A gain falls as y*y grows, so a row is searched only when its point of
    largest y*y fails.
    """
    power = -eta / 2.0

    def lost(s: float) -> bool:  # inf ** power is 0.0 too
        return s > 1.0 and s ** power == 0.0

    yys = [y * y for y in ys]
    far = max(yys)
    for x in xs:
        try:
            s12, s23 = (x + 0.5) ** 2, (x - 0.5) ** 2
        except OverflowError:
            s12 = s23 = math.inf
        if lost(s12 + far) or lost(s23 + far):
            y = next(y for y, v in zip(ys, yys) if lost(s12 + v) or lost(s23 + v))
            raise ValidationError(f"plane point (x={x!r}, y={y!r}) lies too far from an endpoint: "
                                  f"its squared distance overflows or its gain underflows to 0")


# Point evaluators take a point's h12, h23 and k, the fixed parameters and
# the sweep's NCP table (per k, (beta, base_rate) by h23), and return the
# value (None when infeasible), then the extras after h12 and h23, None
# where absent.

def _rate_point(h12: float, h23: float, k: float, fixed: dict, ncp_table: dict):
    eps, shares = fixed["epsilon"], ncp_table.setdefault(k, {})
    ncp = shares.get(h23)
    if ncp is None:
        ncp = shares[h23] = _rates(k, 1.0, h23, eps, k)
    beta_cp, rate_cp = _rates(k + 1.0, h12, h23, eps, k)
    return rate_cp / ncp[1], ncp[0], beta_cp, ncp[1], rate_cp


def _resource_point(h12: float, h23: float, k: float, fixed: dict, ncp_table: dict):
    gains, op, rate = LinkGains(h12, 1.0, h23), OperatingPoint(fixed["epsilon"], k), fixed["rate"]
    ncp_ok = feasible(Protocol.NCP, gains, op, rate)
    cp_ok = feasible(Protocol.CP, gains, op, rate)
    if not (ncp_ok and cp_ok):
        return None, ncp_ok, cp_ok, None, None
    total_ncp = resource_usage(Protocol.NCP, gains, op, rate).total
    total_cp = resource_usage(Protocol.CP, gains, op, rate).total
    return total_ncp / total_cp, ncp_ok, cp_ok, total_ncp, total_cp


def _energy_point(h12: float, h23: float, k: float, fixed: dict, ncp_table: dict):
    gains, rate = LinkGains(h12, 1.0, h23), fixed["rate"]
    eps_ncp = min_tern(Protocol.NCP, gains, k, rate).epsilon_min
    eps_cp = min_tern(Protocol.CP, gains, k, rate).epsilon_min
    return eps_ncp / eps_cp, eps_ncp, eps_cp


class _Kind(NamedTuple):
    """Grid axes (axis a reads a_min/a_max/a_step), fixed parameters,
    point evaluator, value column and extra columns of one sweep kind."""

    axes: tuple[str, ...]
    fixed: tuple[str, ...]
    evaluate: Callable
    value: str
    extras: tuple[str, ...]

    @property
    def parameters(self) -> tuple[str, ...]:
        return (*(f"{a}_{end}" for a in self.axes for end in ("min", "max", "step")), *self.fixed)


_RATE = ("beta_ncp", "beta_cp", "rate_ncp", "rate_cp")
_KINDS = {
    "plane_gain": _Kind(("x", "y"), ("epsilon", "k", "eta"), _rate_point, "gain", _RATE),
    "collinear_gain": _Kind(("d",), ("epsilon", "k", "eta"), _rate_point, "gain",
                            ("h12", "h23", *_RATE)),
    "rate_ratio": _Kind(("k",), ("d", "epsilon", "eta"), _rate_point, "gain", _RATE),
    "resource_ratio": _Kind(("d",), ("epsilon", "k", "eta", "rate"), _resource_point,
                            "resource_ratio", ("h12", "h23", "ncp_feasible", "cp_feasible",
                                               "total_ncp", "total_cp")),
    "energy_ratio": _Kind(("d",), ("k", "eta", "rate"), _energy_point, "energy_ratio",
                          ("h12", "h23", "eps_ncp", "eps_cp")),
}

SWEEP_KINDS = tuple(_KINDS)
# every parameter of any kind, in first-use order: the CLI's sweep flags
SWEEP_PARAMETERS = tuple(dict.fromkeys(n for kind in _KINDS.values() for n in kind.parameters))


def sweep_columns(kind: str) -> list[str]:
    """CSV column names for a sweep kind, in emission order."""
    spec = _KINDS[kind]
    return [*spec.axes, spec.value, *spec.extras, "feasible", "degenerate"]


def sweep_rows(kind: str, params: Mapping[str, float]) -> Iterator[tuple]:
    """Check one sweep of a kind in SWEEP_KINDS, then stream its grid rows.

    Every input is checked here, when the function is called: the kind,
    missing or unknown parameters, each axis grid, the fixed parameters
    (positive), d in (0, 1) and k > 0 wherever a point reads them, and the
    plane's distances (_check_plane). The returned generator yields one row
    per grid point in row-major order, as the point is solved, and holds no
    earlier row; an error it raises comes from a solver.

    A row is a flat tuple in the order of sweep_columns(kind), None where
    a cell is empty; a degenerate row is empty but for its coordinates and
    is flagged feasible. A point whose gains and k equal those of a point
    already solved in its row repeats that point's cells: an axis sets only
    the gains or k, so every other input an evaluator reads is fixed.
    """
    if kind not in _KINDS:
        raise ValidationError(f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}")
    spec = _KINDS[kind]
    required = spec.parameters
    missing = [name for name in required if name not in params]
    if missing:
        raise ValidationError(f"sweep {kind!r} missing parameters: {', '.join(missing)}")
    unknown = [name for name in params if name not in required]
    if unknown:
        raise ValidationError(f"sweep {kind!r} got unknown parameters: {', '.join(unknown)}")
    grids = [grid_values(params[f"{a}_min"], params[f"{a}_max"], params[f"{a}_step"])
             for a in spec.axes]
    fixed = {name: _check_positive(name, params[name]) for name in spec.fixed}
    axis = dict(zip(spec.axes, grids))
    # the values d takes, in grid order: its grid or its fixed value
    for d in axis.get("d", (fixed["d"],) if "d" in fixed else ()):
        if not 0.0 < d < 1.0:
            raise ValidationError(f"d must lie in (0, 1), got {d!r}")
    for k in axis.get("k", ()):
        _check_positive("k", k)
    if "x" in axis:
        _check_plane(axis["x"], axis["y"], fixed["eta"])
    return _walk(spec, grids, fixed)


def _walk(spec: _Kind, grids: list[list[float]], fixed: dict) -> Iterator[tuple]:
    """The rows of sweep_rows' checked grid, one per point."""
    evaluate, listed = spec.evaluate, "h12" in spec.extras
    degenerate = (None,) * (1 + len(spec.extras)) + (True, True)
    ncp_table = {}
    for prefix, inner, points in _gain_rows(spec.axes, grids, fixed):
        solved = {}
        for c, point in zip(inner, points):
            if point is None:
                yield (*prefix, c, *degenerate)
                continue
            cells = solved.get(point)
            if cells is None:
                value, *rest = evaluate(*point, fixed, ncp_table)
                if listed:
                    rest = (*point[:2], *rest)
                cells = solved[point] = (value, *rest, value is not None, False)
            yield (*prefix, c, *cells)


def iter_sweep(kind: str, params: Mapping[str, float]) -> Iterator[SweepRecord]:
    """The rows of sweep_rows(kind, params), checked at call time, as records.

    A record's extra dict holds its row's non-empty extras by column name:
    {} for a degenerate row, no totals for an infeasible resource_ratio row.
    """
    rows = sweep_rows(kind, params)
    spec = _KINDS[kind]
    n = len(spec.axes)
    return (SweepRecord(row[:n], row[n],
                        {name: v for name, v in zip(spec.extras, row[n + 1:-2]) if v is not None},
                        row[-2], row[-1])
            for row in rows)


def sweep(kind: str, params: Mapping[str, float]) -> list[SweepRecord]:
    """Every record of iter_sweep(kind, params), as a list: the same checks
    at call time and the same records in the same order."""
    return list(iter_sweep(kind, params))
