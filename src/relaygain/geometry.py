"""Path-loss geometry: gains from positions, relay placement, figure sweeps.

Gains follow h_ij = d_ij^(-eta) on the plane, with the source/destination
pair at (-1/2, 0) and (1/2, 0) in the standard configurations so that
h13 = 1. For a collinear relay at distance d from the source the maximal
low-TERN collaboration gain over d is (1 + (k/(k+1))^(1/eta))^eta,
attained at d* = 1/(1 + (k/(k+1))^(1/eta)).

Each sweep kind is one table entry: grid axes, fixed parameters, a point
evaluator (rate, resource or energy) and its CSV columns. iter_sweep()
checks every input when it is called and returns a generator whose one
loop walks the cartesian grid in row-major order (first axis outer),
yielding each record as it is solved; sweep() is its list. For every
kind the loop flags a point degenerate, without evaluating it, when the
relay sits on an endpoint or a gain exceeds OVERFLOW_GAIN. Symmetric ranges
are mirrored exactly so that records at (x, y) and (x, -y) are bitwise
identical. Repeated points, mirrored rows included, are solved once per
sweep: a repeat copies the record of its first occurrence. The NCP share
reads only the direct links, so a rate sweep solves it once per
(h13, h23) and operating point, however many relay positions share them.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Mapping, NamedTuple

from .allocation import cp_allocate, ncp_allocate
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


def _point_gains(p: Mapping[str, float]) -> tuple[float, float] | None:
    """(h12, h23) at a sweep point, or None where the point is degenerate;
    h13 is 1 in every sweep geometry.

    Plane gains raise squared distances to -eta/2: going through hypot
    would move some plane CSV values in the last printed digit. The sweep
    has already checked its inputs, d in (0, 1) included, so nothing is
    checked here.
    """
    if "d" in p:
        d, eta = p["d"], p["eta"]
        h12, h23 = d ** -eta, (1.0 - d) ** -eta
    else:
        x, y, half = p["x"], p["y"], p["eta"] / 2.0
        d12_sq = (x + 0.5) ** 2 + y * y
        d23_sq = (x - 0.5) ** 2 + y * y
        if d12_sq == 0.0 or d23_sq == 0.0:
            return None
        h12, h23 = d12_sq ** -half, d23_sq ** -half
    if h12 > OVERFLOW_GAIN or h23 > OVERFLOW_GAIN:
        return None
    return h12, h23


# Point evaluators return the headline value (None when the demand is
# infeasible) and the extra values by column name; the walk puts h12 and
# h23 in front where the kind lists them. The rate evaluator reads and
# fills the sweep's NCP table: per (h13, eps, k), (beta, base_rate) by h23.

def _rate_point(gains: LinkGains, op: OperatingPoint, p: Mapping[str, float], ncp_table: dict):
    shares = ncp_table.setdefault((gains.h13, op.epsilon, op.k), {})
    ncp = shares.get(gains.h23)
    if ncp is None:
        solved = ncp_allocate(gains, op)
        ncp = shares[gains.h23] = (solved.beta, solved.base_rate)
    beta_ncp, rate_ncp = ncp
    cp = cp_allocate(gains, op)
    return cp.base_rate / rate_ncp, {"beta_ncp": beta_ncp, "beta_cp": cp.beta,
                                     "rate_ncp": rate_ncp, "rate_cp": cp.base_rate}


def _resource_point(gains: LinkGains, op: OperatingPoint, p: Mapping[str, float],
                    ncp_table: dict):
    named = {"ncp_feasible": feasible(Protocol.NCP, gains, op, p["rate"]),
             "cp_feasible": feasible(Protocol.CP, gains, op, p["rate"])}
    if not (named["ncp_feasible"] and named["cp_feasible"]):
        return None, named
    total_ncp = resource_usage(Protocol.NCP, gains, op, p["rate"]).total
    total_cp = resource_usage(Protocol.CP, gains, op, p["rate"]).total
    return total_ncp / total_cp, {**named, "total_ncp": total_ncp, "total_cp": total_cp}


def _energy_point(gains: LinkGains, op: None, p: Mapping[str, float], ncp_table: dict):
    eps_ncp = min_tern(Protocol.NCP, gains, p["k"], p["rate"]).epsilon_min
    eps_cp = min_tern(Protocol.CP, gains, p["k"], p["rate"]).epsilon_min
    return eps_ncp / eps_cp, {"eps_ncp": eps_ncp, "eps_cp": eps_cp}


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


def iter_sweep(kind: str, params: Mapping[str, float]) -> Iterator[SweepRecord]:
    """Check one sweep of a kind in SWEEP_KINDS, then stream its grid records.

    Every input is checked here, when the function is called: the kind,
    missing or unknown parameters, each axis grid, the fixed parameters
    (positive), and d in (0, 1) wherever a point reads it, as an axis or
    fixed. The returned generator yields one SweepRecord per grid point
    in row-major order, as the point is solved, and holds no earlier
    record; an error it raises comes from a solver.

    A point whose gains and k equal those of a point already solved in its
    row of the inner axis copies that point's value and extras: an axis sets
    only the gains or k (the operating point is built from k), so every
    other input an evaluator reads is fixed. Rate kinds also share each NCP
    share across the whole sweep, keyed on the floats it reads.
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
    # one operating point per sweep, or one per point where k is the axis
    op = OperatingPoint(fixed["epsilon"], fixed["k"]) if {"epsilon", "k"} <= fixed.keys() else None
    # the values d takes, in grid order: its grid or its fixed value
    if "d" in spec.axes:
        ds = grids[spec.axes.index("d")]
    else:
        ds = (fixed["d"],) if "d" in fixed else ()
    for d in ds:
        if not 0.0 < d < 1.0:
            raise ValidationError(f"d must lie in (0, 1), got {d!r}")
    return _walk(spec, grids, fixed, op)


def _walk(spec: _Kind, grids: list[list[float]], fixed: dict, op: OperatingPoint | None):
    """The records of iter_sweep's checked grid, one per point."""
    p = dict(fixed)
    solved, row, ncp_table = {}, None, {}
    for coords in itertools.product(*grids):
        if coords[:-1] != row:
            solved, row = {}, coords[:-1]
        p.update(zip(spec.axes, coords))
        h = _point_gains(p)
        if h is None:
            yield SweepRecord(coords, None, {}, degenerate=True)
            continue
        key = (*h, p["k"])
        solution = solved.get(key)
        if solution is None:
            if "k" in spec.axes:
                op = OperatingPoint(p["epsilon"], p["k"])
            solution = solved[key] = spec.evaluate(LinkGains(h[0], 1.0, h[1]), op, p, ncp_table)
        value, extra = solution
        # a repeat gets its own copy of the extras
        if "h12" in spec.extras:
            extra = {"h12": h[0], "h23": h[1], **extra}
        else:
            extra = dict(extra)
        yield SweepRecord(coords, value, extra, value is not None)


def sweep(kind: str, params: Mapping[str, float]) -> list[SweepRecord]:
    """Every record of iter_sweep(kind, params), as a list: the same checks
    at call time and the same records in the same order."""
    return list(iter_sweep(kind, params))
