"""Command-line front end.

Subcommands cover every analysis: gain, energy, resource, bounds, select,
placement, sweep (CSV emission) and verify. Exit codes: 0 success,
2 validation error, 3 solver error, 4 I/O error. Output is deterministic:
floats print with 12 significant digits, CSV uses UNIX line endings and
'.' decimals regardless of locale.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .allocation import collaboration_gain, cp_allocate, ncp_allocate
from .bounds import (cp_bounds_high_tern, cp_bounds_low_tern, high_tern_gain_limit,
                     low_tern_gain_limit, ncp_bounds_high_tern, ncp_bounds_low_tern)
from .energy import min_tern, resource_usage
from .errors import RelayGainError, ValidationError
from .geometry import (SWEEP_KINDS, SWEEP_PARAMETERS, max_geometric_gain,
                       optimal_relay_location, sweep, sweep_columns)
from .model import Allocation, Protocol
from .scenario import load_scenario
from .selection import evaluate_network, select_relay_rate, select_relay_resource
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _alloc_dict(alloc: Allocation) -> dict:
    return {"protocol": alloc.protocol.value, "beta": alloc.beta,
            "base_rate": alloc.base_rate, "rate2": alloc.rate2,
            "sum_rate": alloc.sum_rate}


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _alloc_lines(alloc: Allocation) -> str:
    return (f"{alloc.protocol.value:4s} beta={_fmt(alloc.beta)} "
            f"base_rate={_fmt(alloc.base_rate)} rate2={_fmt(alloc.rate2)} "
            f"sum_rate={_fmt(alloc.sum_rate)}")


def cmd_gain(args) -> int:
    sc = load_scenario(args.scenario)
    report = collaboration_gain(sc.gains, sc.operating)
    payload = {"ncp": _alloc_dict(report.ncp), "cp": _alloc_dict(report.cp),
               "gain": report.gain, "collaborate": report.collaborate}
    _emit(args, payload, [
        _alloc_lines(report.ncp),
        _alloc_lines(report.cp),
        f"gain={_fmt(report.gain)} collaborate={_fmt(report.collaborate)}",
    ])
    return EXIT_OK


def _require_rate(sc) -> float:
    if sc.rate is None:
        raise ValidationError("scenario is missing 'rate' (required by this subcommand)")
    return sc.rate


def cmd_energy(args) -> int:
    sc = load_scenario(args.scenario)
    rate = _require_rate(sc)
    ncp = min_tern(Protocol.NCP, sc.gains, sc.operating.k, rate)
    cp = min_tern(Protocol.CP, sc.gains, sc.operating.k, rate)
    gain = ncp.epsilon_min / cp.epsilon_min
    payload = {"rate": rate,
               "ncp": {"epsilon_min": ncp.epsilon_min, "beta": ncp.beta},
               "cp": {"epsilon_min": cp.epsilon_min, "beta": cp.beta},
               "energy_gain": gain}
    _emit(args, payload, [
        f"NCP  epsilon_min={_fmt(ncp.epsilon_min)} beta={_fmt(ncp.beta)}",
        f"CP   epsilon_min={_fmt(cp.epsilon_min)} beta={_fmt(cp.beta)}",
        f"energy_gain={_fmt(gain)}",
    ])
    return EXIT_OK


def cmd_resource(args) -> int:
    sc = load_scenario(args.scenario)
    rate = _require_rate(sc)
    ncp = resource_usage(Protocol.NCP, sc.gains, sc.operating, rate)
    cp = resource_usage(Protocol.CP, sc.gains, sc.operating, rate)
    payload = {"rate": rate,
               "ncp": {"beta1": ncp.beta1, "beta2": ncp.beta2, "total": ncp.total},
               "cp": {"beta1": cp.beta1, "beta2": cp.beta2, "total": cp.total},
               "resource_ratio": ncp.total / cp.total}
    _emit(args, payload, [
        f"NCP  beta1={_fmt(ncp.beta1)} beta2={_fmt(ncp.beta2)} total={_fmt(ncp.total)}",
        f"CP   beta1={_fmt(cp.beta1)} beta2={_fmt(cp.beta2)} total={_fmt(cp.total)}",
        f"resource_ratio={_fmt(ncp.total / cp.total)}",
    ])
    return EXIT_OK


def _bound_dict(pair) -> dict:
    return {"lower": pair.lower, "upper": pair.upper,
            "beta_at_bound": pair.beta_at_bound, "degenerate": pair.degenerate}


def cmd_bounds(args) -> int:
    sc = load_scenario(args.scenario)
    gains, op = sc.gains, sc.operating
    pairs = {
        "ncp_high_tern": ncp_bounds_high_tern(gains, op),
        "ncp_low_tern": ncp_bounds_low_tern(gains, op),
        "cp_high_tern": cp_bounds_high_tern(gains, op),
        "cp_low_tern": cp_bounds_low_tern(gains, op),
    }
    exact = {"ncp": ncp_allocate(gains, op).base_rate,
             "cp": cp_allocate(gains, op).base_rate}
    payload = {name: _bound_dict(pair) for name, pair in pairs.items()}
    payload["exact"] = exact
    payload["low_tern_gain_limit"] = low_tern_gain_limit(gains, op.k)
    payload["high_tern_gain_limit"] = high_tern_gain_limit(op.k)
    lines = [f"{name:14s} lower={_fmt(p.lower)} upper={_fmt(p.upper)} "
             f"beta={_fmt(p.beta_at_bound)} degenerate={_fmt(p.degenerate)}"
             for name, p in pairs.items()]
    lines.append(f"exact          ncp={_fmt(exact['ncp'])} cp={_fmt(exact['cp'])}")
    lines.append(f"low_tern_gain_limit={_fmt(payload['low_tern_gain_limit'])} "
                 f"high_tern_gain_limit={_fmt(payload['high_tern_gain_limit'])}")
    _emit(args, payload, lines)
    return EXIT_OK


def _decision_dict(decision) -> dict:
    return {"protocol": decision.protocol.value, "relay_id": decision.relay_id,
            "criterion_value": decision.criterion_value,
            "exact_gain": decision.exact_gain,
            "high_tern_advisory": decision.high_tern_advisory}


def cmd_select(args) -> int:
    sc = load_scenario(args.scenario)
    if sc.flows:
        results = evaluate_network(list(sc.flows), args.mode)
        payload = {"flows": [
            {"source": r.source, "destination": r.destination,
             "decision": _decision_dict(r.decision) if r.decision else None,
             "error": r.error}
            for r in results]}
        lines = []
        for r in results:
            if r.decision is not None:
                d = r.decision
                lines.append(f"{r.source}->{r.destination}: {d.protocol.value} "
                             f"relay={d.relay_id or '-'} criterion={_fmt(d.criterion_value)} "
                             f"exact_gain={_fmt(d.exact_gain)} advisory={_fmt(d.high_tern_advisory)}")
            else:
                lines.append(f"{r.source}->{r.destination}: error: {r.error}")
        _emit(args, payload, lines)
        return EXIT_OK
    if args.mode == "resource":
        decision = select_relay_resource(sc.gains.h13, list(sc.candidates),
                                         sc.operating, _require_rate(sc))
    else:
        decision = select_relay_rate(sc.gains.h13, list(sc.candidates), sc.operating)
    payload = _decision_dict(decision)
    _emit(args, payload, [
        f"protocol={decision.protocol.value} relay={decision.relay_id or '-'} "
        f"criterion={_fmt(decision.criterion_value)} exact_gain={_fmt(decision.exact_gain)} "
        f"advisory={_fmt(decision.high_tern_advisory)}",
    ])
    return EXIT_OK


def cmd_placement(args) -> int:
    sc = load_scenario(args.scenario)
    if sc.placement is None:
        raise ValidationError("scenario must use 'placement' for this subcommand")
    report = collaboration_gain(sc.gains, sc.operating)
    d_star = optimal_relay_location(sc.operating.k, sc.placement.eta)
    peak = max_geometric_gain(sc.operating.k, sc.placement.eta)
    payload = {"gains": {"h12": sc.gains.h12, "h13": sc.gains.h13, "h23": sc.gains.h23},
               "gain": report.gain, "collaborate": report.collaborate,
               "optimal_relay_location": d_star, "max_geometric_gain": peak}
    _emit(args, payload, [
        f"h12={_fmt(sc.gains.h12)} h13={_fmt(sc.gains.h13)} h23={_fmt(sc.gains.h23)}",
        f"gain={_fmt(report.gain)} collaborate={_fmt(report.collaborate)}",
        f"optimal_relay_location={_fmt(d_star)} max_geometric_gain={_fmt(peak)}",
    ])
    return EXIT_OK


def cmd_sweep(args) -> int:
    params = {name: getattr(args, name) for name in SWEEP_PARAMETERS
              if getattr(args, name) is not None}
    records = sweep(args.kind, params)
    columns = sweep_columns(args.kind)
    # columns: coordinates, value, extras, feasible, degenerate
    extra_names = columns[len(records[0].coords) + 1:-2]
    rows = []
    for rec in records:
        row = [_fmt(c) for c in rec.coords]
        row.append(_fmt(rec.gain))
        row.extend(_fmt(rec.extra.get(name)) for name in extra_names)
        row.append(_fmt(rec.feasible))
        row.append(_fmt(rec.degenerate))
        rows.append(row)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failed = 0
    for res in results:
        if res.passed is None:
            status = "INFO"
        elif res.passed:
            status = "PASS"
        else:
            status = "FAIL"
            failed += 1
        print(f"{status:4s} {res.name:32s} {res.detail}")
    print(f"{len(results)} checks, {failed} failed")
    return EXIT_OK if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaygain",
        description="Collaboration gains, bounds and relay selection for "
                    "two-user decode-and-forward relaying.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario(p):
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")

    for name, fn, desc in (
        ("gain", cmd_gain, "optimal allocations for both protocols and the rate gain"),
        ("energy", cmd_energy, "minimal TERN for a demanded rate and the energy gain"),
        ("resource", cmd_resource, "per-user resource usage for a demanded rate"),
        ("bounds", cmd_bounds, "closed-form rate brackets and asymptotic limits"),
        ("placement", cmd_placement, "geometry report for a placement scenario"),
    ):
        p = sub.add_parser(name, help=desc)
        add_scenario(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("select", help="relay selection (single scenario or flow batch)")
    add_scenario(p)
    p.add_argument("--mode", choices=("rate", "resource"), default="rate")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("sweep", help="evaluate a parameter sweep and write CSV")
    p.add_argument("--kind", choices=SWEEP_KINDS, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    for flag in SWEEP_PARAMETERS:
        p.add_argument("--" + flag.replace("_", "-"), type=float, default=None,
                       dest=flag)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the numerical self-check suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RelayGainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
