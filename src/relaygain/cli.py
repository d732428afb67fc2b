"""Command-line front end.

Subcommands cover every analysis: gain, energy, resource, bounds, select,
placement, sweep (CSV emission) and verify. Exit codes: 0 success,
1 a verify check failed, 2 validation error, 3 solver error, 4 I/O
error. Output is deterministic: floats print with 12 significant digits,
CSV uses UNIX line endings and '.' decimals regardless of locale.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import stat
import sys
from importlib import import_module

from .allocation import collaboration_gain, cp_allocate, ncp_allocate
from .energy import min_tern, resource_usage
from .errors import RelayGainError, ValidationError
from .model import Protocol

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4

# Names that only some subcommands call, by home module. Each module's names
# are bound here on first use: by main() before it dispatches a subcommand
# that needs them, or by an attribute access such as `relaygain.cli.sweep`.
# A name bound already keeps its value, so a wrapper set here stays in place,
# and once bound it is an ordinary global: deleted, it stays absent.
# Only the scenario reports load `scenario`, and json, which cmd_report uses too.
# `sweep` is bound for bench/spans.py's hook until ROADMAP item 9 replaces it.
_LAZY = {
    "bounds": ("cp_bounds_high_tern", "cp_bounds_low_tern", "high_tern_gain_limit",
               "low_tern_gain_limit", "ncp_bounds_high_tern", "ncp_bounds_low_tern"),
    "geometry": ("max_geometric_gain", "optimal_relay_location", "render_sweep", "sweep",
                 "sweep_columns"),
    "scenario": ("load_scenario",),
    "selection": ("evaluate_network", "select_relay_rate", "select_relay_resource"),
    "verify": ("run_suite",),
}
_bound: set[str] = set()  # the modules whose names _bind has bound

# The parser's choices, copied so that building it imports neither geometry
# nor verify: geometry.SWEEP_KINDS, geometry.SWEEP_PARAMETERS, verify.SUITES.
SWEEP_KINDS = ("plane_gain", "collinear_gain", "rate_ratio", "resource_ratio", "energy_ratio")
SWEEP_PARAMETERS = ("x_min", "x_max", "x_step", "y_min", "y_max", "y_step", "epsilon", "k",
                    "eta", "d_min", "d_max", "d_step", "k_min", "k_max", "k_step", "d", "rate")
SUITES = ("sandwich", "duality", "limits", "placement", "selection", "inequality", "all")


def _bind(module: str) -> None:
    home = import_module(f".{module}", __package__)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(home, name))
    _bound.add(module)


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names and module not in _bound:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _csv_coords(values: list[float]) -> list[str]:
    """Sweep coordinates, all floats, as CSV cells: '%.12g,' % v is _fmt(v) + ","."""
    return list(map("%.12g,".__mod__, values))


def _csv_cells(width: int, floats: bool):
    """The renderer of a sweep row's last `width` cells, the feasible and
    degenerate flags last, as the rest of its CSV line: the text of
    ",".join(map(_fmt, cells)) + "\n".

    With floats it takes a feasible, non-degenerate row's first width - 2
    cells, all floats, and is one %-format of the width's template, since
    '%.12g,' % v is _fmt(v) + ",". Otherwise it takes all `width` cells and
    formats each with _fmt: '%.12g' prints a bool as 1 and rejects None. No
    cell needs CSV quoting: a cell is a number, empty, true or false.
    """
    if floats:
        return ("%.12g," * (width - 2) + "true,false\n").__mod__
    return _csv_line


def _csv_line(cells: tuple) -> str:
    return ",".join(map(_fmt, cells)) + "\n"


def _row(fields: dict, label: str = "", width: int = 4) -> str:
    """One text row of `key=value` pairs, after `label` padded to `width` if given."""
    pairs = " ".join(f"{key}={_fmt(value)}" for key, value in fields.items())
    return f"{label:{width}s} {pairs}" if label else pairs


def _require_rate(sc) -> float:
    if sc.rate is None:
        raise ValidationError("scenario is missing 'rate' (required by this subcommand)")
    return sc.rate


def _verdict(report) -> dict:
    return {"gain": report.gain, "collaborate": report.collaborate}


def report_gain(sc, args):
    report = collaboration_gain(sc.gains, sc.operating)
    payload = {"ncp": report.ncp._asdict(), "cp": report.cp._asdict(), **_verdict(report)}
    lines = [_row({key: value for key, value in payload[name].items() if key != "protocol"},
                  name.upper())
             for name in ("ncp", "cp")]
    return payload, [*lines, _row(_verdict(report))]


def _per_protocol(sc, solve, operating, measure: str, ratio: str):
    """solve(protocol, gains, operating, rate) per protocol, and the NCP/CP `measure` ratio."""
    rate = _require_rate(sc)
    payload, lines = {"rate": rate}, []
    for protocol in Protocol:
        fields = solve(protocol, sc.gains, operating, rate)._asdict()
        del fields["protocol"]
        payload[protocol.value.lower()] = fields
        lines.append(_row(fields, protocol.value))
    ncp, cp = payload["ncp"][measure], payload["cp"][measure]
    payload[ratio] = ncp / cp
    if not sys.float_info.min <= payload[ratio] <= sys.float_info.max:
        raise ValidationError(f"{ratio} at rate {rate!r} lies outside the float range: "
                              f"NCP {measure} {ncp!r} over CP {measure} {cp!r}")
    return payload, [*lines, _row({ratio: payload[ratio]})]


def report_energy(sc, args):
    return _per_protocol(sc, min_tern, sc.operating.k, "epsilon_min", "energy_gain")


def report_resource(sc, args):
    return _per_protocol(sc, resource_usage, sc.operating, "total", "resource_ratio")


def report_bounds(sc, args):
    gains, op = sc.gains, sc.operating
    pairs = {
        "ncp_high_tern": ncp_bounds_high_tern(gains, op),
        "ncp_low_tern": ncp_bounds_low_tern(gains, op),
        "cp_high_tern": cp_bounds_high_tern(gains, op),
        "cp_low_tern": cp_bounds_low_tern(gains, op),
    }
    payload = {name: pair._asdict() for name, pair in pairs.items()}
    payload["exact"] = {"ncp": ncp_allocate(gains, op).base_rate,
                        "cp": cp_allocate(gains, op).base_rate}
    limits = {"low_tern_gain_limit": low_tern_gain_limit(gains, op.k),
              "high_tern_gain_limit": high_tern_gain_limit(op.k)}
    payload.update(limits)
    lines = [_row({"lower": p.lower, "upper": p.upper, "beta": p.beta_at_bound,
                   "degenerate": p.degenerate}, name, 14)
             for name, p in pairs.items()]
    return payload, [*lines, _row(payload["exact"], "exact", 14), _row(limits)]


def _decision_text(decision) -> str:
    return (f"{decision.protocol.value} relay={decision.relay_id or '-'} "
            f"criterion={_fmt(decision.criterion_value)} exact_gain={_fmt(decision.exact_gain)} "
            f"advisory={_fmt(decision.high_tern_advisory)}")


def report_select(sc, args):
    if sc.flows:
        results = evaluate_network(list(sc.flows), args.mode)
        lines = [f"{r.source}->{r.destination}: "
                 + (_decision_text(r.decision) if r.decision else f"error: {r.error}")
                 for r in results]
        # a decision is a named tuple too: as a dict, not a JSON array
        return {"flows": [{**r._asdict(),
                           "decision": None if r.decision is None else r.decision._asdict()}
                          for r in results]}, lines
    if args.mode == "resource":
        decision = select_relay_resource(sc.gains.h13, list(sc.candidates),
                                         sc.operating, _require_rate(sc))
    else:
        decision = select_relay_rate(sc.gains.h13, list(sc.candidates), sc.operating)
    return decision._asdict(), [f"protocol={_decision_text(decision)}"]


def report_placement(sc, args):
    if sc.placement is None:
        raise ValidationError("scenario must use 'placement' for this subcommand")
    report = collaboration_gain(sc.gains, sc.operating)
    peak = {"optimal_relay_location": optimal_relay_location(sc.operating.k, sc.placement.eta),
            "max_geometric_gain": max_geometric_gain(sc.operating.k, sc.placement.eta)}
    gains = sc.gains._asdict()
    payload = {"gains": gains, **_verdict(report), **peak}
    return payload, [_row(gains), _row(_verdict(report)), _row(peak)]


def cmd_report(args) -> int:
    """Shared path of the scenario subcommands: load, report, print in --format.

    The report function named by args.report, called as report(scenario, args),
    returns the JSON payload and the text rows.
    """
    payload, lines = globals()[args.report](load_scenario(args.scenario), args)
    if args.format == "json":
        import json
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def _staged_target(out: str):
    """(the path a finished sweep replaces, its mode or None), or None to write to `out`.

    Rows are staged beside a regular file or a name that does not exist
    yet, through a symlink to its target. Anything else, a directory, a
    device, a pipe or a path that cannot be examined, is opened as given.
    """
    if not os.path.basename(out):
        return None
    try:
        st = os.lstat(out)
        if stat.S_ISLNK(st.st_mode):
            out = os.path.realpath(out)
            st = os.stat(out)
    except FileNotFoundError:
        return out, None
    except OSError:
        return None
    return (out, stat.S_IMODE(st.st_mode)) if stat.S_ISREG(st.st_mode) else None


@contextlib.contextmanager
def _open_out(out: str):
    """A text handle for --out's new contents, which replace a regular --out only on success.

    Rows go to a sibling `.NAME.PID.part` file, created with open() rather
    than mkstemp so that a new CSV gets the mode the umask gives, and given
    the mode of the file it replaces. It replaces --out when the block ends
    and is removed if the block raises, so a failing sweep leaves a regular
    or absent --out as it was. A device or a pipe, or a directory that refuses
    the sibling, is written directly, as `open(out, "w")`.
    """
    staged = _staged_target(out)
    if staged is not None:
        target, mode = staged
        head, name = os.path.split(target)
        partial = os.path.join(head, f".{name}.{os.getpid()}.part")
        try:
            handle = open(partial, "x", encoding="utf-8", newline="")
        except OSError:
            staged = None
    if staged is None:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            yield handle
        return
    try:
        with handle:
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            yield handle
        os.replace(partial, target)
    except BaseException:
        os.remove(partial)
        raise


# Sweep lines are joined and written 256 at a time: writing the README plane CSV's
# 30,351 lines took 4.9 ms one write per line, 3.0 ms one per chunk (best of 9). A
# chunk holds 23-31 kB.
_CSV_CHUNK = 256


def cmd_sweep(args) -> int:
    """Write the sweep's CSV to --out as its rows are solved, a chunk at a time.

    The CSV lines of render_sweep go to the file as they come, with no
    record built for them. Every input is checked before a file is opened,
    and a failing sweep leaves a regular or absent --out as it was (see
    _open_out).
    """
    params = {name: getattr(args, name) for name in SWEEP_PARAMETERS
              if getattr(args, name) is not None}
    lines = render_sweep(args.kind, params, _csv_coords, _csv_cells)
    with _open_out(args.out) as handle:
        # every column name is an identifier
        handle.write(",".join(sweep_columns(args.kind)) + "\n")
        chunk = "".join(itertools.islice(lines, _CSV_CHUNK))
        while chunk:
            handle.write(chunk)
            chunk = "".join(itertools.islice(lines, _CSV_CHUNK))
    return EXIT_OK


_STATUS = {None: "INFO", True: "PASS", False: "FAIL"}


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    for res in results:
        print(f"{_STATUS[res.passed]:4s} {res.name:32s} {res.detail}")
    failed = sum(res.passed is False for res in results)
    print(f"{len(results)} checks, {failed} failed")
    return EXIT_OK if failed == 0 else 1


# main's parser, built on its first call
_parser = None


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser. Each subcommand names the function that runs it (func) and,
    for the scenario reports, the report function (report): main looks both up in
    this module's globals at dispatch, so a wrapper set on one after the parser was
    built still runs."""
    parser = argparse.ArgumentParser(
        prog="relaygain",
        description="Collaboration gains, bounds and relay selection for "
                    "two-user decode-and-forward relaying.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report(name, report, desc, needs=()):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func="cmd_report", report=report, needs=("scenario", *needs))
        return p

    add_report("gain", "report_gain", "optimal allocations for both protocols and the rate gain")
    add_report("energy", "report_energy", "minimal TERN for a demanded rate and the energy gain")
    add_report("resource", "report_resource", "per-user resource usage for a demanded rate")
    add_report("bounds", "report_bounds", "closed-form rate brackets and asymptotic limits",
               ("bounds",))
    add_report("placement", "report_placement", "geometry report for a placement scenario",
               ("geometry",))
    p = add_report("select", "report_select", "relay selection (single scenario or flow batch)",
                   ("selection",))
    p.add_argument("--mode", choices=("rate", "resource"), default="rate")

    p = sub.add_parser("sweep", help="evaluate a parameter sweep and write CSV")
    p.add_argument("--kind", choices=SWEEP_KINDS, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    for flag in SWEEP_PARAMETERS:
        p.add_argument("--" + flag.replace("_", "-"), type=float, default=None,
                       dest=flag)
    p.set_defaults(func="cmd_sweep", needs=("geometry",))

    p = sub.add_parser("verify", help="run the numerical self-check suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.set_defaults(func="cmd_verify", needs=("verify",))
    return parser


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    for module in args.needs:
        _bind(module)
    try:
        return globals()[args.func](args)
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
