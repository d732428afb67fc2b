"""Span tracing around relaygain's layer boundaries, for the traced run only.

`Tracer.install()` replaces each public entry point where its consuming
module binds it (a module attribute, a class attribute or a dict entry)
with a wrapper that records a span: name, start, end, parent span, the
residual evaluations made directly under it, the error class it raised,
and, for sweeps, the point counts. A target that no longer exists is
listed in `missing` instead of failing the run, and every metric that
depends on it is reported absent. `restore()` puts every original back.
Spans stay in memory and `dump()` writes them when the traced process
ends; `aggregate()` and `layer_metrics()` turn span files into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

SUITES = ("sandwich", "duality", "limits", "placement", "selection", "inequality")
SWEEP_KINDS = ("plane_gain", "collinear_gain", "rate_ratio", "resource_ratio", "energy_ratio")
QUERY_KINDS = ("gain", "energy", "resource", "bounds", "placement", "select_rate",
               "select_resource", "sweep", "verify")
_BOUND_FUNCS = ("ncp_bounds_high_tern", "ncp_bounds_low_tern", "cp_bounds_high_tern",
                "cp_bounds_low_tern", "low_tern_gain_limit", "high_tern_gain_limit")


def _targets() -> list[tuple[str, str, str, str]]:
    """(span name, module, attribute path, wrapper kind) for every hook."""
    rg = "relaygain."
    t = [("rootfind.solve", rg + m, "solve_monotone", "solve") for m in ("allocation", "energy")]
    t.append(("rootfind.scan", rg + "rootfind", "Bracket.scan", "scan"))
    for fn, name in (("ncp_allocate", "allocation.ncp"), ("cp_allocate", "allocation.cp")):
        t += [(name, rg + m, fn, "call") for m in ("allocation", "energy", "geometry", "verify", "cli")]
    t += [("allocation.gain", rg + m, "collaboration_gain", "call") for m in ("selection", "verify", "cli")]
    # the package binding is the one the benchmark's own energy_dual ops call
    t += [("energy.min_tern", "relaygain" + m, "min_tern", "call")
          for m in ("", ".energy", ".geometry", ".verify", ".cli")]
    t += [("energy.resource", rg + m, "resource_usage", "call") for m in ("geometry", "cli")]
    t += [("energy.slot", rg + m, "_solve_slot", "call") for m in ("energy", "selection")]
    t += [("bounds.call", rg + m, fn, "call") for m in ("verify", "cli") for fn in _BOUND_FUNCS]
    t.append(("bounds.call", rg + "verify", "small_k_gain_slope", "call"))
    t.append(("geometry.sweep", rg + "cli", "sweep", "sweep"))
    t += [("selection.rate", rg + m, "select_relay_rate", "call") for m in ("selection", "verify", "cli")]
    t += [("selection.resource", rg + m, "select_relay_resource", "call") for m in ("selection", "cli")]
    t.append(("scenario.load", rg + "cli", "load_scenario", "call"))
    t += [(f"verify.{s}", rg + "verify", f"_SUITES[{s}]", "call") for s in SUITES]
    t.append(("cli.cmd_sweep", rg + "cli", "cmd_sweep", "call"))
    return t


class _Slot:
    """Get/set access to one hook target: module attribute, class attribute or dict entry."""

    def __init__(self, module: str, path: str):
        obj = importlib.import_module(module)
        if path.endswith("]"):
            attr, key = path[:-1].split("[")
            self.owner, self.key, self.is_item = getattr(obj, attr), key, True
            self.original = self.owner[key]
        else:
            *parents, self.key = path.split(".")
            for name in parents:
                obj = getattr(obj, name)
            self.owner, self.is_item = obj, False
            # vars() keeps a classmethod object as it is, so restore is exact
            self.original = vars(obj)[self.key] if isinstance(obj, type) else getattr(obj, self.key)

    def set(self, value) -> None:
        if self.is_item:
            self.owner[self.key] = value
        else:
            setattr(self.owner, self.key, value)


class Tracer:
    """Collects spans as [name, start, end, parent, evals, error, info] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self._installed: list[_Slot] = []

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0, None, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        except BaseException as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            self._close(rec)

    def _wrap(self, name: str, kind: str, fn):
        tracer = self

        def counted(rec, f):
            def g(x):
                rec[4] += 1
                return f(x)
            return g

        if kind == "scan":
            func = fn.__func__

            def scan(cls, f, lo, hi):
                with tracer.span(name) as rec:
                    return func(cls, counted(rec, f), lo, hi)
            return classmethod(scan)

        def wrapper(*args, **kwargs):
            span_name = f"{name}.{args[0]}" if kind == "sweep" else name
            with tracer.span(span_name) as rec:
                if kind == "solve":
                    args = (counted(rec, args[0]), *args[1:])
                result = fn(*args, **kwargs)
                if kind == "sweep":
                    rec[6] = [len(result), sum(r.degenerate for r in result),
                              sum(not r.feasible for r in result)]
                return result
        return wrapper

    def install(self) -> None:
        for name, module, path, kind in _targets():
            try:
                slot = _Slot(module, path)
            except (ImportError, AttributeError, KeyError, ValueError):
                self.missing.append(name)
                continue
            slot.set(self._wrap(name, kind, slot.original))
            self._installed.append(slot)

    def restore(self) -> None:
        while self._installed:
            slot = self._installed.pop()
            slot.set(slot.original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "missing": sorted(set(self.missing))}, handle,
                      separators=(",", ":"))


# ---------------------------------------------------------------- metrics

_ALLOC = ("allocation.ncp", "allocation.cp")
_ROOT = ("rootfind.solve", "rootfind.scan")
_ENERGY = ("energy.min_tern", "energy.resource", "energy.slot")


def aggregate(docs: list[dict]) -> dict:
    """Sum counts and busy times over the span documents of one pass."""
    acc: dict = defaultdict(float)
    missing: set[str] = set()
    for doc in docs:
        missing.update(doc["missing"])
        spans = doc["spans"]
        child_err = [False] * len(spans)
        for rec in spans:
            if rec[5] is not None and rec[3] >= 0:
                child_err[rec[3]] = True
        in_root, in_mt, in_work, in_sweep = ([False] * len(spans) for _ in range(4))
        for i, (name, t0, t1, parent, evals, err, info) in enumerate(spans):
            dur = t1 - t0
            pname = spans[parent][0] if parent >= 0 else ""
            if parent >= 0:
                in_root[i] = in_root[parent] or pname in _ROOT
                in_mt[i] = in_mt[parent] or pname == "energy.min_tern"
                in_work[i] = in_work[parent] or pname in _ALLOC or pname in _ENERGY
                in_sweep[i] = in_sweep[parent] or pname.startswith("geometry.sweep")
            acc["count." + name] += 1
            acc["time." + name] += dur
            own_err = err is not None and not child_err[i]
            if name in _ROOT:
                acc["evals"] += evals
                if not in_root[i]:
                    acc["root_busy"] += dur
                if own_err and err in ("NoSignChangeError", "IterationLimitError"):
                    acc["root_errors"] += 1
                if pname in _ALLOC:
                    acc["alloc_root_time"] += dur
                    acc["alloc_evals"] += evals
                if in_mt[i]:
                    acc["min_tern_evals"] += evals
            if name in _ALLOC and in_mt[i]:
                acc["min_tern_allocs"] += 1
            if name in _ENERGY and own_err and err == "InfeasibleRateError":
                acc["energy_infeasible"] += 1
            if (name in _ALLOC or name in _ENERGY) and in_sweep[i] and not in_work[i]:
                acc["sweep_work_time"] += dur
            if name.startswith("geometry.sweep"):
                acc["sweep_time"] += dur
                if info is not None:  # None when the sweep raised
                    acc["points"] += info[0]
                    acc["degenerate"] += info[1]
                    acc["infeasible"] += info[2]
                if pname == "cli.cmd_sweep":
                    acc["emit_child_time"] += dur
            if name == "allocation.gain" and pname == "selection.rate":
                acc["confirms"] += 1
            if name.startswith("selection.") and err is not None:
                acc["flow_errors"] += 1
    return {"sums": dict(acc), "missing": sorted(missing)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _needs() -> dict[str, tuple[str, ...]]:
    """Span names each per-layer metric depends on; a missing one makes it absent."""
    root = _ROOT
    alloc = (*_ALLOC, *root)
    needs = {
        "rootfind.solves": root, "rootfind.evals": root, "rootfind.evals_per_solve": root,
        "rootfind.busy_s": root, "rootfind.errors": root, "model.rate_evals_computed": root,
        "allocation.ncp_calls": _ALLOC, "allocation.cp_calls": _ALLOC,
        "allocation.gain_calls": ("allocation.gain",), "allocation.us_per_call": _ALLOC,
        "allocation.self_us_per_call": alloc, "allocation.evals_per_call": alloc,
        "energy.min_tern_calls": ("energy.min_tern",), "energy.min_tern_us": ("energy.min_tern",),
        "energy.allocs_per_min_tern": ("energy.min_tern", *_ALLOC),
        "energy.evals_per_min_tern": ("energy.min_tern", *root),
        "energy.resource_calls": ("energy.resource",), "energy.resource_us": ("energy.resource",),
        "energy.slot_solves": ("energy.slot",), "energy.infeasible": _ENERGY,
        "bounds.calls": ("bounds.call",), "bounds.us_per_call": ("bounds.call",),
        "geometry.points": ("geometry.sweep",), "geometry.degenerate": ("geometry.sweep",),
        "geometry.infeasible": ("geometry.sweep",),
        "geometry.self_us_per_point": ("geometry.sweep", *_ALLOC, *_ENERGY),
        "selection.flows": ("selection.rate", "selection.resource"),
        "selection.flow_errors": ("selection.rate", "selection.resource"),
        "selection.confirms_per_flow": ("selection.rate", "allocation.gain"),
        "selection.rate_us_per_flow": ("selection.rate",),
        "selection.resource_us_per_flow": ("selection.resource",),
        "scenario.load_us": ("scenario.load",),
        "cli.csv_emit_s": ("cli.cmd_sweep", "geometry.sweep"),
    }
    needs.update({f"geometry.{kind}.s": ("geometry.sweep",) for kind in SWEEP_KINDS})
    needs.update({f"verify.{suite}.s": (f"verify.{suite}",) for suite in SUITES})
    return needs


# Metrics that count work; they must repeat exactly between traced runs.
COUNT_METRICS = ("rootfind.solves", "rootfind.evals", "rootfind.errors", "model.rate_evals_computed",
                 "allocation.ncp_calls", "allocation.cp_calls", "allocation.gain_calls",
                 "allocation.evals_per_call", "energy.min_tern_calls", "energy.allocs_per_min_tern",
                 "energy.evals_per_min_tern", "energy.resource_calls", "energy.slot_solves",
                 "energy.infeasible", "bounds.calls", "geometry.points", "geometry.degenerate",
                 "geometry.infeasible", "selection.flows", "selection.flow_errors",
                 "selection.confirms_per_flow", "rootfind.evals_per_solve")


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its aggregated sums."""
    s = defaultdict(float, agg["sums"])
    c = lambda name: s["count." + name]  # noqa: E731
    tm = lambda name: s["time." + name]  # noqa: E731
    alloc_calls = c("allocation.ncp") + c("allocation.cp")
    alloc_time = tm("allocation.ncp") + tm("allocation.cp")
    solves = c("rootfind.solve")
    flows = c("selection.rate") + c("selection.resource")
    m = {
        "rootfind.solves": solves,
        "rootfind.evals": s["evals"],
        "rootfind.evals_per_solve": _ratio(s["evals"], solves),
        "rootfind.busy_s": s["root_busy"],
        "rootfind.errors": s["root_errors"],
        "model.rate_evals_computed": 2 * s["evals"],
        "allocation.ncp_calls": c("allocation.ncp"),
        "allocation.cp_calls": c("allocation.cp"),
        "allocation.gain_calls": c("allocation.gain"),
        "allocation.us_per_call": 1e6 * _ratio(alloc_time, alloc_calls),
        "allocation.self_us_per_call": 1e6 * _ratio(alloc_time - s["alloc_root_time"], alloc_calls),
        "allocation.evals_per_call": _ratio(s["alloc_evals"], alloc_calls),
        "energy.min_tern_calls": c("energy.min_tern"),
        "energy.min_tern_us": 1e6 * _ratio(tm("energy.min_tern"), c("energy.min_tern")),
        "energy.allocs_per_min_tern": _ratio(s["min_tern_allocs"], c("energy.min_tern")),
        "energy.evals_per_min_tern": _ratio(s["min_tern_evals"], c("energy.min_tern")),
        "energy.resource_calls": c("energy.resource"),
        "energy.resource_us": 1e6 * _ratio(tm("energy.resource"), c("energy.resource")),
        "energy.slot_solves": c("energy.slot"),
        "energy.infeasible": s["energy_infeasible"],
        "bounds.calls": c("bounds.call"),
        "bounds.us_per_call": 1e6 * _ratio(tm("bounds.call"), c("bounds.call")),
        "geometry.points": s["points"],
        "geometry.degenerate": s["degenerate"],
        "geometry.infeasible": s["infeasible"],
        "geometry.self_us_per_point": 1e6 * _ratio(s["sweep_time"] - s["sweep_work_time"], s["points"]),
        "selection.flows": flows,
        "selection.flow_errors": s["flow_errors"],
        "selection.confirms_per_flow": _ratio(s["confirms"], c("selection.rate")),
        "selection.rate_us_per_flow": 1e6 * _ratio(tm("selection.rate"), c("selection.rate")),
        "selection.resource_us_per_flow": 1e6 * _ratio(tm("selection.resource"), c("selection.resource")),
        "scenario.load_us": 1e6 * _ratio(tm("scenario.load"), c("scenario.load")),
        "cli.csv_emit_s": tm("cli.cmd_sweep") - s["emit_child_time"],
    }
    for kind in SWEEP_KINDS:
        m[f"geometry.{kind}.s"] = tm(f"geometry.sweep.{kind}")
    for suite in SUITES:
        m[f"verify.{suite}.s"] = tm(f"verify.{suite}")
    for kind in QUERY_KINDS:
        m[f"cli.main_ms.{kind}"] = 1e3 * _ratio(tm(f"cli.main.{kind}"), c(f"cli.main.{kind}"))
    needs = _needs()
    missing = set(agg["missing"])
    return {name: value for name, value in m.items() if not missing & set(needs.get(name, ()))}


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced pass, times as the median over passes."""
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes if name in p]
        out[name] = values[0] if name in COUNT_METRICS else statistics.median(values)
    return out
