"""Build the stored correctness reference under bench/reference/.

    PYTHONPATH=src python3 bench/build_reference.py [workload ...]

Numbers come from oracle.py (mpmath, 50 digits). Discrete outcomes
(chosen protocol and relay, advisory flags, error classes, verify
PASS/FAIL/INFO lines, CSV row counts, flags and sha256) are taken from
the relaygain code this script runs against, and should only be rebuilt
from a commit whose discrete behaviour is known to be right. The script
prints the worst relative error of that code against the oracle and
every discrete disagreement between the two.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import mpmath as mp  # noqa: E402

import oracle  # noqa: E402
import workloads as wl  # noqa: E402
from check import REFERENCE_DIR, Checker, flatten, sha256_file  # noqa: E402

DIGITS = 20


def s(x):
    return None if x is None else mp.nstr(x, DIGITS, strip_zeros=False)


class Audit:
    """Worst error of the code under test against the oracle, and disagreements."""

    def __init__(self, name):
        self.name, self.checker, self.mismatches = name, Checker(), []

    def num(self, value, ref):
        if not self.checker.close(value, s(ref)):
            self.mismatches.append(f"numeric {value!r} vs {s(ref)}")

    def same(self, got, expected, what):
        if got != expected:
            self.mismatches.append(f"{what}: code {got!r}, oracle {expected!r}")

    def report(self):
        print(f"{self.name}: worst accurate digits {self.checker.digits:.2f}, "
              f"{len(self.mismatches)} disagreements")
        for line in self.mismatches[:20]:
            print("   ", line)


def grid(lo, hi, step):
    """The documented sweep grid: inclusive endpoints, symmetric ranges mirrored."""
    n = int(math.floor((hi - lo) / step * (1.0 + 1e-12))) + 1
    values = [lo + i * step for i in range(n)]
    if abs(values[-1] - hi) <= 1e-9 * step:
        values[-1] = hi
    if lo == -hi and values[-1] == hi:
        for i in range(n // 2):
            values[n - 1 - i] = -values[i]
        if n % 2 and abs(values[n // 2]) <= 1e-6 * step:
            values[n // 2] = 0.0
    return values


def _flag(b):
    return "true" if b else "false"


# ------------------------------------------------------------ readme_batch

README_STRIDE = {"plane": 97, "collinear_a": 20, "collinear_b": 20, "ratio": 4,
                 "resource": 1, "energy": 1}


def _readme_row(name, i):
    """Oracle values of CSV row i of sweep `name` (numeric as strings, flags as text)."""
    argv = wl.README_SWEEPS[name]
    p = {argv[j][2:].replace("-", "_"): float(argv[j + 1]) for j in range(3, len(argv), 2)}
    if name == "plane":
        xs, ys = grid(p["x_min"], p["x_max"], p["x_step"]), grid(p["y_min"], p["y_max"], p["y_step"])
        x, y = xs[i // len(ys)], ys[i % len(ys)]
        h12, h13, h23 = oracle.placement_gains((-0.5, 0.0), (0.5, 0.0), (x, y), p["eta"])
        extra = {}
    elif name == "ratio":
        k = grid(p["k_min"], p["k_max"], p["k_step"])[i]
        h12, h13, h23 = mp.mpf(p["d"]) ** -p["eta"], 1, (1 - mp.mpf(p["d"])) ** -p["eta"]
        p["k"] = k
        extra = {}
    else:
        d = mp.mpf(grid(p["d_min"], p["d_max"], p["d_step"])[i])
        h12, h13, h23 = d ** -p["eta"], 1, (1 - d) ** -p["eta"]
        extra = {"h12": s(h12), "h23": s(h23)}
    if name in ("plane", "collinear_a", "collinear_b", "ratio"):
        a = oracle.allocations(h12, h13, h23, p["epsilon"], p["k"])
        return {"gain": s(a["gain"]), **extra, "beta_ncp": s(a["ncp"][0]), "beta_cp": s(a["cp"][0]),
                "rate_ncp": s(a["ncp"][1]), "rate_cp": s(a["cp"][1])}
    if name == "resource":
        k, eps, rate = mp.mpf(p["k"]), mp.mpf(p["epsilon"]), mp.mpf(p["rate"])
        ok_ncp = rate < eps * min(h13, h23)
        ok_cp = rate < eps * min(h12, h23 * k / (k + 1))
        row = {**extra, "ncp_feasible": _flag(ok_ncp), "cp_feasible": _flag(ok_cp)}
        if not (ok_ncp and ok_cp):
            return {**row, "resource_ratio": None, "feasible": "false"}
        ncp = oracle.resource(h13, h23, eps, k, rate, cp=False)[2]
        cp = oracle.resource(h12, h23, eps, k, rate, cp=True)[2]
        return {**row, "resource_ratio": s(ncp / cp), "total_ncp": s(ncp), "total_cp": s(cp)}
    e = oracle.min_tern_pair(h12, h13, h23, p["k"], p["rate"])
    return {**extra, "energy_ratio": s(e["gain"]), "eps_ncp": s(e["ncp"][0]), "eps_cp": s(e["cp"][0])}


def build_readme():
    from relaygain.cli import main
    audit = Audit("readme_batch")
    out = {"csv": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in wl.README_SWEEPS:
            assert main(wl.readme_argv(name, tmp)) == 0, name
            path = Path(tmp) / f"{name}.csv"
            rows = list(__import__("csv").reader(open(path, encoding="utf-8", newline="")))
            header, body = rows[0], rows[1:]
            checked = {}
            for i in range(0, len(body), README_STRIDE[name]):
                row = dict(zip(header, body[i]))
                if row["degenerate"] == "true":
                    checked[str(i)] = {"degenerate": "true"}
                    continue
                expected = _readme_row(name, i)
                for col, value in expected.items():
                    if value is None:
                        audit.same(row[col], "", f"{name} row {i} {col}")
                    elif col.endswith("feasible"):
                        audit.same(row[col], value, f"{name} row {i} {col}")
                    else:
                        audit.num(float(row[col]), mp.mpf(value))
                checked[str(i)] = expected
            out["csv"][name] = {
                "sha256": sha256_file(path), "header": header, "rows": len(body),
                "infeasible": sum(r[-2] == "false" for r in body),
                "degenerate": sum(r[-1] == "true" for r in body),
                "checked": checked,
            }
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(wl.VERIFY_ARGV)
        lines = buf.getvalue().splitlines()
        out["verify"] = {"exit": code, "lines": [line.split()[:2] for line in lines[:-1]]}
    audit.report()
    return out


# -------------------------------------------------------------- flow_batch

def _flow_entry(spec, mode, code, audit, what):
    cands = spec["candidates"]
    if mode == "rate":
        o = oracle.select_rate(spec["h_sd"], cands, spec["epsilon"], spec["k"])
    else:
        o = oracle.select_resource(spec["h_sd"], cands, spec["epsilon"], spec["k"], spec["rate"])
    if o is None:
        audit.same(code.get("error"), "NoFeasibleOptionError", what)
        return {"error": "NoFeasibleOptionError"}
    if "error" in code:
        audit.same(code, o, what)
        return {"error": code["error"]}
    audit.same((code["protocol"], code["relay_id"]), (o["protocol"], o["relay_id"]), what)
    audit.num(code["criterion_value"], o["criterion_value"])
    if o["exact_gain"] is not None:
        audit.num(code["exact_gain"], o["exact_gain"])
    return {"protocol": code["protocol"], "relay_id": code["relay_id"],
            "advisory": code["advisory"],
            "num": {"criterion_value": s(o["criterion_value"]), "exact_gain": s(o["exact_gain"])}}


def build_flow_batch():
    audit = Audit("flow_batch")
    flows = []
    for i, spec in enumerate(wl.flow_pool()):
        entry = {}
        for mode in ("rate", "resource"):
            code = wl.flow_op(wl.make_flow(spec), mode)
            entry[mode] = _flow_entry(spec, mode, code, audit, f"flow {i} {mode}")
        flows.append(entry)
    audit.report()
    return {"flows": flows}


# ------------------------------------------------------------- energy_dual

def build_energy_dual():
    audit = Audit("energy_dual")
    demands = []
    for i, spec in enumerate(wl.demand_pool()):
        code = wl.energy_op(spec["gains"], spec["k"], spec["rate"])
        o = oracle.min_tern_pair(*spec["gains"], spec["k"], spec["rate"])
        num = {"eps_ncp": o["ncp"][0], "beta_ncp": o["ncp"][1], "eps_cp": o["cp"][0],
               "beta_cp": o["cp"][1], "energy_gain": o["gain"]}
        if "error" in code:
            audit.mismatches.append(f"demand {i}: code raised {code['error']}")
        else:
            for key, value in num.items():
                audit.num(code[key], value)
        demands.append({"num": {key: s(value) for key, value in num.items()}})
    audit.report()
    return {"demands": demands}


# ------------------------------------------------------------- cli_queries

def _alloc(beta, rate, k):
    return {"beta": beta, "base_rate": rate, "rate2": k * rate, "sum_rate": (1 + k) * rate}


def cli_numbers(kind: str, sc: dict) -> dict:
    """{json path: oracle value} for one query kind."""
    if kind == "select_rate" or kind == "select_resource":
        out = {}
        for n, f in enumerate(sc["flows"]["flows"]):
            cands = [(c["id"], c["h_sr"], c["h_rd"]) for c in f["candidates"]]
            if kind == "select_rate":
                o = oracle.select_rate(f["h_sd"], cands, f["epsilon"], f["k"])
            else:
                o = oracle.select_resource(f["h_sd"], cands, f["epsilon"], f["k"], f["rate"])
            if o is not None:
                out[f"flows.{n}.decision.criterion_value"] = o["criterion_value"]
                if o["exact_gain"] is not None:
                    out[f"flows.{n}.decision.exact_gain"] = o["exact_gain"]
        return out
    if kind == "placement":
        p = sc["placement"]["placement"]
        op = sc["placement"]["operating"]
        h12, h13, h23 = oracle.placement_gains(p["source"], p["destination"], p["relay"], p["eta"])
        a = oracle.allocations(h12, h13, h23, op["epsilon"], op["k"])
        return {"gains.h12": h12, "gains.h13": h13, "gains.h23": h23, "gain": a["gain"],
                "optimal_relay_location": oracle.optimal_relay_location(op["k"], p["eta"]),
                "max_geometric_gain": oracle.max_geometric_gain(op["k"], p["eta"])}
    doc = sc["gains"]
    g, op, rate = doc["gains"], doc["operating"], doc["rate"]
    h12, h13, h23, eps, k = g["h12"], g["h13"], g["h23"], op["epsilon"], op["k"]
    if kind == "gain":
        a = oracle.allocations(h12, h13, h23, eps, k)
        out = {"gain": a["gain"]}
        for name in ("ncp", "cp"):
            for key, value in _alloc(*a[name], mp.mpf(k)).items():
                out[f"{name}.{key}"] = value
        return out
    if kind == "energy":
        e = oracle.min_tern_pair(h12, h13, h23, k, rate)
        return {"rate": rate, "energy_gain": e["gain"],
                "ncp.epsilon_min": e["ncp"][0], "ncp.beta": e["ncp"][1],
                "cp.epsilon_min": e["cp"][0], "cp.beta": e["cp"][1]}
    if kind == "resource":
        ncp = oracle.resource(h13, h23, eps, k, rate, cp=False)
        cp = oracle.resource(h12, h23, eps, k, rate, cp=True)
        out = {"rate": rate, "resource_ratio": ncp[2] / cp[2]}
        for name, r in (("ncp", ncp), ("cp", cp)):
            out.update({f"{name}.beta1": r[0], f"{name}.beta2": r[1], f"{name}.total": r[2]})
        return out
    if kind == "bounds":
        a = oracle.allocations(h12, h13, h23, eps, k)
        out = {"exact.ncp": a["ncp"][1], "exact.cp": a["cp"][1],
               "low_tern_gain_limit": oracle.low_tern_gain_limit(h12, h13, h23, k),
               "high_tern_gain_limit": oracle.high_tern_gain_limit(k)}
        for name, (lower, upper, beta) in oracle.bound_pairs(h12, h13, h23, eps, k).items():
            out.update({f"{name}.lower": lower, f"{name}.upper": upper})
            if beta is not None:
                out[f"{name}.beta_at_bound"] = beta
        return out
    raise ValueError(kind)


def run_cli(argv: list[str]) -> tuple[int, str]:
    from relaygain.cli import main
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue()


def build_cli_queries():
    audit = Audit("cli_queries")
    sets = []
    for j in range(wl.SCENARIO_POOL):
        sc = wl.scenario_set(j)
        entry = {}
        with tempfile.TemporaryDirectory() as tmp:
            for name, doc in sc.items():
                Path(tmp, f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
            for kind, argv, file in wl.CLI_QUERIES:
                base = [argv[0], "--scenario", f"{tmp}/{file}.json", *argv[1:]]
                code, text = run_cli(base)
                json_code, payload = run_cli(base + ["--format", "json"])
                ref = {"exit": code, "text_lines": len(text.splitlines()), "discrete": {}, "num": {}}
                audit.same(json_code, code, f"set {j} {kind} exit codes")
                if code == 0:
                    leaves = flatten(json.loads(payload))
                    numbers = cli_numbers(kind, sc)
                    for path, value in leaves.items():
                        if path in numbers:
                            audit.num(value, numbers[path])
                            ref["num"][path] = s(numbers[path])
                        elif isinstance(value, float):
                            audit.mismatches.append(f"set {j} {kind}: no oracle for {path}")
                        elif isinstance(value, str) and path.endswith(".error"):
                            ref["discrete"][path] = "!" + wl.error_class(value)
                        else:
                            ref["discrete"][path] = value
                    for path in numbers:
                        if path not in leaves:
                            audit.mismatches.append(f"set {j} {kind}: code lacks {path}")
                entry[kind] = ref
        sets.append(entry)
    audit.report()
    return {"sets": sets}


BUILDERS = {"readme_batch": build_readme, "flow_batch": build_flow_batch,
            "energy_dual": build_energy_dual, "cli_queries": build_cli_queries}


def main(names: list[str]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(BUILDERS):
        data = BUILDERS[name]()
        text = json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"
        # mtime=0 keeps the archive bytes a function of the content alone
        with open(REFERENCE_DIR / f"{name}.json.gz", "wb") as handle:
            handle.write(gzip.compress(text.encode("utf-8"), mtime=0))


if __name__ == "__main__":
    main(sys.argv[1:])
