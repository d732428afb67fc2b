"""relaygain benchmark: one workload, timed from outside through the public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout; the library is imported from ./src.
Each pass of the workload's op list runs in a fresh worker process
(closed loop, one client, no threads), so nothing carries over between
passes; passes repeat until S seconds are spent. Every output is checked
against the stored reference in bench/reference/. Times are scaled to a
nominal machine speed by a calibration loop (see bench/README.md).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes and reports the per-layer metrics from the traced
ones, plus trace.overhead_frac. A human-readable report precedes the
last stdout line, which is one JSON object with the keys correct,
attempted, failed and metrics. --out also writes the full results,
stamped with the machine and commit, to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORKER_TIMEOUT_S = 150
MAX_WORKER_FAILURES = 3
# Every time is scaled to a machine on which worker.calibrate() takes this
# long: the speed of a shared machine drifts by up to ~1.6x over minutes,
# and the calibration loop, sampled in the same worker around and inside
# each pass, divides that drift out. Raw medians are kept in the results.
CAL_NOMINAL_S = 4e-3
_TIME_UNITS = ("s", "ms", "us")
MIN_PASSES = 3          # untraced passes in a --trace 0 run (cli_queries: one per set)
MIN_TRACED_PASSES = 2   # of each kind in a --trace 1 run

END_TO_END = (
    ("wall_s", "s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("correct_frac", "frac"), ("accurate_digits", "digits"),
)


def stamp(root: Path, seed: int) -> dict:
    """Machine and commit the results were measured on."""
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                                  timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu or platform.processor() or None, "git_sha": sha,
            "dirty": None if status is None else bool(status), "seed": seed}


def prepare(workload: str, seed: int, tmp: Path) -> dict:
    """Write the seed's inputs (and, for cli_queries, scenario files) into tmp."""
    inputs = wl.inputs(workload, seed)
    (tmp / "inputs.json").write_text(json.dumps(inputs, sort_keys=True), encoding="utf-8")
    if workload == "cli_queries":
        for n, scenarios in enumerate(inputs["scenarios"]):
            for name, doc in scenarios.items():
                (tmp / f"s{n}-{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return inputs


def run_worker(workload: str, tmp: Path, env: dict, traced: bool, index: int) -> dict | None:
    """Pass number `index`, in a fresh process; None if the worker failed."""
    result_path = tmp / "result.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(tmp / "inputs.json"),
           str(tmp), "1" if traced else "0", str(index), str(result_path)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"worker timed out after {WORKER_TIMEOUT_S} s\n")
        return None
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(f"worker failed with exit {proc.returncode}:\n{proc.stderr[-4000:]}\n")
        return None
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def ops_per_pass(workload: str, ref: dict, inputs: dict) -> int:
    if workload == "readme_batch":
        return sum(spec["rows"] for spec in ref["csv"].values()) + len(ref["verify"]["lines"])
    if workload == "flow_batch":
        return 2 * len(inputs["ids"])
    if workload == "energy_dual":
        return len(inputs["ids"])
    return len(wl.CLI_QUERIES) * len(wl.FORMATS)


def check_pass(workload: str, checker: check.Checker, ref: dict, inputs: dict,
               result: dict, index: int) -> dict:
    """Check one pass; returns per-pass facts used by the per-layer metrics."""
    facts = {"exit_nonzero": 0, "csv_files_changed": 0}
    if workload == "readme_batch":
        facts["csv_files_changed"] = check.check_readme_pass(
            checker, ref, result["out_dir"], result["exits"], result["verify_stdout"])
        facts["exit_nonzero"] = sum(code != 0 for code in result["exits"].values())
    elif workload == "flow_batch":
        check.check_flow_pass(checker, ref, inputs["ids"], result["outputs"])
    elif workload == "energy_dual":
        check.check_energy_pass(checker, ref, inputs["ids"], result["outputs"])
    else:
        entry = ref["sets"][inputs["ids"][index % len(inputs["ids"])]]
        runs = {(kind, fmt): (code, out) for kind, fmt, code, out in result["outputs"]}
        for kind, _, _ in wl.CLI_QUERIES:
            (code, text), (json_code, payload) = runs[(kind, "text")], runs[(kind, "json")]
            text_ok, json_ok = check.check_cli_query(checker, entry[kind], code, text,
                                                     json_code, payload)
            checker.op(text_ok, f"{kind} text")
            checker.op(json_ok, f"{kind} json")
        facts["exit_nonzero"] = sum(code != 0 for _, _, code, _ in result["outputs"])
    return facts


def speed_factor(result: dict) -> float:
    """Scale from this pass's measured times to nominal-machine times."""
    return CAL_NOMINAL_S / statistics.mean(result["calibration_s"])


def chunk_factors(result: dict) -> list[float]:
    """Scale for each chunk of the pass, from the samples taken around and during it."""
    s, inner = result["calibration_s"], result["inner_calibration_s"]
    return [CAL_NOMINAL_S / statistics.mean([s[i], *inner[i], s[i + 1]])
            for i in range(len(s) - 1)]


def pass_wall(result: dict) -> float:
    return sum(c * f for c, f in zip(result["chunk_s"], chunk_factors(result)))


def pass_latencies(result: dict) -> list[float]:
    factors = chunk_factors(result)
    return [seconds * factors[chunk] for seconds, chunk in result["latency_s"]]


def pass_setup(result: dict) -> float:
    """Import time, scaled by the calibration samples taken right before and after it."""
    return result["setup_s"] * CAL_NOMINAL_S / statistics.mean(result["setup_calibration_s"])


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, Python's default (exclusive) method."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the stamped results JSON here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "relaygain" / "cli.py").is_file():
        print(f"error: no relaygain sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2

    tmp_base = root / ".bench_tmp"
    tmp_base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_base))
    try:
        return measure(args, root, src, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:
            pass


def measure(args, root: Path, src: Path, tmp: Path) -> int:
    ref = check.load_reference(args.workload)
    inputs = prepare(args.workload, args.seed, tmp)
    env = {**os.environ, "PYTHONPATH": str(src)}
    n_ops = ops_per_pass(args.workload, ref, inputs)
    checker = check.Checker()

    units = per_layer_names(root)
    plain, traced = [], []
    facts = []
    failures = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace:
            want_traced = len(traced) < len(plain)
            enough = len(plain) >= MIN_TRACED_PASSES and len(traced) >= MIN_TRACED_PASSES
        else:
            want_traced = False
            enough = len(plain) >= (wl.CLI_SETS_PER_RUN if args.workload == "cli_queries"
                                    else MIN_PASSES)
        if enough and time.perf_counter() >= deadline and not want_traced:
            break
        index = len(plain) + len(traced)
        result = run_worker(args.workload, tmp, env, want_traced, index)
        if result is None:
            for _ in range(n_ops):
                checker.op(False)
            checker.notes.append("worker failed")
            failures += 1
            if failures >= MAX_WORKER_FAILURES or time.perf_counter() >= deadline:
                break
            continue
        facts.append(check_pass(args.workload, checker, ref, inputs, result, index))
        if want_traced:
            docs = []
            for path in sorted(tmp.glob("spans-*.json")):
                with open(path, encoding="utf-8") as handle:
                    docs.append(json.load(handle))
                path.unlink()
            layers = spans.layer_metrics(spans.aggregate(docs))
            scale = speed_factor(result)
            result["layers"] = {name: value * scale if units.get(name) in _TIME_UNITS else value
                                for name, value in layers.items()}
            traced.append(result)
        else:
            plain.append(result)

    correct = checker.failed == 0 and checker.attempted > 0
    metrics: dict[str, dict] = {}
    absent: list[str] = []
    latencies = [x for r in plain for x in pass_latencies(r)]
    raw = {}
    if plain:
        raw = {"wall_s": statistics.median(sum(r["chunk_s"]) for r in plain),
               "setup_s": statistics.median(r["setup_s"] for r in plain),
               "calibration_s": statistics.median(x for r in plain for x in r["calibration_s"])}
    if not args.trace:
        if plain:
            values = {
                "wall_s": statistics.median(pass_wall(r) for r in plain),
                "latency_p50_ms": 1e3 * statistics.median(latencies),
                "latency_p90_ms": 1e3 * quantile(latencies, 90),
                "setup_s": statistics.median(pass_setup(r) for r in plain),
                "peak_rss_mb": statistics.median(r.get("child_rss_mb", r["rss_mb"]) for r in plain),
                "correct_frac": (checker.attempted - checker.failed) / max(checker.attempted, 1),
                "accurate_digits": checker.digits,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    elif traced and plain:
        layers = spans.median_metrics([r["layers"] for r in traced])
        layers["cli.interpreter_ms"] = 1e3 * statistics.median(
            x * speed_factor(r) for r in traced for x in r["interpreter_s"])
        layers["cli.import_ms"] = 1e3 * statistics.median(pass_setup(r) for r in plain + traced)
        layers["cli.exit_nonzero"] = facts[0]["exit_nonzero"]
        layers["cli.csv_files_changed"] = facts[0]["csv_files_changed"]
        layers["trace.overhead_frac"] = (
            statistics.median(pass_wall(r) for r in traced)
            / statistics.median(pass_wall(r) for r in plain) - 1.0)
        absent = sorted(set(units) - set(layers))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in units.items() if name in layers}

    results = {
        "stamp": stamp(root, args.seed), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "ops_per_pass": n_ops, "latency_samples": len(latencies),
        "correct": correct, "attempted": checker.attempted, "failed": checker.failed,
        "failed_frac": checker.failed / max(checker.attempted, 1),
        "metrics": metrics, "absent": absent, "raw_untraced_medians": raw,
        "calibration_nominal_s": CAL_NOMINAL_S, "failure_notes": checker.notes,
    }
    report(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


def per_layer_names(root: Path) -> dict[str, str]:
    """Declared per-layer metrics and units, from BENCHMARK.json."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def report(results: dict) -> None:
    st = results["stamp"]
    print(f"relaygain bench  workload={results['workload']} seed={results['seed']} "
          f"trace={results['trace']} passes={results['passes']}")
    print(f"  python {st['python']}, nproc {st['nproc']}, cpu {st['cpu_model']}, "
          f"git {st['git_sha'] or 'n/a'}{' (dirty)' if st['dirty'] else ''}")
    print(f"  ops/pass {results['ops_per_pass']}, latency samples {results['latency_samples']}, "
          f"attempted {results['attempted']}, failed {results['failed']} "
          f"(failed_frac {results['failed_frac']:.6g})")
    for name, m in results["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    raw = results["raw_untraced_medians"]
    if raw:
        print(f"  unscaled: wall_s {raw['wall_s']:.6g} s, setup_s {raw['setup_s']:.6g} s, "
              f"calibration {raw['calibration_s'] * 1e3:.4g} ms "
              f"(times above are scaled to {results['calibration_nominal_s'] * 1e3:g} ms)")
    for name in results["absent"]:
        print(f"  {name:34s} absent (hook target missing)")
    for note in results["failure_notes"]:
        print(f"  FAILED: {note}")


if __name__ == "__main__":
    sys.exit(main())
