"""Self-tests of the benchmark itself (not collected by the repo's pytest run).

    PYTHONPATH=src python3 bench/selftest.py          # from the repo root

Covers: seeded inputs are byte-identical for one seed and differ across
seeds; the checker fails a result perturbed by 1e-6 relative; the tracer
survives a missing hook target, reports its metrics absent and restores
every wrapped entry point; deterministic per-layer counts repeat exactly
across two traced runs; and the benchmark refuses to run without the
library sources.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

PERTURB = 1.0 + 1e-6


def _inputs_bytes(workload: str, seed: int) -> bytes:
    return json.dumps(wl.inputs(workload, seed), sort_keys=True).encode()


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in wl.WORKLOADS:
            with self.subTest(workload=workload):
                first = _inputs_bytes(workload, 7)
                self.assertEqual(first, _inputs_bytes(workload, 7))
                if workload != "readme_batch":  # fixed README traffic ignores the seed
                    self.assertNotEqual(first, _inputs_bytes(workload, 8))

    def test_every_drawn_instance_has_a_reference(self):
        for workload, key, count in (("flow_batch", "flows", wl.FLOW_STRATA),
                                     ("energy_dual", "demands", wl.DEMAND_STRATA)):
            ref = check.load_reference(workload)
            ids = wl.inputs(workload, 3)["ids"]
            self.assertEqual(len(ids), count)
            self.assertEqual(len(set(ids)), count)
            self.assertTrue(all(0 <= i < len(ref[key]) for i in ids))


def _exact(entry: dict) -> dict:
    """An outcome dict that reproduces a reference entry exactly."""
    out = {k: v for k, v in entry.items() if k != "num"}
    out.update({k: None if v is None else float(v) for k, v in entry["num"].items()})
    return out


class CheckerCatchesPerturbation(unittest.TestCase):
    def test_energy_outcome(self):
        entry = check.load_reference("energy_dual")["demands"][0]
        got = _exact(entry)
        self.assertTrue(check.Checker().outcome(got, entry))
        for key in entry["num"]:
            bad = dict(got, **{key: got[key] * PERTURB})
            self.assertFalse(check.Checker().outcome(bad, entry), key)

    def test_flow_outcome(self):
        flows = check.load_reference("flow_batch")["flows"]
        entry = next(f["rate"] for f in flows if f["rate"].get("num", {}).get("exact_gain"))
        got = _exact(entry)
        self.assertTrue(check.Checker().outcome(got, entry))
        bad = dict(got, exact_gain=got["exact_gain"] * PERTURB)
        self.assertFalse(check.Checker().outcome(bad, entry))

    def test_cli_leaf_and_digits(self):
        entry = check.load_reference("cli_queries")["sets"][0]["gain"]
        value = next(iter(entry["num"].values()))
        checker = check.Checker()
        self.assertTrue(checker.close(float(value), value))
        self.assertGreater(checker.digits, 15.0)
        self.assertFalse(checker.close(float(value) * PERTURB, value))
        self.assertLess(checker.digits, 6.1)


class TracerRobustness(unittest.TestCase):
    def test_install_restore_is_exact(self):
        import relaygain.cli  # noqa: F401
        import relaygain.rootfind as rootfind
        import relaygain.verify as verify
        before = [spans._Slot(module, path).original for _, module, path, _ in spans._targets()]
        scan, duality = vars(rootfind.Bracket)["scan"], verify._SUITES["duality"]
        tracer = spans.Tracer()
        tracer.install()
        self.assertEqual(tracer.missing, [])
        self.assertIsNot(vars(rootfind.Bracket)["scan"], scan)
        tracer.restore()
        after = [spans._Slot(module, path).original for _, module, path, _ in spans._targets()]
        self.assertEqual(len(before), len(after))
        for a, b in zip(before, after):
            self.assertIs(a, b)
        self.assertIs(vars(rootfind.Bracket)["scan"], scan)
        self.assertIs(verify._SUITES["duality"], duality)

    def test_untraced_pass_installs_nothing(self):
        import worker
        before = [spans._Slot(module, path).original for _, module, path, _ in spans._targets()]
        seen = []
        demands = wl.inputs("energy_dual", 1)["demands"][:3]
        original_op = wl.energy_op

        def probe(*args):
            seen.append([spans._Slot(m, p).original for _, m, p, _ in spans._targets()])
            return original_op(*args)

        wl.energy_op = probe
        try:
            worker.run_energy({"demands": demands}, None, None, 0, worker.Gauge())
        finally:
            wl.energy_op = original_op
        self.assertEqual(len(seen), 3)
        for snapshot in seen:
            self.assertTrue(all(a is b for a, b in zip(before, snapshot)))

    def test_missing_target_is_absent_not_fatal(self):
        import relaygain.cli as cli
        original = cli.load_scenario
        del cli.load_scenario
        try:
            tracer = spans.Tracer()
            tracer.install()
            tracer.restore()
        finally:
            cli.load_scenario = original
        self.assertEqual(tracer.missing, ["scenario.load"])
        self.assertIs(cli.load_scenario, original)
        metrics = spans.layer_metrics(spans.aggregate([{"spans": tracer.spans,
                                                        "missing": tracer.missing}]))
        self.assertNotIn("scenario.load_us", metrics)
        self.assertIn("rootfind.evals", metrics)

    def test_counts_evals_and_nesting(self):
        import relaygain
        tracer = spans.Tracer()
        tracer.install()
        try:
            relaygain.min_tern(relaygain.Protocol.CP, relaygain.LinkGains(1.0, 1.0, 1.0), 1.0, 0.5)
        finally:
            tracer.restore()
        m = spans.layer_metrics(spans.aggregate([{"spans": tracer.spans, "missing": []}]))
        self.assertEqual(m["energy.min_tern_calls"], 1)
        self.assertGreater(m["energy.allocs_per_min_tern"], 10)
        self.assertEqual(m["rootfind.evals"], m["energy.evals_per_min_tern"])
        self.assertEqual(m["model.rate_evals_computed"], 2 * m["rootfind.evals"])


class TracedCountsRepeat(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        for workload in ("flow_batch", "energy_dual", "cli_queries"):
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    proc = _run_bench("--workload", workload, "--seed", "5", "--seconds", "0",
                                      "--trace", "1")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertTrue(result["correct"])
                    runs.append(result["metrics"])
                counts = [name for name in spans.COUNT_METRICS if name in runs[0]]
                self.assertEqual(len(counts), len(spans.COUNT_METRICS))
                for name in counts:
                    self.assertEqual(runs[0][name]["value"], runs[1][name]["value"], name)


class RefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = _run_bench("--workload", "flow_batch", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
