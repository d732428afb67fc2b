"""One pass of one workload in a fresh process; started by run.py.

    python3 bench/worker.py WORKLOAD INPUTS_JSON TMP_DIR TRACE PASS RESULT_JSON

Times `import relaygain.cli` first (the set-up time), then runs the
workload's op list once as a closed loop with a single client, and
writes per-op outcomes and latencies to RESULT_JSON, together with the
times of a fixed calibration loop sampled around the import and before,
between chunks of and after the ops. With TRACE=1 the span wrappers are
installed for the loop only and the spans are written to TMP_DIR when
the pass ends.
"""

import math
import time


def calibrate() -> float:
    """Seconds for a fixed pure-Python bisection loop, a gauge of this machine's speed now.

    It exercises what relaygain's solvers do (closures, float arithmetic,
    math.log1p) but none of their code, so no library change moves it.
    The best of two runs discards a single preemption.
    """
    best = math.inf
    for _ in range(2):
        t = time.perf_counter()
        for i in range(300):
            c = 0.01 + i * 1e-3

            def f(b):
                return 2.0 * b * math.log1p(c / b) - (1.0 - b) * math.log1p(c / (1.0 - b))

            lo, hi = 1e-15, 1.0 - 1e-15
            for _ in range(48):
                mid = 0.5 * (lo + hi)
                if f(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
        best = min(best, time.perf_counter() - t)
    return best


# the import is timed in a fresh process and bracketed by two calibration samples
_CAL_BEFORE = calibrate()
_t0 = time.perf_counter()
import relaygain.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0
SETUP_CALIBRATION_S = [_CAL_BEFORE, calibrate()]

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60


class Gauge:
    """Splits a pass into chunks of ops and samples calibrate() between them.

    chunk_s[i] is the time of chunk i, which ran between calibration
    samples[i] and samples[i+1]; inner[i] holds samples taken during the
    chunk by sampling(). Sampling time lies in no chunk and no latency.
    Each op records the chunk it ran in, so its latency can be scaled by
    the machine speed measured around it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.chunk_s: list[float] = []
        self.inner: list[list[float]] = []
        self.paused = 0.0
        self._start = 0.0

    def mark(self) -> None:
        if self.samples:
            self.chunk_s.append(time.perf_counter() - self._start - self.paused)
        self.samples.append(calibrate())
        self.inner.append([])
        self.paused = 0.0
        self._start = time.perf_counter()

    @property
    def chunk(self) -> int:
        return len(self.samples) - 1

    @contextlib.contextmanager
    def sampling(self, interval_s: float):
        """Also sample every interval_s while one long op runs (from a SIGALRM handler)."""
        def handler(signum, frame):
            t = time.perf_counter()
            self.inner[-1].append(calibrate())
            self.paused += time.perf_counter() - t

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


GAUGES_PER_PASS = 10


@contextlib.contextmanager
def _maybe_span(tracer, name):
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield


def _timed(gauge: Gauge, latencies: list, op, *args, **kwargs):
    paused, t = gauge.paused, time.perf_counter()
    result = op(*args, **kwargs)
    latencies.append([time.perf_counter() - t - (gauge.paused - paused), gauge.chunk])
    return result


# The plane sweep alone runs ~2 s, long enough for the machine's speed to
# change inside it, so untraced readme_batch passes also sample during
# each command. Traced passes do not, so that no span contains a sample.
README_SAMPLE_INTERVAL_S = 0.05


def run_readme(inputs, tmp, tracer, index, gauge):
    main = relaygain.cli.main
    out_dir = Path(tmp) / "csv"
    out_dir.mkdir(exist_ok=True)
    exits, latencies = {}, []
    buf = io.StringIO()

    def sampling():
        if tracer is None:
            return gauge.sampling(README_SAMPLE_INTERVAL_S)
        return contextlib.nullcontext()

    gauge.mark()
    for name in inputs["sweeps"]:
        with _maybe_span(tracer, "cli.main.sweep"), sampling():
            exits[name] = _timed(gauge, latencies, main, wl.readme_argv(name, str(out_dir)))
        gauge.mark()
    with _maybe_span(tracer, "cli.main.verify"), contextlib.redirect_stdout(buf), sampling():
        exits["verify"] = _timed(gauge, latencies, main, inputs["verify"])
    gauge.mark()
    return {"latency_s": latencies, "exits": exits, "verify_stdout": buf.getvalue(),
            "out_dir": str(out_dir)}


def run_flows(inputs, tmp, tracer, index, gauge):
    flows = [wl.make_flow(spec) for spec in inputs["flows"]]
    chunk = -(-len(flows) // GAUGES_PER_PASS)
    outputs, latencies = [], []
    gauge.mark()
    for i, flow in enumerate(flows):
        if i and i % chunk == 0:
            gauge.mark()
        outputs.append([_timed(gauge, latencies, wl.flow_op, flow, mode)
                        for mode in ("rate", "resource")])
    gauge.mark()
    return {"latency_s": latencies, "outputs": outputs}


def run_energy(inputs, tmp, tracer, index, gauge):
    chunk = -(-len(inputs["demands"]) // GAUGES_PER_PASS)
    outputs, latencies = [], []
    gauge.mark()
    for i, d in enumerate(inputs["demands"]):
        if i and i % chunk == 0:
            gauge.mark()
        outputs.append(_timed(gauge, latencies, wl.energy_op, d["gains"], d["k"], d["rate"]))
    gauge.mark()
    return {"latency_s": latencies, "outputs": outputs}


def run_cli(inputs, tmp, tracer, index, gauge):
    prefix = f"{tmp}/s{index % len(inputs['ids'])}"
    outputs, latencies = [], []
    spawner = subprocess.Popen([sys.executable, "-S", str(BENCH_DIR / "spawner.py")],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        gauge.mark()
        for kind, argv, file in wl.CLI_QUERIES:
            for fmt in wl.FORMATS:
                cli_argv = [argv[0], "--scenario", f"{prefix}-{file}.json", *argv[1:],
                            "--format", fmt]
                if tracer is None:
                    cmd = [sys.executable, "-m", "relaygain.cli", *cli_argv]
                else:
                    spans_file = f"{tmp}/spans-{os.getpid()}-{kind}-{fmt}.json"
                    cmd = [sys.executable, str(BENCH_DIR / "clihook.py"), spans_file, kind,
                           *cli_argv]
                spawner.stdin.write(json.dumps(cmd) + "\n")
                spawner.stdin.flush()
                code, stdout, seconds = json.loads(spawner.stdout.readline())
                latencies.append([seconds, gauge.chunk])
                outputs.append([kind, fmt, code, stdout])
                gauge.mark()
        spawner.stdin.write("\n")
        spawner.stdin.flush()
        child_rss = json.loads(spawner.stdout.readline())
    finally:
        spawner.stdin.close()
        spawner.wait(timeout=CHILD_TIMEOUT_S)
    return {"latency_s": latencies, "outputs": outputs, "child_rss_mb": child_rss}


def peak_rss_mb() -> float:
    """Peak RSS of this process image (VmHWM).

    ru_maxrss is not used for the worker: Linux carries the spawning
    process's peak across exec into it, so it would read run.py's memory.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


RUNNERS = {"readme_batch": run_readme, "flow_batch": run_flows,
           "energy_dual": run_energy, "cli_queries": run_cli}


def interpreter_start_s(samples: int = 5) -> list[float]:
    """Wall time of a bare `python -c pass`, the floor under every CLI query."""
    out = []
    for _ in range(samples):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CHILD_TIMEOUT_S)
        out.append(time.perf_counter() - t)
    return out


def main(argv):
    workload, inputs_path, tmp, trace, index, result_path = argv
    with open(inputs_path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    gauge = Gauge()
    tracer = None
    if trace == "1":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    try:
        result = RUNNERS[workload](inputs, tmp, tracer, int(index), gauge)
    finally:
        if tracer is not None:
            tracer.restore()
    result["calibration_s"] = gauge.samples
    result["inner_calibration_s"] = gauge.inner[:-1]
    result["chunk_s"] = gauge.chunk_s
    result["rss_mb"] = peak_rss_mb()
    result["setup_s"] = SETUP_S
    result["setup_calibration_s"] = SETUP_CALIBRATION_S
    if tracer is not None:
        tracer.dump(f"{tmp}/spans-{os.getpid()}.json")
        result["interpreter_s"] = interpreter_start_s()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
