"""Seeded inputs and op lists of the four benchmark workloads.

Nothing here imports relaygain at module level: the worker times
`import relaygain.cli` before it loads this module's op builders.

Randomized workloads draw from fixed pools whose every instance has a
stored mpmath reference (see build_reference.py). A pool is ordered by
the input property that drives solver cost and cut into equal strata;
a seed draws one instance per stratum, so every seed gives different
inputs with the same cost profile, and run-to-run spread across seeds
stays small.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("readme_batch", "flow_batch", "energy_dual", "cli_queries")

FLOW_STRATA, FLOW_PER_STRATUM = 1500, 2
DEMAND_STRATA, DEMAND_PER_STRATUM = 800, 2
SCENARIO_POOL = 64
# cli_queries passes rotate over this many scenario sets, and a run makes
# at least this many passes, so a seed's accuracy covers all of them
CLI_SETS_PER_RUN = 16

# The README sweep commands and `verify --suite all`; readme_argv() adds
# the --out path in the temp directory that receives the CSVs.
README_SWEEPS = {
    "plane": ["sweep", "--kind", "plane_gain", "--x-min", "-1", "--x-max", "1", "--x-step", "0.01",
              "--y-min", "-0.75", "--y-max", "0.75", "--y-step", "0.01",
              "--epsilon", "0.01", "--k", "0.1", "--eta", "3"],
    "collinear_a": ["sweep", "--kind", "collinear_gain", "--d-min", "0.01", "--d-max", "0.99",
                    "--d-step", "0.001", "--epsilon", "0.01", "--k", "1", "--eta", "2"],
    "collinear_b": ["sweep", "--kind", "collinear_gain", "--d-min", "0.01", "--d-max", "0.99",
                    "--d-step", "0.001", "--epsilon", "0.1", "--k", "1", "--eta", "2"],
    "ratio": ["sweep", "--kind", "rate_ratio", "--k-min", "0.1", "--k-max", "10", "--k-step", "0.1",
              "--d", "0.5", "--epsilon", "0.01", "--eta", "3"],
    "resource": ["sweep", "--kind", "resource_ratio", "--d-min", "0.05", "--d-max", "0.95",
                 "--d-step", "0.01", "--epsilon", "0.01", "--k", "1", "--eta", "3", "--rate", "0.005"],
    "energy": ["sweep", "--kind", "energy_ratio", "--d-min", "0.05", "--d-max", "0.95",
               "--d-step", "0.01", "--k", "1", "--eta", "3", "--rate", "0.01"],
}
VERIFY_ARGV = ["verify", "--suite", "all"]

# (name, subcommand argv after the scenario flag, scenario file) per CLI query.
CLI_QUERIES = (
    ("gain", ["gain"], "gains"),
    ("energy", ["energy"], "gains"),
    ("resource", ["resource"], "gains"),
    ("bounds", ["bounds"], "gains"),
    ("placement", ["placement"], "placement"),
    ("select_rate", ["select", "--mode", "rate"], "flows"),
    ("select_resource", ["select", "--mode", "resource"], "flows"),
)
FORMATS = ("text", "json")


def readme_argv(name: str, out_dir: str) -> list[str]:
    return [*README_SWEEPS[name], "--out", f"{out_dir}/{name}.csv"]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _log_expm1(x: float) -> float:
    return x + math.log1p(-math.exp(-x)) if x > 30.0 else math.log(math.expm1(x))


def log_min_tern_estimate(h_first: float, h23: float, k: float, w: float, rate: float) -> float:
    """ln of the minimal TERN from the two binding user constraints, in plain floats.

    Used only to keep generated demands inside float range; the stored
    reference comes from mpmath. eps1(b) = b*expm1(R/b)/h_first falls and
    eps2(b) = (1-b)*expm1(w*R/(1-b))/(k*h23) rises in b; they cross once.
    """
    def gap(b: float) -> float:
        log1 = math.log(b) + _log_expm1(rate / b) - math.log(h_first)
        log2 = math.log1p(-b) + _log_expm1(w * rate / (1.0 - b)) - math.log(k * h23)
        return log1 - log2

    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi)
    return math.log(b) + _log_expm1(rate / b) - math.log(h_first)


# ---------------------------------------------------------------- flow_batch

def flow_instance(i: int) -> dict:
    """Flow i of the pool: 0-6 candidates, gains in [0.05, 20], eps in [1e-4, 1e2]."""
    rng = random.Random(f"flow:{i}")
    h_sd = _log_uniform(rng, 0.05, 20.0)
    eps = _log_uniform(rng, 1e-4, 1e2)
    k = _log_uniform(rng, 0.1, 10.0)
    # demanded rate as a share of the direct chord bound eps*h_sd:
    # deep-feasible at 1e-3, beyond the direct bound above 1
    rate = _log_uniform(rng, 1e-3, 4.0) * eps * h_sd
    candidates = [[f"c{j}", _log_uniform(rng, 0.05, 20.0), _log_uniform(rng, 0.05, 20.0)]
                  for j in range(rng.randint(0, 6))]
    return {"h_sd": h_sd, "epsilon": eps, "k": k, "rate": rate, "candidates": candidates}


def _stratified(pool: list, strata: int, per: int, key, seed: int) -> list[int]:
    order = sorted(range(len(pool)), key=lambda i: (key(pool[i]), i))
    rng = random.Random(seed)
    return [order[s * per + rng.randrange(per)] for s in range(strata)]


def flow_pool() -> list[dict]:
    return [flow_instance(i) for i in range(FLOW_STRATA * FLOW_PER_STRATUM)]


def flow_ids(seed: int, pool: list[dict]) -> list[int]:
    """Pool ids of the flows a seed draws, stratified by candidate count and rate share."""
    return _stratified(pool, FLOW_STRATA, FLOW_PER_STRATUM,
                       lambda f: (len(f["candidates"]), f["rate"] / (f["epsilon"] * f["h_sd"])),
                       seed)


_ERROR_PREFIXES = (
    ("no feasible option", "NoFeasibleOptionError"),
    ("dead link", "DeadLinkError"),
    ("no sign change", "NoSignChangeError"),
    ("no convergence", "IterationLimitError"),
)


def error_class(message: str) -> str:
    """Error class behind a FlowResult / CLI error message (messages carry no class)."""
    for prefix, name in _ERROR_PREFIXES:
        if message.startswith(prefix):
            return name
    if "is not servable" in message:
        return "InfeasibleRateError"
    return "RelayGainError"


def make_flow(spec: dict):
    from relaygain.selection import Flow, RelayCandidate
    return Flow(source="s", destination="d", h_sd=spec["h_sd"], epsilon=spec["epsilon"],
                k=spec["k"], rate=spec["rate"],
                candidates=tuple(RelayCandidate(c, sr, rd) for c, sr, rd in spec["candidates"]))


def flow_op(flow, mode: str) -> dict:
    """One flow_batch op: decide one flow in one mode, as a plain outcome dict."""
    from relaygain.selection import evaluate_network
    result = evaluate_network([flow], mode)[0]
    if result.decision is None:
        return {"error": error_class(result.error)}
    d = result.decision
    return {"protocol": d.protocol.value, "relay_id": d.relay_id,
            "criterion_value": d.criterion_value, "exact_gain": d.exact_gain,
            "advisory": d.high_tern_advisory}


# --------------------------------------------------------------- energy_dual

# Demands whose minimal TERN leaves [EPS_FLOOR, EPS_CEIL] are redrawn, so
# every demand stays well inside float range for both protocols.
EPS_FLOOR, EPS_CEIL = 1e-5, 1e120


def demand_instance(i: int) -> dict:
    """Demand i: gains and k log-uniform in [0.1, 10], base rate from 1e-4 to tens of nats."""
    rng = random.Random(f"demand:{i}")
    while True:
        gains = [_log_uniform(rng, 0.1, 10.0) for _ in range(3)]
        k = _log_uniform(rng, 0.1, 10.0)
        rate = _log_uniform(rng, 1e-4, 80.0)
        h12, h13, h23 = gains
        logs = (log_min_tern_estimate(h13, h23, k, k, rate),
                log_min_tern_estimate(h12, h23, k, k + 1.0, rate))
        if all(math.log(EPS_FLOOR) <= v <= math.log(EPS_CEIL) for v in logs):
            return {"gains": gains, "k": k, "rate": rate, "log_eps": max(logs)}


def demand_pool() -> list[dict]:
    return [demand_instance(i) for i in range(DEMAND_STRATA * DEMAND_PER_STRATUM)]


def demand_ids(seed: int, pool: list[dict]) -> list[int]:
    """Pool ids of the demands a seed draws, stratified by minimal TERN."""
    return _stratified(pool, DEMAND_STRATA, DEMAND_PER_STRATUM, lambda d: d["log_eps"], seed)


def energy_op(gains: list[float], k: float, rate: float) -> dict:
    """One energy_dual op: minimal TERN for NCP and CP and their ratio, the energy gain."""
    from relaygain import LinkGains, Protocol, RelayGainError, min_tern
    try:
        g = LinkGains(*gains)
        ncp = min_tern(Protocol.NCP, g, k, rate)
        cp = min_tern(Protocol.CP, g, k, rate)
    except RelayGainError as exc:
        return {"error": type(exc).__name__}
    return {"eps_ncp": ncp.epsilon_min, "beta_ncp": ncp.beta, "eps_cp": cp.epsilon_min,
            "beta_cp": cp.beta, "energy_gain": ncp.epsilon_min / cp.epsilon_min}


# --------------------------------------------------------------- cli_queries

def scenario_set(j: int) -> dict:
    """Scenario set j: a gains scenario, a placement scenario and a small flows file."""
    rng = random.Random(f"cli:{j}")
    while True:
        h12, h13, h23 = (_log_uniform(rng, 0.1, 10.0) for _ in range(3))
        eps = _log_uniform(rng, 1e-3, 1.0)
        k = _log_uniform(rng, 0.1, 10.0)
        # below both chord bounds, so `resource` serves both protocols
        bound = eps * min(min(h13, h23), min(h12, h23 * k / (k + 1.0)))
        rate = rng.uniform(0.05, 0.9) * bound
        logs = (log_min_tern_estimate(h13, h23, k, k, rate),
                log_min_tern_estimate(h12, h23, k, k + 1.0, rate))
        if max(logs) <= math.log(EPS_CEIL):
            break
    # candidate c0 is the scenario's own relay, so one option is always feasible
    candidates = [{"id": "c0", "h_sr": h12, "h_rd": h23}]
    candidates += [{"id": f"c{n}", "h_sr": _log_uniform(rng, 0.1, 10.0),
                    "h_rd": _log_uniform(rng, 0.1, 10.0)} for n in (1, 2)]
    operating = {"epsilon": eps, "k": k}
    gains_doc = {"gains": {"h12": h12, "h13": h13, "h23": h23}, "operating": operating,
                 "rate": rate, "candidates": candidates}
    while True:
        relay = [rng.uniform(-1.0, 1.0), rng.uniform(-0.75, 0.75)]
        if min(math.hypot(relay[0] + 0.5, relay[1]), math.hypot(relay[0] - 0.5, relay[1])) > 0.05:
            break
    placement_doc = {"placement": {"source": [-0.5, 0.0], "destination": [0.5, 0.0],
                                   "relay": relay, "eta": rng.uniform(2.0, 4.0)},
                     "operating": operating}
    flows = []
    for n in range(4):
        f = flow_instance(10 ** 6 + SCENARIO_POOL * n + j)
        flows.append({"source": f"s{n}", "destination": f"d{n}", "h_sd": f["h_sd"],
                      "epsilon": f["epsilon"], "k": f["k"], "rate": f["rate"],
                      "candidates": [{"id": c, "h_sr": sr, "h_rd": rd}
                                     for c, sr, rd in f["candidates"][:3]]})
    flows_doc = {"gains": gains_doc["gains"], "operating": operating, "flows": flows}
    return {"gains": gains_doc, "placement": placement_doc, "flows": flows_doc}


def scenario_ids(seed: int) -> list[int]:
    return random.Random(seed).sample(range(SCENARIO_POOL), CLI_SETS_PER_RUN)


def inputs(workload: str, seed: int) -> dict:
    """Every input a seed gives a workload, as plain JSON-serializable data."""
    if workload == "readme_batch":
        return {"sweeps": README_SWEEPS, "verify": VERIFY_ARGV}
    if workload == "flow_batch":
        pool = flow_pool()
        ids = flow_ids(seed, pool)
        return {"ids": ids, "flows": [pool[i] for i in ids]}
    if workload == "energy_dual":
        pool = demand_pool()
        ids = demand_ids(seed, pool)
        return {"ids": ids, "demands": [pool[i] for i in ids]}
    if workload == "cli_queries":
        ids = scenario_ids(seed)
        return {"ids": ids, "scenarios": [scenario_set(j) for j in ids]}
    raise ValueError(f"unknown workload {workload!r}")
