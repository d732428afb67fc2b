"""A seeded fuzz of the CLI's main(argv), in process: no input reaches exit 1.

Each case mutates a README scenario document or a README sweep command:
extreme, subnormal and huge-integer numbers, the NaN and Infinity
literals, values of the wrong type, unknown keys, deep nesting, bytes
that are not UTF-8, reversed grids and grids with tiny steps. Every case must return
0, 2, 3 or 4 without an exception escaping main(), and a failing case
must print exactly one stderr line, starting with "error:"; a passing
one prints nothing there, and with --format json prints strict JSON on
stdout, without the NaN or Infinity literals. (`verify` exits 1 when a check fails; it takes
no input a case could mutate, so no case runs it.)

The sweep commands are the README's with coarser steps, so that a case
whose grid is accepted solves tens of points, not thousands. No mutated
value can make a large accepted grid: every number a flag can take is at
most 2 in magnitude, or so extreme that its grid is rejected or its
points are degenerate.
"""

import copy
import json
import random

import pytest

from relaygain.cli import main

README_GAINS = {"gains": {"h12": 8.0, "h13": 1.0, "h23": 8.0},
                "operating": {"epsilon": 0.01, "k": 1.0},
                "rate": 0.005,
                "candidates": [{"id": "u2", "h_sr": 8.0, "h_rd": 8.0}]}
README_PLACEMENT = {"placement": {"source": [-0.5, 0], "destination": [0.5, 0],
                                  "relay": [0.1, 0.2], "eta": 3},
                    "operating": {"epsilon": 0.01, "k": 1.0},
                    "rate": 0.005}
README_FLOWS = {"gains": {"h12": 1.0, "h13": 1.0, "h23": 1.0},
                "operating": {"epsilon": 1.0, "k": 1.0},
                "flows": [{"source": "u1", "destination": "u3", "h_sd": 1.0, "epsilon": 0.5,
                           "k": 1.0, "rate": 0.1,
                           "candidates": [{"id": "u2", "h_sr": 8.0, "h_rd": 8.0}]},
                          {"source": "u2", "destination": "u4", "h_sd": 2.0, "epsilon": 1e-3,
                           "k": 3.0, "rate": 0.001}]}
SCENARIOS = (README_GAINS, README_PLACEMENT, README_FLOWS)
SUBCOMMANDS = (["gain"], ["energy"], ["resource"], ["bounds"], ["placement"], ["select"],
               ["select", "--mode", "resource"])

# The README sweeps, each axis with at most 15 points
SWEEPS = (
    ("plane_gain", {"x_min": "-1", "x_max": "1", "x_step": "0.25", "y_min": "-0.75",
                    "y_max": "0.75", "y_step": "0.25", "epsilon": "0.01", "k": "0.1",
                    "eta": "3"}),
    ("collinear_gain", {"d_min": "0.01", "d_max": "0.99", "d_step": "0.07",
                        "epsilon": "0.01", "k": "1", "eta": "2"}),
    ("collinear_gain", {"d_min": "0.01", "d_max": "0.99", "d_step": "0.07",
                        "epsilon": "0.1", "k": "1", "eta": "2"}),
    ("rate_ratio", {"k_min": "0.1", "k_max": "10", "k_step": "1.1", "d": "0.5",
                    "epsilon": "0.01", "eta": "3"}),
    ("resource_ratio", {"d_min": "0.05", "d_max": "0.95", "d_step": "0.1", "epsilon": "0.01",
                        "k": "1", "eta": "3", "rate": "0.005"}),
    ("energy_ratio", {"d_min": "0.05", "d_max": "0.95", "d_step": "0.1", "k": "1",
                      "eta": "3", "rate": "0.01"}),
)
SWEEP_FLAGS = sorted({name for _, params in SWEEPS for name in params})

# Numbers as float() reads them from a flag: extreme, subnormal, special and small
FLAG_NUMBERS = ("0", "-0.0", "1", "-1", "2", "0.5", "1e-310", "5e-324", "-5e-324",
                "2.2250738585072014e-308", "1e-300", "1e300", "-1e300",
                "1.7976931348623157e308", "1" + "0" * 400, "1e-400", "nan", "NaN", "inf",
                "-inf", "Infinity", "-Infinity")
TINY_STEPS = ("1e-310", "5e-324", "1e-300", "2.2250738585072014e-308")

# JSON values a document leaf can take; RAW entries are spliced in as text
DEEP = "[" * 100_000 + "]" * 100_000
RAW = {"@deep@": DEEP, "@digits@": "1" + "0" * 5000}
JSON_VALUES = (0, -0.0, -1, 2, 1e-320, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
               1e300, 1.7976931348623157e308, 1e200, 1e-200, 10 ** 400, -10 ** 400,
               float("nan"), float("inf"), float("-inf"), True, None, "1.0", "", [], {},
               [1.0], [1.0, 2.0, 3.0], {"h12": 1.0}, [[[[[[1.0]]]]]], "@deep@", "@digits@")
UNKNOWN_KEYS = ("extra", "a\nb", "\r", "\u2028", "\x00")

# The exit-1 classes an earlier fuzz found, one input each, and the error each now prints
FIXED = {
    "reversed tiny-step grid": (
        ["sweep", "--kind", "rate_ratio", "--k-min=2", "--k-max=1", "--k-step=1e-310",
         "--d=0.5", "--epsilon=0.01", "--eta=3"], None,
        "error: empty grid: step 1e-310 exceeds range [2.0, 1.0]\n"),
    # both NCP endpoint chords underflow to 0; the high-TERN pair is (0, 0), and the
    # low-TERN pair after it raises
    "underflowing chords": (
        ["bounds"], {"gains": {"h12": 1, "h13": 1e-10, "h23": 1e-10},
                     "operating": {"epsilon": 1e-320, "k": 1e200}},
        "error: low-TERN bound undefined: the parabola slope at eps=1e-320 underflows to 0\n"),
    "subnormal rate": (
        ["energy"], {"gains": {"h12": 1, "h13": 100, "h23": 1},
                     "operating": {"epsilon": 1, "k": 1}, "rate": 5e-324},
        "error: NCP: the share for rate 5e-324 underflows to 0\n"),
}
# The inputs that printed a line break into a message or a value outside JSON, and
# the error each now prints
FIXED.update({
    "candidate id with a newline": (
        ["select", "--mode", "resource"],
        {"gains": {"h12": 1, "h13": 1, "h23": 1}, "operating": {"epsilon": 0.01, "k": 1},
         "rate": 5, "candidates": [{"id": "a\nb", "h_sr": 2, "h_rd": 2}]},
        "error: candidate id must be printable, got 'a\\nb'\n"),
    "flow source with a newline": (
        ["select"], {**README_FLOWS, "flows": [{**README_FLOWS["flows"][0], "source": "x\ny"}]},
        "error: flow source must be a printable string, got 'x\\ny'\n"),
    "energy gain past the float range": (
        ["energy", "--format", "json"],
        {"gains": {"h12": 1e200, "h13": 1e-200, "h23": 1e200},
         "operating": {"epsilon": 1, "k": 1}, "rate": 1e-3},
        "error: energy_gain at rate 0.001 lies outside the float range: NCP epsilon_min "
        "1.000500167247597e+197 over CP epsilon_min 2.0020029270953716e-203\n"),
    # the chords pass float_info.max * (1 - _BETA_HI), where log1p(chord/b)
    # overflows at a clamped end of the share bracket
    "chord past the share limit": (
        ["gain", "--format", "json"], {**README_PLACEMENT, "operating": {"epsilon": 1e300, "k": 1}},
        "error: chords 1e+300 and 1.1180339887498947e+301 must lie below "
        "1.7962562785812475e+293, where the share residual overflows at the clamped ends\n"),
})
# A zero gain, given or underflowed from d^-eta, is rejected with the gains; it exited
# 3 as a dead link. The peak gain (1 + c**(1/eta))**eta overflowed past eta ~ 1025 and
# exited 1, though all three gains of this placement are 1.
FIXED.update({
    "zero gain": (
        ["gain"], {**README_GAINS, "gains": {"h12": 8.0, "h13": 0.0, "h23": 8.0}},
        "error: h13 must be > 0, got 0.0\n"),
    "underflowing placement gain": (
        ["placement"],
        {**README_PLACEMENT, "placement": {**README_PLACEMENT["placement"], "relay": [0, 10],
                                           "eta": 400}},
        "error: h12 must be > 0, got 0.0\n"),
    "peak gain past the float range": (
        ["placement"],
        {"placement": {"source": [-0.5, 0], "destination": [0.5, 0],
                       "relay": [0, 0.8660254037844386], "eta": 1030},
         "operating": {"epsilon": 0.05, "k": 1}},
        "error: peak gain at eta=1030.0 lies outside the float range\n"),
})


def leaf_paths(doc, path=()):
    """Every path to a value inside doc, containers included, doc itself excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, (*path, key))


def mutate_document(rng: random.Random, doc) -> bytes:
    """doc with one to three values replaced or removed, as the bytes of a file."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        paths = list(leaf_paths(doc))
        if not paths:
            break
        *parent_path, key = rng.choice(paths)
        parent = doc
        for step in parent_path:
            parent = parent[step]
        roll = rng.random()
        if roll < 0.15:
            del parent[key]
        elif roll < 0.2 and isinstance(parent, dict):
            parent[rng.choice(UNKNOWN_KEYS)] = 1.0
        else:
            parent[key] = copy.deepcopy(rng.choice(JSON_VALUES))
    text = json.dumps(doc)
    for token, raw in RAW.items():
        text = text.replace(json.dumps(token), raw)
    data = text.encode("utf-8")
    roll = rng.random()
    if roll < 0.05:
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice((b"\xff", b"\xc3", b"\xed\xa0\x80")) + data[at:]
    elif roll < 0.08:
        data = data[:rng.randrange(len(data))]
    return data


def mutate_sweep(rng: random.Random, kind: str, params: dict) -> list[str]:
    """A sweep argv with one to three flags changed, dropped or added."""
    params = dict(params)
    axes = sorted({name[:-4] for name in params if name.endswith("_min")})
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        lo, hi = (f"{rng.choice(axes)}_{end}" for end in ("min", "max"))
        if roll < 0.15 and lo in params and hi in params:
            params[lo], params[hi] = params[hi], params[lo]
        elif roll < 0.3:
            params[f"{rng.choice(axes)}_step"] = rng.choice(TINY_STEPS)
        elif roll < 0.38:
            params.pop(rng.choice(sorted(params)), None)
        elif roll < 0.46:
            params[rng.choice(SWEEP_FLAGS)] = rng.choice(("0.5", "1", "0.1"))
        else:
            params[rng.choice(sorted(params))] = rng.choice(FLAG_NUMBERS)
    # --flag=value, since argparse reads "-1e-310" after a space as an option
    return ["--kind", kind, *(f"--{name.replace('_', '-')}={value}"
                              for name, value in params.items())]


def strict_json(text: str):
    """json.loads that rejects the NaN and Infinity literals, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def outcome_problem(argv, capsys) -> str | None:
    """Run main(argv); what breaks the exit-code contract, or None."""
    try:
        code = main(argv)
    except Exception as exc:  # the contract: nothing escapes main
        return f"{exc!r} escaped main"
    out, err = capsys.readouterr()
    if code not in (0, 2, 3, 4):
        return f"exit {code!r}, stderr {err!r}"
    if code and not (err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")):
        return f"exit {code}, stderr not one error line: {err!r}"
    if not code and err:
        return f"exit 0 with stderr {err!r}"
    if not code and argv[-2:] == ["--format", "json"]:
        try:
            strict_json(out)
        except ValueError as exc:
            return f"exit 0, stdout not JSON: {exc}"
    return None


def run_scenario(tmp_path, capsys, argv, data: bytes, fmt: str) -> str | None:
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    return outcome_problem([*argv, "--scenario", str(path), "--format", fmt], capsys)


def run_sweep(tmp_path, capsys, args: list[str]) -> str | None:
    return outcome_problem(["sweep", *args, "--out", str(tmp_path / "out.csv")], capsys)


def report(failures):
    return "\n".join(f"{case}: {problem}" for case, problem in failures[:5])


@pytest.mark.parametrize("case", FIXED)
def test_fixed_cases_exit_2(tmp_path, capsys, case):
    argv, doc, err = FIXED[case]
    if doc is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        argv = [*argv, "--scenario", str(path)]
    else:
        argv = [*argv, "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)


def test_seeded_scenarios_keep_the_exit_contract(tmp_path, capsys):
    rng = random.Random(20260)
    failures = []
    for i in range(600):
        doc = rng.choice(SCENARIOS)
        argv = rng.choice(SUBCOMMANDS)
        data = mutate_document(rng, doc)
        problem = run_scenario(tmp_path, capsys, argv, data, rng.choice(("text", "json")))
        if problem:
            failures.append(((i, argv, data[:300]), problem))
    assert not failures, report(failures)


def test_seeded_sweeps_keep_the_exit_contract(tmp_path, capsys):
    rng = random.Random(20261)
    failures = []
    for i in range(400):
        args = mutate_sweep(rng, *rng.choice(SWEEPS))
        problem = run_sweep(tmp_path, capsys, args)
        if problem:
            failures.append(((i, args), problem))
    assert not failures, report(failures)
