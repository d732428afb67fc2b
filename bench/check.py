"""Checks of workload outputs against the stored reference.

A numeric output fails when its relative error against the mpmath value
exceeds REL_TOL; discrete outputs (protocol, relay, flags, error class,
verify status) must match exactly. `Checker.digits` tracks the least
number of accurate digits seen, -log10 of the worst relative error,
capped at MAX_DIGITS when a value is exact to double precision.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import re
from decimal import Decimal, localcontext
from pathlib import Path

from workloads import error_class

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REL_TOL = 1e-7
MAX_DIGITS = 17.0
TEXT_REL_TOL = 1e-11  # text prints 12 significant digits


def load_reference(workload: str) -> dict:
    with gzip.open(REFERENCE_DIR / f"{workload}.json.gz", "rt", encoding="utf-8") as handle:
        return json.load(handle)


def sha256_file(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Checker:
    """Accumulates op outcomes and the worst relative error of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digits = MAX_DIGITS
        self.notes: list[str] = []

    def op(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)

    def close(self, value, ref: str | None) -> bool:
        """Numeric value against an mpmath reference string (None means absent)."""
        if ref is None or value is None:
            return ref is None and value is None
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            return False
        with localcontext() as ctx:
            ctx.prec = 40
            exact = Decimal(ref)
            if exact == 0:
                err = 0.0 if value == 0.0 else math.inf
            else:
                err = float(abs(Decimal(value) - exact) / abs(exact))
        digits = MAX_DIGITS if err <= 10.0 ** -MAX_DIGITS else -math.log10(err)
        self.digits = min(self.digits, digits)
        return err <= REL_TOL

    def outcome(self, got, ref: dict) -> bool:
        """A decision or result dict against its reference entry.

        `ref` holds "error" (an error class) or the discrete keys and, under
        "num", the numeric keys as mpmath strings.
        """
        if "error" in ref:
            return isinstance(got, dict) and got.get("error") == ref["error"]
        if not isinstance(got, dict) or "error" in got:
            return False
        ok = all(got.get(key) == value for key, value in ref.items() if key != "num")
        for key, value in ref.get("num", {}).items():
            ok &= self.close(got.get(key), value)
        return ok


# ------------------------------------------------------------ per workload

def check_flow_pass(checker: Checker, ref: dict, ids: list[int], outputs: list) -> None:
    """outputs[i] = [rate_outcome, resource_outcome] for flow ids[i]."""
    if len(outputs) != len(ids):
        checker.op(False, f"flow_batch: {len(outputs)} outputs for {len(ids)} flows")
        return
    for fid, pair in zip(ids, outputs):
        entry = ref["flows"][fid]
        for mode, got in zip(("rate", "resource"), pair):
            checker.op(checker.outcome(got, entry[mode]), f"flow {fid} {mode}: {got}")


def check_energy_pass(checker: Checker, ref: dict, ids: list[int], outputs: list) -> None:
    if len(outputs) != len(ids):
        checker.op(False, f"energy_dual: {len(outputs)} outputs for {len(ids)} demands")
        return
    for did, got in zip(ids, outputs):
        checker.op(checker.outcome(got, ref["demands"][did]), f"demand {did}: {got}")


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def check_readme_pass(checker: Checker, ref: dict, out_dir: str, exits: dict,
                      verify_stdout: str) -> int:
    """Check the six CSVs and the verify lines; returns the number of CSVs whose bytes changed."""
    changed = 0
    for name, spec in ref["csv"].items():
        path = Path(out_dir) / f"{name}.csv"
        if exits.get(name) != 0 or not path.exists():
            for _ in range(spec["rows"]):
                checker.op(False)
            checker.notes.append(f"{name}: exit {exits.get(name)}")
            continue
        if sha256_file(path) != spec["sha256"]:
            changed += 1
        rows = _csv_rows(path)
        header, body = rows[0], rows[1:]
        if header != spec["header"] or len(body) != spec["rows"]:
            for _ in range(spec["rows"]):
                checker.op(False)
            checker.notes.append(f"{name}: header or row count differs")
            continue
        flags = [(r[-2], r[-1]) for r in body]
        flag_ok = (sum(f[0] == "false" for f in flags) == spec["infeasible"]
                   and sum(f[1] == "true" for f in flags) == spec["degenerate"])
        checked = {}
        for index, expected in spec["checked"].items():
            row = dict(zip(header, body[int(index)]))
            ok = True
            for col, value in expected.items():
                if col in ("feasible", "degenerate", "ncp_feasible", "cp_feasible"):
                    ok &= row[col] == value
                elif value is None:
                    ok &= row[col] == ""
                else:
                    ok &= checker.close(float(row[col]) if row[col] else None, value)
            checked[int(index)] = ok
        for i in range(spec["rows"]):
            ok = checked.get(i, True) and flag_ok
            checker.op(ok, f"{name} row {i}" if not ok else "")
    lines = verify_stdout.splitlines()
    got = [line.split()[:2] for line in lines[:-1]]
    for i, expected in enumerate(ref["verify"]["lines"]):
        ok = i < len(got) and got[i] == expected
        checker.op(ok, f"verify line {i}: {got[i] if i < len(got) else None}")
    if exits.get("verify") != ref["verify"]["exit"] or len(got) != len(ref["verify"]["lines"]):
        checker.op(False, f"verify exit {exits.get('verify')} with {len(got)} lines")
    return changed


def flatten(doc, prefix: str = "") -> dict:
    """Nested JSON to {dotted.path: leaf}."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            out.update(flatten(value, f"{prefix}{key}."))
        return out
    if isinstance(doc, list):
        out = {}
        for i, value in enumerate(doc):
            out.update(flatten(value, f"{prefix}{i}."))
        return out
    return {prefix[:-1]: doc}


_NUMBER = re.compile(r"=(-?[0-9][0-9.e+-]*)")


def check_cli_query(checker: Checker, ref: dict, code: int, text_out: str,
                    json_code: int, json_out: str) -> tuple[bool, bool]:
    """One query kind run in text and in json format; returns (text_ok, json_ok)."""
    json_ok = json_code == ref["exit"]
    leaves = {}
    if json_ok and ref["exit"] == 0:
        try:
            leaves = flatten(json.loads(json_out))
        except json.JSONDecodeError:
            json_ok = False
        else:
            json_ok = set(leaves) == set(ref["discrete"]) | set(ref["num"])
            for path, value in ref["discrete"].items():
                got = leaves.get(path)
                if isinstance(value, str) and value.startswith("!"):
                    json_ok &= isinstance(got, str) and error_class(got) == value[1:]
                else:
                    json_ok &= got == value
            for path, value in ref["num"].items():
                json_ok &= checker.close(leaves.get(path), value)
    text_ok = code == ref["exit"]
    if text_ok and ref["exit"] == 0:
        lines = text_out.splitlines()
        text_ok = len(lines) == ref["text_lines"]
        numbers = [v for v in leaves.values() if isinstance(v, float) and not isinstance(v, bool)]
        for token in _NUMBER.findall(text_out):
            value = float(token)
            text_ok &= any(abs(value - n) <= TEXT_REL_TOL * abs(n) or value == n for n in numbers)
    return text_ok, json_ok
