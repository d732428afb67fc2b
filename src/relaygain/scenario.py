"""Scenario file ingestion: JSON schema validation and model construction.

A scenario document carries exactly one of "gains"/"placement", an
"operating" point, and optionally "rate", "candidates" and "flows".
Everything is validated before any computation runs; field names are
lowercase snake_case throughout.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, NamedTuple

from .errors import ValidationError
from .model import Flow, LinkGains, OperatingPoint, RelayCandidate, _past_float_range

if TYPE_CHECKING:
    from .geometry import Placement

_TOP_KEYS = {"gains", "placement", "operating", "rate", "candidates", "flows"}
_FLOW_KEYS = {"source", "destination", "h_sd", "epsilon", "k", "rate", "candidates"}


class Scenario(NamedTuple):
    gains: LinkGains
    operating: OperatingPoint
    placement: Placement | None = None
    rate: float | None = None
    candidates: tuple[RelayCandidate, ...] = ()
    flows: tuple[Flow, ...] = ()


def _require_object(doc, name: str, keys: set[str]) -> dict:
    if not isinstance(doc, dict):
        raise ValidationError(f"{name} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - keys
    if unknown:
        # a key that is not printable, a newline say, is quoted to keep the message one line
        names = ", ".join(key if key.isprintable() else repr(key) for key in sorted(unknown))
        raise ValidationError(f"{name} has unknown keys: {names}")
    return doc


def _number(obj: dict, name: str, key: str) -> float:
    if key not in obj:
        raise ValidationError(f"{name} is missing '{key}'")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name}.{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise _past_float_range(f"{name}.{key}") from None


def _point(obj: dict, name: str, key: str) -> tuple[float, float]:
    value = obj.get(key)
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ValidationError(f"{name}.{key} must be a two-number array, got {value!r}")
    try:
        return float(value[0]), float(value[1])
    except OverflowError:
        raise _past_float_range(f"{name}.{key}") from None


def _parse_candidates(raw, name: str) -> tuple[RelayCandidate, ...]:
    if not isinstance(raw, list):
        raise ValidationError(f"{name} must be an array")
    out = []
    for i, item in enumerate(raw):
        obj = _require_object(item, f"{name}[{i}]", {"id", "h_sr", "h_rd"})
        ident = obj.get("id")
        if not isinstance(ident, str):
            raise ValidationError(f"{name}[{i}].id must be a string, got {ident!r}")
        out.append(RelayCandidate(ident, _number(obj, f"{name}[{i}]", "h_sr"),
                                  _number(obj, f"{name}[{i}]", "h_rd")))
    return tuple(out)


def _parse_flow(item, name: str) -> Flow:
    obj = _require_object(item, name, _FLOW_KEYS)
    for key in ("source", "destination"):
        if not isinstance(obj.get(key), str):
            raise ValidationError(f"{name}.{key} must be a string")
    rate = _number(obj, name, "rate") if "rate" in obj else None
    candidates = _parse_candidates(obj["candidates"], f"{name}.candidates") \
        if "candidates" in obj else ()
    return Flow(source=obj["source"], destination=obj["destination"],
                h_sd=_number(obj, name, "h_sd"), epsilon=_number(obj, name, "epsilon"),
                k=_number(obj, name, "k"), rate=rate, candidates=candidates)


def parse_scenario(doc) -> Scenario:
    """Validate a decoded scenario document and build the model objects."""
    top = _require_object(doc, "scenario", _TOP_KEYS)
    if ("gains" in top) == ("placement" in top):
        raise ValidationError("scenario needs exactly one of 'gains' or 'placement'")
    if "operating" not in top:
        raise ValidationError("scenario is missing 'operating'")

    placement = None
    if "gains" in top:
        g = _require_object(top["gains"], "gains", {"h12", "h13", "h23"})
        gains = LinkGains(_number(g, "gains", "h12"), _number(g, "gains", "h13"),
                          _number(g, "gains", "h23"))
    else:
        # only a placement document needs the geometry module
        from .geometry import Placement, gains_from_placement
        p = _require_object(top["placement"], "placement",
                            {"source", "destination", "relay", "eta"})
        placement = Placement(_point(p, "placement", "source"),
                              _point(p, "placement", "destination"),
                              _point(p, "placement", "relay"),
                              _number(p, "placement", "eta"))
        gains = gains_from_placement(placement)

    o = _require_object(top["operating"], "operating", {"epsilon", "k"})
    operating = OperatingPoint(_number(o, "operating", "epsilon"), _number(o, "operating", "k"))

    rate = _number(top, "scenario", "rate") if "rate" in top else None
    candidates = _parse_candidates(top["candidates"], "candidates") \
        if "candidates" in top else ()
    flows = ()
    if "flows" in top:
        if not isinstance(top["flows"], list) or not top["flows"]:
            raise ValidationError("flows must be a non-empty array")
        flows = tuple(_parse_flow(item, f"flows[{i}]") for i, item in enumerate(top["flows"]))
    return Scenario(gains=gains, operating=operating, placement=placement,
                    rate=rate, candidates=candidates, flows=flows)


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario JSON file; I/O errors propagate as OSError.

    A file that does not decode to a JSON document is a ValidationError
    naming the path: text that is not UTF-8, malformed JSON, an integer
    past int()'s digit limit, or nesting past the recursion limit.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"undecodable scenario {path}: {exc}") from exc
    return parse_scenario(doc)
