"""The public records: immutable named tuples with pinned fields and defaults."""

import pytest

import relaygain
from relaygain import Allocation, Protocol, SelectionDecision, ValidationError
from relaygain.rootfind import Bracket

_NCP = Allocation(Protocol.NCP, 0.9, 0.4, 0.2, 0.6)
_CP = Allocation(Protocol.CP, 0.1, 0.3, 0.15, 0.45)

# name: (fields in order, which is the CLI's JSON key order; the required fields
# by keyword; the declared defaults)
RECORDS = {
    "Allocation": (["protocol", "beta", "base_rate", "rate2", "sum_rate"],
                   {"protocol": Protocol.NCP, "beta": 0.9, "base_rate": 0.4, "rate2": 0.2,
                    "sum_rate": 0.6}, {}),
    "BoundPair": (["lower", "upper", "beta_at_bound", "degenerate"],
                  {"lower": 0.1, "upper": 0.2}, {"beta_at_bound": None, "degenerate": False}),
    "Bracket": (["lo", "hi", "f_lo", "f_hi"],
                {"lo": 0.0, "hi": 1.0, "f_lo": -0.25, "f_hi": 0.75}, {}),
    "EnergySolution": (["protocol", "epsilon_min", "beta"],
                       {"protocol": Protocol.CP, "epsilon_min": 0.47, "beta": 0.08}, {}),
    "Flow": (["source", "destination", "h_sd", "epsilon", "k", "rate", "candidates"],
             {"source": "s", "destination": "d", "h_sd": 1.0, "epsilon": 0.5, "k": 2.0},
             {"rate": None, "candidates": ()}),
    "FlowResult": (["source", "destination", "decision", "error"],
                   {"source": "s", "destination": "d", "decision": None}, {"error": None}),
    "GainReport": (["gain", "ncp", "cp", "collaborate"],
                   {"gain": 0.75, "ncp": _NCP, "cp": _CP, "collaborate": False}, {}),
    "LinkGains": (["h12", "h13", "h23"], {"h12": 2.0, "h13": 0.5, "h23": 1.5}, {}),
    "OperatingPoint": (["epsilon", "k"], {"epsilon": 1.0, "k": 0.5}, {}),
    "Placement": (["source", "destination", "relay", "eta"],
                  {"source": (-0.5, 0.0), "destination": (0.5, 0.0), "relay": (0.1, 0.2),
                   "eta": 3.0}, {}),
    "RelayCandidate": (["id", "h_sr", "h_rd"], {"id": "a", "h_sr": 4.0, "h_rd": 3.0}, {}),
    "ResourceUsage": (["protocol", "beta1", "beta2", "total"],
                      {"protocol": Protocol.NCP, "beta1": 0.1, "beta2": 0.2, "total": 0.3}, {}),
    "SelectionDecision": (["protocol", "relay_id", "criterion_value", "exact_gain",
                           "high_tern_advisory"],
                          {"protocol": Protocol.CP, "relay_id": "a", "criterion_value": 1.5},
                          {"exact_gain": None, "high_tern_advisory": False}),
    "SweepRecord": (["coords", "gain", "extra", "feasible", "degenerate"],
                    {"coords": (0.1, 0.2), "gain": 1.25, "extra": {}},
                    {"feasible": True, "degenerate": False}),
}


def test_every_public_record_is_listed():
    records = {name for name in relaygain.__all__
               if isinstance(getattr(relaygain, name), type)
               and issubclass(getattr(relaygain, name), tuple)}
    assert records == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    cls = getattr(relaygain, name)
    fields, required, defaults = RECORDS[name]
    assert list(cls._fields) == fields
    record = cls(**required)
    assert {field: getattr(record, field) for field in defaults} == defaults
    # equal fields give equal records, positional and keyword alike, and a record
    # equals the plain tuple of its fields
    assert record == cls(*record) == cls(**required)
    assert record == tuple(getattr(record, field) for field in fields)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.no_such_field = 1


def test_bracket_scan_is_in_its_own_class_dict():
    # the benchmark's tracer hooks Bracket.scan through vars(Bracket)
    assert "scan" in vars(Bracket)


@pytest.mark.parametrize("cls, args, message", [
    (Allocation, (Protocol.NCP, 1.0, 0.1, 0.1, 0.2), "beta must lie in (0, 1), got 1.0"),
    (Allocation, (Protocol.NCP, 0.5, -1e-300, 0.0, 0.0), "base_rate must be >= 0, got -1e-300"),
    (SelectionDecision, (Protocol.CP, None, 1.0),
     "relay_id must be present exactly when protocol is CP"),
    (SelectionDecision, (Protocol.NCP, "a", 1.0),
     "relay_id must be present exactly when protocol is CP"),
], ids=["beta_at_1", "negative_base_rate", "cp_without_relay", "ncp_with_relay"])
def test_inconsistent_fields_are_rejected(cls, args, message):
    with pytest.raises(ValidationError) as err:
        cls(*args)
    assert str(err.value) == message
