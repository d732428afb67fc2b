"""Scenario documents: every input check, with the message it raises."""

import json

import pytest

from relaygain.cli import main
from relaygain.errors import ValidationError
from relaygain.scenario import parse_scenario

GAINS = {"h12": 2.0, "h13": 0.5, "h23": 1.5}
OPERATING = {"epsilon": 1.0, "k": 0.5}
FLOW = {"source": "s", "destination": "t", "h_sd": 1.0, "epsilon": 1.0, "k": 1.0}


def with_gains(**changes):
    return {"gains": GAINS, "operating": OPERATING, **changes}


# Each malformed document and the exact message parse_scenario raises for it
MALFORMED = {
    "not an object": ([], "scenario must be a JSON object, got list"),
    "unknown top-level key": (with_gains(extra=1), "scenario has unknown keys: extra"),
    "neither gains nor placement": ({"operating": OPERATING},
                                    "scenario needs exactly one of 'gains' or 'placement'"),
    "missing operating": ({"gains": GAINS}, "scenario is missing 'operating'"),
    "gains not an object": (with_gains(gains=[2.0, 0.5, 1.5]),
                            "gains must be a JSON object, got list"),
    "missing gain": (with_gains(gains={"h12": 2.0, "h13": 0.5}), "gains is missing 'h23'"),
    "gain a string": (with_gains(gains={**GAINS, "h12": "2"}),
                      "gains.h12 must be a number, got '2'"),
    # JSON true is a Python bool, which is an int
    "gain a boolean": (with_gains(gains={**GAINS, "h13": True}),
                       "gains.h13 must be a number, got True"),
    "operating without k": (with_gains(operating={"epsilon": 1.0}), "operating is missing 'k'"),
    "rate a string": (with_gains(rate="fast"), "scenario.rate must be a number, got 'fast'"),
    "relay of one number": ({"placement": {"source": [-0.5, 0.0], "destination": [0.5, 0.0],
                                           "relay": [0.0], "eta": 3.0},
                             "operating": OPERATING},
                            "placement.relay must be a two-number array, got [0.0]"),
    "source with a boolean": ({"placement": {"source": [True, 0.0], "destination": [0.5, 0.0],
                                             "relay": [0.0, 0.1], "eta": 3.0},
                               "operating": OPERATING},
                              "placement.source must be a two-number array, got [True, 0.0]"),
    "candidates not an array": (with_gains(candidates={"a": {}}), "candidates must be an array"),
    "candidate id a number": (with_gains(candidates=[{"id": 1, "h_sr": 1.0, "h_rd": 1.0}]),
                              "candidates[0].id must be a string, got 1"),
    "candidate with unknown key": (
        with_gains(candidates=[{"id": "a", "h_sr": 1.0, "h_rd": 1.0, "h_sd": 1.0}]),
        "candidates[0] has unknown keys: h_sd"),
    "flows empty": (with_gains(flows=[]), "flows must be a non-empty array"),
    "flows not an array": (with_gains(flows=FLOW), "flows must be a non-empty array"),
    "flow not an object": (with_gains(flows=[FLOW, "s->t"]),
                           "flows[1] must be a JSON object, got str"),
    "flow source a number": (with_gains(flows=[{**FLOW, "source": 7}]),
                             "flows[0].source must be a string"),
    "flow without h_sd": (with_gains(flows=[{k: v for k, v in FLOW.items() if k != "h_sd"}]),
                          "flows[0] is missing 'h_sd'"),
    "flow candidate without h_rd": (
        with_gains(flows=[{**FLOW, "candidates": [{"id": "a", "h_sr": 1.0}]}]),
        "flows[0].candidates[0] is missing 'h_rd'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_is_rejected(case):
    doc, message = MALFORMED[case]
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario(doc)
    assert str(excinfo.value) == message


def test_well_formed_document_parses():
    sc = parse_scenario(with_gains(rate=0.2, candidates=[{"id": "a", "h_sr": 4.0, "h_rd": 3.0}],
                                   flows=[FLOW]))
    assert (sc.gains.h12, sc.operating.k, sc.rate) == (2.0, 0.5, 0.2)
    assert [c.id for c in sc.candidates] == ["a"]
    assert [(f.source, f.rate, f.candidates) for f in sc.flows] == [("s", None, ())]


def test_malformed_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(with_gains(extra=1)))
    assert main(["gain", "--scenario", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: scenario has unknown keys: extra\n")
