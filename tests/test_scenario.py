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
    "unknown key with a newline": (with_gains(**{"a\nb": 1, "c": 2}),
                                   "scenario has unknown keys: 'a\\nb', c"),
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
    # a JSON integer that float() cannot convert
    "epsilon past the float range": (with_gains(operating={"epsilon": 10 ** 400, "k": 0.5}),
                                     "operating.epsilon must be finite, got an integer past "
                                     "the float range"),
    "relay coordinate past the float range": (
        {"placement": {"source": [-0.5, 0.0], "destination": [0.5, 0.0],
                       "relay": [0.0, -10 ** 400], "eta": 3.0},
         "operating": OPERATING},
        "placement.relay must be finite, got an integer past the float range"),
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


def scenario_file(tmp_path, data: bytes) -> str:
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    return str(path)


def test_integer_past_the_float_range_exits_2(tmp_path, capsys):
    text = json.dumps(with_gains(operating={"epsilon": 1.0, "k": 0.5})).replace(
        '"epsilon": 1.0', '"epsilon": 1' + "0" * 400)
    assert main(["gain", "--scenario", scenario_file(tmp_path, text.encode())]) == 2
    assert capsys.readouterr() == (
        "", "error: operating.epsilon must be finite, got an integer past the float range\n")


# Files that do not decode to a JSON document, each with the message after its path
UNDECODABLE = {
    "not UTF-8": (b'\xff{"gains": {}}',
                  "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "integer past the digit limit": (
        json.dumps(with_gains(operating={"epsilon": 1.0, "k": 0.5})).replace(
            '"epsilon": 1.0', '"epsilon": 1' + "0" * 5000).encode(),
        "Exceeds the limit (4300 digits) for integer string conversion: value has 5001 digits; "
        "use sys.set_int_max_str_digits() to increase the limit"),
    "arrays nested 200,000 deep": (b"[" * 200_000 + b"]" * 200_000,
                                   "maximum recursion depth exceeded while decoding a JSON "
                                   "array from a unicode string"),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_undecodable_file_exits_2(case, tmp_path, capsys):
    data, message = UNDECODABLE[case]
    path = scenario_file(tmp_path, data)
    assert main(["gain", "--scenario", path]) == 2
    assert capsys.readouterr() == ("", f"error: undecodable scenario {path}: {message}\n")


def test_malformed_json_message(tmp_path, capsys):
    path = scenario_file(tmp_path, b"{not json")
    assert main(["gain", "--scenario", path]) == 2
    assert capsys.readouterr() == ("", f"error: malformed JSON in {path}: Expecting property "
                                       "name enclosed in double quotes: line 1 column 2 "
                                       "(char 1)\n")
