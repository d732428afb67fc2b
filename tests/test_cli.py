import collections
import hashlib
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from relaygain import geometry, verify
from relaygain.cli import _csv_cells, _csv_coords, _fmt, main
from relaygain.errors import ValidationError
from relaygain.geometry import render_sweep, sweep_rows

ONES_SCENARIO = {
    "gains": {"h12": 1.0, "h13": 1.0, "h23": 1.0},
    "operating": {"epsilon": 1.0, "k": 1.0},
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


PAIR_SCENARIO = {
    "gains": {"h12": 2.0, "h13": 0.5, "h23": 1.5},
    "operating": {"epsilon": 1.0, "k": 0.5},
    "rate": 0.2,
    "candidates": [{"id": "a", "h_sr": 4.0, "h_rd": 3.0},
                   {"id": "b", "h_sr": 0.3, "h_rd": 9.0}],
}

GOLDEN_SCENARIOS = {
    "pair": PAIR_SCENARIO,
    "placement": {"placement": {"source": [-0.5, 0.0], "destination": [0.5, 0.0],
                                "relay": [0.1, 0.2], "eta": 3.0},
                  "operating": {"epsilon": 0.05, "k": 2.0}},
    # in resource mode u2->u4 lacks a rate and u4->u1 has no feasible option
    "flows": {**ONES_SCENARIO, "flows": [
        {"source": "u1", "destination": "u3", "h_sd": 1.0, "epsilon": 0.5, "k": 1.0,
         "rate": 0.1, "candidates": [{"id": "u2", "h_sr": 8.0, "h_rd": 8.0}]},
        {"source": "u2", "destination": "u4", "h_sd": 2.0, "epsilon": 1e-3, "k": 3.0},
        {"source": "u4", "destination": "u1", "h_sd": 0.2, "epsilon": 1.0, "k": 1.0,
         "rate": 0.5, "candidates": [{"id": "u3", "h_sr": 0.1, "h_rd": 0.3}]},
    ]},
    "dead_link": {"gains": {"h12": 1.0, "h13": 0.0, "h23": 1.0},
                  "operating": {"epsilon": 1.0, "k": 1.0}},
    "no_rate": ONES_SCENARIO,
    # the equal-gain parabola's peak share underflows to 0 at every low-TERN pair
    "peak_underflow": {"gains": {"h12": 1e-300, "h13": 1e-300, "h23": 1e-300},
                       "operating": {"epsilon": 1.0, "k": 1e290}},
    # the partner's tangent chord is 1e12, but h23*k*eps*(k+1) overflows on the way
    "chord_overflow": {"gains": {"h12": 1e-300, "h13": 1e-300, "h23": 1e-300},
                       "operating": {"epsilon": 1e12, "k": 1e300}},
    "infeasible": {**PAIR_SCENARIO, "rate": 5.0},
    # pair a passes its bound, 2.5*1.2 = 3.0, but its partner's target 0.2*rate rounds
    # onto the chord 1.2*(0.2*2.5): it is not servable, and pair b is
    "slot_rounding": {"gains": {"h12": 1.0, "h13": 2.0, "h23": 1.2},
                      "operating": {"epsilon": 2.5, "k": 0.2}, "rate": 2.9999999999999996,
                      "candidates": [{"id": "a", "h_sr": 1.0, "h_rd": 1.2},
                                     {"id": "b", "h_sr": 10.0, "h_rd": 10.0}]},
}

# case: (argv, scenario, exit code, text stdout, sha256 of json stdout, stderr)
# The JSON digests of the share-backed cases were recorded again once the share
# solve stopped on adjacent doubles: JSON prints full repr, the text 12 digits.
# Those of resource and select_resource were recorded again for the Newton slot;
# each changed number moved onto, or nearer to, its 50-digit mpmath value.
GOLDEN = {
    "gain": (["gain"], "pair", 0,
        "NCP  beta=0.911281389584 base_rate=0.39859596351 rate2=0.199297981755 sum_rate=0.597893945265\n"
        "CP   beta=0.128503480492 base_rate=0.360737338878 rate2=0.180368669439 sum_rate=0.541106008317\n"
        "gain=0.905020050131 collaborate=false\n",
        "04119508bc9bdbb824cd871db7af63d8f43dadf63c0f432a12fea60a2f783d48",
        ""),
    "energy": (["energy"], "pair", 0,
        "NCP  epsilon_min=0.445139791033 beta=0.951619143287\n"
        "CP   epsilon_min=0.472705853088 beta=0.077524088561\n"
        "energy_gain=0.941684534103\n",
        "1c4d88b3d4d144789e1cf39aa69909bfa399ea68d2ebf09d1a3924eef945f4a8",
        ""),
    "resource": (["resource"], "pair", 0,
        "NCP  beta1=0.123549213686 beta2=0.0309893108533 total=0.154538524539\n"
        "CP   beta1=0.0553257932671 beta2=0.185323820528 total=0.240649613796\n"
        "resource_ratio=0.642172335544\n",
        "85bc021a7cbd89b9de47ba324caee01a0447281590db00dc9a7375d7d344d628",
        ""),
    "bounds": (["bounds"], "pair", 0,
        "ncp_high_tern  lower=0.297639102044 upper=0.422075248491 beta= degenerate=false\n"
        "ncp_low_tern   lower=0.269708847598 upper=0.405465108108 beta=0.542791152402 degenerate=false\n"
        "cp_high_tern   lower=0.278501132951 upper=0.383551504424 beta=0.0523964958906 degenerate=false\n"
        "cp_low_tern    lower=0 upper=0.373077191957 beta=0.807838574663 degenerate=false\n"
        "exact          ncp=0.39859596351 cp=0.360737338878\n"
        "low_tern_gain_limit=1 high_tern_gain_limit=0.6\n",
        "4d535fe665ecd833b1353a2994a3b5edc81c755ae0a58cbda723b8d1b0fd6aae",
        ""),
    "select_rate": (["select"], "pair", 0,
        "protocol=CP relay=a criterion=2 exact_gain=1.41802502171 advisory=false\n",
        "40a8ef8186b3665bbdd0148da324a0383b1a7b72e7afc1b407ab0855d3d15e3a",
        ""),
    "select_resource": (["select", "--mode", "resource"], "pair", 0,
        "protocol=NCP relay=- criterion=0.141668928598 exact_gain= advisory=false\n",
        "0a2a117f3401334ea56ec2341e87708d0fbe1d0b01bcc1f577a023809b6c8f9f",
        ""),
    "select_resource_slot_rounding": (["select", "--mode", "resource"], "slot_rounding", 0,
        "protocol=NCP relay=- criterion=3.34457410437 exact_gain= advisory=false\n",
        "bc94668141193f480faf72b0e21c18aa73b1c13f87d9fd28d65bbc0ae614b28a",
        ""),
    "placement": (["placement"], "placement", 0,
        "h12=3.95284707521 h13=1 h23=11.1803398875\n"
        "gain=3.52480271801 collaborate=true\n"
        "optimal_relay_location=0.53373741818 max_geometric_gain=6.57683654598\n",
        "909934033817467c52b2f81d53d5ac48d14326bb6e09f64fe300d869f52bdd91",
        ""),
    "flows_rate": (["select"], "flows", 0,
        "u1->u3: CP relay=u2 criterion=4 exact_gain=1.75268440034 advisory=false\n"
        "u2->u4: NCP relay=- criterion=0 exact_gain= advisory=false\n"
        "u4->u1: NCP relay=- criterion=0.5 exact_gain=0.526301627199 advisory=false\n",
        "4556d496b0a35db866090dd8367ae1013cf2fa57a1957bae3d9effb23554016b",
        ""),
    "flows_resource": (["select", "--mode", "resource"], "flows", 0,
        "u1->u3: NCP relay=- criterion=0.056191814456 exact_gain= advisory=false\n"
        "u2->u4: error: flow u2->u4 needs 'rate' in resource mode\n"
        "u4->u1: error: no feasible option: NCP(pair u3): rate 0.5 >= bound 0.2; CP(u3): rate 0.5 >= bound 0.1\n",
        "7c918cf5e56b9e9ca1f04398bb750c0ea2f78940ce12a747944b3f727d308b66",
        ""),
    "dead_link": (["gain"], "dead_link", 2,
        "",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: h13 must be > 0, got 0.0\n"),
    "bounds_peak_underflow": (["bounds"], "peak_underflow", 2,
        "",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: low-TERN bound undefined: the parabola peak share at eps=1.0 underflows to 0\n"),
    "bounds_chord_overflow": (["bounds"], "chord_overflow", 2,
        "",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: high-TERN bound undefined: the tangent chords 1000000000000.0 and inf must be finite\n"),
    "missing_rate": (["energy"], "no_rate", 2,
        "",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: scenario is missing 'rate' (required by this subcommand)\n"),
    "nothing_feasible": (["select", "--mode", "resource"], "infeasible", 3,
        "",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: no feasible option: NCP(pair a): rate 5.0 >= bound 0.5; CP(a): rate 5.0 >= bound 1.0; NCP(pair b): rate 5.0 >= bound 0.5; CP(b): rate 5.0 >= bound 0.3\n"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(tmp_path, capsys, case, fmt):
    """Stdout, stderr and exit code of every scenario subcommand, byte for byte."""
    argv, scenario, code, text, json_sha256, err = GOLDEN[case]
    rc = main([*argv, "--scenario", write_scenario(tmp_path, GOLDEN_SCENARIOS[scenario]),
               "--format", fmt])
    out, got_err = capsys.readouterr()
    assert (rc, got_err) == (code, err)
    if fmt == "text":
        assert out == text
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == json_sha256


# argparse's text, recorded before the CLI bound its on-demand modules lazily;
# the parser's choices are copies now and must print exactly as before.
# argparse wraps at COLUMNS and formats differently across Python versions.
PARSER_GOLDEN_PYTHON = (3, 11)
PARSER_HELP = {
    "top": (["--help"], (
        "usage: relaygain [-h]\n"
        "                 {gain,energy,resource,bounds,placement,select,sweep,verify}\n"
        "                 ...\n"
        "\n"
        "Collaboration gains, bounds and relay selection for two-user decode-and-\n"
        "forward relaying.\n"
        "\n"
        "positional arguments:\n"
        "  {gain,energy,resource,bounds,placement,select,sweep,verify}\n"
        "    gain                optimal allocations for both protocols and the rate\n"
        "                        gain\n"
        "    energy              minimal TERN for a demanded rate and the energy gain\n"
        "    resource            per-user resource usage for a demanded rate\n"
        "    bounds              closed-form rate brackets and asymptotic limits\n"
        "    placement           geometry report for a placement scenario\n"
        "    select              relay selection (single scenario or flow batch)\n"
        "    sweep               evaluate a parameter sweep and write CSV\n"
        "    verify              run the numerical self-check suites\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    )),
    "sweep": (["sweep", "--help"], (
        "usage: relaygain sweep [-h] --kind\n"
        "                       {plane_gain,collinear_gain,rate_ratio,resource_ratio,energy_ratio}\n"
        "                       --out OUT [--x-min X_MIN] [--x-max X_MAX]\n"
        "                       [--x-step X_STEP] [--y-min Y_MIN] [--y-max Y_MAX]\n"
        "                       [--y-step Y_STEP] [--epsilon EPSILON] [--k K]\n"
        "                       [--eta ETA] [--d-min D_MIN] [--d-max D_MAX]\n"
        "                       [--d-step D_STEP] [--k-min K_MIN] [--k-max K_MAX]\n"
        "                       [--k-step K_STEP] [--d D] [--rate RATE]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --kind {plane_gain,collinear_gain,rate_ratio,resource_ratio,energy_ratio}\n"
        "  --out OUT             output CSV path\n"
        "  --x-min X_MIN\n"
        "  --x-max X_MAX\n"
        "  --x-step X_STEP\n"
        "  --y-min Y_MIN\n"
        "  --y-max Y_MAX\n"
        "  --y-step Y_STEP\n"
        "  --epsilon EPSILON\n"
        "  --k K\n"
        "  --eta ETA\n"
        "  --d-min D_MIN\n"
        "  --d-max D_MAX\n"
        "  --d-step D_STEP\n"
        "  --k-min K_MIN\n"
        "  --k-max K_MAX\n"
        "  --k-step K_STEP\n"
        "  --d D\n"
        "  --rate RATE\n"
    )),
    "verify": (["verify", "--help"], (
        "usage: relaygain verify [-h]\n"
        "                        [--suite {sandwich,duality,limits,placement,selection,inequality,all}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --suite {sandwich,duality,limits,placement,selection,inequality,all}\n"
    )),
}

PARSER_ERRORS = {
    "sweep_kind": (["sweep", "--kind", "nope", "--out", "x.csv"], 2, (
        "usage: relaygain sweep [-h] --kind\n"
        "                       {plane_gain,collinear_gain,rate_ratio,resource_ratio,energy_ratio}\n"
        "                       --out OUT [--x-min X_MIN] [--x-max X_MAX]\n"
        "                       [--x-step X_STEP] [--y-min Y_MIN] [--y-max Y_MAX]\n"
        "                       [--y-step Y_STEP] [--epsilon EPSILON] [--k K]\n"
        "                       [--eta ETA] [--d-min D_MIN] [--d-max D_MAX]\n"
        "                       [--d-step D_STEP] [--k-min K_MIN] [--k-max K_MAX]\n"
        "                       [--k-step K_STEP] [--d D] [--rate RATE]\n"
        "relaygain sweep: error: argument --kind: invalid choice: 'nope' (choose from 'plane_gain', 'collinear_gain', 'rate_ratio', 'resource_ratio', 'energy_ratio')\n"
    )),
    "verify_suite": (["verify", "--suite", "nope"], 2, (
        "usage: relaygain verify [-h]\n"
        "                        [--suite {sandwich,duality,limits,placement,selection,inequality,all}]\n"
        "relaygain verify: error: argument --suite: invalid choice: 'nope' (choose from 'sandwich', 'duality', 'limits', 'placement', 'selection', 'inequality', 'all')\n"
    )),
}


@pytest.mark.skipif(sys.version_info[:2] != PARSER_GOLDEN_PYTHON,
                    reason="argparse text recorded on Python 3.11")
@pytest.mark.parametrize("case", sorted(PARSER_HELP))
def test_parser_help_text(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    argv, text = PARSER_HELP[case]
    assert main(argv) == 0
    assert capsys.readouterr() == (text, "")


@pytest.mark.skipif(sys.version_info[:2] != PARSER_GOLDEN_PYTHON,
                    reason="argparse text recorded on Python 3.11")
@pytest.mark.parametrize("case", sorted(PARSER_ERRORS))
def test_parser_rejects_unknown_choice(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    argv, code, err = PARSER_ERRORS[case]
    assert main(argv) == code
    assert capsys.readouterr() == ("", err)


def test_parser_is_built_once_and_dispatch_reads_the_module(tmp_path, capsys, monkeypatch):
    """main builds its parser on the first call only, and looks the subcommand's
    function up when it dispatches: a wrapper set after the build still runs."""
    import relaygain.cli as cli
    builds, swept = [], []
    build_parser = cli.build_parser

    def counting_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    assert main(["sweep", "--kind", "nope", "--out", str(tmp_path / "a.csv")]) == 2
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: swept.append(args.kind) or 0)
    assert main(["sweep", "--kind", "plane_gain", "--out", str(tmp_path / "b.csv")]) == 0
    assert builds == [1]
    assert swept == ["plane_gain"]
    assert "invalid choice: 'nope'" in capsys.readouterr().err


class TestGainCommand:
    def test_all_ones_report(self, tmp_path, capsys):
        rc = main(["gain", "--scenario", write_scenario(tmp_path, ONES_SCENARIO)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gain=0.597295398832" in out
        assert "collaborate=false" in out

    def test_json_format_round_trips(self, tmp_path, capsys):
        rc = main(["gain", "--scenario", write_scenario(tmp_path, ONES_SCENARIO),
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ncp"]["beta"] == pytest.approx(0.5, abs=1e-12)
        assert payload["gain"] == pytest.approx(0.597295, abs=1e-6)

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["gain", "--scenario", str(path)]) == 2

    def test_zero_gain_exits_2(self, tmp_path, capsys):
        doc = {"gains": {"h12": 1.0, "h13": 0.0, "h23": 1.0},
               "operating": {"epsilon": 1.0, "k": 1.0}}
        rc = main(["gain", "--scenario", write_scenario(tmp_path, doc)])
        assert rc == 2
        assert "h13" in capsys.readouterr().err

    def test_missing_file_exits_4(self, tmp_path):
        assert main(["gain", "--scenario", str(tmp_path / "absent.json")]) == 4

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        rc = main(["gain", "--scenario", write_scenario(tmp_path, ONES_SCENARIO),
                   "--bogus"])
        assert rc == 2

    def test_both_gains_and_placement_rejected(self, tmp_path):
        doc = dict(ONES_SCENARIO)
        doc["placement"] = {"source": [-0.5, 0], "destination": [0.5, 0],
                            "relay": [0, 0], "eta": 2}
        assert main(["gain", "--scenario", write_scenario(tmp_path, doc)]) == 2


class TestEnergyAndResource:
    def test_energy_requires_rate(self, tmp_path):
        assert main(["energy", "--scenario", write_scenario(tmp_path, ONES_SCENARIO)]) == 2

    def test_energy_report(self, tmp_path, capsys):
        doc = {**ONES_SCENARIO, "rate": 0.549306}
        rc = main(["energy", "--scenario", write_scenario(tmp_path, doc),
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ncp"]["epsilon_min"] == pytest.approx(1.0, rel=1e-5)
        assert payload["energy_gain"] == pytest.approx(0.414048, abs=1e-6)

    def test_resource_report(self, tmp_path, capsys):
        doc = {**ONES_SCENARIO, "rate": 0.2}
        rc = main(["resource", "--scenario", write_scenario(tmp_path, doc),
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ncp"]["total"] == pytest.approx(0.1503534, abs=1e-7)
        assert payload["cp"]["total"] == pytest.approx(0.3222751, abs=1e-7)

    def test_resource_infeasible_exits_3(self, tmp_path):
        doc = {**ONES_SCENARIO, "rate": 1.5}
        assert main(["resource", "--scenario", write_scenario(tmp_path, doc)]) == 3


class TestBoundsAndPlacement:
    def test_bounds_report(self, tmp_path, capsys):
        rc = main(["bounds", "--scenario", write_scenario(tmp_path, ONES_SCENARIO),
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ncp_high_tern"]["upper"] == pytest.approx(
            0.5 * math.log(3), abs=1e-12)
        assert payload["exact"]["cp"] == pytest.approx(0.328098, abs=1e-6)
        assert payload["high_tern_gain_limit"] == pytest.approx(2 / 3)

    def test_placement_report(self, tmp_path, capsys):
        doc = {"placement": {"source": [-0.5, 0.0], "destination": [0.5, 0.0],
                             "relay": [0.0, 0.0], "eta": 2.0},
               "operating": {"epsilon": 0.01, "k": 1.0}}
        rc = main(["placement", "--scenario", write_scenario(tmp_path, doc),
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gains"]["h12"] == pytest.approx(4.0)
        assert payload["optimal_relay_location"] == pytest.approx(0.585786, abs=1e-6)
        assert payload["max_geometric_gain"] == pytest.approx(2.914214, abs=1e-6)

    def test_underflowing_bounds_exit_2_without_traceback(self, tmp_path):
        tiny = {"gains": {"h12": 1e-300, "h13": 1e-300, "h23": 1e-300},
                "operating": {"epsilon": 1e-300, "k": 1e-300}}
        proc = subprocess.run([sys.executable, "-m", "relaygain.cli", "bounds", "--scenario",
                               write_scenario(tmp_path, tiny)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: high-TERN bound undefined")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_underflowing_peak_share_exits_2_without_traceback(self, tmp_path):
        doc = GOLDEN_SCENARIOS["peak_underflow"]
        proc = subprocess.run([sys.executable, "-m", "relaygain.cli", "bounds", "--scenario",
                               write_scenario(tmp_path, doc)], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: low-TERN bound undefined")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_overflowing_placement_gain_exits_3_without_traceback(self, tmp_path):
        # d12 = 1e-10, so h12 = d12^-40 = 1e400 overflows
        doc = {"placement": {"source": [-0.5, 0.0], "destination": [0.5, 0.0],
                             "relay": [-0.4999999999, 0.0], "eta": 40},
               "operating": {"epsilon": 0.01, "k": 1.0}}
        proc = subprocess.run([sys.executable, "-m", "relaygain.cli", "placement", "--scenario",
                               write_scenario(tmp_path, doc)], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("error: a gain d^-eta overflows at eta=40.0")
        assert proc.stderr.count("\n") == 1

    def test_placement_requires_placement_scenario(self, tmp_path):
        assert main(["placement", "--scenario",
                     write_scenario(tmp_path, ONES_SCENARIO)]) == 2


class TestSelectCommand:
    def test_single_selection(self, tmp_path, capsys):
        doc = {**ONES_SCENARIO,
               "operating": {"epsilon": 1e-4, "k": 1.0},
               "candidates": [{"id": "a", "h_sr": 4.0, "h_rd": 4.0},
                              {"id": "b", "h_sr": 9.0, "h_rd": 1.0}]}
        rc = main(["select", "--scenario", write_scenario(tmp_path, doc),
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["protocol"] == "CP"
        assert payload["relay_id"] == "a"

    def test_flow_batch(self, tmp_path, capsys):
        doc = {**ONES_SCENARIO,
               "flows": [
                   {"source": "u1", "destination": "u3", "h_sd": 1.0,
                    "epsilon": 1e-3, "k": 1.0,
                    "candidates": [{"id": "u2", "h_sr": 8.0, "h_rd": 8.0}]},
                   {"source": "u2", "destination": "u4", "h_sd": 1.0,
                    "epsilon": 1e-3, "k": 1.0},
               ]}
        rc = main(["select", "--scenario", write_scenario(tmp_path, doc),
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flows"][0]["decision"]["protocol"] == "CP"
        assert payload["flows"][0]["decision"]["relay_id"] == "u2"
        assert payload["flows"][1]["decision"]["protocol"] == "NCP"

    def test_resource_mode(self, tmp_path, capsys):
        doc = {"gains": {"h12": 1.0, "h13": 0.5, "h23": 1.0},
               "operating": {"epsilon": 1.0, "k": 1.0}, "rate": 0.7,
               "candidates": [{"id": "r", "h_sr": 8.0, "h_rd": 8.0}]}
        rc = main(["select", "--scenario", write_scenario(tmp_path, doc),
                   "--mode", "resource", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["protocol"] == "CP"

    def test_resource_mode_nothing_feasible_exits_3(self, tmp_path):
        doc = {"gains": {"h12": 1.0, "h13": 0.1, "h23": 1.0},
               "operating": {"epsilon": 1.0, "k": 1.0}, "rate": 0.5,
               "candidates": [{"id": "r", "h_sr": 0.2, "h_rd": 0.2}]}
        assert main(["select", "--scenario", write_scenario(tmp_path, doc),
                     "--mode", "resource"]) == 3


# floats the one-template row path must print exactly as _fmt does, and the
# None and bool cells that must never reach that template
CSV_FLOATS = st.one_of(st.floats(), st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1e300, math.inf, -math.inf, math.nan)))
CSV_CELLS = st.one_of(CSV_FLOATS, st.none(), st.booleans())
# a sweep row's feasible and degenerate flags, mostly the template's (True, False)
CSV_FLAGS = st.one_of(st.just([True, False]), st.lists(CSV_CELLS, min_size=2, max_size=2))


# a four-point collinear sweep, without --out
SMALL_SWEEP = ["sweep", "--kind", "collinear_gain", "--d-min", "0.2", "--d-max", "0.8",
               "--d-step", "0.2", "--epsilon", "0.01", "--k", "1", "--eta", "2"]


class TestSweepCommand:
    def test_csv_shape_and_values(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--kind", "collinear_gain", "--d-min", "0.2",
                   "--d-max", "0.8", "--d-step", "0.2", "--epsilon", "0.01",
                   "--k", "1", "--eta", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d,gain,h12,h23,beta_ncp,beta_cp,rate_ncp,rate_cp,feasible,degenerate"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "0.2"
        assert first[-2:] == ["true", "false"]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(CSV_FLOATS, max_size=12), st.lists(CSV_CELLS, max_size=12)),
           CSV_FLAGS)
    @example([0.5, True, -0.0, False], [True, False])
    @example([0.5, None, 1.0], [True, False])
    @example([0.5, 1.0], [True, True])
    def test_csv_cells_match_per_value_format(self, cells, flags):
        row = (*cells, *flags)
        line = ",".join(map(_fmt, row)) + "\n"
        assert _csv_cells(len(row), False)(row) == line
        if flags[0] is True and flags[1] is False and all(type(c) is float for c in cells):
            # a feasible row of floats, rendered from its cells before the flags
            assert _csv_cells(len(row), True)(tuple(cells)) == line

    @given(st.lists(CSV_FLOATS, max_size=3))
    @example([-0.0, 0.0])
    def test_csv_coords_match_per_value_format(self, coords):
        assert _csv_coords(coords) == [_fmt(v) + "," for v in coords]

    def test_resource_row_flags_never_reach_the_template(self):
        # a feasible resource row's cells: ncp_feasible and cp_feasible are
        # bools among floats, which '%.12g' would print as 1
        cells = (1.25, 8.0, 8.0, True, True, 0.75, 0.6, True, False)
        assert _csv_cells(len(cells), False)(cells) == "1.25,8,8,true,true,0.75,0.6,true,false\n"

    # One small grid per sweep kind with a degenerate point (the relay on an
    # endpoint, or h12 past OVERFLOW_GAIN) where the kind has one, and
    # infeasible resource_ratio points; and grids longer than a segment
    LINE_GRIDS = {
        "plane_gain": {"x_min": -0.5, "x_max": 0.5, "x_step": 0.25, "y_min": -0.5,
                       "y_max": 0.5, "y_step": 0.25, "epsilon": 0.01, "k": 1.0, "eta": 2.0},
        "collinear_gain": {"d_min": 5e-6, "d_max": 0.500005, "d_step": 0.125,
                           "epsilon": 0.01, "k": 1.0, "eta": 3.0},
        "rate_ratio": {"k_min": 0.5, "k_max": 2.0, "k_step": 0.5, "d": 0.5, "epsilon": 0.01,
                       "eta": 3.0},
        "resource_ratio": {"d_min": 5e-6, "d_max": 0.900005, "d_step": 0.1, "epsilon": 0.01,
                           "k": 1.0, "eta": 3.0, "rate": 0.008},
        "energy_ratio": {"d_min": 5e-6, "d_max": 0.700005, "d_step": 0.1, "k": 1.0,
                         "eta": 3.0, "rate": 0.01},
        # 2 rows of 1,101 points, 3 segments each, mirrored by y
        "plane_gain long rows": {"x_min": -0.5, "x_max": 0.5, "x_step": 1.0, "y_min": -0.55,
                                 "y_max": 0.55, "y_step": 0.001, "epsilon": 0.01, "k": 1.0,
                                 "eta": 2.0},
        "collinear_gain 3 segments": {"d_min": 5e-6, "d_max": 0.999, "d_step": 0.0008,
                                      "epsilon": 0.01, "k": 1.0, "eta": 3.0},
    }

    @pytest.mark.parametrize("case", sorted(LINE_GRIDS))
    def test_csv_lines_match_rows_format(self, case, tmp_path):
        kind, params = case.split()[0], self.LINE_GRIDS[case]
        rows = list(sweep_rows(kind, params))
        lines = [",".join(map(_fmt, row)) + "\n" for row in rows]
        assert list(render_sweep(kind, params, _csv_coords, _csv_cells)) == lines
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--kind", kind, "--out", str(out)]
        for name, value in params.items():
            argv.append(f"--{name.replace('_', '-')}={value!r}")
        assert main(argv) == 0
        text = out.read_text()
        assert text == ",".join(geometry.sweep_columns(kind)) + "\n" + "".join(lines)
        flags = [row[-2:] for row in rows]
        assert (True, True) in flags or kind == "rate_ratio"
        assert (False, False) in flags or kind != "resource_ratio"

    @pytest.mark.parametrize("case", sorted(LINE_GRIDS))
    def test_only_kinds_of_float_rows_reach_the_template(self, case):
        # a kind renders its feasible rows through the '%.12g' template only if
        # every cell before the flags is a float: resource_ratio's are not
        kind, params = case.split()[0], self.LINE_GRIDS[case]
        n = len(geometry._KINDS[kind].axes)
        feasible = [row[n:-2] for row in sweep_rows(kind, params) if row[-2:] == (True, False)]
        assert feasible
        assert geometry._KINDS[kind].floats == all(type(cell) is float
                                                   for cells in feasible for cell in cells)
        assert geometry._KINDS[kind].floats == (kind != "resource_ratio")

    @pytest.mark.parametrize("case", sorted(LINE_GRIDS))
    def test_segments_do_not_move_rows(self, case, monkeypatch):
        kind, params = case.split()[0], self.LINE_GRIDS[case]
        rows = list(sweep_rows(kind, params))
        monkeypatch.setattr(geometry, "SEGMENT_POINTS", 10 ** 6)
        assert list(sweep_rows(kind, params)) == rows

    def test_plane_renders_each_distinct_point_once_per_row(self):
        # three README plane rows, away from both endpoints: 151 points, 76
        # distinct up to the y mirror
        coords, cells = [], []

        def counting_coords(values):
            coords.extend(values)
            return _csv_coords(values)

        def counting_cells(width, floats):
            render = _csv_cells(width, floats)
            return lambda values: cells.append((floats, values)) or render(values)

        rows = render_sweep("plane_gain", {
            "x_min": -1.0, "x_max": 1.0, "x_step": 1.0, "y_min": -0.75, "y_max": 0.75,
            "y_step": 0.01, "epsilon": 0.01, "k": 0.1, "eta": 3.0},
            counting_coords, counting_cells)
        assert len(list(rows)) == 3 * 151
        # the degenerate cells once per sweep, then 76 per row, each the
        # evaluator's five floats through the template
        assert len(cells) == 1 + 3 * 76
        assert cells[0] == (False, (None,) * 5 + (True, True))
        assert all(floats and len(values) == 5 and all(type(v) is float for v in values)
                   for floats, values in cells[1:])
        # each y once per sweep, each row's x once
        assert len(coords) == 151 + 3

    def test_csv_deterministic_across_runs(self, tmp_path):
        args = ["sweep", "--kind", "plane_gain", "--x-min", "-0.4", "--x-max", "0.4",
                "--x-step", "0.2", "--y-min", "-0.2", "--y-max", "0.2",
                "--y-step", "0.2", "--epsilon", "0.01", "--k", "0.1", "--eta", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_grid_exits_2(self, tmp_path):
        rc = main(["sweep", "--kind", "collinear_gain", "--d-min", "0.2",
                   "--d-max", "0.3", "--d-step", "0.5", "--epsilon", "0.01",
                   "--k", "1", "--eta", "2", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_grid_too_large_to_count_exits_2(self, tmp_path, capsys):
        # (d_max - d_min)/d_step overflows to inf
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--kind", "collinear_gain", "--d-min", "0.1", "--d-max", "0.9",
                   "--d-step", "1e-320", "--epsilon", "0.01", "--k", "1", "--eta", "3",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: grid [0.1, 0.9] by step 1e-320 has more than 1000000 points\n")
        assert not out.exists()

    def test_plane_of_two_long_axes_exits_2(self, tmp_path, capsys):
        # each axis has 999,999 points, under the per-axis limit; the grid does not
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--kind", "plane_gain", "--x-min", "2", "--x-max", "1000000",
                   "--x-step", "1", "--y-min", "0", "--y-max", "999998", "--y-step", "1",
                   "--epsilon", "0.01", "--k", "1", "--eta", "3", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: sweep 'plane_gain' grid has 999998000001 points, more than 1000000\n")
        assert not out.exists()

    def test_unwritable_path_exits_4(self, tmp_path):
        rc = main(["sweep", "--kind", "collinear_gain", "--d-min", "0.2",
                   "--d-max", "0.8", "--d-step", "0.2", "--epsilon", "0.01",
                   "--k", "1", "--eta", "2",
                   "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert rc == 4

    def test_validation_failure_leaves_no_file(self, tmp_path):
        out = tmp_path / "next"
        target = tmp_path / "out.csv"
        rc = main(["sweep", "--kind", "resource_ratio", "--d-min", "0.2",
                   "--d-max", "0.8", "--d-step", "0.2", "--eta", "3",
                   "--out", str(target)])  # epsilon/k/rate missing
        assert rc == 2
        assert not target.exists()

    @pytest.mark.parametrize("before", [None, b"d,energy_ratio\n0.5,1\n"])
    def test_failing_sweep_leaves_out_as_it_was(self, tmp_path, capsys, before):
        # CP's minimal TERN leaves the float range at the fourth point, d=0.2,
        # after three rows have streamed
        flags = {"d_min": 0.05, "d_max": 0.95, "d_step": 0.05, "k": 1.0, "eta": 3.0,
                 "rate": 237.5}
        rows = sweep_rows("energy_ratio", flags)
        assert len(list(itertools.islice(rows, 3))) == 3
        with pytest.raises(ValidationError, match="outside the float range"):
            next(rows)
        out = tmp_path / "out.csv"
        if before is not None:
            out.write_bytes(before)
        argv = ["sweep", "--kind", "energy_ratio", "--out", str(out)]
        for name, value in flags.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: CP: the minimal TERN for rate 237.5 is e^709.815, outside the float range\n")
        assert (out.read_bytes() if out.exists() else None) == before
        # no partial file is left beside it
        assert list(tmp_path.iterdir()) == ([] if before is None else [out])

    def test_rows_stream_to_the_file(self, tmp_path):
        """The command holds no sweep records: its peak traced memory over a
        7,676-point plane grid stays far below the ~420 B per point that
        the list of all its records takes. What remains is mostly the NCP
        table, which grows with the number of distinct h23."""
        argv = ["sweep", "--kind", "plane_gain", "--x-min", "-1", "--x-max", "1",
                "--x-step", "0.02", "--y-min", "-0.75", "--y-max", "0.75", "--y-step", "0.02",
                "--epsilon", "0.01", "--k", "0.1", "--eta", "3"]
        # a first run binds the lazy names and fills the interpreter's caches
        warm = [*argv, "--out", str(tmp_path / "warm.csv")]
        warm[8] = warm[14] = "0.5"
        assert main(warm) == 0
        out = tmp_path / "plane.csv"
        tracemalloc.start()
        try:
            rc = main([*argv, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        rows = len(out.read_bytes().splitlines()) - 1
        assert rows == 101 * 76
        assert peak < 150 * rows

    def test_one_axis_rows_stream_to_the_file(self, tmp_path):
        """A one-axis grid is one row, walked in segments of SEGMENT_POINTS
        points: over ten of them the command's peak traced memory stays
        below 150 B per row, where holding the row's points, its memo and
        its NCP table took about 520 B per row."""
        argv = ["sweep", "--kind", "collinear_gain", "--d-min", "1e-4", "--d-max", "0.9999",
                "--d-step", "0.0002", "--epsilon", "0.01", "--k", "1", "--eta", "2"]
        warm = [*argv, "--out", str(tmp_path / "warm.csv")]
        warm[8] = "0.1"
        assert main(warm) == 0
        out = tmp_path / "collinear.csv"
        tracemalloc.start()
        try:
            rc = main([*argv, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        rows = len(out.read_bytes().splitlines()) - 1
        assert rows == 5000 > 9 * geometry.SEGMENT_POINTS
        assert peak < 150 * rows

    def test_out_keeps_its_mode(self, tmp_path):
        out = tmp_path / "private.csv"
        out.write_bytes(b"old\n")
        out.chmod(0o600)
        assert main([*SMALL_SWEEP, "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert out.read_text().startswith("d,gain,")

    @pytest.mark.parametrize("dangling", [False, True])
    def test_symlink_out_writes_its_target(self, tmp_path, dangling):
        expected = tmp_path / "expected.csv"
        assert main([*SMALL_SWEEP, "--out", str(expected)]) == 0
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        if not dangling:
            target.write_bytes(b"old\n")
        link.symlink_to(target)
        assert main([*SMALL_SWEEP, "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == expected.read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "expected.csv", "link.csv", "target.csv"]

    # --out that names no file to write: the error open() raises, exit 4
    BAD_OUTS = {
        "directory": ("d", "[Errno 21] Is a directory"),
        "directory with slash": ("d/", "[Errno 21] Is a directory"),
        "under a file": ("file.txt/x.csv", "[Errno 20] Not a directory"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_OUTS))
    def test_out_that_is_no_file_exits_4(self, tmp_path, capsys, case):
        out, message = self.BAD_OUTS[case]
        (tmp_path / "d").mkdir()
        (tmp_path / "file.txt").write_bytes(b"keep\n")
        assert main([*SMALL_SWEEP, "--out", f"{tmp_path}/{out}"]) == 4
        assert capsys.readouterr().err == f"error: {message}: '{tmp_path}/{out}'\n"
        assert list((tmp_path / "d").iterdir()) == []
        assert (tmp_path / "file.txt").read_bytes() == b"keep\n"

    def test_fifo_out_is_written_and_stays_a_fifo(self, tmp_path):
        expected = tmp_path / "expected.csv"
        assert main([*SMALL_SWEEP, "--out", str(expected)]) == 0
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        assert main([*SMALL_SWEEP, "--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert received == [expected.read_bytes()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["expected.csv", "pipe.csv"]

    def test_dev_null_out_exits_0_and_stays_a_device(self):
        assert main([*SMALL_SWEEP, "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_dev_stdout_out_writes_the_csv(self, tmp_path):
        expected = tmp_path / "expected.csv"
        assert main([*SMALL_SWEEP, "--out", str(expected)]) == 0
        proc = subprocess.run([sys.executable, "-m", "relaygain.cli", *SMALL_SWEEP,
                               "--out", "/dev/stdout"], capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected.read_bytes()


class TestVerifyCommand:
    def test_duality_suite_passes(self, capsys):
        assert main(["verify", "--suite", "duality"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "duality.roundtrip" in out

    def test_sandwich_suite_passes(self, capsys):
        assert main(["verify", "--suite", "sandwich"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_each_bound_pair_computed_once_per_input_it_reads(self, monkeypatch, capsys):
        # NCP pairs read (h13, h23, eps, k) and CP pairs (h12, h23, eps, k):
        # 25 gain pairs x 5 eps x 3 k each
        calls = collections.Counter()
        for name in ("ncp_bounds_high_tern", "ncp_bounds_low_tern", "cp_bounds_high_tern",
                     "cp_bounds_low_tern"):
            def counting(gains, op, _name=name, _bound=getattr(verify, name)):
                calls[_name] += 1
                return _bound(gains, op)
            monkeypatch.setattr(verify, name, counting)
        assert main(["verify", "--suite", "sandwich"]) == 0
        assert "7500 bound evaluations, 0 violations" in capsys.readouterr().out
        assert calls == {"ncp_bounds_high_tern": 375, "ncp_bounds_low_tern": 375,
                         "cp_bounds_high_tern": 375, "cp_bounds_low_tern": 375}

    def test_all_suite_aggregates(self, capsys):
        assert main(["verify", "--suite", "all"]) == 0
        out = capsys.readouterr().out
        for name in ("sandwich.grid", "duality.roundtrip", "limits.low_tern",
                     "placement.argmax", "selection.no_losing_cp",
                     "inequality.survey"):
            assert name in out

    def test_placement_value_checks_every_combo(self, capsys):
        assert main(["verify", "--suite", "placement"]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if "placement.value " in line)
        assert line.startswith("PASS ")
        assert line.endswith("all four combos: grid max <= closed form, shortfall within "
                             "the kink sampling bound (worst 0.78 of it)")

    def test_selection_suite_passes(self, capsys):
        assert main(["verify", "--suite", "selection"]) == 0

    def test_inequality_suite_is_informational(self, capsys):
        assert main(["verify", "--suite", "inequality"]) == 0
        assert "INFO" in capsys.readouterr().out

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        import relaygain.verify as verify
        monkeypatch.setitem(verify._SUITES, "sandwich", lambda: [
            verify.CheckResult("sandwich.grid", True, "held"),
            verify.CheckResult("sandwich.broken", False, "1 violation")])
        assert main(["verify", "--suite", "sandwich"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[1:] == [f"FAIL {'sandwich.broken':32s} 1 violation",
                                        "2 checks, 1 failed"]
        assert err == ""


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "relaygain.cli", "verify",
                           "--suite", "inequality"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "inequality.survey" in proc.stdout
