"""Cold start and the lazy package: what each import loads, and what it exposes."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import relaygain
import relaygain.cli as cli
import relaygain.geometry as geometry
import relaygain.model as model
import relaygain.selection as selection
import relaygain.verify as verify
from support import bench_module

# the modules only some subcommands run
ON_DEMAND = {"relaygain.bounds", "relaygain.geometry", "relaygain.selection", "relaygain.verify"}
# standard modules no relaygain import may load: dataclasses alone takes ~12 ms
# to import, since it pulls in inspect, ast, dis and tokenize
HEAVY = {"dataclasses", "inspect"}

PUBLIC_NAMES = [
    "Allocation", "BoundPair", "Bracket", "EnergySolution", "Flow", "FlowResult",
    "GainReport", "GeometryError", "InfeasibleRateError",
    "IterationLimitError", "LinkGains", "NaNResidualError", "NoFeasibleOptionError",
    "NoSignChangeError", "OperatingPoint", "OVERFLOW_GAIN", "Placement",
    "Protocol", "RelayCandidate", "RelayGainError", "ResourceUsage",
    "SelectionDecision", "SweepRecord", "SWEEP_KINDS", "ValidationError",
    "collaboration_gain", "collinear_gains", "cp_allocate",
    "cp_bounds_high_tern", "cp_bounds_low_tern", "evaluate_network",
    "feasibility_bound", "feasible", "gains_from_placement", "grid_values",
    "high_tern_gain_limit", "low_tern_gain_limit", "max_geometric_gain",
    "min_tern", "ncp_allocate", "ncp_bounds_high_tern", "ncp_bounds_low_tern",
    "optimal_relay_location", "rate_energy_score", "resource_usage",
    "select_relay_rate", "select_relay_resource", "small_k_gain_slope",
    "solve_monotone", "sweep",
    "sweep_columns",
]


def loaded_after(code: str) -> set[str]:
    """The relaygain modules, and those of HEAVY, a fresh interpreter holds after
    running `code`."""
    script = (f"{code}\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules\n"
              f"                         if m.startswith('relaygain') or m in {HEAVY!r})))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestColdStart:
    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import relaygain") == {"relaygain"}

    def test_cli_import_loads_only_the_eager_core(self):
        assert loaded_after("import relaygain.cli") == {
            "relaygain", "relaygain.cli", "relaygain.errors", "relaygain.model",
            "relaygain.rootfind", "relaygain.scenario", "relaygain.allocation",
            "relaygain.energy"}

    def test_no_record_import_loads_dataclasses(self):
        # verify imports every other module
        assert not loaded_after("import relaygain.verify") & HEAVY

    # (subcommand argv, the on-demand modules it may load)
    SUBCOMMANDS = {
        "gain": (["gain"], set()),
        "energy": (["energy"], set()),
        "resource": (["resource"], set()),
        "bounds": (["bounds"], {"relaygain.bounds"}),
        "select": (["select"], {"relaygain.selection"}),
        "select_resource": (["select", "--mode", "resource"], {"relaygain.selection"}),
    }

    @pytest.mark.parametrize("case", sorted(SUBCOMMANDS))
    def test_subcommand_loads_only_what_it_runs(self, tmp_path, case):
        # a gains document with candidates: the candidates need no selection module
        doc = {"gains": {"h12": 2.0, "h13": 0.5, "h23": 1.5},
               "operating": {"epsilon": 1.0, "k": 0.5}, "rate": 0.2,
               "candidates": [{"id": "a", "h_sr": 4.0, "h_rd": 3.0}]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        argv, needs = self.SUBCOMMANDS[case]
        loaded = loaded_after("from relaygain.cli import main\n"
                              f"assert main({[*argv, '--scenario', str(path)]!r}) == 0")
        assert loaded & ON_DEMAND == needs
        assert not loaded & HEAVY

    def test_placement_document_loads_geometry_only(self, tmp_path):
        doc = {"placement": {"source": [-0.5, 0.0], "destination": [0.5, 0.0],
                             "relay": [0.1, 0.2], "eta": 3.0},
               "operating": {"epsilon": 0.05, "k": 2.0}}
        path = tmp_path / "placement.json"
        path.write_text(json.dumps(doc))
        loaded = loaded_after("from relaygain.cli import main\n"
                              f"assert main(['placement', '--scenario', {str(path)!r}]) == 0")
        assert loaded & ON_DEMAND == {"relaygain.geometry"}
        assert not loaded & HEAVY


class TestLazyPackage:
    def test_all_is_pinned(self):
        assert relaygain.__all__ == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_resolves_to_its_home_module_object(self, name):
        value = getattr(relaygain, name)
        home = importlib.import_module(f"relaygain.{relaygain._HOME[name]}")
        assert value is getattr(home, name)
        # functions and classes say where they are defined: that is the home
        assert getattr(value, "__module__", home.__name__) == home.__name__

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from relaygain import *", namespace)
        for name in PUBLIC_NAMES:
            assert namespace[name] is getattr(relaygain, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            relaygain.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            exec("from relaygain import no_such_name", {})

    def test_dir_lists_every_public_name(self):
        assert set(PUBLIC_NAMES) <= set(dir(relaygain))

    def test_inputs_types_live_in_model(self):
        assert selection.Flow is model.Flow is relaygain.Flow
        assert selection.RelayCandidate is model.RelayCandidate is relaygain.RelayCandidate


class TestCliBindings:
    def test_parser_choices_equal_their_sources(self):
        assert cli.SWEEP_KINDS == geometry.SWEEP_KINDS
        assert cli.SWEEP_PARAMETERS == geometry.SWEEP_PARAMETERS
        assert cli.SUITES == verify.SUITES

    def test_on_demand_names_are_their_home_objects(self):
        for module, names in cli._LAZY.items():
            home = importlib.import_module(f"relaygain.{module}")
            for name in names:
                assert getattr(cli, name) is getattr(home, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            cli.no_such_name  # noqa: B018

    def test_every_on_demand_name_is_used(self):
        """Each name cli._LAZY binds is read in cli.py, or hooked there by the
        benchmark's tracer; any other binding is dead."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        # _LAZY lists its names as strings, so every Name read is outside it
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        hooked = {path for _, module, path, _ in bench_module("spans")._targets()
                  if module == "relaygain.cli"}
        dead = [name for names in cli._LAZY.values() for name in names
                if name not in read | hooked]
        assert dead == []

    def test_wrapper_set_before_main_stays_in_place(self, tmp_path, monkeypatch):
        calls = []

        def counting(kind, params, coords, cells):
            calls.append(kind)
            return geometry.render_sweep(kind, params, coords, cells)

        monkeypatch.setattr(cli, "render_sweep", counting)
        rc = cli.main(["sweep", "--kind", "collinear_gain", "--d-min", "0.2", "--d-max", "0.8",
                       "--d-step", "0.2", "--epsilon", "0.01", "--k", "1", "--eta", "2",
                       "--out", str(tmp_path / "sweep.csv")])
        assert rc == 0
        assert calls == ["collinear_gain"]


class TestBenchHooks:
    def test_every_span_target_resolves(self):
        """The benchmark's tracer hooks each name where a module binds it; every one
        must still be there, or the traced run reports its layer metrics absent."""
        spans = bench_module("spans")
        missing = []
        for _, module, path, _ in spans._targets():
            try:
                spans._Slot(module, path)
            except (AttributeError, KeyError, ImportError) as exc:
                missing.append(f"{module} {path}: {exc!r}")
        assert not missing
