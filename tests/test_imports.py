"""Which modules each entry point loads, and the lazy package namespaces.

Every package ``__init__`` resolves its public names on first access,
and each CLI verb imports its own layer only when it runs.  The
module sets are read in fresh interpreters; nothing here times
anything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli

SRC = Path(__file__).resolve().parent.parent / "src"

#: Runs the CLI on its arguments (or, with none, imports it and builds
#: the parser), then prints every loaded ``repro`` module as JSON.
_SNIPPET = """
import json, sys
import repro.cli
if sys.argv[1:]:
    repro.cli.main(sys.argv[1:])
else:
    repro.cli.build_parser()
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "repro"]))
"""

PACKAGES = [
    "repro",
    "repro.device",
    "repro.tech",
    "repro.circuits",
    "repro.circuits.builders",
    "repro.switchsim",
    "repro.isa",
    "repro.isa.workloads",
    "repro.power",
    "repro.analysis",
    "repro.core",
    "repro.store",
]


def _loaded(*argv):
    done = subprocess.run(
        [sys.executable, "-c", _SNIPPET, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _under(modules, *packages):
    """The modules that are one of ``packages`` or inside one."""
    return sorted(
        module
        for module in modules
        if any(
            module == package or module.startswith(package + ".")
            for package in packages
        )
    )


class TestModuleSets:
    def test_import_and_parser_load_no_layer(self):
        assert _loaded() == {
            "repro", "repro.cli", "repro.obs", "repro.errors",
        }

    def test_optimize_loads_no_simulation_or_store(self):
        loaded = _loaded("optimize", "--stages", "11")
        assert "repro.power.optimizer" in loaded
        assert _under(
            loaded,
            "repro.isa",
            "repro.switchsim",
            "repro.circuits",
            "repro.analysis.contour",
            "repro.store",
        ) == []

    def test_variation_loads_no_power_layer(self):
        loaded = _loaded("variation", "--samples", "24")
        assert "repro.analysis.variation" in loaded
        assert _under(
            loaded,
            "repro.isa",
            "repro.switchsim",
            "repro.circuits",
            "repro.analysis.contour",
            "repro.store",
            "repro.power",
        ) == []

    def test_shutdown_loads_no_device_model(self):
        loaded = _loaded("shutdown", "--periods", "20")
        assert "repro.core.shutdown" in loaded
        assert _under(
            loaded,
            "repro.device",
            "repro.tech",
            "repro.circuits",
            "repro.switchsim",
            "repro.isa",
            "repro.power",
        ) == []


class TestLazyNamespaces:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_every_public_name_resolves(self, name):
        package = importlib.import_module(name)
        assert len(set(package.__all__)) == len(package.__all__)
        assert set(package.__all__) <= set(dir(package))
        for attribute in package.__all__:
            value = getattr(package, attribute)
            # Cached in the package's globals: later lookups are plain
            # attribute hits that never reach ``__getattr__``.
            assert vars(package)[attribute] is value

    @pytest.mark.parametrize("name", PACKAGES)
    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018
        assert not hasattr(package, "no_such_name")

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from repro import *", namespace)  # noqa: S102
        assert len(repro.__all__) == 64
        assert set(repro.__all__) <= set(namespace)
        assert namespace["Mosfet"] is repro.device.mosfet.Mosfet


class TestCliNames:
    """The parser's choices are names, so building it imports nothing."""

    def test_workloads_and_runs_root_match_their_layers(self):
        from repro.isa.workloads import WORKLOAD_NAMES
        from repro.store.registry import DEFAULT_RUNS_ROOT

        assert cli._WORKLOADS == WORKLOAD_NAMES
        assert cli._RUNS_ROOT == DEFAULT_RUNS_ROOT

    @pytest.mark.parametrize("name", sorted(cli._TECHNOLOGIES))
    def test_technology_names_build(self, name):
        assert cli._technology(name).name

    def test_parser_verbs_are_the_table(self):
        verbs = [verb.name for verb in cli.VERBS]
        assert len(verbs) == len(set(verbs)) == 12
        for verb in verbs:
            with pytest.raises(SystemExit) as raised:
                cli.build_parser().parse_args([verb, "--help"])
            assert raised.value.code == 0
