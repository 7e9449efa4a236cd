"""The public API surface stays importable and documented."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.geometry",
    "repro.spatial",
    "repro.clustering",
    "repro.network",
    "repro.workload",
    "repro.core",
    "repro.analysis",
    "repro.experiments",
    "repro.simulation",
    "repro.faults",
    "repro.replication",
    "repro.durability",
    "repro.sharding",
    "repro.cluster",
    "repro.sessions",
    "repro.overload",
    "repro.telemetry",
    "repro.statics",
    "repro.io",
]


class TestImports:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} needs a module docstring"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("name", SUBPACKAGES + ["repro"])
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"


class TestDocumentation:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_public_classes_and_functions_documented(self, name):
        module = importlib.import_module(name)
        undocumented = []
        for symbol in module.__all__:
            obj = getattr(module, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(symbol)
        assert not undocumented, f"undocumented in {name}: {undocumented}"

    def test_public_methods_documented(self):
        from repro.core import PubSubBroker
        from repro.spatial import STree

        for cls in (PubSubBroker, STree):
            for name, member in inspect.getmembers(
                cls, predicate=inspect.isfunction
            ):
                if name.startswith("_"):
                    continue
                assert inspect.getdoc(member), f"{cls.__name__}.{name}"
