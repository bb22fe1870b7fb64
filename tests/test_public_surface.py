"""The package's public names and the experiment scripts' imports.

Deleting a public name must not leave `__all__`, a script or the benchmark
pointing at it.
"""

import argparse
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import rpchoice

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every `from rpchoice... import name` in a file,
    nested ones included, read from its syntax tree without running it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "rpchoice"
        for alias in node.names
    ]


def resolves(module: str, name: str) -> bool:
    """Whether `from module import name` would find an attribute or a submodule."""
    return (hasattr(importlib.import_module(module), name)
            or importlib.util.find_spec(f"{module}.{name}") is not None)


def test_every_exported_name_resolves():
    assert [name for name in rpchoice.__all__ if not hasattr(rpchoice, name)] == []
    assert len(set(rpchoice.__all__)) == len(rpchoice.__all__)


def test_scripts_found():
    assert [path.name for path in SCRIPTS] == ["convergence_study.py",
                                               "replication_study.py"]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_imports_without_running_main(path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{path.name} parsed arguments on import")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("path", BENCH + SCRIPTS, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_bench_and_script_imports_resolve(path):
    """The benchmark runs in its own CI step; this catches a cut public name
    that it still imports in the tier-1 suite, without running its files."""
    imports = package_imports(path)
    assert [f"{module}.{name}" for module, name in imports if not resolves(module, name)] == []


def test_bench_imports_found():
    names = {name for path in BENCH for _, name in package_imports(path)}
    assert {"apply", "generate", "estimate_subgradient", "UNIT_NORM_TOL", "main"} <= names
