"""The package's public names and the experiment scripts' imports.

Deleting a public name must not leave `__all__` or a script pointing at it.
"""

import argparse
import importlib.util
from pathlib import Path

import pytest

import rpchoice

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


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
