"""The package's public names and the experiment scripts' imports.

Deleting a public name must not leave `__all__`, a script or the benchmark
pointing at it.
"""

import argparse
import ast
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

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
    assert [path.name for path in SCRIPTS] == ["convergence_study.py", "k_ladder_study.py",
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


def load_script(name: str):
    """scripts/<name>.py as a module, its main not run."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_convergence_study(module, monkeypatch) -> list:
    """Replace the convergence study's simulation and estimation with stubs;
    the sparsities its diagnostic was asked for are appended to the list."""
    seen = []

    def diagnostic(data, k_values, s, draws, master_seed):
        seen.append(s)
        return SimpleNamespace(mean_gaps=[0.0] * len(k_values), strictly_decreasing=True)

    monkeypatch.setattr(module, "simulate_dataset", lambda config: config)
    monkeypatch.setattr(module, "estimate_polar_grid",
                        lambda *args, **kwargs: (SimpleNamespace(values=[1.0]), None))
    monkeypatch.setattr(module, "enumerate_cycles", lambda *args: None)
    monkeypatch.setattr(module, "convergence_diagnostic", diagnostic)
    return seen


@pytest.mark.parametrize("mode", ["fixed", "growing"])
def test_convergence_study_takes_sqrt_sparsity(mode, monkeypatch, tmp_path):
    """--sparsity sqrt reaches `convergence_diagnostic` as the string it
    resolves against each dataset's d; parsed as a float it was refused."""
    module = load_script("convergence_study")
    seen = stub_convergence_study(module, monkeypatch)
    assert module.main([mode, "--k", "10", "--sparsity", "sqrt", "--out", str(tmp_path)]) == 0
    assert seen and set(seen) == {"sqrt"}


@pytest.mark.parametrize("argv", [
    ["fixed", "--seeds", "0"],  # ended in a TypeError on the empty mean
    ["fixed", "--k"],
    ["fixed", "--k", "10", "0"],
    ["fixed", "--draws", "-1"],
    ["growing", "--k"],  # ended in an IndexError in the CSV writer
    ["growing", "--draws", "0"],
    ["fixed", "--data-seed", "-1"],  # ended in a ParameterError traceback
    ["growing", "--seed", "-1"],
    ["growing", "--data-seed", "-1"],
], ids=" ".join)
def test_convergence_study_refuses_counts_it_cannot_run(argv, monkeypatch, tmp_path, capsys):
    module = load_script("convergence_study")
    stub_convergence_study(module, monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        module.main([*argv, "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "error: argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--replications", "0"],  # quietly ran the default 20 replications
    ["--threads", "0"],
    ["--seed", "-1"],  # simulated first, then ended in numpy's ValueError
    ["--data-seed", "-1"],
    ["--presets"],  # quietly ran the default presets
], ids=lambda argv: argv[0])
def test_replication_study_refuses_counts_it_cannot_run(argv, monkeypatch, tmp_path, capsys):
    module = load_script("replication_study")
    monkeypatch.setattr(module, "run_design", lambda *args: pytest.fail("a design ran"))
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--presets", "d100k10", *argv, "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert f"error: argument {argv[0]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--k", "5", "0"],  # ran the k = 5 rung, then exited 2 at k = 0
    ["--replications", "0"],
    ["--threads", "0"],
    ["--seed", "-1"],
], ids=" ".join)
def test_k_ladder_study_refuses_counts_it_cannot_run(argv, monkeypatch, tmp_path, capsys):
    module = load_script("k_ladder_study")
    monkeypatch.setattr(module, "cli_main", lambda *args: pytest.fail("a rung ran"))
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--data", str(tmp_path / "dataset.csv"), "--k", "5", *argv,
                     "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert f"error: argument {argv[0]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path", BENCH + SCRIPTS, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_bench_and_script_imports_resolve(path):
    """The benchmark runs in its own CI step; this catches a cut public name
    that it still imports in the tier-1 suite, without running its files."""
    imports = package_imports(path)
    assert [f"{module}.{name}" for module, name in imports if not resolves(module, name)] == []


def test_bench_imports_found():
    names = {name for path in BENCH for _, name in package_imports(path)}
    assert {"apply", "generate", "estimate_subgradient", "UNIT_NORM_TOL", "main"} <= names
