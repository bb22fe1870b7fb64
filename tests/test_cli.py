"""End-to-end command-line tests driven through main(argv).

Each command writes into a tmp_path out dir; the manifest's recorded argv is
re-run against a second directory and must reproduce every artifact except
manifest.json byte for byte.
"""

import filecmp
import json
import os

import pytest

from rpchoice import NumericalError, __version__, load_csv
from rpchoice.cli import PRESETS, SCHEMA_VERSION, TOOL_NAME, build_parser, main
from rpchoice.estimate import run_replications


def run(*argv) -> int:
    return main(list(argv))


def load_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def simulate_small(out_dir, seed="3"):
    code = run("simulate", "--d", "12", "--n", "8", "--mc-draws", "1000",
               "--seed", seed, "--out", str(out_dir))
    assert code == 0
    return os.path.join(str(out_dir), "dataset.csv")


class TestSimulate:
    def test_preset_sets_dimension(self, tmp_path):
        out = tmp_path / "sim"
        code = run("simulate", "--preset", "d100k10", "--seed", "7",
                   "--mc-draws", "1000", "--out", str(out))
        assert code == 0
        data = load_csv(str(out / "dataset.csv"))
        assert (data.n, data.d) == (30, 100)
        manifest = load_manifest(str(out / "manifest.json"))
        assert manifest["seed"] == 7
        assert manifest["params"]["d"] == 100
        assert manifest["params"]["preset"] == "d100k10"

    def test_default_seed_is_zero(self, tmp_path):
        out = tmp_path / "sim"
        code = run("simulate", "--d", "5", "--n", "3", "--mc-draws", "1000",
                   "--out", str(out))
        assert code == 0
        manifest = load_manifest(str(out / "manifest.json"))
        assert manifest["seed"] == 0
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["tool"] == TOOL_NAME

    def test_invalid_preset_exits_2(self, tmp_path):
        assert run("simulate", "--preset", "d42k7", "--out", str(tmp_path)) == 2

    def test_preset_table_matches_documented_designs(self):
        assert PRESETS == {
            "d100k10": (100, 10),
            "d500k100": (500, 100),
            "d1000k100": (1000, 100),
            "d5000k100": (5000, 100),
            "d5000k500": (5000, 500),
        }

    def test_rerun_from_manifest_binary_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        simulate_small(out1)
        manifest = load_manifest(str(out1 / "manifest.json"))
        code = run(*manifest["argv"], "--out", str(out2))
        assert code == 0
        for name in manifest["artifacts"].values():
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name

    def test_out_root_env_redirects_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RPCHOICE_OUT", str(tmp_path))
        code = run("simulate", "--d", "5", "--n", "3", "--mc-draws", "1000",
                   "--seed", "1", "--out", "nested/run")
        assert code == 0
        assert (tmp_path / "nested" / "run" / "dataset.csv").exists()

    def test_mode_and_error_flags_recorded(self, tmp_path):
        out = tmp_path / "sim"
        code = run("simulate", "--d", "6", "--n", "4", "--mc-draws", "1000",
                   "--mode", "brand-effects", "--error", "iid-gumbel",
                   "--seed", "2", "--out", str(out))
        assert code == 0
        manifest = load_manifest(str(out / "manifest.json"))
        assert manifest["params"]["mode"] == "brand-effects"
        assert manifest["params"]["error"] == "iid-gumbel"


class TestEstimate:
    def test_matches_library_call(self, tmp_path):
        csv_path = simulate_small(tmp_path / "sim")
        out = tmp_path / "est"
        code = run("estimate", "--data", csv_path, "--k", "4", "--s", "1",
                   "--replications", "2", "--grid", "256", "--refine", "2",
                   "--threads", "1", "--seed", "5", "--out", str(out))
        assert code == 0
        with open(out / "summary.json") as fh:
            payload = json.load(fh)
        data = load_csv(csv_path)
        expected = run_replications(data, k=4, s=1.0, replications=2,
                                    master_seed=5, cycle_lengths=(2, 3),
                                    grid_size=256, threads=1)
        assert payload["summary"]["mean_lb"] == expected.mean_lb
        assert payload["summary"]["mean_ub"] == expected.mean_ub
        assert payload["summary"]["nested_count"] == expected.nested_count
        assert payload["schema_version"] == SCHEMA_VERSION
        assert (out / "grid.csv").exists()

    def test_k_larger_than_dimension_fails_cleanly(self, tmp_path, capsys):
        csv_path = simulate_small(tmp_path / "sim")
        code = run("estimate", "--data", csv_path, "--k", "40",
                   "--replications", "1", "--out", str(tmp_path / "e"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_k_rejected_by_parser(self, tmp_path):
        csv_path = simulate_small(tmp_path / "sim")
        code = run("estimate", "--data", csv_path, "--k", "0",
                   "--out", str(tmp_path / "e"))
        assert code == 2

    def test_missing_data_file_exits_1(self, tmp_path, capsys):
        code = run("estimate", "--data", str(tmp_path / "nope.csv"), "--k", "2",
                   "--replications", "1", "--out", str(tmp_path / "e"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_sqrt_sparsity_accepted(self, tmp_path):
        csv_path = simulate_small(tmp_path / "sim")
        out = tmp_path / "est"
        code = run("estimate", "--data", csv_path, "--k", "4", "--s", "sqrt",
                   "--replications", "1", "--grid", "128", "--refine", "1",
                   "--seed", "5", "--out", str(out))
        assert code == 0
        manifest = load_manifest(str(out / "manifest.json"))
        assert manifest["params"]["s_resolved"] == pytest.approx(12 ** 0.5)

    def test_rerun_from_manifest_binary_identical(self, tmp_path):
        csv_path = simulate_small(tmp_path / "sim")
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        code = run("estimate", "--data", csv_path, "--k", "4", "--s", "1",
                   "--replications", "2", "--grid", "128", "--refine", "1",
                   "--threads", "2", "--seed", "9", "--out", str(out1))
        assert code == 0
        manifest = load_manifest(str(out1 / "manifest.json"))
        code = run(*manifest["argv"], "--threads", "1", "--out", str(out2))
        assert code == 0
        for name in manifest["artifacts"].values():
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


    def test_all_failed_writes_strict_json_and_exits_1(self, tmp_path, monkeypatch,
                                                        capsys):
        def broken_generate(spec):
            raise NumericalError("injected")

        csv_path = simulate_small(tmp_path / "sim")
        monkeypatch.setattr("rpchoice.estimate.generate", broken_generate)
        out = tmp_path / "est"
        code = run("estimate", "--data", csv_path, "--k", "4", "--replications", "2",
                   "--grid", "128", "--refine", "1", "--threads", "1",
                   "--out", str(out))
        assert code == 1
        assert "all 2 replications failed" in capsys.readouterr().err

        def reject(token):
            raise AssertionError(f"non-strict JSON token {token}")

        with open(out / "summary.json") as fh:
            payload = json.load(fh, parse_constant=reject)
        assert payload["summary"]["failures"] == 2
        assert payload["summary"]["mean_lb"] is None
        assert payload["summary"]["nested_fraction"] is None
        assert [r["lb"] for r in payload["records"]] == [None, None]
        assert [r["error"] for r in payload["records"]] == ["NumericalError: injected"] * 2
        assert (out / "manifest.json").exists()


class TestVerifyJl:
    def test_refuses_tiny_draw_counts(self, tmp_path, capsys):
        code = run("verify-jl", "--d", "50", "--k", "5", "--draws", "10",
                   "--out", str(tmp_path / "jl"))
        assert code == 1
        assert "draws" in capsys.readouterr().err

    def test_summary_and_gaussian_equivalent_tag(self, tmp_path, capsys):
        out = tmp_path / "jl"
        code = run("verify-jl", "--d", "50", "--k", "5", "--s", "3",
                   "--draws", "2000", "--seed", "4", "--out", str(out))
        assert code == 0
        console = capsys.readouterr().out
        assert "(gaussian-equivalent)" in console
        with open(out / "summary.json") as fh:
            payload = json.load(fh)
        assert payload["gaussian_equivalent"] is True
        assert payload["mean_rel_err"] < 0.25

    def test_plain_sparsity_not_tagged(self, tmp_path, capsys):
        code = run("verify-jl", "--d", "50", "--k", "5", "--s", "1",
                   "--draws", "2000", "--seed", "4", "--out", str(tmp_path / "jl"))
        assert code == 0
        assert "(gaussian-equivalent)" not in capsys.readouterr().out

    def test_rerun_from_manifest_binary_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        code = run("verify-jl", "--d", "30", "--k", "3", "--draws", "1500",
                   "--seed", "11", "--out", str(out1))
        assert code == 0
        manifest = load_manifest(str(out1 / "manifest.json"))
        code = run(*manifest["argv"], "--out", str(out2))
        assert code == 0
        assert filecmp.cmp(out1 / "summary.json", out2 / "summary.json", shallow=False)


# every subcommand flag the re-run argv must name, in parser order
RERUN_FLAGS = {
    "simulate": ["--d", "--n", "--theta0", "--mode", "--error", "--mc-draws", "--seed"],
    "estimate": ["--data", "--k", "--s", "--cycles", "--replications", "--grid",
                 "--refine", "--restarts", "--steps", "--seed"],
    "verify-jl": ["--d", "--k", "--s", "--draws", "--seed"],
}


def _case_argv(case, tmp_path):
    if case == "simulate-preset":
        return ["simulate", "--preset", "d100k10", "--mc-draws", "1000", "--seed", "7"]
    if case == "simulate-d":
        return ["simulate", "--d", "6", "--n", "3", "--theta0", "1.25",
                "--mode", "market-effects"]
    if case == "estimate":
        csv_path = os.path.relpath(simulate_small(tmp_path / "sim"))
        return ["estimate", "--data", csv_path, "--k", "4", "--s", "sqrt",
                "--cycles", "2", "--replications", "1", "--grid", "64", "--threads", "1"]
    return ["verify-jl", "--d", "30", "--k", "3", "--s", "sqrt", "--draws", "1000"]


class TestManifest:
    @pytest.mark.parametrize("case", ["simulate-preset", "simulate-d", "estimate", "verify-jl"])
    def test_argv_and_params_come_from_the_parser(self, tmp_path, case):
        argv = _case_argv(case, tmp_path)
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 0
        manifest = load_manifest(out / "manifest.json")
        command, params, rerun = manifest["command"], manifest["params"], manifest["argv"]
        assert rerun[0] == command == argv[0]
        assert rerun[1::2] == RERUN_FLAGS[command]

        parsed = build_parser().parse_args(rerun)
        assert parsed.seed == manifest["seed"]
        assert parsed.out is None and getattr(parsed, "threads", None) is None
        assert not {"seed", "out", "threads"} & set(params)
        flags = set(vars(parsed)) - {"command", "func", "seed", "out", "threads", "preset"}
        assert flags <= set(params)
        for name in flags:
            assert json.loads(json.dumps(getattr(parsed, name))) == params[name], name

        if command == "simulate":
            assert params["d"] == (100 if case == "simulate-preset" else 6)
            assert params["preset"] == ("d100k10" if case == "simulate-preset" else None)
            assert params["mc_draws"] is not None
        if command == "estimate":
            assert os.path.isabs(params["data"])
        if command in ("estimate", "verify-jl"):
            assert params["s"] == "sqrt"
            d = 12 if command == "estimate" else 30
            assert params["s_resolved"] == pytest.approx(d ** 0.5)


class TestParser:
    def test_missing_subcommand_exits_2(self):
        assert run() == 2

    def test_version_flag_exits_0(self, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out.strip() == f"{TOOL_NAME} {__version__}"

    def test_removed_project_command_exits_2(self, tmp_path):
        assert run("project", "--data", str(tmp_path / "d.csv"), "--k", "2") == 2
