"""End-to-end command-line tests driven through main(argv).

Each command writes into a tmp_path out dir; the manifest's recorded argv is
re-run against a second directory and must reproduce every artifact except
manifest.json byte for byte.
"""

import filecmp
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import rpchoice
from rpchoice import NumericalError, __version__, load_csv, logit_oracle_dataset, write_csv
from rpchoice import cli
from rpchoice import data as data_module
from rpchoice._seeds import STREAM_PROJECTION, derive_seed
from rpchoice.cli import PRESETS, SCHEMA_VERSION, TOOL_NAME, build_parser, main
from rpchoice.estimate import run_replications
from rpchoice.projection import compress


def run(*argv) -> int:
    return main(list(argv))


def load_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run_fresh(*argv) -> bool:
    """main(argv) in a fresh interpreter, which must exit 0; whether it
    imported scipy.sparse."""
    script = ("import sys\n"
              "from rpchoice.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n"
              "print('scipy.sparse' in sys.modules)")
    src = str(Path(rpchoice.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
        capture_output=True, text=True, check=True,
    )
    return {"True": True, "False": False}[done.stdout.splitlines()[-1]]


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

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity_set", "no_affinity"])
    def test_default_threads_count_the_cpus_this_process_may_use(self, tmp_path, monkeypatch,
                                                                 affinity):
        csv_path = simulate_small(tmp_path / "sim")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        seen = []

        def recording(data, **kwargs):
            seen.append(kwargs["threads"])
            return run_replications(data, **kwargs)

        monkeypatch.setattr(cli, "run_replications", recording)
        code = run("estimate", "--data", csv_path, "--k", "4", "--replications", "1",
                   "--grid", "64", "--out", str(tmp_path / "e"))
        assert code == 0
        assert seen == [3 if affinity else 8]

    def test_manifest_records_stage_seconds(self, tmp_path):
        csv_path = simulate_small(tmp_path / "sim")
        out = tmp_path / "est"
        code = run("estimate", "--data", csv_path, "--k", "4", "--replications", "1",
                   "--grid", "64", "--threads", "1", "--out", str(out))
        assert code == 0
        jl = tmp_path / "jl"
        assert run("verify-jl", "--d", "20", "--k", "4", "--draws", "1000", "--out", str(jl)) == 0
        for run_dir, names in ((tmp_path / "sim", ["simulate", "write"]),
                               (out, ["estimate", "load", "write"]),
                               (jl, ["diagnostic", "write"])):
            with open(run_dir / "manifest.json") as fh:
                manifest = json.load(fh, parse_constant=_reject_constant)
            stages = manifest["stage_seconds"]
            assert sorted(stages) == names
            assert all(0.0 <= seconds for seconds in stages.values())
            assert sum(stages.values()) <= manifest["elapsed_seconds"]
            # the peak includes the interpreter and numpy, tens of MB
            assert manifest["peak_rss_mb"] is None or 10.0 < manifest["peak_rss_mb"] < 1e4

    @pytest.mark.usefixtures("forget_last_load")
    def test_manifest_records_the_input_digest_and_cache(self, tmp_path):
        """The first estimate on a file parses it, the second, in the same
        process, reuses its Dataset; both record the SHA-256 of the bytes
        among their params, and their artifacts are identical. Neither
        writes beside the CSV."""
        csv_path = simulate_small(tmp_path / "sim")
        digest = hashlib.sha256(Path(csv_path).read_bytes()).hexdigest()
        caches = []
        for out in ("e1", "e2"):
            assert run("estimate", "--data", csv_path, "--k", "4", "--replications", "2",
                       "--grid", "64", "--threads", "1", "--out", str(tmp_path / out)) == 0
            manifest = load_manifest(str(tmp_path / out / "manifest.json"))
            assert manifest["params"]["data_sha256"] == digest
            caches.append(manifest["params"]["data_cache"])
        assert caches == ["miss", "hit"]
        assert sorted(os.listdir(tmp_path / "sim")) == ["dataset.csv", "manifest.json",
                                                         "metadata.json"]
        for name in manifest["artifacts"].values():
            assert filecmp.cmp(tmp_path / "e1" / name, tmp_path / "e2" / name, shallow=False)

    @pytest.mark.parametrize("platform, ru_maxrss, expected", [
        ("linux", 2048, 2.097152),  # KiB
        ("darwin", 2048, 0.002048),  # bytes
        ("linux", None, None),  # no resource module
    ])
    def test_manifest_records_peak_rss_mb(self, tmp_path, monkeypatch, platform, ru_maxrss,
                                          expected):
        fake = None if ru_maxrss is None else types.SimpleNamespace(
            RUSAGE_SELF=0, getrusage=lambda who: types.SimpleNamespace(ru_maxrss=ru_maxrss))
        monkeypatch.setattr(cli, "resource", fake)
        monkeypatch.setattr(cli.sys, "platform", platform)
        out = tmp_path / "jl"
        assert run("verify-jl", "--d", "20", "--k", "4", "--draws", "1000",
                   "--out", str(out)) == 0
        assert load_manifest(str(out / "manifest.json"))["peak_rss_mb"] == expected

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

    @pytest.mark.parametrize("rows, message", [
        (["1,a,0.5,1.0,0.3", "1,b,-0.5,2.0,0.4", "2,a,0.0,0.5,0.6", "2,b,1.0,1.0,0.4"],
         "error: ValidationError: market '1': shares sum to 0.7"),
        (["1,a,0.5,1.0,0.6", "1,b,-0.5,2.0,0.4", "2,a,0.0,0.5,1.0"],
         "error: DimensionError: market '2' is missing choices ['b']"),
        (["1,a,0." + "0" * 140_000 + "5,1.0,0.6", "1,b,-0.5,2.0,0.4",
          "2,a,0.0,0.5,0.6", "2,b,1.0,1.0,0.4"],
         "error: ParseError: row 2: field larger than field limit"),
        (["1,a,0.5,1.0,inf", "1,b,-0.5,2.0,-inf", "2,a,0.0,0.5,0.6", "2,b,1.0,1.0,0.4"],
         "error: ValidationError: market '1': shares contain non-finite values"),
    ], ids=["share_sum", "missing_choice", "oversized_cell", "opposite_infinities"])
    def test_malformed_data_exits_1_and_writes_nothing(self, tmp_path, capsys, rows, message):
        data = tmp_path / "d.csv"
        data.write_text("\n".join(["market,choice,x1,x2,share", *rows, ""]))
        out = tmp_path / "e"
        code = run("estimate", "--data", str(data), "--k", "2", "--replications", "1",
                   "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_data_rewritten_during_the_parse_exits_1_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        """No manifest may record a data_sha256 of bytes the run did not parse."""
        csv_path = simulate_small(tmp_path / "sim")
        parse = data_module._table_in_bulk

        def append_then_parse(path):
            with open(path, "a") as fh:
                fh.write("\n")
            return parse(path)

        monkeypatch.setattr(data_module, "_table_in_bulk", append_then_parse)
        monkeypatch.setattr(data_module, "_last_load", None)  # the same bytes may be remembered
        out = tmp_path / "e"
        code = run("estimate", "--data", csv_path, "--k", "4", "--replications", "1",
                   "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: ParseError: {csv_path}: the file changed while it was read\n")
        assert not out.exists()

    def test_unsupported_cycle_length_exits_1_and_writes_nothing(self, tmp_path, capsys):
        csv_path = simulate_small(tmp_path / "sim")
        out = tmp_path / "e"
        code = run("estimate", "--data", csv_path, "--k", "4", "--cycles", "2,4",
                   "--replications", "1", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: ParameterError: cycle length 4 is not supported; "
            "supported lengths are 2 and 3"
        )
        assert not out.exists()

    def test_sqrt_sparsity_accepted(self, tmp_path):
        csv_path = simulate_small(tmp_path / "sim")
        out = tmp_path / "est"
        code = run("estimate", "--data", csv_path, "--k", "4", "--s", "sqrt",
                   "--replications", "1", "--grid", "128", "--refine", "1",
                   "--seed", "5", "--out", str(out))
        assert code == 0
        manifest = load_manifest(str(out / "manifest.json"))
        assert manifest["params"]["s_resolved"] == pytest.approx(12 ** 0.5)

    def test_dense_run_never_imports_scipy_sparse(self, tmp_path):
        """At s = 1 every replication compresses through dense sign blocks,
        so no CSR block, an estimate's one use of scipy.sparse, is built."""
        csv_path = simulate_small(tmp_path / "sim")
        assert not run_fresh("estimate", "--data", csv_path, "--k", "4", "--s", "1",
                             "--replications", "2", "--grid", "128", "--refine", "1",
                             "--out", str(tmp_path / "est"))

    def test_csc_route_same_summary_at_one_and_two_threads(self, tmp_path):
        """s = sqrt(400) = 20 sends every replication to CSR sign blocks, so
        a fresh process first imports scipy.sparse inside its worker threads;
        the summary must not depend on how many there are."""
        csv_path = tmp_path / "d400.csv"
        write_csv(logit_oracle_dataset(6, 400, 2, np.array([0.6, 0.8]), seed=4), str(csv_path))
        for threads in ("1", "2"):
            assert run_fresh("estimate", "--data", str(csv_path), "--k", "20", "--s", "sqrt",
                             "--replications", "4", "--grid", "128", "--refine", "1",
                             "--threads", threads, "--out", str(tmp_path / f"t{threads}"))
        assert filecmp.cmp(tmp_path / "t1" / "summary.json", tmp_path / "t2" / "summary.json",
                           shallow=False)

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
        def broken_compress(spec, split):
            raise NumericalError("injected")

        csv_path = simulate_small(tmp_path / "sim")
        monkeypatch.setattr("rpchoice.estimate.compress", broken_compress)
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

    def test_partial_failure_exits_0_and_records_it(self, tmp_path, monkeypatch):
        """A run exits 1 only when every replication failed: with replication
        1 of 3 failing, a b = 3 run exits 0, its record carries the error, and
        the other two replications' betas remain."""
        failing = derive_seed(4, STREAM_PROJECTION, 1)

        def compress_but_one(spec, split):
            if spec.seed == failing:
                raise NumericalError("injected")
            return compress(spec, split)

        csv_path = tmp_path / "b3.csv"
        write_csv(logit_oracle_dataset(8, 12, 3, np.array([1.0, -0.5, 0.25]), seed=3),
                  str(csv_path))
        monkeypatch.setattr("rpchoice.estimate.compress", compress_but_one)
        out = tmp_path / "est"
        code = run("estimate", "--data", str(csv_path), "--k", "4", "--replications", "3",
                   "--restarts", "2", "--steps", "50", "--threads", "1", "--seed", "4",
                   "--out", str(out))
        assert code == 0
        with open(out / "summary.json") as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
        records = payload["records"]
        assert [r["index"] for r in records] == [0, 1, 2]
        assert records[1]["error"] == "NumericalError: injected"
        assert records[1]["beta"] == [None, None, None] and records[1]["q_min"] is None
        assert payload["errors"] == [[1, "NumericalError: injected"]]
        assert payload["betas"] == [records[0]["beta"], records[2]["beta"]]
        assert payload["summary"]["failures"] == 1


def _reject_constant(token):
    raise AssertionError(f"non-strict JSON token {token}")


def test_replication_study_threads_default_to_the_affinity_set(tmp_path, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scripts" / "replication_study.py"
    spec = importlib.util.spec_from_file_location("script_replication_study", path)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    seen = []

    class Stop(Exception):
        pass

    def recording(data, **kwargs):
        seen.append(kwargs["threads"])
        raise Stop

    monkeypatch.setattr(study, "simulate_dataset", lambda config: None)
    monkeypatch.setattr(study, "run_replications", recording)
    with pytest.raises(Stop):
        study.main(["--presets", "d100k10", "--out", str(tmp_path)])
    assert seen == [3]


@pytest.mark.usefixtures("forget_last_load")
def test_k_ladder_study_parses_its_csv_once(tmp_path):
    """One estimate run per k on one file: the first parses it, the others
    reuse its Dataset, and each rung's manifest re-runs that rung."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "k_ladder_study.py"
    spec = importlib.util.spec_from_file_location("script_k_ladder_study", path)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    csv_path = simulate_small(tmp_path / "sim")
    out = tmp_path / "ladder"
    assert study.main(["--data", csv_path, "--k", "3", "4", "6", "--replications", "2",
                       "--threads", "1", "--out", str(out)]) == 0
    ladder = json.loads((out / "k_ladder.json").read_text())
    assert ladder["data_sha256"] == hashlib.sha256(Path(csv_path).read_bytes()).hexdigest()
    assert [(row["k"], row["data_cache"]) for row in ladder["rows"]] == [
        (3, "miss"), (4, "hit"), (6, "hit")]
    for k in (3, 4, 6):
        manifest = load_manifest(str(out / f"k{k}" / "manifest.json"))
        assert manifest["params"]["k"] == k


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
