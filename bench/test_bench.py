"""Self-tests of the benchmark at smoke size.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl
from tracing import NullTracer, Span, children, self_seconds

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# n = 10 markets is about the smallest panel on which the circle gate's
# nesting share holds; smaller panels fail it by sampling noise alone
SMOKE = {
    "circle-d5000": dict(d=60, n=10, k=12, mc_draws=1000, replications=3),
    "sphere-b3": dict(d=50, n=10, k=10, mc_draws=1000, replications=2, restarts=2, steps=50),
}


def smoke(name: str) -> wl.Workload:
    return dataclasses.replace(wl.WORKLOADS[name], **SMOKE[name])


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    return {
        (name, trace): run.run_workload(wl, smoke(name), 3, 0.0, trace, SPEC, work_root=root)
        for name in wl.WORKLOADS
        for trace in (0, 1)
    }


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert all(w["why"] == wl.WORKLOADS[w["name"]].why for w in SPEC["workloads"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_metric_is_emitted(outcomes, name, trace):
    outcome = outcomes[name, trace]
    assert outcome["correct"], outcome["problems"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(outcome["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = outcome["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    if not trace:
        assert all(value["value"] > 0 for value in outcome["metrics"].values())


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_spans_nest_and_self_times_are_nonnegative(outcomes, name):
    spans = [Span(**s) for s in outcomes[name, 1]["spans"]]
    by_id = {s.id: s for s in spans}
    kids = children(spans)
    assert any(s.name.startswith("cli.") for s in spans)
    for s in spans:
        assert s.end >= s.start
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
            assert parent.run == s.run
        assert self_seconds(s, kids.get(s.id, [])) >= 0.0


def test_self_time_subtracts_covered_interval_once():
    parent = Span(0, None, 0, "p", 0.0, 10.0)
    kids = [Span(1, 0, 0, "a", 1.0, 4.0), Span(2, 0, 0, "b", 3.0, 5.0)]
    assert self_seconds(parent, kids) == pytest.approx(6.0)


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """One real CLI output directory per estimate kind, to doctor."""
    from rpchoice.cli import main

    root = tmp_path_factory.mktemp("gate")
    outs = {}
    for name in ("circle-d5000", "sphere-b3"):
        w = smoke(name)
        work = root / name
        wl.make_inputs(w, 5, work, NullTracer())
        out = work / "out"
        assert main(w.main_argv(5, work, out, threads=1)) == 0
        assert wl.gate(w, 0, out).ok
        outs[name] = (w, out)
    return outs


def doctored(out: Path, tmp_path: Path, edit) -> Path:
    copy = tmp_path / "doctored"
    shutil.copytree(out, copy)
    path = copy / "summary.json"
    path.write_text(edit(path.read_text()))
    return copy


def test_gate_rejects_nan_in_summary(cli_outputs, tmp_path):
    w, out = cli_outputs["circle-d5000"]
    copy = doctored(out, tmp_path, lambda text: text.replace('"q_min": ', '"q_min": NaN, "x": ', 1))
    verdict = wl.gate(w, 0, copy)
    assert not verdict.ok and verdict.failed == w.units
    assert "non-finite" in verdict.problems[0]


def test_gate_counts_a_failed_record(cli_outputs, tmp_path):
    w, out = cli_outputs["circle-d5000"]

    def fail_first(text):
        summary = json.loads(text)
        summary["records"][0]["error"] = "NumericalError: doctored"
        return json.dumps(summary)

    verdict = wl.gate(w, 0, doctored(out, tmp_path, fail_first))
    assert verdict.ok and verdict.failed == 1


def test_gate_rejects_non_unit_beta(cli_outputs, tmp_path):
    w, out = cli_outputs["sphere-b3"]

    def stretch(text):
        summary = json.loads(text)
        summary["betas"][0] = [2.0 * b for b in summary["betas"][0]]
        return json.dumps(summary)

    verdict = wl.gate(w, 0, doctored(out, tmp_path, stretch))
    assert not verdict.ok and verdict.failed == w.units


def test_gate_fails_every_unit_on_nonzero_exit(cli_outputs):
    w, out = cli_outputs["circle-d5000"]
    verdict = wl.gate(w, 1, out)
    assert not verdict.ok and verdict.failed == w.units


def test_exits_nonzero_without_source(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, there is nothing to measure."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "circle-d5000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
