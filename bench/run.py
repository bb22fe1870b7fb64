"""rpchoice benchmark: drives the CLI end to end on fixed workloads.

    python3 bench/run.py --workload circle-d5000 --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. One fresh process
writes the workload's inputs at least SETUP_REPEATS times and for at least
SETUP_SECONDS (median: setup_s). Another runs the main command once cold
(peak_rss_mb), then again and again for --seconds (medians of the warm calls:
run_s, units_per_s). Every call's artifacts are gated. A warm call starts only
if it should end within --seconds; at least one runs.

--trace 1 writes the inputs once in-process with spans, runs the main command
untraced at --threads 1 (once cold, once warm), then replays it serially
through the public API with spans (replay.py) and reports the per-layer
metrics. The replay must reproduce the CLI's summary.json.

The last line of stdout is one JSON object: correct, attempted, failed and the
metrics BENCHMARK.json names for the chosen trace mode. Per-run samples, the
environment and (traced) the spans go to bench/.work/results/. Exit codes: 0
correct, 1 a gate failed, 2 the checkout has no rpchoice source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
# set-ups under a second (sphere-b3) repeat for SETUP_SECONDS so that their
# median is steady; the 4-5 s set-up of circle-d5000 runs SETUP_REPEATS times
SETUP_REPEATS = 3
SETUP_SECONDS = 5.0
# BLAS runs one thread per process in every run (set before numpy loads, and
# inherited by the children): OpenBLAS threading on the solvers' small
# products swung sphere-b3 run times by up to 40% from run to run, and one
# BLAS thread leaves the CLI's own --threads as the only parallelism measured.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# every child must end before this many seconds after start, so that one
# invocation ends within 180 s
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


class Runner:
    """Starts children for one workload invocation under a shared deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.children = 0

    def child(self, action: str, payload) -> dict:
        """Run child.py; return the stats it wrote."""
        stats_path = self.work / f"stats-{self.children}.json"
        self.children += 1
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a child process")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(stats_path), action,
                 json.dumps(payload)],
                cwd=ROOT, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{action} child exceeded the {DEADLINE_S:.0f} s deadline") from None
        if proc.returncode != 0 or not stats_path.exists():
            raise BenchError(f"{action} child exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(stats_path.read_text())


def measure(wl, w, seed: int, seconds: float, runner: Runner) -> dict:
    """Untraced: set-up repeats in one process, then the main command
    repeated in another warm process for `seconds`; every call is gated."""
    payload = {"workload": vars(w), "seed": seed, "work": str(runner.work)}
    setup = runner.child("setup", {**payload, "repeats": SETUP_REPEATS,
                                    "seconds": SETUP_SECONDS})
    stats = runner.child("repeat", {**payload, "seconds": seconds})
    runs = []
    for call in stats["calls"]:
        out = Path(call["out"])
        verdict = wl.gate(w, call["rc"], out)
        runs.append({"run_s": call["run_s"], "units": verdict.units, "failed": verdict.failed,
                     "problems": verdict.problems, "quality": verdict.quality})
        shutil.rmtree(out, ignore_errors=True)
    # the first call runs cold and is gated, but only warm calls are timed
    timed = runs[1:] or runs
    attempted = sum(r["units"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "setup_s": statistics.median(setup["setup_s"]),
        "run_s": statistics.median(r["run_s"] for r in timed),
        "units_per_s": statistics.median((r["units"] - r["failed"]) / r["run_s"] for r in timed),
        "peak_rss_mb": stats["peak_rss_mb"],
        "success_frac": 1.0 - failed / attempted,
    }
    problems = [p for r in runs for p in r["problems"]]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "samples": {"setup_s": setup["setup_s"], "runs": runs}}


def traced(wl, w, seed: int, runner: Runner) -> dict:
    """Traced: in-process set-up and serial replay, against an untraced run."""
    from replay import SUBGRADIENT, layer_metrics, mismatches, replay
    from rpchoice import CriterionEvaluator
    from tracing import Tracer, self_times

    tracer = Tracer()
    with tracer.span("setup"):
        wl.make_inputs(w, seed, runner.work, tracer)
    # the untraced baseline runs at --threads 1 like the serial replay, so that
    # circle-d5000's thread-pool gain is not counted as tracing overhead; its
    # warm call is the one compared, as the replay runs after the set-up
    serial = {**vars(w), "threads": 1}
    stats = runner.child("repeat", {"workload": serial, "seed": seed, "work": str(runner.work),
                                    "seconds": 0})
    verdicts = [wl.gate(w, call["rc"], Path(call["out"])) for call in stats["calls"]]
    call, verdict = stats["calls"][-1], verdicts[-1]
    problems = [p for v in verdicts for p in v.problems]
    with tracer.counting(CriterionEvaluator, "value_and_subgradient", SUBGRADIENT):
        result = replay(w.main_argv(seed, runner.work, runner.work / "replay", threads=1), tracer)
    if not problems:
        cli_summary = wl.read_strict_json(Path(call["out"]) / "summary.json")
        problems += [f"replay: {p}" for p in mismatches(w.kind, result["summary"], cli_summary)]
    failed = verdict.units if problems else verdict.failed
    metrics = layer_metrics(w, tracer, result, call["run_s"])
    return {"metrics": metrics, "attempted": verdict.units, "failed": failed,
            "problems": problems, "samples": {"untraced_run_s": call["run_s"]},
            "spans": tracer.to_dicts(), "self_s": self_times(tracer.spans)}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((ROOT / "src" / "rpchoice").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "seed": seed,
        "computed_not_measured": [
            "simulate.noise_cells", "projection.cells_drawn", "projection.generate_bytes",
            "criterion.grid_cells",
        ],
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_workload(wl, w, seed: int, seconds: float, trace: int, spec: dict,
                 work_root: Path = WORK) -> dict:
    """Measure one workload; write its full outcome under work_root/results."""
    work = work_root / f"{w.name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        outcome = traced(wl, w, seed, runner) if trace else measure(wl, w, seed, seconds, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = spec["per_layer" if trace else "end_to_end"]
    outcome["metrics"] = {
        m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]} for m in wanted
    }
    outcome["correct"] = not outcome["problems"] and outcome["failed"] == 0
    outcome["workload"] = w.name
    outcome["env"] = environment(seed)
    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-seed{seed}-trace{trace}.json").write_text(json.dumps(outcome, indent=1))
    return outcome


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
        import workloads as wl
    except (OSError, ImportError) as exc:
        print(f"error: nothing to measure here: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = []
    for name in names:
        try:
            outcome = run_workload(wl, wl.WORKLOADS[name], args.seed, args.seconds, args.trace,
                                   spec)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        outcomes.append(outcome)
        for problem in outcome["problems"]:
            print(f"{name}: GATE FAILED: {problem}")
        for metric, m in outcome["metrics"].items():
            print(f"{name:13s} {metric:30s} {m['value']:.6g} {m['unit']}")
    print("env: " + json.dumps(outcomes[0]["env"], sort_keys=True))

    if len(outcomes) == 1:
        metrics = outcomes[0]["metrics"]
    else:
        metrics = {f"{o['workload']}/{k}": v for o in outcomes for k, v in o["metrics"].items()}
    correct = all(o["correct"] for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
