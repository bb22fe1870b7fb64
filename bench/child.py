"""Run benchmark steps in a fresh interpreter and write their costs as JSON.

    python3 bench/child.py STATS_JSON setup '{"workload": {...}, "seed": N, "work": DIR, "repeats": R, "seconds": S}'
    python3 bench/child.py STATS_JSON repeat '{"workload": {...}, "seed": N, "work": DIR, "seconds": T}'

`setup` writes a workload's input files at least R times and until S seconds
have gone into them, and times each. `repeat` runs the workload's main command
through `rpchoice.cli.main` once cold, then again and again while the next
call should end within T seconds of the cold call's start (at least once
warm), each call into its own output directory (WORK/out-<i>). Each call is
timed from inside the process, so run_s excludes interpreter start-up and
imports. peak_rss_mb is the process's peak resident set after the first call,
before any repeat, so it is that of a process that ran the main command once.
"""

import json
import resource
import sys
import time
from pathlib import Path

import workloads  # puts the checkout's src/ first on sys.path
from rpchoice.cli import main as cli_main
from tracing import NullTracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def timed(fn, *args) -> tuple[int, float]:
    start = time.perf_counter()
    rc = fn(*args)
    return rc, time.perf_counter() - start


def run(action: str, payload) -> dict:
    w = workloads.Workload(**payload["workload"])
    seed, work = payload["seed"], Path(payload["work"])
    if action == "setup":
        times = []
        while len(times) < payload["repeats"] or sum(times) < payload["seconds"]:
            times.append(timed(workloads.make_inputs, w, seed, work, NullTracer())[1])
        return {"setup_s": times}
    if action == "repeat":
        calls = []

        def call():
            out = work / f"out-{len(calls)}"
            rc, seconds = timed(cli_main, w.main_argv(seed, work, out))
            calls.append({"rc": rc, "run_s": seconds, "out": str(out)})
            return rc

        start = time.perf_counter()
        if call() != 0:
            return {"calls": calls, "peak_rss_mb": peak_rss_mb()}
        rss = peak_rss_mb()
        while True:
            if call() != 0:
                break
            elapsed = time.perf_counter() - start
            if elapsed + calls[-1]["run_s"] > payload["seconds"]:
                break
        return {"calls": calls, "peak_rss_mb": rss}
    raise SystemExit(f"unknown action {action!r}")


def main() -> int:
    stats_path, action, payload = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    stats = run(action, payload)
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
