"""Traced replay of a workload's main command through the public API.

The replay parses the same argv with the CLI's own parser, so every default
(grid, refine, restarts, steps, cycles) is the CLI's. It then runs the steps
`rpchoice estimate` runs, serially, with a span around
each call into a module:

    load_csv -> enumerate_cycles -> estimate on the full data (circle only)
    -> per replication: ProjectionSpec -> generate -> apply -> estimate
    -> summary artifacts

After the run span closes, each compressed dataset gets one evaluator build
and one angle-grid probe (circle only), timed outside the replication spans.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from rpchoice import (
    CriterionEvaluator,
    ProjectionSpec,
    apply,
    enumerate_cycles,
    estimate_polar_grid,
    estimate_subgradient,
    generate,
    load_csv,
    resolve_sparsity,
    write_grid_csv,
)
from rpchoice._seeds import STREAM_PROJECTION, STREAM_RESTARTS, derive_seed
from rpchoice.cli import build_parser

from tracing import Tracer, children, self_seconds
from workloads import Workload, noise_cells

SUBGRADIENT = "criterion.value_and_subgradient"

# replay results must match the CLI's summary.json within these
_ANGLE_TOL = 1e-9
_REL_TOL = 1e-9


def generate_bytes(k: int, d: int, nnz: int) -> int:
    """Computed, not measured: the float64 k x d uniform matrix, three k x d
    boolean masks, and four 8-byte arrays per nonzero (rows, cols, values,
    sort order) that generate() allocates."""
    return 11 * k * d + 32 * nnz


def replay(argv: list[str], tracer: Tracer) -> dict:
    """Run the main command's steps with spans; return its results and counts."""
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    counts = {"rows": 0, "cycles": 0, "cells_drawn": 0, "nnz": 0, "generate_bytes": 0,
              "grid_cells": 0, "failed_replications": 0}
    with tracer.span("cli." + args.command):
        result = _replay_estimate(args, tracer, counts)
        with open(out / "summary.json", "w") as fh:
            json.dump(result["summary"], fh, indent=2, sort_keys=True)
    for compressed in result.pop("compressed", []):
        with tracer.span("criterion.evaluator_build"):
            evaluator = CriterionEvaluator(compressed, result["cycles"])
        if evaluator.b == 2:
            thetas = np.arange(args.grid) * (2.0 * math.pi / args.grid)
            with tracer.span("criterion.value_grid"):
                evaluator.value_grid(thetas)
            counts["grid_cells"] += evaluator.n_cycles * args.grid
    result["counts"] = counts
    return result


def _replay_estimate(args, tracer, counts) -> dict:
    with tracer.span("data.load_csv"):
        data = load_csv(args.data)
    counts["rows"] = data.n * data.d
    s = resolve_sparsity(args.s, data.d)
    with tracer.span("criterion.enumerate_cycles"):
        cycles = enumerate_cycles(data.n, args.cycles)
    counts["cycles"] = len(cycles)
    circle = data.b == 2
    summary: dict = {"records": []}
    if circle:
        with tracer.span("estimate.unprojected"), tracer.span("estimate.polar_grid"):
            grid0, unprojected = estimate_polar_grid(data, cycles, args.grid, args.refine)
        summary["unprojected"] = unprojected.to_dict()
    compressed_all = []
    for r in range(args.replications):
        record: dict = {"index": r, "error": None}
        with tracer.span("estimate.replication"):
            try:
                spec = ProjectionSpec(
                    k=args.k, d=data.d, s=s, seed=derive_seed(args.seed, STREAM_PROJECTION, r)
                )
                with tracer.span("projection.generate"):
                    projection = generate(spec)
                with tracer.span("projection.apply"):
                    compressed = apply(projection, data)
                counts["cells_drawn"] += spec.k * spec.d
                counts["nnz"] += projection.nnz
                counts["generate_bytes"] += generate_bytes(spec.k, spec.d, projection.nnz)
                if circle:
                    with tracer.span("estimate.polar_grid"):
                        _, idset = estimate_polar_grid(compressed, cycles, args.grid, args.refine)
                    lb, ub = idset.interval_estimate
                    record.update(lb=lb, ub=ub, q_min=idset.q_min)
                else:
                    with tracer.span("estimate.subgradient"):
                        result = estimate_subgradient(
                            compressed, cycles, restarts=args.restarts, steps=args.steps,
                            seed=derive_seed(args.seed, STREAM_RESTARTS, r),
                        )
                    record.update(beta=result.beta.tolist(), value=result.value)
                compressed_all.append(compressed)
            except Exception as exc:  # noqa: BLE001 - mirrors the CLI's per-replication record
                record["error"] = f"{type(exc).__name__}: {exc}"
                counts["failed_replications"] += 1
        summary["records"].append(record)
    good = [rec for rec in summary["records"] if rec["error"] is None]
    key = "q_min" if circle else "value"
    quality = float(np.mean([rec[key] for rec in good])) if good else math.nan
    if circle:
        write_grid_csv(grid0, str(Path(args.out) / "grid.csv"))
    return {"summary": summary, "quality": quality, "compressed": compressed_all,
            "cycles": cycles}


def mismatches(kind: str, replayed: dict, cli_summary: dict) -> list[str]:
    """Differences between the replay's results and the CLI's summary.json."""
    problems = []

    def close(a, b, rel=_REL_TOL, abs_=_ANGLE_TOL):
        return a == b or abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))

    records = replayed["records"]
    if kind == "circle":
        if not all(close(a, b) for a, b in zip(replayed["unprojected"]["interval_estimate"],
                                               cli_summary["unprojected"]["interval_estimate"])):
            problems.append("unprojected interval differs")
        for mine, theirs in zip(records, cli_summary["records"]):
            if (mine["error"] is None) != (theirs["error"] is None):
                problems.append(f"replication {mine['index']}: failure differs")
            elif mine["error"] is None and not (
                close(mine["lb"], theirs["lb"]) and close(mine["ub"], theirs["ub"])
                and close(mine["q_min"], theirs["q_min"], abs_=0.0)
            ):
                problems.append(f"replication {mine['index']}: interval or q_min differs")
    else:
        betas = [rec["beta"] for rec in records if rec["error"] is None]
        cli_betas = cli_summary["betas"]
        if len(betas) != len(cli_betas) or not np.allclose(
            betas, cli_betas, rtol=_REL_TOL, atol=_ANGLE_TOL
        ):
            problems.append("betas differ")
    return problems


def layer_metrics(w: Workload, tracer: Tracer, result: dict, untraced_run_s: float) -> dict:
    """Per-layer metrics from the spans of one traced set-up + replay."""
    spans = tracer.spans
    kids = children(spans)
    by_id = {s.id: s for s in spans}

    def parent_is(s, parent_name):
        return parent_name is None or (s.parent is not None and by_id[s.parent].name == parent_name)

    def durations(name, parent_name=None):
        return [s.seconds for s in spans if s.name == name and parent_is(s, parent_name)]

    def total(name, parent_name=None):
        return float(sum(durations(name, parent_name)))

    def pct(name, q, parent_name=None):
        values = durations(name, parent_name)
        return float(np.percentile(values, q)) if values else 0.0

    root = next(s for s in spans if s.name.startswith("cli."))
    c = result["counts"]
    traced_run_s = root.seconds
    return {
        "simulate.simulate_dataset_s": total("simulate.simulate_dataset"),
        "simulate.noise_cells": noise_cells(w),
        "data.write_csv_s": total("data.write_csv"),
        "data.load_csv_s": total("data.load_csv"),
        "data.rows": c["rows"],
        "projection.generate_s": total("projection.generate"),
        "projection.apply_s": total("projection.apply"),
        "projection.cells_drawn": c["cells_drawn"],
        "projection.nnz": c["nnz"],
        "projection.generate_bytes": c["generate_bytes"],
        "criterion.enumerate_cycles_s": total("criterion.enumerate_cycles"),
        "criterion.cycles": c["cycles"],
        "criterion.evaluator_build_s": total("criterion.evaluator_build"),
        "criterion.value_grid_s": total("criterion.value_grid"),
        "criterion.grid_cells": c["grid_cells"],
        "criterion.subgradient_calls": tracer.calls[SUBGRADIENT],
        "criterion.subgradient_call_s": tracer.call_seconds[SUBGRADIENT],
        "estimate.unprojected_s": total("estimate.unprojected"),
        "estimate.polar_grid_s": total("estimate.polar_grid", "estimate.replication"),
        "estimate.polar_grid_s.p50": pct("estimate.polar_grid", 50, "estimate.replication"),
        "estimate.polar_grid_s.p90": pct("estimate.polar_grid", 90, "estimate.replication"),
        "estimate.replication_s": total("estimate.replication"),
        "estimate.replication_s.p50": pct("estimate.replication", 50),
        "estimate.replication_s.p90": pct("estimate.replication", 90),
        "estimate.subgradient_s": total("estimate.subgradient"),
        "estimate.subgradient_s.p50": pct("estimate.subgradient", 50),
        "estimate.failed_replications": c["failed_replications"],
        # 0 where every replication failed
        "estimate.q_mean": result["quality"] if math.isfinite(result["quality"]) else 0.0,
        "cli.unaccounted_s": self_seconds(root, kids.get(root.id, [])),
        "trace.run_s": traced_run_s,
        "trace.overhead_frac": (traced_run_s - untraced_run_s) / untraced_run_s,
    }
