"""The benchmark's workloads, their inputs and their correctness gates.

Each workload makes its input files from the seed (set-up), then runs one
main command through `rpchoice.cli.main`. The package is always imported from
the checkout's `src/`, never from an installed copy, so a run measures the
code next to it.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import rpchoice  # noqa: E402

if Path(rpchoice.__file__).resolve().parent != SRC / "rpchoice":
    raise ImportError(f"rpchoice resolved to {rpchoice.__file__}, expected the copy in {SRC}")

from rpchoice import Dataset, Market, SimConfig, simulate_dataset, write_csv  # noqa: E402
from rpchoice.criterion import UNIT_NORM_TOL  # noqa: E402

# Acceptance tolerances of the package, restated for the gate.
THETA0 = 0.75 * math.pi  # simulate's default true angle
NESTED_MIN_FRACTION = 0.95
_ARC_SLACK = 1e-12
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Workload:
    """One fixed problem shape. kind is "circle" or "sphere"."""

    name: str
    why: str
    kind: str
    d: int
    k: int
    s: str
    n: int = 30
    mc_draws: int = 0  # share-simulation draws of the set-up
    replications: int = 0  # projection draws per main command
    threads: int = 1  # 0 means one per available core
    # solver budget; None keeps the CLI default (the smoke tests shrink it)
    restarts: int | None = None
    steps: int | None = None

    @property
    def units(self) -> int:
        return self.replications

    def data_path(self, work: Path) -> Path:
        return work / "inputs" / "dataset.csv"

    def main_argv(self, seed: int, work: Path, out: Path, threads: int | None = None) -> list[str]:
        """The main command; threads overrides the workload's thread count."""
        argv = [
            "estimate", "--data", str(self.data_path(work)), "--k", str(self.k),
            "--s", self.s, "--cycles", "2,3", "--replications", str(self.replications),
            "--threads", str(threads or self.threads or available_cores()),
            "--seed", str(seed), "--out", str(out),
        ]
        if self.restarts is not None:
            argv += ["--restarts", str(self.restarts)]
        if self.steps is not None:
            argv += ["--steps", str(self.steps)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="circle-d5000",
            why="Projection generate + apply of a 500 x 5000 matrix take 0.50 of traced "
            "run_s, load_csv 0.18-0.20, the circle scan 0.30; the only workload on the "
            "threaded replication path (--threads = nproc).",
            kind="circle", d=5000, k=500, s="1", mc_draws=1_000, replications=4, threads=0,
        ),
        Workload(
            name="sphere-b3",
            why="Three covariates: the sphere subgradient loop (CLI default 20 restarts x "
            "5,000 steps) is 0.99 of traced run_s, with no grid scan.",
            kind="sphere", d=100, k=10, s="1", mc_draws=10_000, replications=1,
        ),
    )
}


def available_cores() -> int:
    return len(os.sched_getaffinity(0))


def append_covariate(data: Dataset, seed: int) -> Dataset:
    """Add a standard-normal covariate column z (true coefficient 0).

    Drawn from its own stream of the workload seed, market by market.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xB3,)))
    markets = tuple(
        Market(np.column_stack([m.covariates, rng.standard_normal(data.d)]), m.shares)
        for m in data.markets
    )
    return Dataset(
        markets=markets,
        covariate_names=(*data.covariate_names, "z"),
        market_ids=data.market_ids,
        choice_ids=data.choice_ids,
    )


def make_inputs(w: Workload, seed: int, work: Path, tracer) -> None:
    """Write the workload's input files: what `rpchoice simulate` runs, plus
    the extra covariate for the sphere workload."""
    with tracer.span("simulate.simulate_dataset"):
        data = simulate_dataset(SimConfig(d=w.d, n=w.n, mc_draws=w.mc_draws, seed=seed))
    if w.kind == "sphere":
        with tracer.span("bench.append_covariate"):
            data = append_covariate(data, seed)
    path = w.data_path(work)
    path.parent.mkdir(parents=True, exist_ok=True)
    with tracer.span("data.write_csv"):
        write_csv(data, str(path))


def noise_cells(w: Workload) -> int:
    """Normal draws the share simulation makes: n * mc_draws * (d + 3)."""
    return w.n * w.mc_draws * (w.d + 3)


# ---------------------------------------------------------------- the gate


class GateError(Exception):
    pass


def read_strict_json(path: Path):
    """Parse JSON, rejecting the NaN/Infinity tokens Python would accept."""

    def reject(token):
        raise GateError(f"{path.name}: non-finite number {token} is not strict JSON")

    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=reject)
    except (OSError, ValueError) as exc:
        raise GateError(f"{path.name}: {exc}") from None


def _arc_offset(start: float, theta: float) -> float:
    off = (theta - start) % _TWO_PI
    return 0.0 if off >= _TWO_PI - _ARC_SLACK else off


def _arc_width(arc) -> float:
    lb, ub = arc
    return ub - lb if ub >= lb else ub - lb + _TWO_PI


def arc_contains_point(arc, theta: float) -> bool:
    return _arc_offset(arc[0], theta) <= _arc_width(arc) + _ARC_SLACK


def arc_contains_arc(outer, inner) -> bool:
    off = _arc_offset(outer[0], inner[0])
    width = _arc_width(outer) + _ARC_SLACK
    return off <= width and off + _arc_width(inner) <= width


@dataclass
class Verdict:
    """Outcome of one main command: units attempted and failed, and why."""

    units: int
    failed: int
    problems: list
    quality: float = math.nan  # mean criterion minimum over successful units

    @property
    def ok(self) -> bool:
        return not self.problems


def gate(w: Workload, returncode: int, out: Path) -> Verdict:
    """Check one main command's artifacts. Replications with an error count
    as failed units; a nonzero exit or a failed check fails every unit."""
    try:
        if returncode != 0:
            raise GateError(f"exit code {returncode}")
        read_strict_json(out / "manifest.json")
        summary = read_strict_json(out / "summary.json")
        failed, quality = _CHECKS[w.kind](w, summary)
    except GateError as exc:
        return Verdict(w.units, w.units, [str(exc)])
    except (KeyError, TypeError, ValueError) as exc:
        return Verdict(w.units, w.units, [f"summary.json malformed: {exc!r}"])
    return Verdict(w.units, failed, [], quality)


def _check_circle(w: Workload, summary: dict):
    records = summary["records"]
    if len(records) != w.replications:
        raise GateError(f"{len(records)} records for {w.replications} replications")
    good = [r for r in records if r["error"] is None]
    if not good:
        raise GateError("every replication failed")
    unprojected = summary["unprojected"]
    if not arc_contains_point(unprojected["interval_estimate"], THETA0):
        raise GateError(
            f"unprojected interval {unprojected['interval_estimate']} misses theta0 = 0.75 pi"
        )
    if unprojected["full_circle"]:
        nested = len(good)
    else:
        nested = sum(
            any(arc_contains_arc(iv, (r["lb"], r["ub"])) for iv in unprojected["intervals"])
            for r in good
        )
    if nested < NESTED_MIN_FRACTION * len(good):
        raise GateError(f"only {nested}/{len(good)} intervals nest in the unprojected set")
    return len(records) - len(good), float(np.mean([r["q_min"] for r in good]))


def _check_sphere(w: Workload, summary: dict):
    betas = np.asarray(summary["betas"], dtype=np.float64)
    failed = len(summary["errors"])
    if len(betas) + failed != w.replications:
        raise GateError(f"{len(betas)} betas + {failed} errors != {w.replications}")
    if not len(betas):
        raise GateError("every replication failed")
    if not np.isfinite(betas).all():
        raise GateError("non-finite beta")
    norms = np.linalg.norm(betas, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise GateError(f"beta norms {norms.tolist()} are not 1 within {UNIT_NORM_TOL}")
    return failed, float(summary["summary"]["mean_value"])


_CHECKS = {"circle": _check_circle, "sphere": _check_sphere}
