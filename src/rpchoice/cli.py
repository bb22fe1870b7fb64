"""Command-line front end: simulate, estimate, verify-jl, project.

Every run writes its artifacts into one output directory together with a
manifest.json recording the command, the full resolved parameter set, the
master seed, and an argv that re-runs the job bit-identically (pointed at a
fresh --out). All randomness flows from the single --seed; sub-seeds are
derived per stage and per replication, so thread count never changes results.

Output root: --out paths are resolved relative to $RPCHOICE_OUT when that is
set, else the working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
from ._seeds import STREAM_COVARIATES, derive_rng
from .data import load_csv, save_metadata, write_csv
from .errors import ParameterError
from .estimate import (
    run_coefficient_replications,
    run_replications,
    write_grid_csv,
)
from .projection import (
    ProjectionSpec,
    generate,
    jl_diagnostic,
    resolve_sparsity,
    save_projection,
)
from .simulate import DEFAULT_THETA, ErrorSpec, SimConfig, simulate_dataset

TOOL_NAME = "rpchoice"
SCHEMA_VERSION = 1
OUT_ROOT_ENV = "RPCHOICE_OUT"

# design presets: (d, k), all with the default n = 30 markets
PRESETS: dict[str, tuple[int, int]] = {
    "d100k10": (100, 10),
    "d500k100": (500, 100),
    "d1000k100": (1000, 100),
    "d5000k100": (5000, 100),
    "d5000k500": (5000, 500),
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _cycles_list(text: str) -> tuple[int, ...]:
    try:
        lengths = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated cycle lengths, got {text!r}"
        ) from None
    if not lengths:
        raise argparse.ArgumentTypeError("no cycle lengths given")
    return lengths


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to account for and re-run one CLI invocation."""

    command: str
    seed: int
    params: dict
    argv: list[str]
    artifacts: dict
    started_utc: str
    elapsed_seconds: float

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": TOOL_NAME,
            "tool_version": __version__,
            "command": self.command,
            "seed": self.seed,
            "params": self.params,
            "argv": self.argv,
            "artifacts": self.artifacts,
            "started_utc": self.started_utc,
            "elapsed_seconds": self.elapsed_seconds,
        }


def load_manifest(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _null_non_finite(value):
    """Replace NaN and infinities with None, which strict JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _null_non_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_non_finite(item) for item in value]
    return value


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(_null_non_finite(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _resolve_out(out: str | None, default_name: str) -> str:
    root = os.environ.get(OUT_ROOT_ENV, "")
    path = out if out else default_name
    if not os.path.isabs(path) and root:
        path = os.path.join(root, path)
    os.makedirs(path, exist_ok=True)
    return path


class _Timer:
    def __init__(self):
        self.started_utc = datetime.now(timezone.utc).isoformat(timespec="seconds")
        self._t0 = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self._t0


def _finish(out_dir, command, seed, params, argv, artifacts, timer) -> None:
    manifest = RunManifest(
        command=command,
        seed=seed,
        params=params,
        argv=argv,
        artifacts=artifacts,
        started_utc=timer.started_utc,
        elapsed_seconds=timer.elapsed,
    )
    _write_json(manifest.to_dict(), os.path.join(out_dir, "manifest.json"))


def cmd_simulate(args) -> int:
    timer = _Timer()
    if args.preset is not None:
        d, _ = PRESETS[args.preset]
    else:
        d = args.d
    config = SimConfig(
        d=d,
        n=args.n,
        theta0=args.theta0,
        covariate_mode=args.mode,
        error=ErrorSpec(kind=args.error),
        mc_draws=args.mc_draws,
        seed=args.seed,
    )
    data = simulate_dataset(config)

    out_dir = _resolve_out(args.out, f"simulate-seed{args.seed}")
    write_csv(data, os.path.join(out_dir, "dataset.csv"))
    save_metadata(data, os.path.join(out_dir, "metadata.json"))

    params = {
        "d": config.d,
        "n": config.n,
        "theta0": config.theta0,
        "mode": config.covariate_mode,
        "error": config.error.kind,
        "mc_draws": config.resolved_mc_draws,
        "preset": args.preset,
    }
    argv = [
        "simulate",
        "--d", str(config.d),
        "--n", str(config.n),
        "--theta0", repr(config.theta0),
        "--mode", config.covariate_mode,
        "--error", config.error.kind,
        "--mc-draws", str(config.resolved_mc_draws),
        "--seed", str(args.seed),
    ]
    artifacts = {"dataset": "dataset.csv", "metadata": "metadata.json"}
    _finish(out_dir, "simulate", args.seed, params, argv, artifacts, timer)
    print(f"wrote dataset.csv (n={config.n}, d={config.d}) to {out_dir}")
    return 0


def cmd_estimate(args) -> int:
    timer = _Timer()
    data = load_csv(args.data)
    s_resolved = resolve_sparsity(args.s, data.d)
    if args.k > data.d:
        raise ParameterError(f"k={args.k} exceeds the data dimension d={data.d}")
    threads = args.threads if args.threads else (os.cpu_count() or 1)

    out_dir = _resolve_out(args.out, f"estimate-seed{args.seed}")
    artifacts = {"summary": "summary.json"}

    if data.b == 2:
        summary = run_replications(
            data,
            k=args.k,
            s=s_resolved,
            replications=args.replications,
            master_seed=args.seed,
            cycle_lengths=args.cycles,
            grid_size=args.grid,
            refine=args.refine,
            threads=threads,
        )
        write_grid_csv(summary.unprojected_grid, os.path.join(out_dir, "grid.csv"))
        artifacts["grid"] = "grid.csv"
        lo, hi = summary.unprojected_set.interval_estimate
        report = (
            f"unprojected interval [{lo:.4f}, {hi:.4f}], "
            f"mean projected [{summary.mean_lb:.4f}, {summary.mean_ub:.4f}], "
            f"nested {summary.nested_count}/{summary.successes}"
        )
        succeeded = summary.successes
    else:
        summary = run_coefficient_replications(
            data,
            k=args.k,
            s=s_resolved,
            replications=args.replications,
            master_seed=args.seed,
            cycle_lengths=args.cycles,
            restarts=args.restarts,
            steps=args.steps,
            threads=threads,
        )
        succeeded = summary.replications - len(summary.failures)
        report = f"{succeeded} replications succeeded"

    payload = {"schema_version": SCHEMA_VERSION, **summary.to_dict()}
    _write_json(payload, os.path.join(out_dir, "summary.json"))

    params = {
        "data": os.path.abspath(args.data),
        "k": args.k,
        "s": args.s,
        "s_resolved": s_resolved,
        "cycles": list(args.cycles),
        "replications": args.replications,
        "grid": args.grid,
        "refine": args.refine,
        "restarts": args.restarts,
        "steps": args.steps,
    }
    argv = [
        "estimate",
        "--data", os.path.abspath(args.data),
        "--k", str(args.k),
        "--s", str(args.s),
        "--cycles", ",".join(str(c) for c in args.cycles),
        "--replications", str(args.replications),
        "--grid", str(args.grid),
        "--refine", str(args.refine),
        "--restarts", str(args.restarts),
        "--steps", str(args.steps),
        "--seed", str(args.seed),
    ]
    _finish(out_dir, "estimate", args.seed, params, argv, artifacts, timer)
    if succeeded == 0:
        print(
            f"error: all {args.replications} replications failed; their errors "
            f"are in {os.path.join(out_dir, 'summary.json')}",
            file=sys.stderr,
        )
        return 1
    print(f"{report}; wrote summary.json to {out_dir}")
    return 0


def cmd_verify_jl(args) -> int:
    timer = _Timer()
    s_resolved = resolve_sparsity(args.s, args.d)
    spec = ProjectionSpec(k=args.k, d=args.d, s=s_resolved, seed=args.seed)
    rng = derive_rng(args.seed, STREAM_COVARIATES)
    u, v = rng.standard_normal((2, args.d))
    diag = jl_diagnostic(u, v, spec, args.draws)

    out_dir = _resolve_out(args.out, f"verify-jl-seed{args.seed}")
    payload = {"schema_version": SCHEMA_VERSION, **diag.to_dict()}
    _write_json(payload, os.path.join(out_dir, "summary.json"))

    params = {"d": args.d, "k": args.k, "s": args.s, "s_resolved": s_resolved, "draws": args.draws}
    argv = [
        "verify-jl",
        "--d", str(args.d),
        "--k", str(args.k),
        "--s", str(args.s),
        "--draws", str(args.draws),
        "--seed", str(args.seed),
    ]
    _finish(out_dir, "verify-jl", args.seed, params, argv, {"summary": "summary.json"}, timer)
    tag = " (gaussian-equivalent)" if diag.gaussian_equivalent else ""
    print(
        f"s={s_resolved:g}{tag}: mean {diag.mean_sq_dist:.6f} vs exact "
        f"{diag.exact_sq_dist:.6f} (rel err {diag.mean_rel_err:.3%}), "
        f"variance rel err {diag.var_rel_err:.3%}"
    )
    return 0


def cmd_project(args) -> int:
    timer = _Timer()
    data = load_csv(args.data)
    s_resolved = resolve_sparsity(args.s, data.d)
    spec = ProjectionSpec(k=args.k, d=data.d, s=s_resolved, seed=args.seed)
    projection = generate(spec)

    out_dir = _resolve_out(args.out, f"project-seed{args.seed}")
    save_projection(projection, os.path.join(out_dir, "projection.bin"))

    params = {
        "data": os.path.abspath(args.data),
        "k": args.k,
        "d": data.d,
        "s": args.s,
        "s_resolved": s_resolved,
        "nnz": projection.nnz,
    }
    argv = [
        "project",
        "--data", os.path.abspath(args.data),
        "--k", str(args.k),
        "--s", str(args.s),
        "--seed", str(args.seed),
    ]
    _finish(
        out_dir, "project", args.seed, params, argv, {"projection": "projection.bin"}, timer
    )
    print(
        f"wrote projection.bin: k={args.k}, d={data.d}, s={s_resolved:g}, "
        f"{projection.nnz} nonzeros ({projection.nonzero_fraction:.2%} of cells)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Compress large-choice-set data with sparse random projections "
        "and estimate choice-model coefficients from cycle inequalities.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(PRESETS), help="named design")
    group.add_argument("--d", type=_positive_int, help="number of choices")
    p_sim.add_argument("--n", type=_positive_int, default=30, help="number of markets")
    p_sim.add_argument("--theta0", type=float, default=DEFAULT_THETA)
    p_sim.add_argument(
        "--mode",
        choices=["iid", "brand-effects", "market-effects"],
        default="iid",
        help="covariate dependence structure",
    )
    p_sim.add_argument("--error", choices=["ma-window", "iid-gumbel"], default="ma-window")
    p_sim.add_argument("--mc-draws", type=_positive_int, default=None)
    p_sim.add_argument("--seed", type=_nonnegative_int, default=0)
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="replicated projection + estimation")
    p_est.add_argument("--data", required=True, help="dataset CSV")
    p_est.add_argument("--k", type=_positive_int, required=True, help="projected dimension")
    p_est.add_argument("--s", default="1", help="sparsity: 1, 3, sqrt, or a number")
    p_est.add_argument("--cycles", type=_cycles_list, default=(2, 3))
    p_est.add_argument("--replications", type=_positive_int, default=100)
    p_est.add_argument(
        "--grid",
        type=_positive_int,
        default=2000,
        help="angles in the plotted grid.csv (b = 2); the estimate itself is exact",
    )
    p_est.add_argument(
        "--refine",
        type=_positive_int,
        default=10,
        help="accepted for compatibility; changes no result, since the arcs are exact",
    )
    p_est.add_argument(
        "--restarts",
        type=_positive_int,
        default=20,
        help="random sphere starts per replication (data with b != 2 covariates)",
    )
    p_est.add_argument(
        "--steps",
        type=_positive_int,
        default=5000,
        help="cap on active-set iterations per restart (data with b != 2 covariates)",
    )
    p_est.add_argument("--threads", type=_positive_int, default=None)
    p_est.add_argument("--seed", type=_nonnegative_int, default=0)
    p_est.add_argument("--out", default=None)
    p_est.set_defaults(func=cmd_estimate)

    p_jl = sub.add_parser("verify-jl", help="distance-preservation diagnostic")
    p_jl.add_argument("--d", type=_positive_int, required=True)
    p_jl.add_argument("--k", type=_positive_int, required=True)
    p_jl.add_argument("--s", default="1")
    p_jl.add_argument("--draws", type=_positive_int, required=True)
    p_jl.add_argument("--seed", type=_nonnegative_int, default=0)
    p_jl.add_argument("--out", default=None)
    p_jl.set_defaults(func=cmd_verify_jl)

    p_proj = sub.add_parser("project", help="generate and cache a projection matrix")
    p_proj.add_argument("--data", required=True, help="dataset CSV fixing the dimension d")
    p_proj.add_argument("--k", type=_positive_int, required=True)
    p_proj.add_argument("--s", default="1")
    p_proj.add_argument("--seed", type=_nonnegative_int, default=0)
    p_proj.add_argument("--out", default=None)
    p_proj.set_defaults(func=cmd_project)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
