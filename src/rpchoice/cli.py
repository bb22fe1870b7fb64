"""Command-line front end: simulate, estimate, verify-jl.

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
from datetime import datetime, timezone
from functools import partial

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__
from ._seeds import STREAM_COVARIATES, available_cpus, derive_rng
from .data import load_csv, save_metadata, write_csv
from .estimate import run_replications, write_grid_csv
from .projection import ProjectionSpec, jl_diagnostic, resolve_sparsity
from .simulate import (
    COVARIATE_MODES,
    DEFAULT_THETA,
    ERROR_KINDS,
    SimConfig,
    simulate_dataset,
)

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


def _int_type(low: int, kind: str):
    """Argument type for integers of at least `low`, named `kind` in errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
        return value

    return parse


_positive_int = _int_type(1, "positive")
_nonnegative_int = _int_type(0, "nonnegative")


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
    return path


def _flag_text(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(str(item) for item in value)
    return str(value)


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size in MB (10^6 bytes), or None where
    the resource module is missing. ru_maxrss counts KiB on Linux and bytes
    on macOS."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6


def _run(body, parser: argparse.ArgumentParser, args) -> int:
    """Run one command and write its manifest.json.

    `body(args, out_dir, stages)` does the command's work and returns
    (resolved, artifacts, report, code): `resolved` maps flags to the values
    the run actually used, plus derived values such as s_resolved; `artifacts`
    maps a key to (file name, writer). A body may record the wall seconds of
    its stages in `stages`; writing the artifacts is timed as `write`, and
    all are written as the manifest's stage_seconds, beside the process's
    peak_rss_mb at the end of the run. The output directory is
    created only once the body has returned, so a run that fails early
    leaves nothing behind.

    The manifest's `params` and re-run `argv` come from the subcommand's own
    flags. `params` leaves out --seed (recorded on its own), --out and
    --threads (neither changes a result); `argv` also leaves out --preset,
    whose design it pins through the resolved --d.
    """
    started_utc = datetime.now(timezone.utc).isoformat(timespec="seconds")
    t0 = time.monotonic()
    out_dir = _resolve_out(args.out, f"{args.command}-seed{args.seed}")
    stages: dict[str, float] = {}
    resolved, artifacts, report, code = body(args, out_dir, stages)
    os.makedirs(out_dir, exist_ok=True)
    t_write = time.monotonic()
    for name, write in artifacts.values():
        write(os.path.join(out_dir, name))
    stages["write"] = time.monotonic() - t_write

    values = {**vars(args), **resolved}
    flags = [a for a in parser._actions if a.option_strings and a.dest != "help"]
    params = {a.dest: values[a.dest] for a in flags if a.dest not in ("seed", "out", "threads")}
    argv = [args.command]
    for a in flags:
        if a.dest not in ("out", "threads", "preset"):
            argv += [a.option_strings[0], _flag_text(values[a.dest])]
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "tool_version": __version__,
        "command": args.command,
        "seed": args.seed,
        "params": {**params, **resolved},
        "argv": argv,
        "artifacts": {key: name for key, (name, _) in artifacts.items()},
        "started_utc": started_utc,
        "elapsed_seconds": time.monotonic() - t0,
        "stage_seconds": stages,
        "peak_rss_mb": _peak_rss_mb(),
    }
    _write_json(manifest, os.path.join(out_dir, "manifest.json"))
    print(report, file=sys.stderr if code else sys.stdout)
    return code


def cmd_simulate(args, out_dir, stages):
    d = PRESETS[args.preset][0] if args.preset is not None else args.d
    config = SimConfig(
        d=d,
        n=args.n,
        theta0=args.theta0,
        covariate_mode=args.mode,
        error=args.error,
        mc_draws=args.mc_draws,
        seed=args.seed,
    )
    t0 = time.monotonic()
    data = simulate_dataset(config)
    stages["simulate"] = time.monotonic() - t0
    artifacts = {
        "dataset": ("dataset.csv", partial(write_csv, data)),
        "metadata": ("metadata.json", partial(save_metadata, data)),
    }
    resolved = {"d": config.d, "mc_draws": config.resolved_mc_draws}
    return resolved, artifacts, f"wrote dataset.csv (n={config.n}, d={config.d}) to {out_dir}", 0


def cmd_estimate(args, out_dir, stages):
    t0 = time.monotonic()
    data = load_csv(args.data)
    stages["load"] = time.monotonic() - t0
    s_resolved = resolve_sparsity(args.s, data.d)
    t0 = time.monotonic()
    summary = run_replications(
        data,
        k=args.k,
        s=s_resolved,
        replications=args.replications,
        master_seed=args.seed,
        cycle_lengths=args.cycles,
        grid_size=args.grid,
        restarts=args.restarts,
        steps=args.steps,
        threads=args.threads if args.threads else available_cpus(),
    )
    stages["estimate"] = time.monotonic() - t0
    payload = {"schema_version": SCHEMA_VERSION, **summary.to_dict()}
    artifacts = {"summary": ("summary.json", partial(_write_json, payload))}
    if data.b == 2:
        artifacts["grid"] = ("grid.csv", partial(write_grid_csv, summary.unprojected_grid))
        lo, hi = summary.unprojected_set.interval_estimate
        report = (
            f"unprojected interval [{lo:.4f}, {hi:.4f}], "
            f"mean projected [{summary.mean_lb:.4f}, {summary.mean_ub:.4f}], "
            f"nested {summary.nested_count}/{summary.successes}"
        )
    else:
        report = f"{summary.successes} replications succeeded"
    resolved = {"data": os.path.abspath(args.data), "s_resolved": s_resolved}
    if summary.successes == 0:
        report = (
            f"error: all {args.replications} replications failed; their errors "
            f"are in {os.path.join(out_dir, 'summary.json')}"
        )
        return resolved, artifacts, report, 1
    return resolved, artifacts, f"{report}; wrote summary.json to {out_dir}", 0


def cmd_verify_jl(args, out_dir, stages):
    s_resolved = resolve_sparsity(args.s, args.d)
    spec = ProjectionSpec(k=args.k, d=args.d, s=s_resolved, seed=args.seed)
    rng = derive_rng(args.seed, STREAM_COVARIATES)
    u, v = rng.standard_normal((2, args.d))
    t0 = time.monotonic()
    diag = jl_diagnostic(u, v, spec, args.draws)
    stages["diagnostic"] = time.monotonic() - t0
    payload = {"schema_version": SCHEMA_VERSION, **diag.to_dict()}
    tag = " (gaussian-equivalent)" if diag.gaussian_equivalent else ""
    report = (
        f"s={s_resolved:g}{tag}: mean {diag.mean_sq_dist:.6f} vs exact "
        f"{diag.exact_sq_dist:.6f} (rel err {diag.mean_rel_err:.3%}), "
        f"variance rel err {diag.var_rel_err:.3%}"
    )
    artifacts = {"summary": ("summary.json", partial(_write_json, payload))}
    return {"s_resolved": s_resolved}, artifacts, report, 0


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
        "--mode", choices=COVARIATE_MODES, default="iid", help="covariate dependence structure"
    )
    p_sim.add_argument("--error", choices=ERROR_KINDS, default="ma-window")
    p_sim.add_argument("--mc-draws", type=_positive_int, default=None)
    p_sim.add_argument("--seed", type=_nonnegative_int, default=0)
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.set_defaults(func=partial(_run, cmd_simulate, p_sim))

    p_est = sub.add_parser("estimate", help="replicated projection + estimation")
    p_est.add_argument("--data", required=True, help="dataset CSV")
    p_est.add_argument("--k", type=_positive_int, required=True, help="projected dimension")
    p_est.add_argument("--s", default="1", help="sparsity: 1, 3, sqrt, or a number")
    p_est.add_argument(
        "--cycles",
        type=_cycles_list,
        default=(2, 3),
        help="comma-separated cycle lengths, from 2 and 3 (default 2,3)",
    )
    p_est.add_argument(
        "--replications",
        type=_positive_int,
        default=100,
        help="projection draws (default 100); a failed one is recorded in summary.json, "
        "and the run exits 1 only when every one failed",
    )
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
        # kept while the benchmark replay (bench/replay.py), which parses its argv
        # with this parser, passes args.refine on to estimate_polar_grid
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
    p_est.add_argument(
        "--threads",
        type=_positive_int,
        default=None,
        help="replication worker threads (default: the CPUs this process may run on)",
    )
    p_est.add_argument("--seed", type=_nonnegative_int, default=0)
    p_est.add_argument("--out", default=None)
    p_est.set_defaults(func=partial(_run, cmd_estimate, p_est))

    p_jl = sub.add_parser("verify-jl", help="distance-preservation diagnostic")
    p_jl.add_argument("--d", type=_positive_int, required=True)
    p_jl.add_argument("--k", type=_positive_int, required=True)
    p_jl.add_argument("--s", default="1")
    p_jl.add_argument("--draws", type=_positive_int, required=True)
    p_jl.add_argument("--seed", type=_nonnegative_int, default=0)
    p_jl.add_argument("--out", default=None)
    p_jl.set_defaults(func=partial(_run, cmd_verify_jl, p_jl))

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
