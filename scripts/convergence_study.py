#!/usr/bin/env python3
"""How fast the compressed criterion approaches the uncompressed one.

Two exercises:

  fixed   one dataset, a ladder of projected dimensions k; reports the mean
          sup-grid gap per k and how many seeds order every consecutive pair
          the right way.
  growing the schedule d = k^2, a fresh dataset per rung; tracks how the
          gap scales, raw and relative to the criterion's own size, when
          the choice set grows with the projected dimension.

Draw r at every k is the projection `estimate --seed` draws for replication
r, so one seed's k's compare nested projections (a smaller k's rows are the
larger one's first rows, rescaled) rather than unrelated ones. The draws run
on one thread per CPU the process may use; the results do not depend on
that count.

    python3 scripts/convergence_study.py fixed --seeds 20
    python3 scripts/convergence_study.py growing
    python3 scripts/convergence_study.py growing --sparsity sqrt
"""

import argparse
import csv
import os

import numpy as np

from rpchoice import (
    SimConfig,
    convergence_diagnostic,
    enumerate_cycles,
    estimate_polar_grid,
    simulate_dataset,
)
from rpchoice.cli import _nonnegative_int, _positive_int


def cmd_fixed(args) -> list[dict]:
    data = simulate_dataset(SimConfig(d=args.d, seed=args.data_seed))
    k_values = tuple(args.k)
    per_seed = []
    wins = 0
    for seed in range(args.seeds):
        diag = convergence_diagnostic(data, k_values=k_values, s=args.sparsity,
                                      draws=args.draws, master_seed=seed)
        per_seed.append(diag.mean_gaps)
        wins += int(diag.strictly_decreasing)
    means = np.mean(per_seed, axis=0)
    print(f"d={args.d}, {args.seeds} seeds, {args.draws} draws per k")
    for k, gap in zip(k_values, means):
        print(f"  k={k:>4}: mean gap {gap:.4f}")
    print(f"strictly decreasing in {wins}/{args.seeds} seeds")
    return [
        {"mode": "fixed", "d": args.d, "k": k, "mean_gap": float(gap),
         "seeds": args.seeds, "monotone_seeds": wins}
        for k, gap in zip(k_values, means)
    ]


def cmd_growing(args) -> list[dict]:
    # the criterion's own scale grows with d, so the raw gap is reported
    # next to the gap relative to the mean uncompressed criterion value
    rows = []
    print(f"schedule d = k^2, {args.draws} draws per rung")
    for k in args.k:
        d = k * k
        data = simulate_dataset(SimConfig(d=d, seed=args.data_seed))
        grid, _ = estimate_polar_grid(data, enumerate_cycles(data.n, (2, 3)), grid_size=1024)
        scale = float(np.mean(grid.values))
        diag = convergence_diagnostic(data, k_values=(k,), s=args.sparsity,
                                      draws=args.draws, master_seed=args.seed)
        gap = diag.mean_gaps[0]
        print(f"  k={k:>4} d={d:>6}: mean gap {gap:.4f}  relative {gap / scale:.4f}")
        rows.append({"mode": "growing", "d": d, "k": k, "mean_gap": float(gap),
                     "relative_gap": gap / scale, "seeds": 1, "monotone_seeds": ""})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)

    p_fixed = sub.add_parser("fixed", help="ladder of k on one dataset")
    p_fixed.add_argument("--d", type=_positive_int, default=500)
    p_fixed.add_argument("--k", type=_positive_int, nargs="+", default=[10, 20, 40, 80])
    p_fixed.add_argument("--seeds", type=_positive_int, default=20)
    p_fixed.add_argument("--draws", type=_positive_int, default=8)
    p_fixed.set_defaults(func=cmd_fixed)

    p_grow = sub.add_parser("growing", help="d = k^2 schedule")
    p_grow.add_argument("--k", type=_positive_int, nargs="+", default=[10, 20, 30])
    p_grow.add_argument("--draws", type=_positive_int, default=8)
    p_grow.add_argument("--seed", type=_nonnegative_int, default=0)
    p_grow.set_defaults(func=cmd_growing)

    for p in (p_fixed, p_grow):
        p.add_argument("--sparsity", default="1", help="1, 3, sqrt, or a number")
        p.add_argument("--data-seed", type=_nonnegative_int, default=3)
        p.add_argument("--out", default="results/convergence")

    args = parser.parse_args(argv)
    rows = args.func(args)

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"convergence_{args.mode}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
