#!/usr/bin/env python3
"""Replicated interval study across the named design presets.

For each design (d, k) this simulates one dataset, runs R independent
projection replications, and reports the projected interval spread against
the unprojected identified set. Desk scale by default; --full runs every
preset at 100 replications like the headline study.

    python3 scripts/replication_study.py --out results/replication
    python3 scripts/replication_study.py --full --sparsity sqrt
"""

import argparse
import csv
import json
import math
import os
import time

from rpchoice import SimConfig, run_replications, simulate_dataset
from rpchoice._seeds import available_cpus
from rpchoice.cli import PRESETS, _nonnegative_int, _positive_int
from rpchoice.projection import resolve_sparsity

DESK_PRESETS = ("d100k10", "d500k100")


def run_design(name, replications, sparsity, data_seed, master_seed, threads):
    d, k = PRESETS[name]
    config = SimConfig(d=d, seed=data_seed)
    t0 = time.monotonic()
    data = simulate_dataset(config)
    s = resolve_sparsity(sparsity, d)
    summary = run_replications(data, k=k, s=s, replications=replications,
                               master_seed=master_seed, threads=threads)
    elapsed = time.monotonic() - t0
    lo, hi = summary.unprojected_set.interval_estimate
    return {
        "design": name,
        "d": d,
        "k": k,
        "s": s,
        "replications": replications,
        "unprojected_lb": lo,
        "unprojected_ub": hi,
        "mean_lb": summary.mean_lb,
        "sd_lb": summary.sd_lb,
        "mean_ub": summary.mean_ub,
        "sd_ub": summary.sd_ub,
        "mean_theta": summary.mean_theta,
        "sd_theta": summary.sd_theta,
        "nested": summary.nested_count,
        "seconds": round(elapsed, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--presets", nargs="+", choices=sorted(PRESETS),
                        default=None, help="designs to run (default: small ones)")
    parser.add_argument("--full", action="store_true",
                        help="all presets at 100 replications")
    parser.add_argument("--replications", type=_positive_int, default=None)
    parser.add_argument("--sparsity", default="1", help="1, 3, sqrt, or a number")
    parser.add_argument("--data-seed", type=_nonnegative_int, default=1)
    parser.add_argument("--seed", type=_nonnegative_int, default=7, help="replication master seed")
    parser.add_argument("--threads", type=_positive_int, default=available_cpus())
    parser.add_argument("--out", default="results/replication")
    args = parser.parse_args(argv)

    presets = args.presets or (sorted(PRESETS) if args.full else list(DESK_PRESETS))
    replications = args.replications or (100 if args.full else 20)
    os.makedirs(args.out, exist_ok=True)

    theta0 = 0.75 * math.pi
    rows = []
    print(f"true angle {theta0:.4f}; {replications} replications per design")
    for name in presets:
        row = run_design(name, replications, args.sparsity, args.data_seed,
                         args.seed, args.threads)
        rows.append(row)
        print(
            f"{name:>9}: unprojected [{row['unprojected_lb']:.4f}, {row['unprojected_ub']:.4f}]  "
            f"projected mean [{row['mean_lb']:.4f}, {row['mean_ub']:.4f}]  "
            f"theta {row['mean_theta']:.4f} (sd {row['sd_theta']:.4f})  "
            f"nested {row['nested']}/{replications}  {row['seconds']}s"
        )

    csv_path = os.path.join(args.out, "replication_study.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    with open(os.path.join(args.out, "replication_study.json"), "w") as fh:
        json.dump({"theta0": theta0, "sparsity": args.sparsity, "rows": rows},
                  fh, indent=2)
        fh.write("\n")
    print(f"wrote {csv_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
