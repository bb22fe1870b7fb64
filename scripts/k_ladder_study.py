#!/usr/bin/env python3
"""One dataset CSV estimated across a ladder of projected dimensions k.

Runs `rpchoice estimate` once per k on the same --data file, each into its
own run directory <out>/k<k> with the manifest whose argv re-runs that rung,
and collects every rung's summary in <out>/k_ladder.json. Unlike the
simulated studies, it takes any CSV in load_csv's layout, real data
included. The first rung parses the file; the later rungs, run in this
process, reuse its Dataset, and a re-run from a manifest parses it again.

    python3 scripts/k_ladder_study.py --data runs/sim/dataset.csv --k 100 500
"""

import argparse
import json
import os

from rpchoice.cli import _nonnegative_int, _positive_int
from rpchoice.cli import main as cli_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True, help="dataset CSV")
    parser.add_argument("--k", type=_positive_int, nargs="+", required=True,
                        help="projected dimensions, one run each")
    parser.add_argument("--s", default="1", help="sparsity: 1, 3, sqrt, or a number")
    parser.add_argument("--replications", type=_positive_int, default=20)
    parser.add_argument("--seed", type=_nonnegative_int, default=7, help="replication master seed")
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="replication worker threads (default: one per CPU)")
    parser.add_argument("--out", default="results/k-ladder")
    args = parser.parse_args(argv)

    rows = []
    for k in args.k:
        out = os.path.join(args.out, f"k{k}")
        command = ["estimate", "--data", args.data, "--k", str(k), "--s", args.s,
                   "--replications", str(args.replications), "--seed", str(args.seed),
                   "--out", out]
        if args.threads is not None:
            command += ["--threads", str(args.threads)]
        code = cli_main(command)
        if code:
            return code
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        params, stages = manifest["params"], manifest["stage_seconds"]
        rows.append({"k": k, "s": params["s_resolved"], "data_cache": params["data_cache"],
                     "load_s": stages["load"], "estimate_s": stages["estimate"],
                     **summary["summary"]})
        print(f"k={k}: load {stages['load']:.3f} s ({params['data_cache']}), "
              f"estimate {stages['estimate']:.3f} s")

    path = os.path.join(args.out, "k_ladder.json")
    with open(path, "w") as fh:
        json.dump({"data": params["data"], "data_sha256": params["data_sha256"],
                   "rows": rows}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
