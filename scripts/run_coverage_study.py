#!/usr/bin/env python3
"""Coverage study: simulate the three formations and print the comparison table.

Expects formation files from design_formations.py. Runs seeded Monte Carlo
trials per formation, then prints coverage times and the percentage
reduction in median estimation errors relative to the straight-line (adj)
formation.

Usage:
    python scripts/run_coverage_study.py --config sim5 \
        --formations results/formations --trials 100 --seed 0
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from covform import cli


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default="sim5")
    ap.add_argument("--formations", default="results/formations")
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", default="results/coverage_study")
    args = ap.parse_args()

    forms = [str(Path(args.formations) / f"formation_{k}.json")
             for k in ("adj", "opt", "cov")]
    rc = cli.main(["montecarlo", "--config", args.config, "--formations", *forms,
                   "--trials", str(args.trials), "--seed", str(args.seed),
                   "--jobs", str(args.jobs), "--out", args.out])
    if rc == cli.CONFIG_ERROR:
        return rc

    import json
    summary = json.loads((Path(args.out) / "montecarlo_summary.json").read_text())
    print("\ncoverage time (median seconds):")
    for name, agg in summary["aggregates"].items():
        ct = agg["filtered"]["coverage_time"]["median"]
        print(f"  {name:4s}: {ct if ct is None else round(ct, 1)}")
    print("\npercentage reduction in median estimation error vs adj:")
    # the summary's table, its columns in order: each landmark, then att and pos
    table = summary["reduction_vs_adj"]
    metrics = list(table["adj"])
    header = "  " + " ".join(f"{m:>22s}" for m in metrics)
    print(header)
    for name, row in table.items():
        cells = " ".join(f"{row[m]:22.1f}" if row[m] is not None else f"{'n/a':>22s}"
                         for m in metrics)
        print(f"  {name:4s}{cells}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
