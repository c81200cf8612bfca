#!/usr/bin/env python3
"""Produce the three benchmark formations (adj / opt / cov) for a scenario.

Writes one formation JSON per cost plus a cost-comparison line. The cov
and opt formations come from seeded multistart descent; adj from the same
solver on the shape cost alone.

Usage:
    python scripts/design_formations.py --config sim5 --out results/formations --seed 7
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from covform import costs
from covform.cli import cmd_optimize, load_formation_file
from covform.scenario import load_scenario


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default="sim5")
    ap.add_argument("--out", default="results/formations")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    scenario = load_scenario(args.config)
    rc = 0
    for kind in ("adj", "opt", "cov"):
        ns = argparse.Namespace(config=args.config, cost=kind, seed=args.seed, out=args.out)
        rc |= cmd_optimize(ns)

    print("\nobservability comparison (-ln det FIM, lower is better):")
    for kind in ("opt", "cov", "adj"):
        x, _, doc = load_formation_file(Path(args.out) / f"formation_{kind}.json",
                                        scenario.team.n_robots)
        est = costs.j_est(x, scenario.team, scenario.graph)
        print(f"  {kind:4s}: est = {est:9.4f}   converged = {doc['trace']['converged']}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
