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

from covform import cli, costs
from covform.scenario import load_scenario


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default="sim5")
    ap.add_argument("--out", default="results/formations")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rc = 0
    for kind in ("adj", "opt", "cov"):
        code = cli.main(["optimize", "--config", args.config, "--cost", kind,
                         "--seed", str(args.seed), "--out", args.out])
        if code == cli.CONFIG_ERROR:
            return code
        rc |= code

    scenario = load_scenario(args.config)  # optimize has checked it
    print("\nobservability comparison (-ln det FIM, lower is better):")
    for kind in ("opt", "cov", "adj"):
        x, _, doc = cli.load_formation_file(Path(args.out) / f"formation_{kind}.json",
                                            scenario.team)
        est = costs.j_est(x, scenario.team, scenario.graph)
        print(f"  {kind:4s}: est = {est:9.4f}   converged = {doc['trace']['converged']}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
