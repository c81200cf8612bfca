#!/usr/bin/env python3
"""Trial digest: one sha256 per set of seeded coverage trials.

Each trial contributes its ``as_record()`` plus every array of the
``TrialArtifacts`` ``run_coverage_sim`` returns and of its truth log, so two source trees print the same
lines exactly when their trials agree bit for bit. The full set holds 17
runs:

- the 1,500 exp3plus2 line trials at seeds ``SeedSequence([4242, i])``,
  hashed together;
- three sim5 line trials (seeds 1, 2, 3);
- a 20 s bridge7 line trial (seed 5);
- noiseless, edge-free and landmark-free line trials of exp3plus2 and of a
  20 s sim5, seeds 1 and 2 each.

``--quick`` runs 20 of the exp3plus2 trials, the first sim5 trial, the
bridge7 trial and the variants at seed 1 only: a few seconds.

Usage:
    python scripts/trial_digest.py [--quick] > digest.txt
"""

import argparse
import copy
import hashlib
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from covform.covsim.sim import run_coverage_sim
from covform.scenario import PRESETS, build_scenario
from covform.se2 import FormationState
from covform.team import RangeGraph


def line_formation(sc) -> FormationState:
    """The preset's closed-form straight line: neighbouring camera disks touch."""
    radii = sc.team.camera_radii()
    dirs = np.asarray(sc.formation.directions, dtype=np.float64)
    r = np.cumsum((radii[1:] + radii[:-1])[:, None] * dirs, axis=0)
    return FormationState(np.tile(np.eye(2), (len(r), 1, 1)), r)


def hash_trial(h, sc, graph, config) -> None:
    art = run_coverage_sim(sc.team, graph, line_formation(sc), config)
    h.update(json.dumps(art.metrics.as_record(), sort_keys=True).encode())
    arrays = [getattr(art, f.name) for f in fields(art) if f.name not in ("metrics", "truth")]
    arrays += [getattr(art.truth, f.name) for f in fields(art.truth)]
    for a in map(np.asarray, arrays):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())


def runs(quick: bool):
    """(name, scenario, range graph, configs) of every run."""
    lab, sim5, bridge = (build_scenario(copy.deepcopy(PRESETS[name]), name=name)
                         for name in ("exp3plus2", "sim5", "bridge7"))
    n_lab = 20 if quick else 1500
    seeds = [int(np.random.SeedSequence([4242, i]).generate_state(1)[0]) for i in range(n_lab)]
    yield f"exp3plus2_line_x{n_lab}", lab, lab.graph, [replace(lab.sim, seed=s) for s in seeds]
    for seed in (1,) if quick else (1, 2, 3):
        yield f"sim5_line_seed{seed}", sim5, sim5.graph, [replace(sim5.sim, seed=seed)]
    yield "bridge7_line_20s_seed5", bridge, bridge.graph, [
        replace(bridge.sim, seed=5, max_sim_time=20.0)]
    for name, sc, base in (("exp3plus2", lab, lab.sim),
                           ("sim5_20s", sim5, replace(sim5.sim, max_sim_time=20.0))):
        for seed in (1,) if quick else (1, 2):
            yield f"{name}_noiseless_seed{seed}", sc, sc.graph, [
                replace(base, seed=seed, noise_scale=0.0)]
            yield f"{name}_edge_free_seed{seed}", sc, RangeGraph((), ()), [replace(base, seed=seed)]
            yield f"{name}_landmark_free_seed{seed}", sc, sc.graph, [
                replace(base, seed=seed, landmark_positions=())]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="run the short subset instead of all 17 runs")
    args = ap.parse_args()
    for name, sc, graph, configs in runs(args.quick):
        h = hashlib.sha256()
        for config in configs:
            hash_trial(h, sc, graph, config)
        print(f"{h.hexdigest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
