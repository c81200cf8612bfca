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

``--records PATH`` also writes every trial's ``as_record()`` to PATH, one
JSON line per trial keyed by run name and trial index. ``--compare PATH``
holds every trial's record to the one in such a file under the golden-record
rule (``drifts``, Tier-1's rule for its golden records too): floats within
1e-9 relative or 1e-12 absolute, non-finite ones (NaN matching NaN), ints,
bools, strings and None exactly. It reports on stderr the largest relative
float drift of each run and of all, the diverged trials on each side and each
field that breaks the rule, and exits 1 if any field breaks it. Both options
run the same trials as the digest lines, so a tree whose trials move within
rounding can be checked against the records of its parent.

Usage:
    python scripts/trial_digest.py [--quick] [--records PATH] [--compare PATH] > digest.txt
"""

import argparse
import copy
import hashlib
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from covform.costs import line_formation
from covform.covsim.sim import run_coverage_sim
from covform.scenario import PRESETS, build_scenario
from covform.team import RangeGraph

# The golden-record rule's float bounds. The floor decides only below 1e-3: a
# noiseless trial's errors are rounding residue (below 1e-14) that moves by
# percents when a step's last bits move; no float of a noisy trial is below 6e-4.
REL_TOL, ABS_FLOOR = 1e-9, 1e-12


def hash_trial(h, sc, graph, config) -> dict:
    """Hash one trial into h and return its record."""
    x = line_formation(sc.formation, sc.team.camera_radii())
    art = run_coverage_sim(sc.team, graph, x, config)
    record = art.metrics.as_record()
    h.update(json.dumps(record, sort_keys=True).encode())
    arrays = [getattr(art, f.name) for f in fields(art) if f.name not in ("metrics", "truth")]
    arrays += [getattr(art.truth, f.name) for f in fields(art.truth)]
    for a in map(np.asarray, arrays):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return record


def drifts(got, want, where: str):
    """(field, relative drift, breaks) of every leaf of two records: a finite
    float breaks the golden-record rule when |got - want| > max(REL_TOL *
    max(|got|, |want|), ABS_FLOOR), any other leaf, a length or a key when it
    differs (NaN matching NaN), its drift None then."""
    if isinstance(want, float) and isinstance(got, float):
        if got == want or (math.isnan(got) and math.isnan(want)):
            yield where, 0.0, False
        elif math.isfinite(got) and math.isfinite(want):
            scale, diff = max(abs(got), abs(want)), abs(got - want)
            yield where, diff / scale, diff > max(REL_TOL * scale, ABS_FLOOR)
        else:
            yield where, None, True
    elif isinstance(want, (list, dict)) and type(got) is type(want) and len(got) == len(want):
        for k in (want if isinstance(want, dict) else range(len(want))):
            if isinstance(want, dict) and k not in got:
                yield f"{where}.{k}", None, True
            else:
                yield from drifts(got[k], want[k], f"{where}.{k}")
    else:
        same = type(got) is type(want) and got == want
        yield where, 0.0 if same else None, not same


def read_records(path: Path) -> dict:
    """The records of a --records file, keyed by (run, trial)."""
    return {(r["run"], r["trial"]): r["record"] for r in map(json.loads, path.read_text().splitlines())}


def compare(records: list[dict], want: dict, path: Path) -> int:
    """Report the records' drift from want, read from path; 1 if any field
    breaks the rule or a trial has no record there."""
    worst, broken, missing = {}, [], 0  # worst: run -> (drift, field)
    for r in records:
        key = (r["run"], r["trial"])
        if key not in want:
            missing += 1
            continue
        for where, d, breaks in drifts(r["record"], want[key], f"{key[0]}[{key[1]}]"):
            if breaks:
                broken.append(where)
            if d is not None and d >= worst.get(key[0], (0.0,))[0]:
                worst[key[0]] = (d, where)
    diverged = [sum(rec.get("diverged", False) for rec in recs)
                for recs in ([r["record"] for r in records], want.values())]
    log = lambda line: print(line, file=sys.stderr)
    log(f"compared {len(records) - missing} trials ({missing} not in {path})")
    for run, (d, where) in worst.items():
        log(f"largest relative drift in {run}: {d:.3g}" + (f" ({where})" if d else ""))
    d, where = max(worst.values(), default=(0.0, ""))
    log(f"largest relative drift: {d:.3g}" + (f" ({where})" if d else ""))
    log(f"diverged: {diverged[0]} here, {diverged[1]} in {path}")
    for where in broken:
        log(f"breaks the rule: {where}")
    return 1 if broken or missing else 0


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
    ap.add_argument("--records", type=Path, metavar="PATH",
                    help="write every trial's record to PATH as JSON lines")
    ap.add_argument("--compare", type=Path, metavar="PATH",
                    help="hold every trial's record to the one in a --records file")
    args = ap.parse_args()
    want = read_records(args.compare) if args.compare else None
    records = []
    for name, sc, graph, configs in runs(args.quick):
        h = hashlib.sha256()
        for i, config in enumerate(configs):
            records.append({"run": name, "trial": i, "record": hash_trial(h, sc, graph, config)})
        print(f"{h.hexdigest()}  {name}", flush=True)
    if args.records:
        args.records.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    return compare(records, want, args.compare) if args.compare else 0


if __name__ == "__main__":
    raise SystemExit(main())
