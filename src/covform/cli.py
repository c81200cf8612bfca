"""Batch command-line front end.

Subcommands:
    optimize     find a formation by minimizing adj, opt or cov
    heatmap      CSV cost grid swept over one robot's position
    simulate     one coverage trial for a formation file
    montecarlo   seeded trials for several formations + comparison table

Every command is deterministic given (--config, --seed). Results are JSON
(formation, metrics) or CSV (grids, trajectories); exit codes: 0 ok,
1 config error, 2 non-convergence or incomplete coverage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from covform import costs
from covform.assignment import sort_robot_ids
from covform.covsim import dump_trajectory_csv, monte_carlo, reduction_table, run_coverage_sim
from covform.optimizer import OptimizationTrace, minimize, random_formation
from covform.scenario import (
    Scenario,
    ScenarioError,
    _expect,
    _make,
    _num,
    _nums,
    _pairs,
    _section,
    load_scenario,
)
from covform.se2 import FormationState
from covform.team import SortedIds, TeamConfig

OK, CONFIG_ERROR, NOT_CONVERGED = 0, 1, 2

# Largest heatmap grid: nx * ny cost evaluations, one Objective.many call per row
MAX_GRID_POINTS = 250_000
# Largest |C^T C - I| entry of a formation file's rotation (optimize writes ~1e-15)
ROTATION_TOL = 1e-9


def _write_json(path: Path, payload: dict, sort_keys: bool = True) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n")


def formation_to_doc(x: FormationState, sorted_ids: SortedIds) -> dict:
    return {
        "poses": [{"C": [[x.C[i, 0, 0], x.C[i, 0, 1]], [x.C[i, 1, 0], x.C[i, 1, 1]]],
                   "r": [x.r[i, 0], x.r[i, 1]]}
                  for i in range(x.C.shape[0])],
        "sorted_ids": {"order": list(sorted_ids.order),
                       "radii": list(sorted_ids.sorted_radii)},
    }


def formation_from_doc(doc: Any) -> tuple[FormationState, SortedIds]:
    """The formation section of a formation file; raises ScenarioError with the
    offending field path."""
    _section(doc, "formation", {"poses", "sorted_ids"})
    for key in ("poses", "sorted_ids"):
        _expect(key in doc, "formation", f"missing {key}")
    poses = doc["poses"]
    _expect(isinstance(poses, list) and poses, "formation.poses", "expected a list of poses")
    C, r = [], []
    for k, pose in enumerate(poses):
        path = f"formation.poses[{k}]"
        _section(pose, path, {"C", "r"})
        _expect("C" in pose and "r" in pose, path, "needs both C and r")
        _expect(isinstance(pose["C"], list) and len(pose["C"]) == 2, f"{path}.C",
                f"expected a 2x2 matrix, got {pose['C']!r}")
        C.append(np.array(_pairs(pose["C"], f"{path}.C")))
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries fail the test too
            drift = np.abs(C[-1].T @ C[-1] - np.eye(2)).max()
        _expect(drift <= ROTATION_TOL and np.linalg.det(C[-1]) > 0, f"{path}.C",
                f"not a rotation, got {pose['C']!r}")
        r.append(_nums(pose["r"], f"{path}.r", 2))
    ids = _section(doc["sorted_ids"], "formation.sorted_ids", {"order", "radii"})
    for key in ("order", "radii"):
        _expect(key in ids, "formation.sorted_ids", f"missing {key}")
    order = _nums(ids["order"], "formation.sorted_ids.order", kind=int)
    radii = _nums(ids["radii"], "formation.sorted_ids.radii")
    return (FormationState(np.array(C), np.array(r)),
            _make("formation.sorted_ids", SortedIds, order, radii))


def load_formation_file(path: str | Path,
                        team: TeamConfig) -> tuple[FormationState, SortedIds, dict]:
    """Formation written by ``optimize``, checked to hold the team: its size,
    and each slot's camera radius that of the robot the slot holds."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise ScenarioError(f"{path}: cannot read formation file ({e.strerror})") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict) or "formation" not in doc:
        raise ScenarioError(f"{path}: formation: missing section")
    kind = doc.get("cost_kind", "")  # montecarlo's trials_<cost_kind>.jsonl and summary key
    if "cost_kind" in doc and (not isinstance(kind, str) or not kind
                               or any(c in kind for c in "/\\\0")):
        raise ScenarioError(f"{path}: cost_kind: must be a non-empty name without a path "
                            f"separator, got {kind!r}")
    try:
        x, s = formation_from_doc(doc["formation"])
    except ScenarioError as e:
        raise ScenarioError(f"{path}: {e}") from None
    n_robots = team.n_robots
    if x.n_robots != n_robots or s.n_robots != n_robots:
        raise ScenarioError(
            f"{path}: formation.poses: expected {n_robots - 1} poses and {n_robots} "
            f"sorted ids for {n_robots} robots, got {x.n_robots - 1} and {s.n_robots}")
    radii = [team.robots[i - 1].camera_radius for i in s.order]
    if list(s.sorted_radii) != radii:
        raise ScenarioError(
            f"{path}: formation.sorted_ids.radii: expected the team's camera radii in "
            f"slot order, {radii}, got {list(s.sorted_radii)}")
    return x, s, doc


def optimize_formation(scenario: Scenario, kind: str, seed: int) -> tuple[OptimizationTrace, SortedIds]:
    """Multistart optimization; robot ids are sorted per restart from its
    own random start (travel distance is defined by where robots begin)."""
    cfg = scenario.optimizer
    dirs = np.asarray(scenario.formation.directions)
    best: OptimizationTrace | None = None
    best_sorted: SortedIds | None = None
    for child in np.random.SeedSequence(seed).spawn(cfg.restarts):
        x0 = _make("optimizer.init_box", random_formation, scenario.team.n_robots,
                   np.random.default_rng(child), cfg)
        sorted_ids = sort_robot_ids(x0, scenario.team, dirs)
        cost = costs.cost_function(kind, scenario.team, scenario.graph,
                                   scenario.formation, sorted_ids)
        trace = minimize(cost, x0, cfg)
        if best is None or trace.final_cost < best.final_cost:
            best, best_sorted = trace, sorted_ids
    assert best is not None and best_sorted is not None
    return best, best_sorted


def cmd_optimize(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    trace, sorted_ids = optimize_formation(scenario, args.cost, args.seed)
    x = trace.final_state
    cov = costs.cost_function("cov", scenario.team, scenario.graph,
                              scenario.formation, sorted_ids)
    adj, overlap, est, col = cov.terms(x.C[None], x.r[None])[0].tolist()
    out = Path(args.out) / f"formation_{args.cost}.json"
    _write_json(out, {
        "cost_kind": args.cost,
        "seed": args.seed,
        "scenario": scenario.name,
        "formation": formation_to_doc(x, sorted_ids),
        "cost": {"adj": adj, "overlap": overlap, "est": est, "col": col,
                 "objective": trace.final_cost},
        "trace": {"converged": trace.converged, "iterations": trace.n_iters,
                  "final_step_norm": trace.iterates[-1][2] if trace.iterates else 0.0,
                  "message": trace.message},
        "gps_robots": list(scenario.gps_robots),
    })
    print(f"wrote {out} (converged={trace.converged}, cost={trace.final_cost:.6g})")
    return OK if trace.converged else NOT_CONVERGED


def cmd_heatmap(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    x, sorted_ids, _ = load_formation_file(args.formation, scenario.team)
    robot = args.robot if args.robot is not None else scenario.team.n_robots
    if not 2 <= robot <= scenario.team.n_robots:
        raise ScenarioError(f"heatmap robot must be 2..{scenario.team.n_robots}, got {robot}")
    if args.grid:
        parts = args.grid.split(",")
        if len(parts) != 6:
            raise ScenarioError("grid must be 'xmin,xmax,ymin,ymax,nx,ny'")
        x0, x1, y0, y1, nx, ny = (_num(v, f"grid[{k}]") for k, v in enumerate(parts))
        nx, ny = _num(nx, "grid[4]", int), _num(ny, "grid[5]", int)
        size_field = "grid[4]/grid[5]"
    else:
        pos = x.positions()
        margin = 2.0
        x0, x1 = pos[:, 0].min() - margin, pos[:, 0].max() + margin
        y0, y1 = pos[:, 1].min() - margin, pos[:, 1].max() + margin
        nx = ny = args.resolution
        size_field = "--resolution"
    if nx < 2 or ny < 2:
        raise ScenarioError("grid resolution must be at least 2 in each axis")
    if nx * ny > MAX_GRID_POINTS:
        raise ScenarioError(f"{size_field}: {nx} x {ny} grid points, at most "
                            f"{MAX_GRID_POINTS} in all")

    cost = costs.cost_function(args.cost, scenario.team, scenario.graph,
                               scenario.formation, sorted_ids)
    i = robot - 2
    out = Path(args.out) / f"heatmap_{args.cost}_r{robot}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    xs = np.linspace(x0, x1, nx)
    with open(out, "w") as fh:
        fh.write("x,y,cost\n")
        for gy in np.linspace(y0, y1, ny):
            r = np.repeat(x.r[None], nx, axis=0)
            r[:, i, 0], r[:, i, 1] = xs, gy
            try:
                values = cost.many(np.broadcast_to(x.C, r.shape + (2,)), r)
            except ValueError:  # a point on degenerate geometry: this row point by point
                values = [_heatmap_point(cost, x.C, p) for p in r]
            fh.writelines(f"{gx:.17g},{gy:.17g},{v:.17g}\n" for gx, v in zip(xs, values))
    print(f"wrote {out}")
    return OK


def _heatmap_point(cost: costs.Objective, C: np.ndarray, r: np.ndarray) -> float:
    try:
        return cost(FormationState(C, r))
    except ValueError:
        return costs.SATURATION  # grid point on degenerate geometry


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    x, _, _ = load_formation_file(args.formation, scenario.team)
    config = replace(scenario.sim, seed=args.seed)
    artifacts = run_coverage_sim(scenario.team, scenario.graph, x, config)
    metrics = artifacts.metrics
    outdir = Path(args.out)
    _write_json(outdir / "simulate_metrics.json",
                metrics.as_record(Path(args.formation).stem))
    if args.dump_trajectories:
        dump_trajectory_csv(outdir / "trajectory.csv", artifacts)
        print(f"wrote {outdir / 'trajectory.csv'}")
    print(f"wrote {outdir / 'simulate_metrics.json'} "
          f"(completed={metrics.completed}, coverage_time={metrics.coverage_time:.2f})")
    return OK if metrics.completed else NOT_CONVERGED


def cmd_montecarlo(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    if args.trials < 1 or args.jobs < 1:
        raise ScenarioError(f"--trials and --jobs must be >= 1, got {args.trials}, {args.jobs}")
    formations: dict[str, tuple[FormationState, str]] = {}
    for path in args.formations:
        x, _, doc = load_formation_file(path, scenario.team)
        name = doc.get("cost_kind", Path(path).stem)
        if name in formations:
            raise ScenarioError(f"--formations: {formations[name][1]} and {path} are both "
                                f"named {name!r}; give each formation its own name")
        formations[name] = x, path

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    aggregates: dict[str, dict] = {}
    config = replace(scenario.sim, seed=args.seed)
    for name, (x, _) in formations.items():
        results, aggregates[name] = monte_carlo(scenario.team, scenario.graph, x, config,
                                                args.trials, args.jobs)
        with open(outdir / f"trials_{name}.jsonl", "w") as fh:
            for r in results:
                fh.write(json.dumps(r.as_record(name), sort_keys=True) + "\n")

    baseline = "adj" if "adj" in aggregates else next(iter(aggregates))
    summary = {
        "seed": args.seed,
        "trials": args.trials,
        "aggregates": aggregates,
        "reduction_vs_" + baseline: reduction_table(aggregates, baseline),
    }
    # unsorted, so the reduction table keeps its landmark-then-att/pos column order
    _write_json(outdir / "montecarlo_summary.json", summary, sort_keys=False)
    print(f"wrote {outdir / 'montecarlo_summary.json'}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="covform",
                                     description="formation design and coverage evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="scenario JSON path or preset name (sim5, bridge7, exp3plus2)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("optimize", help="minimize a formation cost")
    common(p)
    p.add_argument("--cost", choices=("adj", "opt", "cov"), default="cov")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("heatmap", help="cost grid over one robot's position")
    common(p)
    p.add_argument("--cost", choices=("adj", "opt", "cov"), default="cov")
    p.add_argument("--formation", required=True, help="formation JSON to scan around")
    p.add_argument("--robot", type=int, default=None, help="robot id to sweep (default: last)")
    p.add_argument("--grid", default=None, help="xmin,xmax,ymin,ymax,nx,ny")
    p.add_argument("--resolution", type=int, default=60, help="points per axis when --grid omitted")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("simulate", help="one coverage trial for a formation")
    common(p)
    p.add_argument("--formation", required=True)
    p.add_argument("--dump-trajectories", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("montecarlo", help="seeded trials over formations")
    common(p)
    p.add_argument("--formations", nargs="+", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the trials")
    p.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ScenarioError(f"--seed: must be >= 0, got {args.seed}")
        return args.func(args)
    except ScenarioError as e:
        print(f"config error: {e}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
