#!/usr/bin/env python3
"""Design digest: one sha256 per case of the formation-design numerics.

Each case hashes, over a few seeded formations, the value and gradient of
``optimizer.gradient_fd`` under the adj, opt and cov objectives, the
``Objective.terms`` rows of the formations stacked, ``ranging.jacobian`` of
each one, and the final state and iterates of one short cov descent, so two
source trees print the same lines exactly when their design numerics agree
bit for bit. A call that raises contributes its error message instead. The
cases:

- random starts of sim5, exp3plus2 and bridge7 (``random_formation``), with
  robot ids sorted from each start as the multistart sorts them;
- the same starts at ops = RENORMALIZE_EVERY, so every probe of the gradient
  and every descent step re-projects the rotations;
- sim5 with robot 3 inside the activation radius of robot 2, once with the
  barrier active and once breached (saturated);
- sim5 on a two-edge graph, where every Fisher information is singular and
  est saturates;
- sim5 with robot 3 on robot 2's pose: near-zero ranges and coincident
  robots, so the Jacobian and the overlap term raise;
- the default two-tag team at N = 24 on its full graph (1,104 edges), whose
  probe stack spans several ``BLOCK_BYTES`` row blocks.

``--quick`` takes fewer formations and shorter descents: about a second,
against a few seconds for the full set.

Usage:
    python scripts/design_digest.py [--quick] > digest.txt
"""

import argparse
import copy
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from covform import costs, se2
from covform.assignment import sort_robot_ids
from covform.optimizer import OptimizerConfig, gradient_fd, minimize, random_formation
from covform.ranging import jacobian
from covform.scenario import PRESETS, build_scenario
from covform.team import FormationSpec, RangeGraph, TeamConfig, default_full_graph

FD_STEP = 1e-6


def update(h, *values) -> None:
    """Hash each value: an array (or a float) by dtype, shape and bytes, anything else by repr."""
    for v in values:
        if isinstance(v, (np.ndarray, float)):
            a = np.asarray(v)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        else:
            h.update(repr(v).encode())


def update_call(h, fn, *args) -> None:
    """Hash what fn(*args) returns, or the ValueError it raises."""
    try:
        out = fn(*args)
    except ValueError as e:
        update(h, f"ValueError: {e}")
        return
    update(h, *(out if isinstance(out, tuple) else (out,)))


def hash_case(h, team, graph, spec, states, descent_iters: int) -> None:
    """Hash the design numerics of ``states`` on one (team, graph, spec)."""
    for x in states:
        sorted_ids = sort_robot_ids(x, team, np.asarray(spec.directions))
        update(h, sorted_ids.order)
        objectives = [costs.cost_function(kind, team, graph, spec, sorted_ids)
                      for kind in ("adj", "opt", "cov")]
        for f in objectives:
            update_call(h, gradient_fd, f, x, FD_STEP)
            update_call(h, f.terms, np.stack([y.C for y in states]), np.stack([y.r for y in states]))
        update_call(h, jacobian, x, team, graph)
    if descent_iters:
        x = states[0]
        cov = costs.cost_function("cov", team, graph, spec,
                                  sort_robot_ids(x, team, np.asarray(spec.directions)))
        try:
            tr = minimize(cov, x, OptimizerConfig(max_iters=descent_iters))
        except ValueError as e:
            update(h, f"ValueError: {e}")
            return
        update(h, tr.final_state.C, tr.final_state.r, tr.final_state._ops, tr.final_cost,
               np.array(tr.iterates, dtype=np.float64), tr.converged, tr.message)


def with_ops(x: se2.FormationState, ops: int) -> se2.FormationState:
    return se2.FormationState(x.C, x.r, ops=ops)


def moved(x: se2.FormationState, robot: int, C, r) -> se2.FormationState:
    """x with robot ``robot`` (2..N) put on pose (C, r)."""
    Cs, rs = x.C.copy(), x.r.copy()
    Cs[robot - 2], rs[robot - 2] = C, r
    return se2.FormationState(Cs, rs)


def cases(quick: bool):
    """(name, team, graph, spec, states, descent iterations) of every case."""
    n_states = 2 if quick else 6
    iters = 120 if quick else 1000
    presets = {name: build_scenario(copy.deepcopy(PRESETS[name]), name=name)
               for name in ("sim5", "exp3plus2", "bridge7")}
    for k, (name, sc) in enumerate(presets.items()):
        rng = np.random.default_rng([2024, k])
        xs = [random_formation(sc.team.n_robots, rng) for _ in range(n_states)]
        yield f"{name}_random", sc.team, sc.graph, sc.formation, xs, iters
        yield (f"{name}_reprojecting", sc.team, sc.graph, sc.formation,
               [with_ops(x, se2.RENORMALIZE_EVERY) for x in xs], iters)
    sc = presets["sim5"]
    rng = np.random.default_rng([2024, 10])
    xs = [random_formation(sc.team.n_robots, rng) for _ in range(n_states)]
    near = [moved(x, 3, se2.rot2(0.4), x.r[0] + (0.3, 0.6)) for x in xs]   # 0.67 m apart
    yield "sim5_barrier_active", sc.team, sc.graph, sc.formation, near, iters
    breached = [moved(x, 3, se2.rot2(-1.1), x.r[0] + (0.2, -0.3)) for x in xs]  # 0.36 m
    yield "sim5_barrier_breached", sc.team, sc.graph, sc.formation, breached, iters
    sparse = RangeGraph.from_pairs([(1, 3), (2, 5)])
    yield "sim5_singular_fim", sc.team, sparse, sc.formation, xs, iters
    coincident = [moved(x, 3, x.C[0], x.r[0]) for x in xs]
    yield "sim5_coincident", sc.team, sc.graph, sc.formation, coincident, 0
    n = 24
    team = TeamConfig.uniform(n)
    rng = np.random.default_rng([2024, 24])
    grid = np.array([(2.0 * (k % 5), 2.0 * (k // 5)) for k in range(1, n)])
    x = se2.FormationState(se2._rot_many(rng.uniform(-np.pi, np.pi, n - 1)),
                           grid + rng.uniform(-0.3, 0.3, grid.shape))
    yield ("team24_full_graph", team, default_full_graph(team), FormationSpec.line(n), [x],
           3 if quick else 10)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer formations and shorter descents")
    args = ap.parse_args()
    for name, team, graph, spec, states, iters in cases(args.quick):
        h = hashlib.sha256()
        hash_case(h, team, graph, spec, states, iters)
        print(f"{h.hexdigest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
