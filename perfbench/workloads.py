"""The benchmark's three workloads, driven only through covform's public entry
points ``cli.optimize_formation`` and ``covsim.monte_carlo``.

Each workload turns the benchmark seed into a fixed sequence of operations.
An operation is one seeded multistart design or one single-trial Monte
Carlo call; ``run_op`` does the timed call and ``check`` judges its outputs
afterwards, outside the timed region.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from covform import cli, costs
from covform.covsim import monte_carlo
from covform.scenario import PRESETS, build_scenario
from covform.se2 import FormationState, oplus

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def _direct(name, fn, *args):
    return fn(*args)


def op_seed(seed: int, i: int) -> int:
    """Seed of operation i in the run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def line_formation(scenario) -> FormationState:
    """Closed-form straight line: neighbouring camera disks touch, which is
    the exact minimizer of the adj term for the identity slot order."""
    radii = scenario.team.camera_radii()
    dirs = np.asarray(scenario.formation.directions, dtype=np.float64)
    r = np.cumsum((radii[1:] + radii[:-1])[:, None] * dirs, axis=0)
    return FormationState(np.tile(np.eye(2), (len(r), 1, 1)), r)


@dataclass
class OpResult:
    """One checked operation.

    ``failure`` names why the operation failed (it counts in ``failed``);
    ``wrong`` marks a failure that is a wrong output rather than an outcome
    the program itself reports, such as a trial it flags as diverged, and
    makes the run incorrect.
    """

    work: int                    # descent iterations or truth steps
    failure: str                 # empty when the operation succeeded
    fingerprint: str             # compared between traced and untraced runs
    quality: dict[str, list[float]] = field(default_factory=dict)
    restarts: list = field(default_factory=list)  # design only: every restart's trace
    wrong: bool = False


def fd_gradient_inf(cost, x: FormationState, step: float = 1e-6) -> float:
    """Largest central-difference partial of ``cost`` at x (stationarity oracle)."""
    g = 0.0
    e = np.zeros(x.dim)
    for k in range(x.dim):
        e[k] = step
        hi = cost(oplus(x, e))
        e[k] = -step
        lo = cost(oplus(x, e))
        e[k] = 0.0
        g = max(g, abs(hi - lo) / (2.0 * step))
    return g


def design_scenario(restarts: int):
    """The sim5 preset with the multistart lowered to ``restarts``."""
    doc = copy.deepcopy(PRESETS["sim5"])
    doc["optimizer"] = {"restarts": restarts}
    return build_scenario(doc, name="sim5")


class DesignSim5:
    """Seeded multistart ``optimize_formation(sim5, "cov", seed)``.

    Design seeds come from the recorded reference table, walked in an order
    drawn from the benchmark seed, so every design has a reference
    objective to be checked against.
    """

    root_span = "cli.optimize_formation"

    def __init__(self, seed: int):
        ref = json.loads(REFERENCE_PATH.read_text())
        self.restarts = ref["restarts"]
        self.objective_tol = ref["objective_tol"]
        self.gradient_tol = ref["gradient_tol"]
        self.designs = ref["designs"]
        self.scenario = design_scenario(self.restarts)
        self.order = np.random.default_rng(seed).permutation(len(self.designs))

    def warm_up(self) -> None:
        tiny = replace(self.scenario, optimizer=replace(self.scenario.optimizer,
                                                        restarts=1, max_iters=1))
        cli.optimize_formation(tiny, "cov", 0)

    def design(self, i: int) -> dict:
        return self.designs[int(self.order[i % len(self.order)])]

    def run_op(self, i: int, call=_direct):
        restarts = []
        real = cli.minimize

        def keep(*args, **kwargs):
            trace = real(*args, **kwargs)
            restarts.append(trace)
            return trace

        cli.minimize = keep
        try:
            best, sorted_ids = call(self.root_span, cli.optimize_formation,
                                    self.scenario, "cov", self.design(i)["seed"])
        finally:
            cli.minimize = real
        return best, sorted_ids, restarts

    def check(self, i: int, raw) -> OpResult:
        best, sorted_ids, restarts = raw
        ref = self.design(i)
        x = best.final_state
        objective = float(best.final_cost)
        failure = ""
        if not best.converged:
            failure = f"design seed {ref['seed']}: best restart did not converge"
        elif not math.isfinite(objective):
            failure = f"design seed {ref['seed']}: objective {objective} is not finite"
        elif abs(objective - ref["objective"]) > self.objective_tol:
            failure = (f"design seed {ref['seed']}: objective {objective!r} is more than "
                       f"{self.objective_tol} from the reference {ref['objective']!r}")
        else:
            sc = self.scenario
            cost = costs.cost_function("cov", sc.team, sc.graph, sc.formation, sorted_ids)
            g = fd_gradient_inf(cost, x)
            if g > self.gradient_tol:
                failure = (f"design seed {ref['seed']}: final state is not stationary "
                           f"(|grad|_inf = {g:.3g} > {self.gradient_tol})")
        fingerprint = json.dumps([x.C.tolist(), x.r.tolist(), objective, best.n_iters,
                                  list(sorted_ids.order), [t.n_iters for t in restarts]])
        return OpResult(work=sum(t.n_iters for t in restarts), failure=failure,
                        fingerprint=fingerprint, quality={"objective": [objective]},
                        restarts=restarts, wrong=bool(failure) and best.converged)


class Coverage:
    """``monte_carlo`` with one trial per call over the preset's straight line.

    The line is built in closed form, so no optimizer work enters.
    """

    root_span = "montecarlo.monte_carlo"

    def __init__(self, preset: str, seed: int):
        self.scenario = build_scenario(copy.deepcopy(PRESETS[preset]), name=preset)
        self.x_line = line_formation(self.scenario)
        self.seed = seed

    def warm_up(self) -> None:
        sim = self.scenario.sim
        short = replace(sim, seed=0, max_sim_time=10 * sim.dt_truth)
        monte_carlo(self.scenario.team, self.scenario.graph, self.x_line, short, 1)

    def run_op(self, i: int, call=_direct):
        sc = self.scenario
        config = replace(sc.sim, seed=op_seed(self.seed, i))
        return call(self.root_span, monte_carlo, sc.team, sc.graph, self.x_line, config, 1)

    def check(self, i: int, raw) -> OpResult:
        results, _ = raw
        (r,) = results
        sim = self.scenario.sim
        values = [r.coverage_time, r.interrobot_pos_rmse, r.interrobot_att_rmse,
                  *r.landmark_errors]
        if not r.completed:
            failure = f"trial {r.seed}: coverage incomplete"
        elif r.diverged:
            failure = f"trial {r.seed}: diverged"
        elif not all(math.isfinite(v) for v in values):
            failure = f"trial {r.seed}: non-finite metric in {values} but not flagged diverged"
        else:
            failure = ""
        steps = (round(r.coverage_time / sim.dt_truth) if r.completed
                 else math.ceil(sim.max_sim_time / sim.dt_truth))
        return OpResult(
            work=steps, failure=failure,
            fingerprint=json.dumps(r.as_record(), sort_keys=True),
            quality={"coverage_time_s": [r.coverage_time],
                     "rel_pos_rmse_m": [r.interrobot_pos_rmse],
                     "rel_att_rmse_rad": [r.interrobot_att_rmse],
                     "landmark_err_m": list(r.landmark_errors)},
            wrong=bool(failure) and r.completed and not r.diverged)


WORKLOADS = ("design_sim5", "coverage_sim5", "coverage_lab")


def make(name: str, seed: int):
    if name == "design_sim5":
        return DesignSim5(seed)
    if name == "coverage_sim5":
        return Coverage("sim5", seed)
    if name == "coverage_lab":
        return Coverage("exp3plus2", seed)
    raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(WORKLOADS)})")
