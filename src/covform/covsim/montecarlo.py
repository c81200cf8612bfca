"""Seeded Monte Carlo trials and their aggregation."""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from covform.covsim.config import SimConfig, SimMetrics
from covform.covsim.sim import run_coverage_sim
from covform.se2 import FormationState
from covform.team import RangeGraph, TeamConfig


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    """Independent per-trial seeds derived from one master seed."""
    return [int(s) for s in np.random.SeedSequence(master_seed).generate_state(trials)]


def _trial_metrics(*args) -> SimMetrics:
    # module-level, so the spawn pool can pickle it; only the metrics cross back
    return run_coverage_sim(*args).metrics


def monte_carlo(team: TeamConfig, graph: RangeGraph, x_des: FormationState,
                config: SimConfig, trials: int, jobs: int = 1) -> tuple[list[SimMetrics], dict]:
    """Run independent trials; aggregate medians and quartiles.

    Trials run in min(jobs, trials, CPU count) worker processes when that
    is more than one, and serially otherwise; each trial depends only on
    its own seed, so the results are the same for any jobs. Incomplete
    trials are excluded and counted. Diverged trials are excluded from the
    filtered statistics but kept in the raw ones, and both are reported
    since the choice moves the medians for poorly observable formations.
    """
    if trials < 1 or jobs < 1:
        raise ValueError(f"trials and jobs must be >= 1, got {trials} and {jobs}")
    configs = [replace(config, seed=s) for s in trial_seeds(config.seed, trials)]
    import os  # already loaded by the interpreter: no import cost
    workers = min(jobs, trials, os.cpu_count() or 1)
    trial = partial(_trial_metrics, team, graph, x_des)
    if workers == 1:
        results = list(map(trial, configs))
    else:
        # imported here: the pool's modules cost every serial run about 15 ms
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(trial, configs))
    return results, aggregate(results)


def _stats(values: np.ndarray) -> list[dict]:
    """Median and quartiles of each column of values (trials, columns), in one call each."""
    if not values.shape[0]:
        return [{"median": None, "p25": None, "p75": None} for _ in range(values.shape[1])]
    with np.errstate(invalid="ignore"):  # interpolating next to inf takes inf - inf = nan
        q = np.percentile(values, [25, 75], axis=0)
    # whose limit is the upper neighbour: a column without nan gets quartiles without nan
    if np.isnan(q).any():
        gap = np.isnan(q) & ~np.isnan(values).any(axis=0)
        q[gap] = np.percentile(values, [25, 75], axis=0, method="higher")[gap]
    p25, p75 = q.tolist()
    return [{"median": m, "p25": lo, "p75": hi}
            for m, lo, hi in zip(np.median(values, axis=0).tolist(), p25, p75)]


def aggregate(results: list[SimMetrics]) -> dict:
    """Median/quartile summary over trials, raw and divergence-filtered."""
    completed = [r for r in results if r.completed]
    valid = [r for r in completed if not r.diverged]
    n_landmarks = len(results[0].landmark_errors) if results else 0

    def table(rows: list[SimMetrics]) -> dict:
        keys = ("coverage_time", "interrobot_att_rmse", "interrobot_pos_rmse", "nees_containment")
        values = np.array([[getattr(r, k) for k in keys] for r in rows],
                          dtype=np.float64).reshape(-1, len(keys))
        out = dict(zip(keys, _stats(values)))
        for l in range(n_landmarks):
            vals = [r.landmark_errors[l] for r in rows if np.isfinite(r.landmark_errors[l])]
            out[f"landmark{l + 1}_error"], = _stats(np.reshape(vals, (-1, 1)))
        return out

    return {
        "trials": len(results),
        "excluded_incomplete": len(results) - len(completed),
        "excluded_diverged": len(completed) - len(valid),
        "filtered": table(valid),
        "raw": table(completed),
    }


def reduction_table(aggregates: dict[str, dict],
                    baseline: str) -> dict[str, dict[str, float | None]]:
    """Percentage reduction in the filtered median metrics against a baseline
    formation: each of its landmarks' errors, then inter-robot att and pos RMSE."""
    if baseline not in aggregates:
        raise ValueError(f"baseline {baseline!r} missing from aggregates")
    base = aggregates[baseline]["filtered"]
    n_landmarks = sum(k.startswith("landmark") for k in base)
    keys = [f"landmark{l}_error" for l in range(1, n_landmarks + 1)] + [
        "interrobot_att_rmse", "interrobot_pos_rmse"]
    out: dict[str, dict[str, float | None]] = {}
    for name, agg in aggregates.items():
        row: dict[str, float | None] = {}
        for key in keys:
            b = base[key]["median"]
            m = agg["filtered"].get(key, {}).get("median")
            row[key] = None if (b in (None, 0.0) or m is None) else 100.0 * (1.0 - m / b)
        out[name] = row
    return out
