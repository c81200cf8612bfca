"""Metric names, units and how each is derived from a run.

END_TO_END is what an untraced run reports (``--trace 0``); PER_LAYER is
what a traced run reports (``--trace 1``). Both lists must match
BENCHMARK.json, which selfcheck.py verifies.
"""

from __future__ import annotations

import math
import statistics

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
)


def _us(layer: str) -> tuple[str, str, float, str]:
    return layer, f"{layer}.us", 1e6, "us"


# Layers reported as call count plus busy self time per call:
# (span, metric name, scale from seconds, unit). Per-step kernels are in
# microseconds, whole-trial phases in seconds.
TIMED_LAYERS = (
    _us("optimizer.minimize"),
    _us("optimizer.gradient_fd"),
    _us("se2.oplus"),
    _us("costs.j_cov"),
    _us("costs.j_est"),
    _us("ranging.fisher"),
    _us("ranging.jacobian"),
    _us("costs.j_col"),
    _us("costs.j_adj"),
    _us("costs.j_overlap"),
    _us("assignment.sort_robot_ids"),
    ("cli.optimize_formation", "cli.optimize_formation.self_s", 1.0, "s"),
    # monte_carlo wall time minus its trials
    ("montecarlo.monte_carlo", "montecarlo.overhead_s", 1.0, "s"),
    ("sim.run_coverage_sim", "sim.run_coverage_sim.self_s", 1.0, "s"),
    ("sim.simulate_truth", "sim.simulate_truth.s", 1.0, "s"),
    _us("control.control_step"),
    _us("ekf.ekf_predict"),
    _us("ekf.ekf_update_ranges"),
    _us("ekf.ekf_update_gps"),
    _us("ekf.landmark_init"),
)

PER_LAYER = tuple(
    m for layer, name, _, unit in TIMED_LAYERS
    for m in ((f"{layer}.calls", "count", "lower"), (name, unit, "lower"))
) + (
    ("optimizer.cost_evals_per_iter", "count", "lower"),
    ("optimizer.converged_frac", "ratio", "higher"),
    ("optimizer.winner_iter_share", "ratio", "higher"),
    ("ekf.range_rejected_frac", "ratio", "lower"),
    ("ekf.gps_accepted_frac", "ratio", "higher"),
    ("ekf.landmark_init_success_frac", "ratio", "higher"),
    ("sim.truth_steps", "count", "lower"),
    ("scenario.build_scenario.ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.self_sum_frac", "ratio", "higher"),
    ("trace.unwrapped_frac", "ratio", "lower"),
    ("run.ops", "count", "higher"),
    ("run.op_s_p50", "s", "lower"),
    ("run.fail_frac", "ratio", "lower"),
    ("run.objective", "1", "lower"),
    ("run.coverage_time_s", "s", "lower"),
    ("run.rel_pos_rmse_m", "m", "lower"),
    ("run.rel_att_rmse_rad", "rad", "lower"),
    ("run.landmark_err_m", "m", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def ratio(num: float, den: float) -> float:
    """num/den, or 0 when the layer never ran on this workload."""
    return num / den if den else 0.0


def median_finite(values) -> float:
    """Median of the finite values, 0 when there are none (metric not produced)."""
    vals = [v for v in values if math.isfinite(v)]
    return statistics.median(vals) if vals else 0.0


def quality_medians(results) -> dict[str, float]:
    """Median of each output the workload produces, pooled over operations."""
    pooled: dict[str, list[float]] = {}
    for r in results:
        for key, vals in r.quality.items():
            pooled.setdefault(key, []).extend(vals)
    return {key: median_finite(vals) for key, vals in pooled.items()}


def per_layer(totals: dict, counters: dict, traced: list, untraced: list,
              traced_times: list, untraced_times: list, build_scenario_s: float,
              root_span: str) -> dict[str, float]:
    """Every PER_LAYER value from one traced run.

    ``totals`` maps span name to (calls, self seconds); ``traced`` and
    ``untraced`` are the OpResults of the two halves of each pair, and the
    times are their op wall times.
    """
    traced_wall, untraced_wall = sum(traced_times), sum(untraced_times)
    out: dict[str, float] = {}
    for layer, name, scale, _ in TIMED_LAYERS:
        calls, busy = totals.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = calls
        out[name] = ratio(busy, calls) * scale

    def n_calls(layer):
        return totals.get(layer, (0, 0.0))[0]

    restarts = [t for r in traced for t in r.restarts]
    winners = [min(r.restarts, key=lambda t: t.final_cost) for r in traced if r.restarts]
    out["optimizer.cost_evals_per_iter"] = ratio(
        n_calls("costs.j_cov") - n_calls("optimizer.minimize"),
        n_calls("optimizer.gradient_fd"))
    out["optimizer.converged_frac"] = ratio(sum(t.converged for t in restarts), len(restarts))
    out["optimizer.winner_iter_share"] = ratio(sum(t.n_iters for t in winners),
                                               sum(t.n_iters for t in restarts))
    out["ekf.range_rejected_frac"] = ratio(counters["range_rejected"], counters["range_rows"])
    out["ekf.gps_accepted_frac"] = ratio(counters["gps_accepted"],
                                         n_calls("ekf.ekf_update_gps"))
    out["ekf.landmark_init_success_frac"] = ratio(counters["landmark_init_ok"],
                                                  n_calls("ekf.landmark_init"))
    out["sim.truth_steps"] = (sum(r.work for r in traced)
                              if n_calls("sim.simulate_truth") else 0)
    out["scenario.build_scenario.ms"] = build_scenario_s * 1e3
    out["trace.overhead_frac"] = ratio(traced_wall, untraced_wall) - 1.0
    out["trace.self_sum_frac"] = ratio(sum(b for _, b in totals.values()), traced_wall)
    out["trace.unwrapped_frac"] = ratio(totals.get(root_span, (0, 0.0))[1], traced_wall)
    everything = traced + untraced
    out["run.ops"] = len(everything)
    out["run.op_s_p50"] = statistics.median(untraced_times)
    out["run.fail_frac"] = ratio(sum(bool(r.failure) for r in everything), len(everything))
    quality = quality_medians(untraced)
    out["run.objective"] = quality.get("objective", 0.0)
    for key in ("coverage_time_s", "rel_pos_rmse_m", "rel_att_rmse_rad", "landmark_err_m"):
        out[f"run.{key}"] = quality.get(key, 0.0)
    return out
