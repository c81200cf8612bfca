"""Coverage-path-planning simulation with a range/GPS EKF-SLAM estimator."""

from covform.covsim.config import ControlGains, SimConfig, SimMetrics
from covform.covsim.control import Controller, control_step
from covform.covsim.ekf import (
    EkfModel,
    EkfState,
    LandmarkBuffer,
    ekf_predict,
    ekf_update_gps,
    ekf_update_ranges,
    landmark_init,
    transitions,
    trilaterate,
)
from covform.covsim.montecarlo import aggregate, monte_carlo, reduction_table, trial_seeds
from covform.covsim.sim import (
    TrialArtifacts,
    TruthLog,
    dump_trajectory_csv,
    leader_waypoints,
    run_coverage_sim,
    simulate_truth,
)
from covform.covsim.waypoints import footprint_center, formation_sweep_width, generate_waypoints

__all__ = [
    "ControlGains", "SimConfig", "SimMetrics",
    "Controller", "control_step",
    "EkfModel", "EkfState", "LandmarkBuffer",
    "ekf_predict", "ekf_update_gps", "ekf_update_ranges",
    "landmark_init", "transitions", "trilaterate",
    "aggregate", "monte_carlo", "reduction_table", "trial_seeds",
    "TrialArtifacts", "TruthLog", "dump_trajectory_csv",
    "leader_waypoints", "run_coverage_sim", "simulate_truth",
    "footprint_center", "formation_sweep_width", "generate_waypoints",
]
