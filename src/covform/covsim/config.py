"""Configuration and result records for the coverage simulation."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

# rate-clock events one sensor may make over max_sim_time; the replay draws
# its whole schedule up front, so a larger count is refused, not allocated
MAX_SENSOR_EVENTS = 10 ** 7
# truth steps (max_sim_time / dt_truth) the truth log may keep; the presets need 60,000
MAX_TRUTH_STEPS = 10 ** 6


@dataclass(frozen=True)
class ControlGains:
    """Proportional gains for the leader-follower velocity controller."""

    waypoint: float = 0.8    # leader pull toward the active corner, 1/s
    formation: float = 1.2   # follower pull toward its slot, 1/s
    heading: float = 2.0     # heading-error rate gain, 1/s
    speed_cap: float = 1.0   # translational saturation, m/s

    def __post_init__(self):
        if min(self.waypoint, self.formation, self.heading, self.speed_cap) <= 0:
            raise ValueError("all control gains must be > 0")


@dataclass(frozen=True)
class SimConfig:
    """Coverage scenario: area, rates, noise levels, landmarks, gating.

    Noise conventions: ground truth integrates commanded velocities plus
    white per-sample noise; the filter receives the clean commands, so its
    inputs deviate from the integrated truth by exactly that noise.
    ``noise_scale`` multiplies every sampled noise (and the initial state
    perturbation) without touching the filter's assumed sigmas; zero gives
    a noiseless consistency run.
    """

    area: tuple[float, float] = (10.0, 24.0)
    dt_truth: float = 0.01            # 100 Hz velocity inputs
    range_rate: float = 110.0         # Hz, one tag pair per tick (TDMA)
    gps_rate: float = 50.0            # Hz, robot 1 position fixes
    gps_sigma: float = 0.1            # m per component
    range_sigma: float = 0.1          # m, used for landmark edges
    # velocity noise, per 100 Hz sample; 0.01 rad/s / 0.1 m/s at the 10 Hz
    # rate the hardware numbers come from, scaled by sqrt(10) so the
    # random-walk diffusion matches at this rate
    vel_noise_omega: float = 0.01 * 3.1622776601683795
    vel_noise_v: float = 0.1 * 3.1622776601683795
    # defaults sit at the area's edges: one just outside the first sweep's
    # bottom margin, one grazing the leftmost sweep line
    landmark_positions: tuple[tuple[float, float], ...] = ((5.0, -1.45), (-0.8, 18.0))
    landmark_detection_radius: float = 2.0
    waypoint_tolerance: float = 0.25  # m
    formation_gate: float = 0.5       # total follower position error to pass a corner, m
    gains: ControlGains = field(default_factory=ControlGains)
    seed: int = 0
    max_sim_time: float = 600.0
    noise_scale: float = 1.0
    init_pos_sigma: float = 0.3       # initial estimate perturbation / prior
    init_att_sigma: float = 0.1
    divergence_threshold: float = 100.0  # m, any RMSE beyond this marks a diverged trial

    def __post_init__(self):
        if not all(side > 0 for side in self.area):
            raise ValueError(f"area sides must be > 0, got {self.area}")
        if self.dt_truth <= 0 or self.range_rate <= 0 or self.gps_rate <= 0:
            raise ValueError("all rates must be > 0")
        if self.waypoint_tolerance <= 0 or self.landmark_detection_radius <= 0:
            raise ValueError("tolerances and detection radius must be > 0")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        # a zero sigma makes the filter's gates and innovation covariances
        # singular; a non-positive time, gate or threshold leaves no trial to score
        for name in ("gps_sigma", "range_sigma", "max_sim_time", "formation_gate",
                     "divergence_threshold"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        events = self.max_sim_time * max(self.range_rate, self.gps_rate)
        if not events <= MAX_SENSOR_EVENTS:
            raise ValueError(f"max_sim_time times the larger of range_rate and gps_rate must "
                             f"be at most {MAX_SENSOR_EVENTS:,} events, got {events:.3g}")
        if not self.max_sim_time / self.dt_truth <= MAX_TRUTH_STEPS:
            raise ValueError(f"max_sim_time / dt_truth must be at most {MAX_TRUTH_STEPS:,} "
                             f"truth steps, got {self.max_sim_time / self.dt_truth:.3g}")
        # zero stays allowed: noiseless runs scale these to 0 through noise_scale
        for name in ("init_pos_sigma", "init_att_sigma", "vel_noise_omega", "vel_noise_v"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")


@dataclass
class SimMetrics:
    """Per-trial outcome of one coverage run."""

    coverage_time: float
    interrobot_att_rmse: float
    interrobot_pos_rmse: float
    landmark_errors: list[float]
    nees_containment: float
    completed: bool
    diverged: bool
    n_rejected_ranges: int   # range rows dropped by the innovation gate
    n_rejected_gps: int      # GPS fixes dropped by the innovation gate
    seed: int

    def as_record(self, formation_id: str = "") -> dict:
        """Every field, keyed by its name, plus the formation's id."""
        return {"formation": formation_id, **asdict(self)}
