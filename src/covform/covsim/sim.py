"""Coverage-run simulation: ground truth, measurement replay, metrics.

Two phases per trial. The truth phase integrates the fleet at 100 Hz
under the leader-follower controller, injecting velocity noise, and logs
poses plus the clean commands. From the log alone the trial then draws
its measurement schedule: which pair each range event measures, and every
noisy range and GPS fix at their own rates. The filter phase replays the
log: it predicts on the clean commands and feeds the scheduled
measurements to the EKF. Metrics compare relative poses and landmark
estimates against the logged truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from covform.covsim.config import SimConfig, SimMetrics
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
)
from covform.covsim.waypoints import footprint_center, formation_sweep_width, generate_waypoints
from covform.ranging import _EdgeIndex
from covform.se2 import FormationState, _matvec, _rot_many, exp_step
from covform.team import RangeGraph, TeamConfig


# truth steps per velocity-noise draw
TRUTH_CHUNK = 512
# replay steps per block of transitions (64 robots: 2.4 MB of F)
PREDICT_CHUNK = 512


@dataclass
class TruthLog:
    """Ground-truth trajectory and the commands that produced it."""

    t: np.ndarray        # (K+1,)
    ang: np.ndarray      # (K+1, N)
    pos: np.ndarray      # (K+1, N, 2)
    u_cmd: np.ndarray    # (K, N, 3) clean commanded twists
    coverage_time: float
    completed: bool
    waypoints: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.u_cmd.shape[0]


def simulate_truth(team: TeamConfig, x_des: FormationState, waypoints: np.ndarray,
                   config: SimConfig, rng: np.random.Generator) -> TruthLog:
    """Fly the formation through the waypoint list with noisy kinematics.

    The leader advances to the next corner only when it is inside the
    waypoint tolerance and the fleet is in formation. Returns the log,
    flagged incomplete if max_sim_time runs out first.

    The headings' cosines and sines are taken once per step, for the
    controller and the pose step both. The velocity noise is drawn
    TRUTH_CHUNK steps at a time, which gives the values of one draw per
    step while its memory stays bounded whatever max_sim_time is.
    """
    n = team.n_robots
    dt = config.dt_truth
    max_steps = int(np.ceil(config.max_sim_time / dt))
    noise_std = config.noise_scale * np.array(
        [config.vel_noise_omega, config.vel_noise_v, config.vel_noise_v])
    ctrl = Controller.build(x_des, config.gains)

    ang = np.zeros(n)
    pos = np.vstack([np.zeros((1, 2)), x_des.r.copy()])  # start in formation at origin

    angs = [ang.copy()]
    poss = [pos.copy()]
    cmds = []
    wp_idx = 0
    goal = waypoints[0]
    coverage_time = np.nan
    completed = False

    for k in range(max_steps):
        j = k % TRUTH_CHUNK
        if j == 0:
            noise = noise_std * rng.standard_normal((TRUTH_CHUNK, n, 3))
        trig = np.cos(ang), np.sin(ang)
        u, ferr = control_step(goal, ang, pos, ctrl, trig)
        d = pos[0] - goal
        if ferr < config.formation_gate and math.sqrt(d.dot(d)) < config.waypoint_tolerance:
            wp_idx += 1
            if wp_idx == len(waypoints):
                coverage_time = k * dt
                completed = True
                break
            goal = waypoints[wp_idx]
            u, ferr = control_step(goal, ang, pos, ctrl, trig)
        exp_step(ang, pos, dt * (u + noise[j]), trig)
        cmds.append(u)
        angs.append(ang.copy())
        poss.append(pos.copy())

    K = len(cmds)
    return TruthLog(
        t=np.arange(K + 1) * dt,
        ang=np.asarray(angs), pos=np.asarray(poss),
        u_cmd=np.asarray(cmds).reshape(K, n, 3),
        coverage_time=coverage_time, completed=completed,
        waypoints=waypoints,
    )


def _event_counts(n_steps: int, dt: float, rate: float) -> np.ndarray:
    """How many rate-clock events land on each truth step (quantized)."""
    counts = np.zeros(n_steps + 1, dtype=int)
    total = int(np.floor(n_steps * dt * rate))
    steps = np.clip(np.rint(np.arange(1, total + 1) / rate / dt).astype(int), 1, n_steps)
    np.add.at(counts, steps, 1)
    return counts


@dataclass
class MeasurementSchedule:
    """Every measurement a trial replays, drawn up front from the truth log.

    Range event m falls on truth step ``step[m]`` and measures slot
    ``slot[m]``: edge ``slot`` of the range graph below E, else the tag
    ``(slot - E) % T`` against landmark ``(slot - E) // T``. GPS fix g falls
    on ``gps_step[g]``. Both step arrays are sorted.
    """

    step: np.ndarray       # (M,)
    slot: np.ndarray       # (M,)
    z: np.ndarray          # (M,) noisy ranges
    gps_step: np.ndarray   # (G,)
    gps_z: np.ndarray      # (G, 2) noisy robot-1 positions


def _tag_world(idx: _EdgeIndex, truth: TruthLog, step: np.ndarray, tag: np.ndarray) -> np.ndarray:
    """True world positions (M,2) of tags ``tag`` at truth steps ``step``."""
    robot = idx.tag_robot[tag]
    C = _rot_many(truth.ang[step, robot])
    return _matvec(C, idx.tag_body[tag]) + truth.pos[step, robot]


def _distance(d: np.ndarray) -> np.ndarray:
    # one dot product per row: the rounding np.linalg.norm gives one 2-vector
    return np.sqrt(np.vecdot(d, d))


def measurement_schedule(idx: _EdgeIndex, truth: TruthLog, config: SimConfig,
                         meas_rng: np.random.Generator) -> MeasurementSchedule:
    """Which pair each range event measures, and every noisy range and fix.

    UWB ranging is time-division multiplexed: each range event measures one
    slot, cycling over the E inter-robot edges and then the L x T
    (tag, landmark) pairs, skipping a landmark pair while its tag's robot is
    outside the detection radius; an event with no open slot is dropped.
    All noise comes from one ``standard_normal`` call, step by step and,
    within a step, one draw per range event and then two per GPS fix: the
    stream the draws would give one event at a time.
    """
    K, dt = truth.n_steps, config.dt_truth
    E, T = idx.edge_i.shape[0], idx.tag_robot.shape[0]
    lm_true = np.asarray(config.landmark_positions, dtype=np.float64).reshape(-1, 2)
    L = lm_true.shape[0]
    n_slots = E + L * T

    # near[k, l, p]: robot p within the detection radius of landmark l at step k
    near = np.empty((K + 1, L, idx.n_robots), dtype=bool)
    for l in range(L):
        near[:, l] = _distance(truth.pos - lm_true[l]) <= config.landmark_detection_radius
    lm_of_slot = np.repeat(np.arange(L), T)
    robot_of_slot = np.tile(idx.tag_robot, L)

    event_step = np.repeat(np.arange(K + 1), _event_counts(K, dt, config.range_rate))
    picked = [-1] * event_step.shape[0]
    cursor = 0
    for m, k in enumerate(event_step.tolist()):
        if cursor < E:  # an edge slot is always open
            pick = cursor
        else:
            open_lm = near[k, lm_of_slot, robot_of_slot]
            ahead = np.flatnonzero(open_lm[cursor - E:])
            if ahead.size:
                pick = cursor + int(ahead[0])
            elif E:
                pick = 0
            else:
                behind = np.flatnonzero(open_lm[:cursor])
                if not behind.size:
                    continue  # nothing in range this tick
                pick = int(behind[0])
        picked[m] = pick
        cursor = (pick + 1) % n_slots
    slot = np.array(picked, dtype=np.intp)
    step, slot = event_step[slot >= 0], slot[slot >= 0]

    # true ranges at the event endpoints only
    rr = slot < E
    tag = np.concatenate([idx.edge_i, np.tile(np.arange(T), L)])[slot]
    far = np.empty((slot.shape[0], 2))
    far[rr] = _tag_world(idx, truth, step[rr], idx.edge_j[slot[rr]])
    far[~rr] = lm_true[lm_of_slot[slot[~rr] - E]]
    dist = _distance(_tag_world(idx, truth, step, tag) - far)
    sigma = np.concatenate([idx.sigma, np.full(L * T, config.range_sigma)])[slot]

    gps_step = np.repeat(np.arange(K + 1), _event_counts(K, dt, config.gps_rate))
    n_range = np.bincount(step, minlength=K + 1)
    n_draws = n_range + 2 * np.bincount(gps_step, minlength=K + 1)
    first = np.cumsum(n_draws) - n_draws  # index of each step's first draw
    noise = meas_rng.standard_normal(int(n_draws.sum()))
    rank = np.arange(step.shape[0]) - np.searchsorted(step, step)
    z = dist + config.noise_scale * noise[first[step] + rank] * sigma
    gps_rank = np.arange(gps_step.shape[0]) - np.searchsorted(gps_step, gps_step)
    gps_draw = (first + n_range)[gps_step] + 2 * gps_rank
    gps_noise = noise[gps_draw[:, None] + np.arange(2)]
    gps_z = truth.pos[gps_step, 0] + config.noise_scale * gps_noise * config.gps_sigma
    return MeasurementSchedule(step, slot, z, gps_step, gps_z)


def leader_waypoints(x_des: FormationState, team: TeamConfig,
                     config: SimConfig) -> np.ndarray:
    """Corner list for the leader: sweep corners shifted so the camera
    footprint (not the leader) rides the sweep lines."""
    width = config.area[0]
    sweep = min(formation_sweep_width(x_des, team), width)
    corners = generate_waypoints(config.area, sweep)
    return corners - footprint_center(x_des, team)


@dataclass
class TrialArtifacts:
    """Everything run_coverage_sim measured, for dumps and debugging."""

    metrics: SimMetrics
    truth: TruthLog
    est_ang: np.ndarray        # (K+1, N)
    est_pos: np.ndarray        # (K+1, N, 2)
    lm_est: np.ndarray         # (K+1, L, 2)
    lm_sigma: np.ndarray       # (K+1, L, 2) marginal std devs
    lm_initialized: np.ndarray  # (K+1, L) bool


def run_coverage_sim(team: TeamConfig, graph: RangeGraph, x_des: FormationState,
                     config: SimConfig, keep_artifacts: bool = False) -> SimMetrics | TrialArtifacts:
    """One full trial: truth, EKF replay, metrics.

    Deterministic in config.seed; truth noise, measurement noise and the
    initial estimate perturbation use independent child streams.
    """
    ss = np.random.SeedSequence(config.seed)
    truth_rng, meas_rng, init_rng = (np.random.default_rng(s) for s in ss.spawn(3))

    waypoints = leader_waypoints(x_des, team, config)
    truth = simulate_truth(team, x_des, waypoints, config, truth_rng)
    n, L = team.n_robots, len(config.landmark_positions)
    lm_true = np.asarray(config.landmark_positions, dtype=np.float64).reshape(-1, 2)
    K = truth.n_steps
    dt = config.dt_truth

    model = EkfModel.build(team, graph, L)
    state = EkfState.create(model, truth.ang[0], truth.pos[0],
                            att_sigma=config.init_att_sigma * config.noise_scale,
                            pos_sigma=config.init_pos_sigma * config.noise_scale)
    if config.noise_scale > 0:
        init_std = config.noise_scale * np.array(
            [config.init_att_sigma, config.init_pos_sigma, config.init_pos_sigma])
        ang0 = state.ang
        exp_step(ang0, state.pos, init_std * init_rng.standard_normal((n, 3)),
                 (np.cos(ang0), np.sin(ang0)))

    vel_cov = np.diag([config.vel_noise_omega ** 2,
                       config.vel_noise_v ** 2, config.vel_noise_v ** 2])
    Q = (dt * dt) * vel_cov
    idx = model.index
    sched = measurement_schedule(idx, truth, config, meas_rng)
    range_at = np.searchsorted(sched.step, np.arange(K + 2)).tolist()
    gps_at = np.searchsorted(sched.gps_step, np.arange(K + 2)).tolist()
    slots = sched.slot.tolist()
    n_edges, n_tags = idx.edge_i.shape[0], idx.tag_robot.shape[0]
    edges = np.arange(n_edges)
    no_edges, no_z = edges[:0], np.zeros(0)
    buffers = [LandmarkBuffer() for _ in range(L)]

    n_rejected_ranges = n_rejected_gps = 0
    est_ang = np.zeros((K + 1, n))
    est_pos = np.zeros((K + 1, n, 2))
    lm_est = np.zeros((K + 1, L, 2))
    lm_var = np.zeros((K + 1, L, 2))
    lm_init_log = np.zeros((K + 1, L), dtype=bool)

    def record_mean(k: int, ang: np.ndarray, pos: np.ndarray, landmarks: np.ndarray) -> None:
        est_ang[k] = ang
        est_pos[k] = pos
        lm_est[k] = landmarks

    def record_cov(k: int) -> None:
        lm_var[k] = np.diag(state.P)[3 * n:].reshape(L, 2)
        lm_init_log[k] = state.initialized

    # a step's updates only queue their corrections to the mean, and the
    # next predict applies them: the mean at the end of step k is recorded
    # from that predict, and the last one from the flushed state
    record_cov(0)
    for k in range(1, K + 1):
        j = (k - 1) % PREDICT_CHUNK
        if j == 0:
            phi, t, F = transitions(truth.u_cmd[k - 1:k - 1 + PREDICT_CHUNK], dt)
        state = ekf_predict(state, model, phi[j], t[j], F[j], Q)
        record_mean(k - 1, *state.last_posterior())
        for m in range(range_at[k], range_at[k + 1]):
            slot, z = slots[m], sched.z[m:m + 1]
            if slot < n_edges:
                state, rej = ekf_update_ranges(state, model, edges[slot:slot + 1], z,
                                               [], no_z, config.range_sigma)
                n_rejected_ranges += rej
                continue
            l, tag0 = divmod(slot - n_edges, n_tags)
            if state.initialized[l]:
                state, rej = ekf_update_ranges(state, model, no_edges, no_z,
                                               [(tag0, l)], z, config.range_sigma)
                n_rejected_ranges += rej
            else:
                buffers[l].add(state.tag_position(model, tag0), z[0])
                state, _ = landmark_init(state, model, l, buffers[l], config.range_sigma)

        for g in range(gps_at[k], gps_at[k + 1]):
            state, ok = ekf_update_gps(state, model, sched.gps_z[g], config.gps_sigma)
            n_rejected_gps += not ok

        record_cov(k)
    record_mean(K, state.ang, state.pos, state.landmarks)

    # inter-robot errors: headings and positions relative to robot 1, the
    # latter resolved in robot 1's frame, estimate against truth
    d_ang = (est_ang[:, 1:] - est_ang[:, :1]) - (truth.ang[:, 1:] - truth.ang[:, :1])
    att_err = np.abs(np.arctan2(np.sin(d_ang), np.cos(d_ang)))
    rel_est = (est_pos[:, 1:] - est_pos[:, :1]) @ _rot_many(est_ang[:, 0])
    rel_true = (truth.pos[:, 1:] - truth.pos[:, :1]) @ _rot_many(truth.ang[:, 0])
    pos_err = np.linalg.norm(rel_est - rel_true, axis=-1)
    lm_est[~lm_init_log] = np.nan
    lm_sig = np.where(lm_init_log[..., None], np.sqrt(np.maximum(lm_var, 0.0)), np.nan)
    lm_dev = lm_est - lm_true
    lm_err = np.linalg.norm(lm_dev, axis=-1)
    lm_contained = np.all(np.abs(lm_dev) <= 3.0 * lm_sig, axis=-1)

    att_rmse = float(np.sqrt(np.mean(att_err ** 2)))
    prmse = float(np.sqrt(np.mean(pos_err ** 2)))
    final_lm = [float(lm_err[K, l]) if state.initialized[l] else float("inf")
                for l in range(L)]
    post_init = ~np.isnan(lm_err)
    contained_frac = (float(np.sum(lm_contained[post_init]) / np.sum(post_init))
                      if np.any(post_init) else 0.0)
    bad = (not np.isfinite(att_rmse) or not np.isfinite(prmse)
           or prmse > config.divergence_threshold
           or any(e > config.divergence_threshold for e in final_lm))
    metrics = SimMetrics(
        coverage_time=float(truth.coverage_time),
        interrobot_att_rmse=att_rmse,
        interrobot_pos_rmse=prmse,
        landmark_errors=final_lm,
        nees_containment=contained_frac,
        completed=truth.completed,
        diverged=bool(bad),
        n_rejected_ranges=n_rejected_ranges,
        n_rejected_gps=n_rejected_gps,
        seed=config.seed,
    )
    if keep_artifacts:
        return TrialArtifacts(metrics, truth, est_ang, est_pos, lm_est, lm_sig, lm_init_log)
    return metrics


def dump_trajectory_csv(path, artifacts: TrialArtifacts, every: int = 5) -> None:
    """Plot-ready CSV: truth and estimated poses plus landmark 3-sigma bands."""
    truth = artifacts.truth
    n = truth.ang.shape[1]
    L = artifacts.lm_est.shape[1]
    cols = ["t"]
    for p in range(1, n + 1):
        cols += [f"true_x{p}", f"true_y{p}", f"true_ang{p}",
                 f"est_x{p}", f"est_y{p}", f"est_ang{p}"]
    for l in range(1, L + 1):
        cols += [f"lm{l}_est_x", f"lm{l}_est_y", f"lm{l}_3sig_x", f"lm{l}_3sig_y"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(0, truth.ang.shape[0], every):
            row = [truth.t[k]]
            for p in range(n):
                row += [truth.pos[k, p, 0], truth.pos[k, p, 1], truth.ang[k, p],
                        artifacts.est_pos[k, p, 0], artifacts.est_pos[k, p, 1],
                        artifacts.est_ang[k, p]]
            for l in range(L):
                row += [artifacts.lm_est[k, l, 0], artifacts.lm_est[k, l, 1],
                        3.0 * artifacts.lm_sigma[k, l, 0], 3.0 * artifacts.lm_sigma[k, l, 1]]
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
