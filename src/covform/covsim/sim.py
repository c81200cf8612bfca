"""Coverage-run simulation: one trial in four stages, composed by ``run_coverage_sim``.

``simulate_truth`` flies the fleet under the leader-follower controller with
velocity noise and logs poses plus the clean commands. ``measurement_schedule``
draws from that log which pair each range event measures, and every noisy
range and GPS fix. ``replay`` predicts the EKF on the clean commands, feeds it
the scheduled measurements and logs its estimate at every step. ``score``
compares that log with the truth: relative poses, landmarks, containment.
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
from covform.se2 import FormationState, _matvec, _rot_many, exp_step, wrap_angle
from covform.team import RangeGraph, TeamConfig


# truth steps per velocity-noise draw
TRUTH_CHUNK = 512
# replay steps per block of transitions (64 robots: 2.4 MB of F)
PREDICT_CHUNK = 512
# truth steps per row of the trajectory CSV
CSV_EVERY = 5


@dataclass
class TruthLog:
    """Ground-truth trajectory and the commands that produced it."""

    t: np.ndarray        # (K+1,)
    ang: np.ndarray      # (K+1, N)
    pos: np.ndarray      # (K+1, N, 2)
    u_cmd: np.ndarray    # (K, N, 3) clean commanded twists
    coverage_time: float
    completed: bool

    @property
    def n_steps(self) -> int:
        return self.u_cmd.shape[0]


def simulate_truth(team: TeamConfig, x_des: FormationState, waypoints: np.ndarray,
                   config: SimConfig, rng: np.random.Generator) -> TruthLog:
    """Fly the formation through the waypoint list with noisy kinematics.

    The leader advances to the next corner only when it is inside the
    waypoint tolerance and the fleet is in formation. Returns the log,
    flagged incomplete if max_sim_time runs out first.

    The poses are one (N,3) array of [phi, x, y] rows, which ``control_step``
    reads through its heading and position views and ``se2.exp_step`` moves
    through its flat view; the log stacks its copies. The velocity noise is drawn
    TRUTH_CHUNK steps at a time, which gives the values of one draw per
    step while its memory stays bounded whatever max_sim_time is.
    """
    n = team.n_robots
    dt = config.dt_truth
    max_steps = int(np.ceil(config.max_sim_time / dt))
    noise_std = config.noise_scale * np.array(
        [config.vel_noise_omega, config.vel_noise_v, config.vel_noise_v])
    ctrl = Controller.build(x_des, config.gains)

    pose = np.zeros((n, 3))
    pose[1:, 1:] = x_des.r  # start in formation at origin
    ang, pos = pose[:, 0], pose[:, 1:]

    poses, cmds = [pose.copy()], []
    wp_idx, goal = 0, waypoints[0]
    coverage_time, completed = np.nan, False

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
        exp_step(pose.reshape(-1), dt * (u + noise[j]))
        cmds.append(u)
        poses.append(pose.copy())

    K = len(cmds)
    log = np.asarray(poses)
    return TruthLog(
        t=np.arange(K + 1) * dt,
        ang=log[..., 0], pos=log[..., 1:],
        u_cmd=np.asarray(cmds).reshape(K, n, 3),
        coverage_time=coverage_time, completed=completed,
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
    All noise comes from one ``standard_normal`` call, handed out in one
    stable order of the event steps: step by step and, within a step, one
    draw per range event and then two per GPS fix, the stream the draws
    would give one event at a time.
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
    order = np.argsort(np.concatenate([step, np.repeat(gps_step, 2)]), kind="stable")
    noise = np.empty(order.shape[0])
    noise[order] = meas_rng.standard_normal(order.shape[0])
    M = step.shape[0]
    z = dist + config.noise_scale * noise[:M] * sigma
    gps_z = truth.pos[gps_step, 0] + config.noise_scale * noise[M:].reshape(-1, 2) * config.gps_sigma
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
    """One trial's metrics and the logs they were scored from."""

    metrics: SimMetrics
    truth: TruthLog
    est_ang: np.ndarray        # (K+1, N)
    est_pos: np.ndarray        # (K+1, N, 2)
    lm_est: np.ndarray         # (K+1, L, 2)
    lm_sigma: np.ndarray       # (K+1, L, 2) marginal std devs
    lm_initialized: np.ndarray  # (K+1, L) bool


def replay(model: EkfModel, state: EkfState, truth: TruthLog, sched: MeasurementSchedule,
           config: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Run the filter from ``state`` over the schedule, in place. Returns the mean
    at the end of every step (K+1, dim), the landmarks' variances (K+1, L, 2),
    each landmark's init step (K+1 if never) and the gates' rejection counts."""
    K, dt = truth.n_steps, config.dt_truth
    n, L = model.n_robots, model.n_landmarks
    Q = (dt * dt) * np.diag([config.vel_noise_omega ** 2,
                             config.vel_noise_v ** 2, config.vel_noise_v ** 2])
    range_at = np.searchsorted(sched.step, np.arange(K + 2)).tolist()
    gps_at = np.searchsorted(sched.gps_step, np.arange(K + 2)).tolist()
    slots, zs = sched.slot.tolist(), sched.z.tolist()
    n_edges, n_tags = model.index.edge_i.shape[0], model.index.tag_robot.shape[0]
    buffers = [LandmarkBuffer() for _ in range(L)]
    init_step = np.full(L, K + 1)
    n_rejected_ranges = n_rejected_gps = 0
    mean_log = np.empty((K + 1, model.dim))
    lm_var = np.empty((K + 1, L, 2))
    for k in range(K + 1):
        if k:  # step 0 holds the initial estimate; no event falls on it
            j = (k - 1) % PREDICT_CHUNK
            if j == 0:
                u = truth.u_cmd[k - 1:k - 1 + PREDICT_CHUNK]
                xi, F = dt * u, transitions(u, dt)
            state = ekf_predict(state, model, xi[j], F[j], Q)
        for m in range(range_at[k], range_at[k + 1]):
            slot, z = slots[m], zs[m]
            if slot < n_edges:
                state, rej = ekf_update_ranges(state, model, (slot,), (z,), (), (),
                                               config.range_sigma)
                n_rejected_ranges += rej
                continue
            l, tag0 = divmod(slot - n_edges, n_tags)
            if state.initialized[l]:
                state, rej = ekf_update_ranges(state, model, (), (), ((tag0, l),), (z,),
                                               config.range_sigma)
                n_rejected_ranges += rej
            else:
                buffers[l].add(state.tag_position(model, tag0), z)
                state, inserted = landmark_init(state, model, l, buffers[l], config.range_sigma)
                if inserted:
                    init_step[l] = k

        for g in range(gps_at[k], gps_at[k + 1]):
            state, ok = ekf_update_gps(state, model, sched.gps_z[g], config.gps_sigma)
            n_rejected_gps += not ok

        mean_log[k] = state.mean
        lm_var[k] = state.P.diagonal()[3 * n:].reshape(L, 2)
    return mean_log, lm_var, init_step, n_rejected_ranges, n_rejected_gps


def score(truth: TruthLog, config: SimConfig, mean_log: np.ndarray, lm_var: np.ndarray,
          init_step: np.ndarray, n_rejected_ranges: int, n_rejected_gps: int) -> TrialArtifacts:
    """Score a replay's logs against the truth: headings and positions relative to
    robot 1 (the latter in its frame), and each landmark from its init step on."""
    K, n = truth.n_steps, truth.ang.shape[1]
    lm_true = np.asarray(config.landmark_positions, dtype=np.float64).reshape(-1, 2)
    initialized = np.arange(K + 1)[:, None] >= init_step
    est_ang = mean_log[:, :3 * n:3]
    est_pos = mean_log[:, :3 * n].reshape(K + 1, n, 3)[..., 1:]
    d_ang = (est_ang[:, 1:] - est_ang[:, :1]) - (truth.ang[:, 1:] - truth.ang[:, :1])
    att_err = np.abs(wrap_angle(d_ang))
    rel_est = (est_pos[:, 1:] - est_pos[:, :1]) @ _rot_many(est_ang[:, 0])
    rel_true = (truth.pos[:, 1:] - truth.pos[:, :1]) @ _rot_many(truth.ang[:, 0])
    pos_err = np.linalg.norm(rel_est - rel_true, axis=-1)
    lm_est = np.where(initialized[..., None], mean_log[:, 3 * n:].reshape(K + 1, -1, 2), np.nan)
    lm_sig = np.where(initialized[..., None], np.sqrt(np.maximum(lm_var, 0.0)), np.nan)
    lm_dev = lm_est - lm_true
    lm_err = np.linalg.norm(lm_dev, axis=-1)
    lm_contained = np.all(np.abs(lm_dev) <= 3.0 * lm_sig, axis=-1)

    att_rmse = float(np.sqrt(np.mean(att_err ** 2)))
    prmse = float(np.sqrt(np.mean(pos_err ** 2)))
    post_init = ~np.isnan(lm_err)
    contained_frac = (float(np.sum(lm_contained[post_init]) / np.sum(post_init))
                      if np.any(post_init) else 0.0)
    # an uninitialized landmark's error is nan here, so it never exceeds the threshold
    bad = (not np.isfinite(att_rmse) or not np.isfinite(prmse)
           or prmse > config.divergence_threshold
           or np.any(lm_err[K] > config.divergence_threshold))
    metrics = SimMetrics(
        coverage_time=float(truth.coverage_time),
        interrobot_att_rmse=att_rmse,
        interrobot_pos_rmse=prmse,
        landmark_errors=np.where(initialized[K], lm_err[K], np.inf).tolist(),
        nees_containment=contained_frac,
        completed=truth.completed,
        diverged=bool(bad),
        n_rejected_ranges=n_rejected_ranges,
        n_rejected_gps=n_rejected_gps,
        seed=config.seed,
    )
    return TrialArtifacts(metrics, truth, est_ang, est_pos, lm_est, lm_sig, initialized)


def run_coverage_sim(team: TeamConfig, graph: RangeGraph, x_des: FormationState,
                     config: SimConfig) -> TrialArtifacts:
    """One full trial, deterministic in config.seed: truth, measurement and
    initial-estimate noise come from independent child streams of it."""
    ss = np.random.SeedSequence(config.seed)
    truth_rng, meas_rng, init_rng = (np.random.default_rng(s) for s in ss.spawn(3))
    truth = simulate_truth(team, x_des, leader_waypoints(x_des, team, config), config, truth_rng)

    model = EkfModel.build(team, graph, len(config.landmark_positions))
    att_sigma = config.init_att_sigma * config.noise_scale
    pos_sigma = config.init_pos_sigma * config.noise_scale
    state = EkfState.create(model, truth.ang[0], truth.pos[0], att_sigma, pos_sigma)
    if config.noise_scale > 0:  # the initial estimate is drawn from the prior
        exp_step(state.mean[:3 * team.n_robots], np.array([att_sigma, pos_sigma, pos_sigma])
                 * init_rng.standard_normal((team.n_robots, 3)))
    sched = measurement_schedule(model.index, truth, config, meas_rng)
    return score(truth, config, *replay(model, state, truth, sched, config))


def dump_trajectory_csv(path, artifacts: TrialArtifacts) -> None:
    """Plot-ready CSV: truth and estimated poses plus landmark 3-sigma bands,
    every CSV_EVERY-th truth step."""
    truth = artifacts.truth
    n, L = truth.ang.shape[1], artifacts.lm_est.shape[1]
    cols = ["t"] + [f"{kind}_{c}{p}" for p in range(1, n + 1)
                    for kind in ("true", "est") for c in ("x", "y", "ang")]
    cols += [f"lm{l}_{kind}_{c}" for l in range(1, L + 1) for kind in ("est", "3sig") for c in "xy"]
    rows = slice(None, None, CSV_EVERY)
    robots = np.stack([truth.pos[rows, :, 0], truth.pos[rows, :, 1], truth.ang[rows],
                       artifacts.est_pos[rows, :, 0], artifacts.est_pos[rows, :, 1],
                       artifacts.est_ang[rows]], axis=-1)
    landmarks = np.concatenate([artifacts.lm_est[rows], 3.0 * artifacts.lm_sigma[rows]], axis=-1)
    table = np.hstack([truth.t[rows, None], robots.reshape(len(robots), -1),
                       landmarks.reshape(len(landmarks), -1)])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in table.tolist():
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
