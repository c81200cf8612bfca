import tracemalloc

import numpy as np
import pytest

from covform.covsim import SimConfig, run_coverage_sim, sim, simulate_truth
from covform.covsim.config import ControlGains
from covform.covsim.control import Controller, control_step
from covform.se2 import FormationState, Pose2, _rot_many, exp_step
from covform.team import RangeGraph, TeamConfig, default_full_graph
from helpers import from_poses


def line_formation(n, gap=1.0):
    return from_poses(
        [Pose2(np.eye(2), np.array([k * gap, 0.0])) for k in range(1, n)])


GAINS = ControlGains()


def control_step_loop(leader_goal, ang, pos, x_des, gains):
    """Per-follower loop oracle for control_step, with scalar angle wrapping."""
    def wrap(phi):
        w = np.arctan2(np.sin(phi), np.cos(phi))
        return np.pi if w == -np.pi else float(w)

    n = ang.shape[0]
    u = np.zeros((n, 3))
    c1, s1 = np.cos(ang[0]), np.sin(ang[0])
    C1 = np.array([[c1, -s1], [s1, c1]])
    v1 = gains.waypoint * (leader_goal - pos[0])
    speed = float(np.linalg.norm(v1))
    if speed > gains.speed_cap:
        v1 *= gains.speed_cap / speed
    u[0, 0] = gains.heading * wrap(-ang[0])
    u[0, 1:] = C1.T @ v1
    slot_pos = pos[0] + x_des.r @ C1.T
    slot_ang = ang[0] + np.arctan2(x_des.C[:, 1, 0], x_des.C[:, 0, 0])
    err = slot_pos - pos[1:]
    v = gains.formation * err
    speeds = np.linalg.norm(v, axis=1)
    over = speeds > gains.speed_cap
    v[over] *= (gains.speed_cap / speeds[over])[:, None]
    for k in range(n - 1):
        ck, sk = np.cos(ang[k + 1]), np.sin(ang[k + 1])
        u[k + 1, 1] = ck * v[k, 0] + sk * v[k, 1]
        u[k + 1, 2] = -sk * v[k, 0] + ck * v[k, 1]
        u[k + 1, 0] = gains.heading * wrap(slot_ang[k] - ang[k + 1])
    return u, float(np.sqrt(np.einsum("ij,ij->", err, err)))


class TestControlStep:
    def test_equals_per_follower_loop(self):
        rng = np.random.default_rng(23)
        for trial in range(500):
            n = int(rng.integers(2, 9))
            ang = rng.uniform(-4.0, 4.0, n)
            if trial % 5 == 0:
                ang[rng.integers(n)] = np.pi  # heading errors on the wrap boundary
            pos = rng.uniform(-5.0, 5.0, (n, 2))
            x_des = FormationState(_rot_many(rng.uniform(-np.pi, np.pi, n - 1)),
                                   rng.uniform(-3.0, 3.0, (n - 1, 2)))
            gains = ControlGains(speed_cap=float(rng.uniform(0.2, 5.0)))
            goal = rng.uniform(-10.0, 10.0, 2)
            u, ferr = control_step(goal, ang, pos, Controller.build(x_des, gains), (np.cos(ang), np.sin(ang)))
            u_ref, ferr_ref = control_step_loop(goal, ang, pos, x_des, gains)
            assert u.tobytes() == u_ref.tobytes()  # bitwise, signed zeros included
            assert ferr == ferr_ref

    def test_one_controller_reused_equals_per_follower_loop(self):
        # one trial's table serves every step of a closed loop, through
        # saturated and unsaturated followers and heading wraps
        rng = np.random.default_rng(29)
        for n in (2, 5, 9):
            x_des = FormationState(_rot_many(rng.uniform(-np.pi, np.pi, n - 1)),
                                   rng.uniform(-3.0, 3.0, (n - 1, 2)))
            gains = ControlGains(speed_cap=0.8)
            ctrl = Controller.build(x_des, gains)
            ang = rng.uniform(-np.pi, np.pi, n)
            pos = rng.uniform(-6.0, 6.0, (n, 2))
            goal = rng.uniform(-10.0, 10.0, 2)
            for k in range(300):
                # the truth step takes the cosines and sines once and hands
                # them to both control_step and exp_step
                trig = np.cos(ang), np.sin(ang)
                u, ferr = control_step(goal, ang, pos, ctrl, trig)
                u_ref, ferr_ref = control_step_loop(goal, ang, pos, x_des, gains)
                assert u.tobytes() == u_ref.tobytes(), k
                assert ferr == ferr_ref, k
                exp_step(ang, pos, 0.05 * (u + rng.normal(0.0, 0.3, u.shape)), trig)


    def test_zero_commands_in_formation_at_waypoint(self):
        x_des = line_formation(3)
        ang = np.zeros(3)
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        u, ferr = control_step(np.zeros(2), ang, pos, Controller.build(x_des, GAINS), (np.cos(ang), np.sin(ang)))
        np.testing.assert_allclose(u, np.zeros((3, 3)), atol=1e-15)
        assert ferr == pytest.approx(0.0)

    def test_leader_saturates_toward_waypoint(self):
        x_des = line_formation(2)
        ang = np.zeros(2)
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        gains = ControlGains(waypoint=1.0, speed_cap=0.5)
        u, _ = control_step(np.array([0.0, 1.0]), ang, pos, Controller.build(x_des, gains),
                            (np.cos(ang), np.sin(ang)))
        np.testing.assert_allclose(u[0], [0.0, 0.0, 0.5], atol=1e-15)

    def test_follower_chases_rotated_slot(self):
        # leader turned 90 deg: slot offsets rotate with it
        x_des = line_formation(2)
        ang = np.array([np.pi / 2, 0.0])
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        u, ferr = control_step(np.zeros(2), ang, pos,
                               Controller.build(x_des, ControlGains(formation=1.0, speed_cap=10.0)),
                               (np.cos(ang), np.sin(ang)))
        # slot is at (0,1); follower at (1,0) must move (-1, 1) in world = body frame here
        np.testing.assert_allclose(u[1, 1:], [-1.0, 1.0], atol=1e-12)
        assert ferr == pytest.approx(np.sqrt(2))

    def test_heading_rate_tracks_formation_heading(self):
        x_des = line_formation(2)
        ang = np.array([0.0, 0.3])
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        u, _ = control_step(np.zeros(2), ang, pos, Controller.build(x_des, GAINS), (np.cos(ang), np.sin(ang)))
        assert u[1, 0] == pytest.approx(-GAINS.heading * 0.3)


class TestSimulateTruth:
    def test_waypoint_at_start_completes_immediately(self):
        team = TeamConfig.uniform(3)
        x_des = line_formation(3)
        cfg = SimConfig(noise_scale=0.0)
        log = simulate_truth(team, x_des, np.zeros((1, 2)), cfg, np.random.default_rng(0))
        assert log.completed
        assert log.coverage_time == pytest.approx(0.0, abs=cfg.dt_truth)

    def test_noiseless_formation_error_decays(self):
        # stationary leader, followers displaced: slot errors shrink
        # monotonically (after the heading transient) and vanish
        x_des = line_formation(3)
        ang = np.array([0.0, 0.4, -0.3])
        pos = np.array([[0.0, 0.0], [1.8, 0.9], [0.4, -1.2]])
        dt = 0.01
        ctrl = Controller.build(x_des, GAINS)
        errs = []
        for _ in range(3000):
            trig = np.cos(ang), np.sin(ang)
            u, ferr = control_step(np.zeros(2), ang, pos, ctrl, trig)
            errs.append(ferr)
            exp_step(ang, pos, dt * u, trig)
        errs = np.asarray(errs)
        assert errs[-1] < 1e-3
        tail = errs[50:]
        assert np.all(np.diff(tail) <= 1e-12)

    def test_cruise_lag_is_bounded_along_track(self):
        # on a long leg followers trail by about speed/gain but never more
        team = TeamConfig.uniform(3)
        x_des = line_formation(3)
        cfg = SimConfig(noise_scale=0.0, max_sim_time=40.0)
        log = simulate_truth(team, x_des, np.array([[0.0, 10.0]]), cfg, np.random.default_rng(0))
        assert log.completed
        slot = log.pos[:, 0, :][:, None, :] + x_des.r[None, :, :]
        err = np.linalg.norm(log.pos[:, 1:, :] - slot, axis=-1)
        bound = cfg.gains.speed_cap / cfg.gains.formation + 0.05
        assert np.all(err <= bound)
        # and the lag is purely along the direction of travel (+y here)
        cross = np.abs(log.pos[:, 1:, 0] - (log.pos[:, 0, 0][:, None] + x_des.r[None, :, 0]))
        assert np.all(cross < 1e-6)

    def test_doubling_speed_cap_roughly_halves_leg_time(self):
        team = TeamConfig.uniform(2)
        x_des = line_formation(2)
        wp = np.array([[0.0, 24.0]])
        times = {}
        for cap in (1.0, 2.0):
            cfg = SimConfig(noise_scale=0.0, max_sim_time=120.0,
                            gains=ControlGains(speed_cap=cap))
            log = simulate_truth(team, x_des, wp, cfg, np.random.default_rng(0))
            assert log.completed
            times[cap] = log.coverage_time
        ratio = times[2.0] / times[1.0]
        assert 0.45 < ratio < 0.65

    def test_max_time_flags_incomplete(self):
        team = TeamConfig.uniform(2)
        x_des = line_formation(2)
        cfg = SimConfig(noise_scale=0.0, max_sim_time=1.0)
        log = simulate_truth(team, x_des, np.array([[0.0, 24.0]]), cfg, np.random.default_rng(0))
        assert not log.completed
        assert np.isnan(log.coverage_time)

    def test_noise_perturbs_but_does_not_break_tracking(self):
        team = TeamConfig.uniform(3)
        x_des = line_formation(3)
        cfg = SimConfig(max_sim_time=60.0)
        log = simulate_truth(team, x_des, np.array([[2.0, 20.0]]), cfg,
                             np.random.default_rng(3))
        assert log.completed

    @pytest.mark.parametrize("chunk", [3, 512])
    def test_chunked_noise_equals_per_step_draws(self, monkeypatch, chunk):
        # noise drawn chunk steps at a time equals one standard_normal((N, 3))
        # draw per step, whether the run completes inside a chunk, on a chunk
        # boundary or not at all
        monkeypatch.setattr(sim, "TRUTH_CHUNK", chunk)
        team = TeamConfig.uniform(3)
        x_des = line_formation(3)
        cases = [(SimConfig(max_sim_time=30.0), np.array([[0.4, 1.0], [1.0, 2.5]])),
                 (SimConfig(max_sim_time=2.0), np.array([[0.0, 24.0]])),
                 (SimConfig(noise_scale=0.0, max_sim_time=30.0), np.array([[0.0, 1.0]]))]
        ends = set()
        for seed in range(4):
            for cfg, wp in cases:
                got = simulate_truth(team, x_des, wp, cfg, np.random.default_rng(seed))
                want = simulate_truth_loop(team, x_des, wp, cfg, np.random.default_rng(seed))
                for name in ("t", "ang", "pos", "u_cmd"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
                assert got.completed == want.completed
                assert got.coverage_time == want.coverage_time or not got.completed
                ends.add(got.n_steps % chunk)
        if chunk == 3:  # runs ended on a chunk boundary and inside a chunk
            assert 0 in ends and len(ends) > 1


def simulate_truth_loop(team, x_des, waypoints, config, rng):
    """simulate_truth with one noise draw per step: the oracle for its
    chunked draws."""
    n, dt = team.n_robots, config.dt_truth
    noise_std = config.noise_scale * np.array(
        [config.vel_noise_omega, config.vel_noise_v, config.vel_noise_v])
    ctrl = Controller.build(x_des, config.gains)
    ang = np.zeros(n)
    pos = np.vstack([np.zeros((1, 2)), x_des.r.copy()])
    angs, poss, cmds = [ang.copy()], [pos.copy()], []
    wp_idx, coverage_time, completed = 0, np.nan, False
    for k in range(int(np.ceil(config.max_sim_time / dt))):
        trig = np.cos(ang), np.sin(ang)
        u, ferr = control_step(waypoints[wp_idx], ang, pos, ctrl, trig)
        if (np.linalg.norm(pos[0] - waypoints[wp_idx]) < config.waypoint_tolerance
                and ferr < config.formation_gate):
            wp_idx += 1
            if wp_idx == len(waypoints):
                coverage_time, completed = k * dt, True
                break
            u, ferr = control_step(waypoints[wp_idx], ang, pos, ctrl, trig)
        exp_step(ang, pos, dt * (u + noise_std * rng.standard_normal(u.shape)), trig)
        cmds.append(u)
        angs.append(ang.copy())
        poss.append(pos.copy())
    K = len(cmds)
    return sim.TruthLog(t=np.arange(K + 1) * dt, ang=np.asarray(angs), pos=np.asarray(poss),
                        u_cmd=np.asarray(cmds).reshape(K, n, 3), coverage_time=coverage_time,
                        completed=completed, waypoints=waypoints)


def test_truth_log_and_transitions_grow_with_steps_flown_not_max_time():
    # 64 robots that finish in a few hundred steps of a 600 s budget: a log or
    # transition table sized for max_sim_time would take 276 MB for F alone
    n = 64
    team = TeamConfig.uniform(n)
    graph = RangeGraph.from_pairs([(2 * p + 1, 2 * p + 3) for p in range(n - 1)])
    grid = [(i, j) for i in range(-4, 4) for j in range(-4, 4) if (i, j) != (0, 0)]
    x_des = FormationState(np.tile(np.eye(2), (n - 1, 1, 1)), 1.1 * np.array(grid, dtype=float))
    cfg = SimConfig(area=(1.0, 1.0), landmark_positions=((0.0, 0.0),), seed=3,
                    waypoint_tolerance=0.8, formation_gate=3.0, max_sim_time=600.0)
    tracemalloc.start()
    try:
        art = run_coverage_sim(team, graph, x_des, cfg, keep_artifacts=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert art.metrics.completed and art.truth.n_steps < 1000
    max_steps = int(np.ceil(cfg.max_sim_time / cfg.dt_truth))
    per_step = n * (9 + 6) * 8  # one step's F, pose and command
    assert peak < max_steps * per_step / 20, f"peak {peak / 1e6:.1f} MB"


def test_chunked_replay_equals_one_block(monkeypatch):
    # transitions built 7 steps at a time replay the trial of one block
    team = TeamConfig.uniform(3)
    x_des = line_formation(3)
    cfg = SimConfig(area=(6.0, 8.0), landmark_positions=((3.0, 4.0), (1.0, 6.0)),
                    max_sim_time=20.0, seed=42)
    runs = []
    for chunk in (7, 10 ** 6):
        monkeypatch.setattr(sim, "PREDICT_CHUNK", chunk)
        runs.append(run_coverage_sim(team, default_full_graph(team), x_des, cfg,
                                     keep_artifacts=True))
    got, want = runs
    assert got.truth.n_steps > 7
    for name in ("est_ang", "est_pos", "lm_est", "lm_sigma", "lm_initialized"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.metrics.as_record() == want.metrics.as_record()
