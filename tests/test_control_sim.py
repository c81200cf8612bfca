import numpy as np
import pytest

from covform.covsim import SimConfig, simulate_truth
from covform.covsim.config import ControlGains
from covform.covsim.control import control_step
from covform.se2 import FormationState, Pose2, _rot_many, exp_step
from covform.team import TeamConfig
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
            u, ferr = control_step(goal, ang, pos, x_des, gains)
            u_ref, ferr_ref = control_step_loop(goal, ang, pos, x_des, gains)
            assert u.tobytes() == u_ref.tobytes()  # bitwise, signed zeros included
            assert ferr == ferr_ref


    def test_zero_commands_in_formation_at_waypoint(self):
        x_des = line_formation(3)
        ang = np.zeros(3)
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        u, ferr = control_step(np.zeros(2), ang, pos, x_des, GAINS)
        np.testing.assert_allclose(u, np.zeros((3, 3)), atol=1e-15)
        assert ferr == pytest.approx(0.0)

    def test_leader_saturates_toward_waypoint(self):
        x_des = line_formation(2)
        ang = np.zeros(2)
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        gains = ControlGains(waypoint=1.0, speed_cap=0.5)
        u, _ = control_step(np.array([0.0, 1.0]), ang, pos, x_des, gains)
        np.testing.assert_allclose(u[0], [0.0, 0.0, 0.5], atol=1e-15)

    def test_follower_chases_rotated_slot(self):
        # leader turned 90 deg: slot offsets rotate with it
        x_des = line_formation(2)
        ang = np.array([np.pi / 2, 0.0])
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        u, ferr = control_step(np.zeros(2), ang, pos, x_des, ControlGains(formation=1.0, speed_cap=10.0))
        # slot is at (0,1); follower at (1,0) must move (-1, 1) in world = body frame here
        np.testing.assert_allclose(u[1, 1:], [-1.0, 1.0], atol=1e-12)
        assert ferr == pytest.approx(np.sqrt(2))

    def test_heading_rate_tracks_formation_heading(self):
        x_des = line_formation(2)
        ang = np.array([0.0, 0.3])
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        u, _ = control_step(np.zeros(2), ang, pos, x_des, GAINS)
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
        errs = []
        for _ in range(3000):
            u, ferr = control_step(np.zeros(2), ang, pos, x_des, GAINS)
            errs.append(ferr)
            exp_step(ang, pos, dt * u)
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
