import math
import tracemalloc

import numpy as np
import pytest

from covform.covsim import SimConfig, run_coverage_sim, sim, simulate_truth
from covform.covsim.config import ControlGains
from covform.covsim.control import Controller, control_step
from covform.se2 import FormationState, Pose2, _rot_many
from covform.team import RangeGraph, TeamConfig, default_full_graph
from helpers import control_step_numpy, exp_step_numpy, from_poses, preset_line


def line_formation(n, gap=1.0):
    return from_poses(
        [Pose2(np.eye(2), np.array([k * gap, 0.0])) for k in range(1, n)])


GAINS = ControlGains()


def control_step_loop(leader_goal, ang, pos, x_des, gains):
    """Per-robot loop oracle for control_step on Python floats: each slot
    read from x_des, its offset rotated into the world and each capped pull
    rotated into its robot's body frame written out, with scalar angle
    wrapping and the error norm summed follower by follower."""
    cap = gains.speed_cap

    def wrap(phi):
        w = math.atan2(math.sin(phi), math.cos(phi))
        return math.pi if w == -math.pi else w

    def capped(vx, vy):
        speed = math.sqrt(vx * vx + vy * vy)
        return (vx, vy) if speed <= cap else (vx * (cap / speed), vy * (cap / speed))

    def body(phi, vx, vy):
        c, s = math.cos(phi), math.sin(phi)
        return [c * vx + s * vy, c * vy - s * vx]

    phi0 = float(ang[0])
    x0, y0 = float(pos[0, 0]), float(pos[0, 1])
    c0, s0 = math.cos(phi0), math.sin(phi0)
    pull = capped(gains.waypoint * (float(leader_goal[0]) - x0),
                  gains.waypoint * (float(leader_goal[1]) - y0))
    u = [[gains.heading * wrap(-phi0)] + body(phi0, *pull)]
    sq = 0.0
    for k in range(1, len(ang)):
        ox, oy = float(x_des.r[k - 1, 0]), float(x_des.r[k - 1, 1])
        slot_ang = phi0 + float(np.arctan2(x_des.C[k - 1, 1, 0], x_des.C[k - 1, 0, 0]))
        ex = x0 + (c0 * ox - s0 * oy) - float(pos[k, 0])
        ey = y0 + (s0 * ox + c0 * oy) - float(pos[k, 1])
        sq += ex * ex + ey * ey
        pull = capped(gains.formation * ex, gains.formation * ey)
        u.append([gains.heading * wrap(slot_ang - float(ang[k]))] + body(float(ang[k]), *pull))
    return np.array(u), math.sqrt(sq)


def random_case(rng, n):
    """Headings, positions, a desired formation, gains and a goal of n robots."""
    ang = rng.uniform(-4.0, 4.0, n)
    pos = rng.uniform(-5.0, 5.0, (n, 2))
    x_des = FormationState(_rot_many(rng.uniform(-np.pi, np.pi, n - 1)),
                           rng.uniform(-3.0, 3.0, (n - 1, 2)))
    gains = ControlGains(speed_cap=float(rng.uniform(0.2, 5.0)))
    return ang, pos, x_des, gains, rng.uniform(-10.0, 10.0, 2)


class TestControlStep:
    def test_equals_per_follower_loop(self):
        rng = np.random.default_rng(23)
        for trial in range(500):
            n = (2, 64)[trial % 2] if trial % 10 < 2 else int(rng.integers(2, 9))
            ang, pos, x_des, gains, goal = random_case(rng, n)
            if trial % 5 == 0:
                ang[rng.integers(n)] = np.pi  # heading errors on the wrap boundary
            u, ferr = control_step(goal, ang, pos, Controller.build(x_des, gains))
            u_ref, ferr_ref = control_step_loop(goal, ang, pos, x_des, gains)
            assert u.tobytes() == u_ref.tobytes()  # bitwise, signed zeros included
            assert ferr == ferr_ref

    def test_within_tolerance_of_the_numpy_controller(self):
        # the numpy controller's products and reductions round differently,
        # by a few ulp at most; the commands and error norm agree to 1e-13
        rng = np.random.default_rng(31)
        for trial in range(500):
            n = (2, 64)[trial % 2] if trial % 10 < 2 else int(rng.integers(2, 9))
            ang, pos, x_des, gains, goal = random_case(rng, n)
            ctrl = Controller.build(x_des, gains)
            u, ferr = control_step(goal, ang, pos, ctrl)
            u_ref, ferr_ref = control_step_numpy(goal, ang, pos, ctrl)
            np.testing.assert_allclose(u, u_ref, rtol=1e-13, atol=1e-13)
            assert ferr == pytest.approx(ferr_ref, rel=1e-13)

    def test_one_controller_reused_equals_per_follower_loop(self):
        # one trial's table serves every step of a closed loop, through
        # saturated and unsaturated followers and heading wraps
        rng = np.random.default_rng(29)
        for n in (2, 5, 9, 64):
            x_des = FormationState(_rot_many(rng.uniform(-np.pi, np.pi, n - 1)),
                                   rng.uniform(-3.0, 3.0, (n - 1, 2)))
            gains = ControlGains(speed_cap=0.8)
            ctrl = Controller.build(x_des, gains)
            ang = rng.uniform(-np.pi, np.pi, n)
            pos = rng.uniform(-6.0, 6.0, (n, 2))
            goal = rng.uniform(-10.0, 10.0, 2)
            for k in range(300 if n < 64 else 30):
                u, ferr = control_step(goal, ang, pos, ctrl)
                u_ref, ferr_ref = control_step_loop(goal, ang, pos, x_des, gains)
                assert u.tobytes() == u_ref.tobytes(), k
                assert ferr == ferr_ref, k
                exp_step_numpy(ang, pos, 0.05 * (u + rng.normal(0.0, 0.3, u.shape)))

    def test_zero_commands_in_formation_at_waypoint(self):
        x_des = line_formation(3)
        ang = np.zeros(3)
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        u, ferr = control_step(np.zeros(2), ang, pos, Controller.build(x_des, GAINS))
        assert u.shape == (3, 3) and np.all(u == 0.0) and ferr == 0.0
        # away from the origin, followers turned to their slot headings
        x_des = from_poses([Pose2(_rot_many(np.array(0.4)), np.array([0.5, 1.5])),
                            Pose2(_rot_many(np.array(-2.0)), np.array([-1.25, 0.75]))])
        ctrl = Controller.build(x_des, GAINS)
        ang = np.array([0.0, *ctrl.slot_heading])
        pos = np.array([3.0, -2.0]) + x_des.positions()
        u, ferr = control_step(np.array([3.0, -2.0]), ang, pos, ctrl)
        assert np.all(u == 0.0) and ferr == 0.0

    def test_follower_exactly_at_the_cap_is_not_scaled(self):
        # a pull of norm exactly the cap (0.375, 0.5 -> 0.625) passes as it is;
        # one ulp more in x (error 0.375 + 2^-53) is scaled back by cap / speed
        x_des = line_formation(2)
        gains = ControlGains(formation=1.0, speed_cap=0.625)
        ctrl = Controller.build(x_des, gains)
        ang = np.zeros(2)
        pos = np.array([[0.0, 0.0], [1.0 - 0.375, -0.5]])
        u, ferr = control_step(np.zeros(2), ang, pos, ctrl)
        assert u[1].tolist() == [0.0, 0.375, 0.5] and ferr == 0.625
        pos[1, 0] = np.nextafter(pos[1, 0], -1.0)
        u, ferr = control_step(np.zeros(2), ang, pos, ctrl)
        assert u[1].tolist() == [0.0, 0.375, 0.5 - 2.0 ** -53] and ferr > 0.625
        assert u.tobytes() == control_step_loop(np.zeros(2), ang, pos, x_des, gains)[0].tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_heading_errors_at_pi_wrap_to_plus_pi(self, sign):
        # a heading error of +pi or -pi, the leader's and a follower's alike,
        # commands the rate of +pi: the wrap is to (-pi, pi]
        x_des = line_formation(2)
        ctrl = Controller.build(x_des, GAINS)
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        u, _ = control_step(np.zeros(2), np.array([0.0, sign * np.pi]), pos, ctrl)
        assert u[1, 0] == GAINS.heading * np.pi
        u, _ = control_step(np.zeros(2), np.array([sign * np.pi, 0.0]), pos, ctrl)
        assert u[0, 0] == GAINS.heading * np.pi

    def test_leader_saturates_toward_waypoint(self):
        x_des = line_formation(2)
        ang = np.zeros(2)
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        gains = ControlGains(waypoint=1.0, speed_cap=0.5)
        u, _ = control_step(np.array([0.0, 1.0]), ang, pos, Controller.build(x_des, gains))
        np.testing.assert_allclose(u[0], [0.0, 0.0, 0.5], atol=1e-15)

    def test_follower_chases_rotated_slot(self):
        # leader turned 90 deg: slot offsets rotate with it
        x_des = line_formation(2)
        ang = np.array([np.pi / 2, 0.0])
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        u, ferr = control_step(np.zeros(2), ang, pos,
                               Controller.build(x_des, ControlGains(formation=1.0, speed_cap=10.0)))
        # slot is at (0,1); follower at (1,0) must move (-1, 1) in world = body frame here
        np.testing.assert_allclose(u[1, 1:], [-1.0, 1.0], atol=1e-12)
        assert ferr == pytest.approx(np.sqrt(2))

    def test_heading_rate_tracks_formation_heading(self):
        x_des = line_formation(2)
        ang = np.array([0.0, 0.3])
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        u, _ = control_step(np.zeros(2), ang, pos, Controller.build(x_des, GAINS))
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
            u, ferr = control_step(np.zeros(2), ang, pos, ctrl)
            errs.append(ferr)
            exp_step_numpy(ang, pos, dt * u)
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

    def test_within_tolerance_of_the_numpy_controller_over_a_sim5_run(self, monkeypatch):
        # a whole noisy sim5 line run (about 5,800 steps, every corner) driven by
        # the float controller and by the numpy one: the goals handed to the
        # controller, step by step, are the same (so every waypoint switch falls
        # on the same step), and the poses agree within 1e-9 of their scale
        sc, x_des = preset_line("sim5")
        waypoints = sim.leader_waypoints(x_des, sc.team, sc.sim)
        logs, goals = [], []
        for step in (control_step, control_step_numpy):
            seen = []
            monkeypatch.setattr(sim, "control_step",
                                lambda goal, *a, step=step, seen=seen: seen.append(goal.tolist())
                                or step(goal, *a))
            logs.append(simulate_truth(sc.team, x_des, waypoints, sc.sim, np.random.default_rng(11)))
            goals.append(seen)
        got, want = logs
        assert got.completed and want.completed and got.n_steps >= 2000
        assert got.coverage_time == want.coverage_time and goals[0] == goals[1]
        assert len(set(map(tuple, goals[0]))) == len(waypoints)
        for name in ("ang", "pos", "u_cmd"):
            a, b = getattr(got, name), getattr(want, name)
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-9 * np.abs(b).max(), err_msg=name)
        assert not np.array_equal(got.pos, want.pos)  # the two round differently

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
                assert got.ang.base is got.pos.base is not None  # views of one log
                assert got.completed == want.completed
                assert got.coverage_time == want.coverage_time or not got.completed
                ends.add(got.n_steps % chunk)
        if chunk == 3:  # runs ended on a chunk boundary and inside a chunk
            assert 0 in ends and len(ends) > 1


def simulate_truth_loop(team, x_des, waypoints, config, rng):
    """simulate_truth with one noise draw per step, on separate heading and
    position arrays moved by the batched numpy step: the oracle for its chunked
    draws and its pose step."""
    n, dt = team.n_robots, config.dt_truth
    noise_std = config.noise_scale * np.array(
        [config.vel_noise_omega, config.vel_noise_v, config.vel_noise_v])
    ctrl = Controller.build(x_des, config.gains)
    ang = np.zeros(n)
    pos = np.vstack([np.zeros((1, 2)), x_des.r.copy()])
    angs, poss, cmds = [ang.copy()], [pos.copy()], []
    wp_idx, coverage_time, completed = 0, np.nan, False
    for k in range(int(np.ceil(config.max_sim_time / dt))):
        u, ferr = control_step(waypoints[wp_idx], ang, pos, ctrl)
        if (np.linalg.norm(pos[0] - waypoints[wp_idx]) < config.waypoint_tolerance
                and ferr < config.formation_gate):
            wp_idx += 1
            if wp_idx == len(waypoints):
                coverage_time, completed = k * dt, True
                break
            u, ferr = control_step(waypoints[wp_idx], ang, pos, ctrl)
        exp_step_numpy(ang, pos, dt * (u + noise_std * rng.standard_normal(u.shape)))
        cmds.append(u)
        angs.append(ang.copy())
        poss.append(pos.copy())
    K = len(cmds)
    return sim.TruthLog(t=np.arange(K + 1) * dt, ang=np.asarray(angs), pos=np.asarray(poss),
                        u_cmd=np.asarray(cmds).reshape(K, n, 3), coverage_time=coverage_time,
                        completed=completed)


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
        art = run_coverage_sim(team, graph, x_des, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert art.metrics.completed and art.truth.n_steps < 1000
    max_steps = int(np.ceil(cfg.max_sim_time / cfg.dt_truth))
    per_step = n * (9 + 6) * 8  # one step's F, pose and command
    assert peak < max_steps * per_step / 20, f"peak {peak / 1e6:.1f} MB"


def test_cut_64_robot_line_trial_memory():
    # the default graph's 8,064 edges over a 5 s trial: the traced peak was
    # 13.1 MB (a full 56.5 s trial peaks at 65.8 MB); the bound is twice that
    n = 64
    team = TeamConfig.uniform(n)
    cfg = SimConfig(seed=3, max_sim_time=5.0)
    tracemalloc.start()
    try:
        art = run_coverage_sim(team, default_full_graph(team), line_formation(n), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert art.truth.n_steps == int(round(cfg.max_sim_time / cfg.dt_truth))
    assert peak < 26e6, f"peak {peak / 1e6:.1f} MB"


def test_chunked_replay_equals_one_block(monkeypatch):
    # transitions built 7 steps at a time replay the trial of one block
    team = TeamConfig.uniform(3)
    x_des = line_formation(3)
    cfg = SimConfig(area=(6.0, 8.0), landmark_positions=((3.0, 4.0), (1.0, 6.0)),
                    max_sim_time=20.0, seed=42)
    runs = []
    for chunk in (7, 10 ** 6):
        monkeypatch.setattr(sim, "PREDICT_CHUNK", chunk)
        runs.append(run_coverage_sim(team, default_full_graph(team), x_des, cfg))
    got, want = runs
    assert got.truth.n_steps > 7
    for name in ("est_ang", "est_pos", "lm_est", "lm_sigma", "lm_initialized"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.metrics.as_record() == want.metrics.as_record()


def dump_trajectory_csv_loop(path, artifacts):
    """The row-by-row writer: the oracle of ``sim.dump_trajectory_csv``."""
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
        for k in range(0, truth.ang.shape[0], sim.CSV_EVERY):
            row = [truth.t[k]]
            for p in range(n):
                row += [truth.pos[k, p, 0], truth.pos[k, p, 1], truth.ang[k, p],
                        artifacts.est_pos[k, p, 0], artifacts.est_pos[k, p, 1],
                        artifacts.est_ang[k, p]]
            for l in range(L):
                row += [artifacts.lm_est[k, l, 0], artifacts.lm_est[k, l, 1],
                        3.0 * artifacts.lm_sigma[k, l, 0], 3.0 * artifacts.lm_sigma[k, l, 1]]
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


@pytest.mark.parametrize("landmarks", [((3.0, 4.0), (1.0, 6.0)), ()])
def test_trajectory_table_equals_row_loop(tmp_path, landmarks):
    # the landmarks start uninitialized, so the first rows hold nan cells
    team = TeamConfig.uniform(3)
    cfg = SimConfig(area=(6.0, 8.0), landmark_positions=landmarks, max_sim_time=20.0, seed=7)
    art = run_coverage_sim(team, default_full_graph(team), line_formation(3), cfg)
    sim.dump_trajectory_csv(tmp_path / "table.csv", art)
    dump_trajectory_csv_loop(tmp_path / "loop.csv", art)
    got = (tmp_path / "table.csv").read_bytes()
    assert got == (tmp_path / "loop.csv").read_bytes()
    rows = got.decode().splitlines()
    assert len(rows) == 1 + len(range(0, art.truth.ang.shape[0], sim.CSV_EVERY))
    if landmarks:
        assert "nan" in rows[1] and "nan" not in rows[-1]


class TestScore:
    """``sim.score`` on hand-built logs: three robots over K = 3 steps."""

    K = 3
    LM = np.array([[3.0, 4.0], [1.0, 6.0]])
    CFG = SimConfig(landmark_positions=((3.0, 4.0), (1.0, 6.0)))

    def truth(self):
        rng = np.random.default_rng(5)
        ang = rng.uniform(-np.pi, np.pi, (self.K + 1, 3))
        pos = rng.uniform(-5.0, 5.0, (self.K + 1, 3, 2))
        return sim.TruthLog(t=0.01 * np.arange(self.K + 1), ang=ang, pos=pos,
                            u_cmd=np.zeros((self.K, 3, 3)), coverage_time=0.03, completed=True)

    def score(self, truth, ang, pos, lm, init_step):
        """Score the mean log of these poses and landmark estimates, each
        landmark with a marginal std of 0.1 m."""
        poses = np.concatenate([ang[..., None], pos], axis=-1).reshape(self.K + 1, -1)
        mean_log = np.hstack([poses, lm.reshape(self.K + 1, -1)])
        return sim.score(truth, self.CFG, mean_log, np.full((self.K + 1, 2, 2), 0.01),
                         np.array(init_step), 0, 0)

    def test_estimate_equal_to_truth_scores_zero(self):
        truth = self.truth()
        lm = np.broadcast_to(self.LM, (self.K + 1, 2, 2))
        m = self.score(truth, truth.ang, truth.pos, lm, [1, 2]).metrics
        assert m.interrobot_att_rmse == 0.0 and m.interrobot_pos_rmse == 0.0
        assert m.landmark_errors == [0.0, 0.0] and m.nees_containment == 1.0
        assert m.completed and not m.diverged

    def test_relative_heading_across_pi_is_a_small_error(self):
        # robot 2 sits at +pi - 0.01 from robot 1 in truth and is estimated at
        # -pi + 0.01: 0.02 rad apart, not 2 pi - 0.02
        truth = self.truth()
        truth.ang[:] = [0.3, 0.3 + np.pi - 0.01, 0.3]
        est = truth.ang.copy()
        est[:, 1] = 0.3 - np.pi + 0.01
        lm = np.broadcast_to(self.LM, (self.K + 1, 2, 2))
        m = self.score(truth, est, truth.pos, lm, [1, 2]).metrics
        assert m.interrobot_att_rmse == pytest.approx(0.02 / np.sqrt(2), rel=1e-12)
        assert m.interrobot_pos_rmse == 0.0

    def test_landmarks_count_from_their_init_step(self):
        # landmark 1 is initialized on step 2: inside its 3-sigma box there,
        # 0.5 m off on step 3; landmark 2 never is (init step K + 1). Their
        # estimates before initialization are 1 km off and count for nothing
        truth = self.truth()
        lm = np.full((self.K + 1, 2, 2), 1000.0)
        lm[2, 0] = self.LM[0] + [0.1, 0.0]
        lm[3, 0] = self.LM[0] + [0.0, 0.5]
        art = self.score(truth, truth.ang, truth.pos, lm, [2, self.K + 1])
        m = art.metrics
        assert m.nees_containment == 0.5
        assert m.landmark_errors == [0.5, math.inf] and not m.diverged
        assert art.lm_initialized.tolist() == [[False, False], [False, False],
                                               [True, False], [True, False]]
        assert np.isnan(art.lm_est[:2]).all() and np.isnan(art.lm_sigma[:, 1]).all()
        assert art.lm_est[2:, 0].tolist() == lm[2:, 0].tolist()
        # initialized on step K, the same 1 km estimate flags the trial
        assert self.score(truth, truth.ang, truth.pos, lm, [2, self.K]).metrics.diverged
