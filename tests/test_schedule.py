import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from covform.covsim import SimConfig
from covform.covsim.sim import (
    TruthLog,
    _event_counts,
    leader_waypoints,
    measurement_schedule,
    simulate_truth,
)
from covform.ranging import _edge_index
from covform.se2 import FormationState, _rot_many
from covform.team import RangeGraph, TeamConfig
from helpers import preset_line


def schedule_loop(idx, truth, config, meas_rng):
    """Per-event oracle for measurement_schedule: the slot walk and noise
    draws made one probe and one draw at a time, interleaved step by step
    with the GPS fixes. Returns the schedule's five arrays."""
    K, dt = truth.n_steps, config.dt_truth
    lm_true = np.asarray(config.landmark_positions, dtype=np.float64).reshape(-1, 2)
    slots = [("rr", e) for e in range(idx.edge_i.shape[0])]
    for l in range(lm_true.shape[0]):
        slots += [("lm", t, l, p) for t, p in enumerate(idx.tag_robot.tolist())]
    range_events = _event_counts(K, dt, config.range_rate)
    gps_events = _event_counts(K, dt, config.gps_rate)
    cursor = 0
    steps, picked, zs, gps_steps, gps_zs = [], [], [], [], []
    for k in range(1, K + 1):
        C = _rot_many(truth.ang[k])[idx.tag_robot]
        tag_true = np.einsum("tij,tj->ti", C, idx.tag_body) + truth.pos[k, idx.tag_robot]
        for _ in range(range_events[k]):
            slot = None
            for _probe in range(len(slots)):
                cand, at = slots[cursor], cursor
                cursor = (cursor + 1) % len(slots)
                if cand[0] == "rr":
                    slot = cand
                    break
                _, _, l, p = cand
                if (np.linalg.norm(truth.pos[k, p] - lm_true[l])
                        <= config.landmark_detection_radius):
                    slot = cand
                    break
            if slot is None:
                continue  # nothing in range this tick
            if slot[0] == "rr":
                e = slot[1]
                z = float(np.linalg.norm(tag_true[idx.edge_i[e]] - tag_true[idx.edge_j[e]]))
                z += config.noise_scale * float(meas_rng.standard_normal()) * float(idx.sigma[e])
            else:
                _, tag0, l, _ = slot
                z = float(np.linalg.norm(tag_true[tag0] - lm_true[l]))
                z += config.noise_scale * float(meas_rng.standard_normal()) * config.range_sigma
            steps.append(k)
            picked.append(at)
            zs.append(z)
        for _ in range(gps_events[k]):
            gps_steps.append(k)
            gps_zs.append(truth.pos[k, 0]
                          + config.noise_scale * meas_rng.standard_normal(2) * config.gps_sigma)
    return (np.array(steps, dtype=np.intp), np.array(picked, dtype=np.intp),
            np.array(zs), np.array(gps_steps, dtype=np.intp),
            np.array(gps_zs).reshape(-1, 2))


def truth_and_streams(team, x, config):
    """The truth log and a fresh measurement stream, seeded as a trial seeds them."""
    truth_rng, meas_seed, _ = np.random.SeedSequence(config.seed).spawn(3)
    truth = simulate_truth(team, x, leader_waypoints(x, team, config), config,
                           np.random.default_rng(truth_rng))
    return truth, lambda: np.random.default_rng(meas_seed)


def assert_schedule_equals_loop(idx, truth, config, streams):
    got = measurement_schedule(idx, truth, config, streams())
    want = schedule_loop(idx, truth, config, streams())
    for name, w in zip(("step", "slot", "z", "gps_step", "gps_z"), want):
        g = getattr(got, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    return got


class TestScheduleEqualsPerEventLoop:
    # steps, slots and the bytes of every noisy range and fix
    @pytest.mark.parametrize("preset,seeds", [("sim5", [3, 989652364]),
                                              ("exp3plus2", [1, 2, 3, 4])])
    def test_line_trials(self, preset, seeds):
        sc, x = preset_line(preset)
        idx = _edge_index(sc.team, sc.graph)
        for seed in seeds:
            config = replace(sc.sim, seed=seed, max_sim_time=min(sc.sim.max_sim_time, 150.0))
            truth, streams = truth_and_streams(sc.team, x, config)
            got = assert_schedule_equals_loop(idx, truth, config, streams)
            assert np.any(got.slot >= idx.edge_i.shape[0])  # landmark pairs were measured

    @pytest.mark.parametrize("preset", ["sim5", "exp3plus2"])
    def test_noiseless_run(self, preset):
        sc, x = preset_line(preset)
        config = replace(sc.sim, seed=5, noise_scale=0.0, max_sim_time=120.0)
        truth, streams = truth_and_streams(sc.team, x, config)
        assert_schedule_equals_loop(_edge_index(sc.team, sc.graph), truth, config, streams)

    def test_without_edges_events_wait_for_a_landmark(self):
        # no edge slot: an event with no landmark in range is dropped, and
        # the walk wraps around the landmark pairs
        team = TeamConfig.uniform(3)
        x = FormationState(np.tile(np.eye(2), (2, 1, 1)), np.array([[0.85, 0.0], [1.7, 0.0]]))
        config = SimConfig(area=(6.0, 8.0), landmark_positions=((3.0, 4.0), (1.0, 6.0)),
                           max_sim_time=60.0, seed=8)
        idx = _edge_index(team, RangeGraph((), ()))
        truth, streams = truth_and_streams(team, x, config)
        got = assert_schedule_equals_loop(idx, truth, config, streams)
        n_events = int(_event_counts(truth.n_steps, config.dt_truth, config.range_rate).sum())
        assert 0 < got.slot.shape[0] < n_events

        bare = replace(config, landmark_positions=())
        got = assert_schedule_equals_loop(idx, truth, bare, streams)
        assert got.slot.shape[0] == 0 and got.gps_step.shape[0] > 0


def test_schedule_memory_grows_with_events_not_steps_times_tags():
    # 64 robots with 16 tags each over 20k steps: a (K+1, T, 2) table of true
    # tag positions would take 328 MB; a handful of events must not need it
    n, K = 64, 20_000
    team = TeamConfig.uniform(n, tag_offsets=[(0.1 * k, 0.0) for k in range(1, 17)])
    graph = RangeGraph.from_pairs([(16 * p + 1, 16 * p + 17) for p in range(n - 1)])
    idx = _edge_index(team, graph)
    rng = np.random.default_rng(0)
    truth = TruthLog(t=np.zeros(K + 1), ang=rng.uniform(-3, 3, (K + 1, n)),
                     pos=rng.uniform(-20, 20, (K + 1, n, 2)),
                     u_cmd=np.broadcast_to(np.zeros(3), (K, n, 3)),
                     coverage_time=np.nan, completed=False)
    config = SimConfig(range_rate=2.0, gps_rate=1.0, landmark_positions=((0.0, 0.0),))
    tracemalloc.start()
    try:
        sched = measurement_schedule(idx, truth, config, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sched.slot.shape[0] == 400
    tag_table = (K + 1) * team.n_tags * 2 * 8
    assert peak < tag_table / 4, f"peak {peak / 1e6:.1f} MB"
