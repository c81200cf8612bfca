import copy
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from covform.covsim import ekf, sim
from covform.covsim.ekf import (
    EkfModel,
    EkfState,
    LandmarkBuffer,
    _edge_row,
    _landmark_row,
    ekf_predict,
    ekf_update_gps,
    ekf_update_ranges,
    landmark_init,
    transitions,
    trilaterate,
)
from covform.scenario import load_scenario
from covform.se2 import (
    SMALL_ANGLE,
    Pose2,
    _matvec,
    _rot_many,
    compose,
    exp,
    rot2,
)
from covform.team import TeamConfig, default_full_graph
from helpers import (
    adjoint,
    exp_step_numpy,
    fold_gps_fix,
    landmark_init_oracle,
    range_rows_gather,
    update_ranges_rows_then_fold,
    world_tags,
)
from test_montecarlo import preset_line
from test_ranging import dense_range_rows

VEL_COV = np.diag([0.01 ** 2, 0.1 ** 2, 0.1 ** 2])


def retract(state, model, delta):
    """Apply an error-state correction at once, in place: poses by right exp,
    landmarks additively, through the batched numpy step. The oracle that
    ``EkfState._retract`` on Python floats must equal bit for bit."""
    m = 3 * model.n_robots
    exp_step_numpy(state.ang, state.pos, delta[:m].reshape(-1, 3))
    state.landmarks[...] += delta[m:].reshape(-1, 2)


def tag_positions(state, model):
    """Every tag's world position at the filter mean (the oracle of
    ``EkfState.tag_position``)."""
    return world_tags(model.index, _rot_many(state.ang), state.pos)


def make_model(n=3, landmarks=1):
    team = TeamConfig.uniform(n)
    return team, EkfModel.build(team, default_full_graph(team), landmarks)


def update_edge(s, model, team, edge, z):
    """Single tag-to-tag update, addressed by the edge's index in the full graph."""
    k = default_full_graph(team).edges.index(edge)
    return ekf_update_ranges(s, model, np.array([k]), np.array([z]), [], np.zeros(0), 0.1)


def make_state(model, spread=2.0, seed=0, att_sigma=0.1, pos_sigma=0.3):
    rng = np.random.default_rng(seed)
    ang = rng.uniform(-np.pi, np.pi, model.n_robots)
    pos = rng.uniform(-spread, spread, (model.n_robots, 2))
    return EkfState.create(model, ang, pos, att_sigma, pos_sigma)


def filter_rows(s, model, rr_idx, lm_edges):
    """The filter's per-row builders over robot-robot rows (edge indices), then
    (tag, landmark) rows: (cols, vals, predicted ranges, validity) lists."""
    rows = ([_edge_row(s, model, k) for k in rr_idx]
            + [_landmark_row(s, model, tag, lm) for tag, lm in lm_edges])
    return tuple(list(column) for column in zip(*rows)) if rows else ([], [], [], [])


def dense_measurement_rows(s, model, rr_idx, lm_edges):
    """The filter's sparse (cols, vals) rows scattered into dense rows over the
    whole state: (H (M, dim), predicted ranges, validity mask)."""
    cols, vals, zhat, valid = filter_rows(s, model, rr_idx, lm_edges)
    H = np.zeros((len(cols), model.dim))
    for row, c, v in zip(H, cols, vals):
        assert c.shape == v.shape and len(set(c.tolist())) == c.shape[0] <= 6
        row[c] = v
    return H, np.asarray(zhat), np.asarray(valid, dtype=bool)


def batched_measurement_rows(state, model, rr_idx, lm_edges):
    """The filter rows from one batched ``helpers.range_rows_gather`` call
    over all endpoints, the gather oracle of ``ranging.range_rows``, as
    (cols, vals, predicted ranges, validity): the oracle for the filter's
    per-row builder from Python floats."""
    idx = model.index
    lm_tag, lm = np.asarray(lm_edges, dtype=np.intp).reshape(-1, 2).T
    near, far = idx.edge_i[rr_idx], idx.edge_j[rr_idx]
    blocks, rng, unit, valid = range_rows_gather(idx, _rot_many(state.ang), state.pos,
                                                 np.concatenate([near, lm_tag]), far,
                                                 state.landmarks[lm])
    e, m = rr_idx.shape[0], rng.shape[0]
    cols, vals = [], []
    if e:
        cols += list(np.concatenate([idx.tag_cols[near], idx.tag_cols[far]], axis=1))
        vals += list(np.concatenate([blocks[:e], blocks[m:]], axis=1))
    if lm.shape[0]:
        cols += list(np.concatenate([idx.tag_cols[lm_tag], model.lm_col(lm)[:, None] + np.arange(2)],
                                    axis=1))
        vals += list(np.concatenate([blocks[e:m], -unit[e:]], axis=1))
    return cols, vals, rng, valid


def predict(state, model, u, vel_cov, dt):
    """One filter step on commands u (N,3): ekf_predict on the twists dt u and
    the transitions of u."""
    return ekf_predict(state, model, dt * u, transitions(u, dt), (dt * dt) * vel_cov)


def predict_step(state, model, u, vel_cov, dt):
    """The per-step predict, the poses moved by the batched numpy step and the
    transition rebuilt from its translations at every call, in place: the
    bitwise oracle for ekf_predict on the rows of transitions."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    xi = dt * u
    t = exp_step_numpy(state.ang, state.pos, xi)
    # F_p = Ad(exp(-xi_p)) under the [phi, rho] ordering: exp(-xi_p) has
    # rotation Cinv = R(-phi_p) and translation rinv = -Cinv t_p
    Cinv = _rot_many(-xi[:, 0])
    rinv = -_matvec(Cinv, t)
    n, m = model.n_robots, 3 * model.n_robots
    F = np.zeros((n, 3, 3))
    F[:, 0, 0] = 1.0
    F[:, 1, 0] = rinv[:, 1]
    F[:, 2, 0] = -rinv[:, 0]
    F[:, 1:, 1:] = Cinv
    P = state.P
    P[:m] = (F @ P[:m].reshape(n, 3, -1)).reshape(m, -1)
    P[:, :m] = (F @ P[:, :m].T.reshape(n, 3, -1)).reshape(m, -1).T
    blk = np.arange(m).reshape(-1, 3)
    P[blk[:, :, None], blk[:, None, :]] += (dt * dt) * vel_cov
    return state


def dense_predict(state, model, u, vel_cov, dt):
    """Predict with the transition built as a dense matrix, on a copy: the
    oracle for the filter's blockwise F P F^T."""
    out = copy.deepcopy(state)
    xi = dt * u
    t = exp_step_numpy(out.ang, out.pos, xi)
    Cinv = _rot_many(-xi[:, 0])
    rinv = -np.einsum("nij,nj->ni", Cinv, t)
    blk = np.arange(3 * model.n_robots).reshape(-1, 3)
    rows, cols = blk[:, :, None], blk[:, None, :]
    F = np.eye(model.dim)
    F[blk[:, 1], blk[:, 0]] = rinv[:, 1]
    F[blk[:, 2], blk[:, 0]] = -rinv[:, 0]
    F[rows[:, 1:], cols[:, :, 1:]] = Cinv
    out.P = F @ out.P @ F.T
    out.P[rows, cols] += (dt * dt) * vel_cov
    return out


def joseph_update(state, model, H, nu, sigmas):
    """Dense joint Joseph-form update over all rows of H, on a copy: the
    oracle for the filter's in-place sequence of scalar updates."""
    out = copy.deepcopy(state)
    P = out.P
    R = np.diag(sigmas ** 2)
    PHt = P @ H.T
    S = H @ PHt + R
    K = np.linalg.solve(S.T, PHt.T).T
    A = np.eye(model.dim) - K @ H
    out.P = A @ P @ A.T + K @ R @ K.T
    out.P = 0.5 * (out.P + out.P.T)
    retract(out, model, K @ nu)
    return out


def assert_states_close(got, want, rel=1e-12):
    """Every state array within ``rel`` of the oracle, relative to its largest entry."""
    for name in ("ang", "pos", "landmarks", "P"):
        a, b = getattr(got, name), getattr(want, name)
        scale = max(float(np.max(np.abs(b), initial=0.0)), 1e-300)
        assert float(np.max(np.abs(a - b), initial=0.0)) <= rel * scale, name
    np.testing.assert_array_equal(got.initialized, want.initialized)


def coupled_state(model, seed):
    """A state with a dense SPD covariance and every landmark initialized."""
    rng = np.random.default_rng(seed)
    s = make_state(model, seed=seed)
    A = rng.standard_normal((model.dim, model.dim))
    s.P = 0.01 * A @ A.T / model.dim + np.diag(np.full(model.dim, 0.02))
    s.landmarks[:] = rng.uniform(-3, 3, s.landmarks.shape)
    s.initialized[:] = True
    return s


class TestPredict:
    def test_zero_velocity_zero_noise_is_identity(self):
        _, model = make_model()
        s = make_state(model)
        before = copy.deepcopy(s)
        out = predict(s, model, np.zeros((3, 3)), np.zeros((3, 3)), 0.01)
        np.testing.assert_array_equal(out.ang, before.ang)
        np.testing.assert_array_equal(out.pos, before.pos)
        np.testing.assert_allclose(out.P, before.P, atol=1e-15)

    def test_predict_and_updates_change_the_callers_state(self):
        team, model = make_model()
        s = make_state(model)
        ang = s.ang.copy()
        assert predict(s, model, np.ones((3, 3)), VEL_COV, 0.01) is s
        assert not np.array_equal(s.ang, ang)
        pos, trace = s.pos.copy(), np.trace(s.P)
        tagpos = tag_positions(s, model)
        z = float(np.linalg.norm(tagpos[0] - tagpos[2])) + 0.05
        out, n_rejected = update_edge(s, model, team, (1, 3), z)
        assert out is s and n_rejected == 0
        assert not np.array_equal(s.pos, pos) and np.trace(s.P) < trace
        assert ekf_update_gps(s, model, s.pos[0] + 0.1, 0.1)[0] is s

    def test_forward_velocity_straight_line(self):
        _, model = make_model(n=2, landmarks=0)
        s = EkfState.create(model, np.zeros(2), np.zeros((2, 2)), 0.0, 0.0)
        u = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        for _ in range(100):
            s = predict(s, model, u, VEL_COV, 0.01)
        np.testing.assert_allclose(s.pos[0], [1.0, 0.0], atol=1e-12)

    def test_covariance_trace_nondecreasing_at_rest(self):
        # with zero velocity the transition is the identity and the PSD
        # noise addition can only grow the trace
        _, model = make_model()
        s = make_state(model)
        for _ in range(50):
            before = np.trace(s.P)
            s = predict(s, model, np.zeros((3, 3)), VEL_COV, 0.01)
            assert np.trace(s.P) >= before

    def test_prediction_adds_psd_noise_under_motion(self):
        # in motion the transition reshapes P but what is added stays PSD
        _, model = make_model()
        s = make_state(model)
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rng.uniform(-1, 1, (3, 3))
            s = predict(s, model, u, VEL_COV, 0.01)
            np.testing.assert_allclose(s.P, s.P.T, atol=1e-12)
            assert np.linalg.eigvalsh(s.P).min() > -1e-9

    def test_landmarks_static(self):
        _, model = make_model(landmarks=2)
        s = make_state(model)
        s.landmarks[:] = [[1.0, 2.0], [3.0, 4.0]]
        s.initialized[:] = True
        before = s.landmarks.copy()
        out = predict(s, model, np.ones((3, 3)), VEL_COV, 0.01)
        np.testing.assert_array_equal(out.landmarks, before)

    def test_matches_per_robot_compose_and_adjoint_oracle(self):
        # mean: T_p exp(dt u_p) per robot; covariance: F P F^T + noise with
        # F = blockdiag(Ad(exp(-dt u_p)), I) over the landmark columns
        _, model = make_model(n=4, landmarks=2)
        s = make_state(model, seed=20)
        rng = np.random.default_rng(20)
        A = rng.standard_normal((model.dim, model.dim))
        s.P = A @ A.T
        u = rng.uniform(-1, 1, (4, 3))
        u[3, 0] = 0.0
        dt = 0.05
        out = predict(copy.deepcopy(s), model, u, VEL_COV, dt)
        F = np.eye(model.dim)
        Q = np.zeros((model.dim, model.dim))
        for p in range(4):
            b = slice(3 * p, 3 * p + 3)
            T = compose(Pose2(rot2(s.ang[p]), s.pos[p]), exp(dt * u[p]))
            np.testing.assert_allclose(rot2(out.ang[p]), T.C, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out.pos[p], T.r, rtol=0, atol=1e-12)
            F[b, b] = adjoint(exp(-dt * u[p]))
            Q[b, b] = dt * dt * VEL_COV
        np.testing.assert_allclose(out.P, F @ s.P @ F.T + Q, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_blockwise_equals_dense_transition(self, seed):
        rng = np.random.default_rng(300 + seed)
        _, model = make_model(n=2 + seed % 4, landmarks=seed % 3)
        s = coupled_state(model, seed)
        u = rng.uniform(-2, 2, (model.n_robots, 3))
        if seed % 2:
            u[0, 0] = 0.0  # a straight-line step
        want = dense_predict(s, model, u, VEL_COV, 0.1)
        assert_states_close(predict(s, model, u, VEL_COV, 0.1), want)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            transitions(np.zeros((3, 3)), 0.0)

    @pytest.mark.parametrize("preset", ["sim5", "bridge7", "exp3plus2"])
    def test_transition_rows_equal_per_step_predict(self, preset):
        # rows of one (K, N) transitions call, applied step by step, equal the
        # per-step predict bit for bit; heading rates of zero and below
        # SMALL_ANGLE take V's series
        sc = load_scenario(preset)
        model = EkfModel.build(sc.team, sc.graph, len(sc.sim.landmark_positions))
        n, dt = model.n_robots, sc.sim.dt_truth
        vel_cov = np.diag([sc.sim.vel_noise_omega ** 2, sc.sim.vel_noise_v ** 2,
                           sc.sim.vel_noise_v ** 2])
        rng = np.random.default_rng(700)
        for trial in range(30):
            s = coupled_state(model, 700 + trial)
            u = rng.uniform(-1.5, 1.5, (10, n, 3))
            u[:, 0, 0] = 0.0
            u[::2, 1 % n, 0] = 0.3 * SMALL_ANGLE / dt
            u[1::3, n - 1, 0] = -2.0 * SMALL_ANGLE / dt  # just above the series
            xi, F = dt * u, transitions(u, dt)
            want = copy.deepcopy(s)
            for k in range(u.shape[0]):
                ekf_predict(s, model, xi[k], F[k], (dt * dt) * vel_cov)
                predict_step(want, model, u[k], vel_cov, dt)
                for name in ("ang", "pos", "P"):
                    assert getattr(s, name).tobytes() == getattr(want, name).tobytes(), name


class TestRangeUpdate:
    def test_exact_measurement_keeps_mean_contracts_cov(self):
        team, model = make_model()
        s = make_state(model, seed=3)
        tagpos = tag_positions(s, model)
        edge = (1, 3)
        z = float(np.linalg.norm(tagpos[0] - tagpos[2]))
        out, n_rejected = update_edge(copy.deepcopy(s), model, team, edge, z)
        assert n_rejected == 0
        np.testing.assert_allclose(out.ang, s.ang, atol=1e-12)
        np.testing.assert_allclose(out.pos, s.pos, atol=1e-12)
        assert np.trace(out.P) < np.trace(s.P)

    def test_update_preserves_symmetry(self):
        team, model = make_model()
        s = make_state(model, seed=4)
        tagpos = tag_positions(s, model)
        z = float(np.linalg.norm(tagpos[0] - tagpos[2])) + 0.05
        out, n_rejected = update_edge(s, model, team, (1, 3), z)
        assert n_rejected == 0
        np.testing.assert_array_equal(out.P, out.P.T)

    def test_gating_rejects_absurd_innovation(self):
        team, model = make_model()
        s = make_state(model, seed=5)
        out, n_rejected = update_edge(copy.deepcopy(s), model, team, (1, 3), 500.0)
        assert n_rejected == 1
        np.testing.assert_array_equal(out.ang, s.ang)
        np.testing.assert_array_equal(out.pos, s.pos)
        np.testing.assert_array_equal(out.P, s.P)

    def test_jacobian_rows_match_finite_differences(self):
        # lift of the closed-form range row to the global error state
        team, model = make_model()
        s = make_state(model, seed=6)
        s.landmarks[0] = np.array([1.5, -0.7])
        s.initialized[0] = True
        rr_idx = np.arange(model.index.edge_i.shape[0])
        H, zhat, valid = dense_measurement_rows(s, model, rr_idx, [(0, 0)])
        assert valid.all()

        def ranges_at(delta):
            probe = copy.deepcopy(s)
            retract(probe, model, delta)
            tp = tag_positions(probe, model)
            rr = np.linalg.norm(tp[model.index.edge_i] - tp[model.index.edge_j], axis=1)
            lm = [np.linalg.norm(tp[0] - probe.landmarks[0])]
            return np.concatenate([rr, lm])

        h = 1e-6
        fd = np.empty_like(H)
        for k in range(model.dim):
            e = np.zeros(model.dim)
            e[k] = h
            fd[:, k] = (ranges_at(e) - ranges_at(-e)) / (2 * h)
        np.testing.assert_allclose(H, fd, atol=1e-5)

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_rows_equal_dense_rows(self, seed):
        # each row's (cols, vals), scattered, is the dense row over the
        # whole state, bit for bit
        rng = np.random.default_rng(400 + seed)
        team, model = make_model(n=2 + seed % 4, landmarks=2)
        s = coupled_state(model, seed)
        idx = model.index
        rr_idx = rng.choice(idx.edge_i.shape[0], size=rng.integers(0, 5), replace=False)
        lm_edges = [(int(rng.integers(idx.tag_robot.shape[0])), int(rng.integers(2)))
                    for _ in range(seed % 3)]
        H, zhat, valid = dense_measurement_rows(s, model, rr_idx, lm_edges)
        lm_tag, lm = np.asarray(lm_edges, dtype=np.intp).reshape(-1, 2).T
        H_robots, want_rng, unit, want_valid = dense_range_rows(
            idx, _rot_many(s.ang), s.pos, np.concatenate([idx.edge_i[rr_idx], lm_tag]),
            idx.edge_j[rr_idx], s.landmarks[lm])
        H_lm = np.zeros((H.shape[0], 2 * model.n_landmarks))
        rows = np.arange(len(rr_idx), H.shape[0])
        H_lm[rows, 2 * lm] = -unit[len(rr_idx):, 0]
        H_lm[rows, 2 * lm + 1] = -unit[len(rr_idx):, 1]
        np.testing.assert_array_equal(H, np.hstack([H_robots, H_lm]))
        np.testing.assert_array_equal(zhat, want_rng)
        np.testing.assert_array_equal(valid, want_valid)

    @pytest.mark.parametrize("preset", ["sim5", "bridge7", "exp3plus2"])
    def test_rows_equal_batched_range_rows(self, preset):
        # each row linearized from Python floats equals the batched
        # range_rows_gather oracle bit for bit: one-row and multi-row calls,
        # robot-robot and landmark rows, and a landmark sitting on its tag
        sc = load_scenario(preset)
        model = EkfModel.build(sc.team, sc.graph, 3)
        n_edges, n_tags = model.index.edge_i.shape[0], model.index.tag_robot.shape[0]
        rng = np.random.default_rng(500)
        for trial in range(60):
            s = make_state(model, spread=4.0, seed=600 + trial)
            s.landmarks[:] = rng.uniform(-4.0, 4.0, s.landmarks.shape)
            n_rr, n_lm = [(1, 0), (0, 1), (int(rng.integers(2, 6)), int(rng.integers(0, 4)))][trial % 3]
            rr_idx = rng.choice(n_edges, size=n_rr, replace=False)
            lm_edges = [(int(rng.integers(n_tags)), int(rng.integers(3))) for _ in range(n_lm)]
            if trial % 5 == 4:
                tag = int(rng.integers(n_tags))
                s.landmarks[1] = tag_positions(s, model)[tag]
                lm_edges.append((tag, 1))
            cols, vals, zhat, valid = filter_rows(s, model, rr_idx, lm_edges)
            want_cols, want_vals, want_zhat, want_valid = batched_measurement_rows(
                s, model, rr_idx, lm_edges)
            assert len(cols) == len(vals) == len(want_cols) == n_rr + len(lm_edges)
            for got, want in zip(cols + vals, want_cols + want_vals):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(zhat, want_zhat)
            np.testing.assert_array_equal(valid, want_valid)
            if trial % 5 == 4:
                assert not valid[-1] and not vals[-1].any()

    def test_repeated_updates_shrink_landmark_cov(self):
        team, model = make_model()
        rng = np.random.default_rng(8)
        s = make_state(model, seed=8)
        s.landmarks[0] = np.array([0.5, 0.5])
        s.initialized[0] = True
        c = model.lm_col(0)
        s.P[c:c + 2, c:c + 2] = np.eye(2)
        true_lm = np.array([0.6, 0.4])
        traces = [np.trace(s.P[c:c + 2, c:c + 2])]
        for _ in range(40):
            tagpos = tag_positions(s, model)
            z = float(np.linalg.norm(tagpos[0] - true_lm)) + 0.01 * rng.standard_normal()
            s, _ = ekf_update_ranges(s, model, np.zeros(0, dtype=np.intp), np.zeros(0),
                                     [(0, 0)], np.array([z]), 0.1)
            traces.append(np.trace(s.P[c:c + 2, c:c + 2]))
        assert all(b <= a + 1e-12 for a, b in zip(traces, traces[1:]))
        # static geometry: the along-range component collapses to the tag's
        # own position uncertainty, the perpendicular one keeps its prior
        block = s.P[c:c + 2, c:c + 2]
        lo, hi = np.linalg.eigvalsh(block)
        assert lo < 0.15
        assert hi > 0.5
        assert traces[-1] < 1.2


class TestGpsUpdate:
    def test_exact_measurement_keeps_mean(self):
        _, model = make_model()
        s = make_state(model, seed=9)
        out, ok = ekf_update_gps(copy.deepcopy(s), model, s.pos[0].copy(), 0.1)
        assert ok
        np.testing.assert_allclose(out.pos[0], s.pos[0], atol=1e-12)
        assert np.trace(out.P) < np.trace(s.P)

    def test_variance_approaches_measurement_floor(self):
        # scalar steady state: repeated direct measurements drive the
        # variance toward zero, well below sigma^2
        _, model = make_model(n=2, landmarks=0)
        s = EkfState.create(model, np.zeros(2), np.zeros((2, 2)), 0.01, 1.0)
        rng = np.random.default_rng(10)
        for _ in range(300):
            z = 0.1 * rng.standard_normal(2)
            s, _ = ekf_update_gps(s, model, z, 0.1)
        var = np.diag(s.P[1:3, 1:3])
        assert np.all(var <= 0.1 ** 2)

    def test_gps_bounds_drift_without_it_grows(self):
        _, model = make_model(n=2, landmarks=0)
        rng = np.random.default_rng(11)
        u = np.zeros((2, 3))

        def run(with_gps):
            s = EkfState.create(model, np.zeros(2), np.zeros((2, 2)), 0.05, 0.1)
            trace = []
            for k in range(400):
                s = predict(s, model, u, VEL_COV, 0.01)
                if with_gps and k % 2 == 0:
                    s, _ = ekf_update_gps(s, model, np.zeros(2), 0.1)
                trace.append(s.P[1, 1] + s.P[2, 2])
            return np.array(trace)

        free = run(False)
        anchored = run(True)
        assert free[-1] > 4 * anchored[-1]
        assert free[-1] > free[100]          # keeps growing
        assert anchored[-1] < anchored[100] * 2  # saturates

    def test_gps_gate(self):
        _, model = make_model()
        s = make_state(model, seed=12)
        out, ok = ekf_update_gps(s, model, s.pos[0] + 100.0, 0.1)
        assert not ok

    def test_non_finite_fix_is_rejected(self):
        # a NaN or infinite fix has no finite normalized innovation: it fails
        # the gate, as a NaN range does, and leaves the state untouched
        _, model = make_model()
        s = make_state(model, seed=13)
        before = copy.deepcopy(s)
        for fix in ([np.nan, 0.0], [0.0, np.inf]):
            out, ok = ekf_update_gps(s, model, np.array(fix), 0.1)
            assert out is s and not ok
            for name in ("ang", "pos", "landmarks", "P"):
                assert getattr(s, name).tobytes() == getattr(before, name).tobytes(), name


class TestScalarUpdatesMatchJointJoseph:
    # independent rows folded in one at a time give the joint update
    @pytest.mark.parametrize("seed", range(12))
    def test_range_and_landmark_rows(self, seed):
        rng = np.random.default_rng(100 + seed)
        team, model = make_model(n=3 + seed % 3, landmarks=2)
        s = coupled_state(model, seed)
        n_edges = model.index.edge_i.shape[0]
        rr_idx = rng.choice(n_edges, size=rng.integers(2, 6), replace=False)
        n_tags = model.index.tag_robot.shape[0]
        lm_edges = [(int(rng.integers(n_tags)), int(l)) for l in rng.integers(2, size=seed % 3)]
        H, zhat, valid = dense_measurement_rows(s, model, rr_idx, lm_edges)
        assert valid.all()
        z = zhat + 0.02 * rng.standard_normal(zhat.shape)
        sigmas = np.concatenate([model.index.sigma[rr_idx], np.full(len(lm_edges), 0.1)])
        want = joseph_update(s, model, H, z - zhat, sigmas)
        got, n_rejected = ekf_update_ranges(s, model, rr_idx, z[:len(rr_idx)], lm_edges,
                                            z[len(rr_idx):], 0.1)
        assert n_rejected == 0
        assert_states_close(got, want)

    def test_gated_row_leaves_the_joint_update_of_the_others(self):
        team, model = make_model(n=4, landmarks=1)
        s = coupled_state(model, 40)
        rr_idx = np.array([0, 5, 9, 14])
        H, zhat, _ = dense_measurement_rows(s, model, rr_idx, [(2, 0)])
        z = zhat + 0.01
        z[2] = 500.0
        keep = np.arange(5) != 2
        sigmas = np.concatenate([model.index.sigma[rr_idx], [0.1]])
        want = joseph_update(s, model, H[keep], (z - zhat)[keep], sigmas[keep])
        got, n_rejected = ekf_update_ranges(s, model, rr_idx, z[:4], [(2, 0)], z[4:], 0.1)
        assert n_rejected == 1
        assert_states_close(got, want)

    def test_degenerate_row_is_skipped_uncounted(self):
        # a landmark on top of its tag has no range direction: that row is
        # dropped before folding, and the others give their joint update
        team, model = make_model(n=3, landmarks=1)
        s = coupled_state(model, 41)
        s.landmarks[0] = tag_positions(s, model)[4]
        rr_idx = np.array([1, 6])
        H, zhat, valid = dense_measurement_rows(s, model, rr_idx, [(4, 0)])
        assert valid.tolist() == [True, True, False]
        z = zhat + 0.01
        sigmas = np.concatenate([model.index.sigma[rr_idx], [0.1]])
        want = joseph_update(s, model, H[valid], (z - zhat)[valid], sigmas[valid])
        got, n_rejected = ekf_update_ranges(s, model, rr_idx, z[:2], [(4, 0)], z[2:], 0.1)
        assert n_rejected == 0
        assert_states_close(got, want)

    @pytest.mark.parametrize("seed", range(6))
    def test_gps(self, seed):
        rng = np.random.default_rng(200 + seed)
        _, model = make_model(n=2 + seed % 3, landmarks=1)
        s = coupled_state(model, seed)
        z = s.pos[0] + 0.05 * rng.standard_normal(2)
        H = np.zeros((2, model.dim))
        H[:, 1:3] = rot2(s.ang[0])
        want = joseph_update(s, model, H, z - s.pos[0], np.array([0.1, 0.1]))
        got, ok = ekf_update_gps(s, model, z, 0.1)
        assert ok
        assert_states_close(got, want)


def measured_ranges(s, model, rr_idx, lm_edges, rng):
    """Noisy ranges of robot-robot rows (edge indices) and (tag, landmark) rows
    at the state's mean."""
    idx, tags = model.index, tag_positions(s, model)
    z = ([np.linalg.norm(tags[idx.edge_i[k]] - tags[idx.edge_j[k]]) for k in rr_idx]
         + [np.linalg.norm(tags[tag] - s.landmarks[lm]) for tag, lm in lm_edges])
    return np.array(z) + 0.05 * rng.standard_normal(len(z))


class TestOnePassUpdate:
    # one pass linearizes each row at the mean just before folding it, on
    # Python floats with a state-owned downdate buffer: the result must be
    # the rows-then-fold update of tests/helpers.py, bit for bit

    @pytest.mark.parametrize("preset", ["sim5", "bridge7", "exp3plus2"])
    def test_range_updates_equal_rows_then_fold(self, preset):
        # three updates in a row per state, each with up to 5 robot-robot and
        # 3 landmark rows, some with a degenerate row (a landmark on its tag)
        # or a gated one anywhere in the call
        sc = load_scenario(preset)
        model = EkfModel.build(sc.team, sc.graph, 2)
        n_edges, n_tags = model.index.edge_i.shape[0], len(model.tag_robot)
        rng = np.random.default_rng(1300)
        seen = Counter()
        for trial in range(30):
            s = coupled_state(model, 1300 + trial)
            for _ in range(3):
                rr_idx = rng.choice(n_edges, size=int(rng.integers(0, 6)), replace=False)
                lm_edges = [(int(rng.integers(n_tags)), int(rng.integers(2)))
                            for _ in range(rng.integers(0, 4))]
                degenerate = None
                if rng.random() < 0.3:
                    tag, degenerate = int(rng.integers(n_tags)), int(rng.integers(len(lm_edges) + 1))
                    s.landmarks[1] = tag_positions(s, model)[tag]
                    lm_edges.insert(degenerate, (tag, 1))
                    seen["degenerate"] += 1
                z = measured_ranges(s, model, rr_idx, lm_edges, rng)
                if degenerate is not None:
                    z[len(rr_idx) + degenerate] = 1.0  # would be gated and counted if folded
                if z.size > 1 and rng.random() < 0.3:
                    z[rng.integers(z.size)] += 50.0
                want = copy.deepcopy(s)
                n_want = update_ranges_rows_then_fold(want, model, rr_idx, z[:len(rr_idx)],
                                                      lm_edges, z[len(rr_idx):], 0.1)
                got, n_got = ekf_update_ranges(s, model, rr_idx, z[:len(rr_idx)], lm_edges,
                                               z[len(rr_idx):], 0.1)
                assert got is s and n_got == n_want
                assert got.mean.tobytes() == want.mean.tobytes()
                assert got.P.tobytes() == want.P.tobytes()
                seen["gated"] += n_got > 0
                seen["multi"] += z.size - n_got > 1
                seen["landmark"] += len(lm_edges) > 0
        assert min(seen[k] for k in ("degenerate", "gated", "multi", "landmark")) >= 5, seen

    @pytest.mark.parametrize("preset", ["sim5", "exp3plus2"])
    def test_gps_fixes_equal_rows_then_fold(self, preset):
        sc = load_scenario(preset)
        model = EkfModel.build(sc.team, sc.graph, 2)
        rng = np.random.default_rng(1400)
        for trial in range(20):
            s = coupled_state(model, 1400 + trial)
            for k in range(3):
                reject = (trial + k) % 3 == 0
                fix = s.pos[0] + 0.05 * rng.standard_normal(2) + (100.0 if reject else 0.0)
                want = copy.deepcopy(s)
                if not reject:
                    fold_gps_fix(want, fix, 0.1)
                got, ok = ekf_update_gps(s, model, fix, 0.1)
                assert ok is not reject
                assert got.mean.tobytes() == want.mean.tobytes()
                assert got.P.tobytes() == want.P.tobytes()

    def test_writes_through_the_views_reach_the_next_update(self):
        # ang, pos and landmarks are views of the one mean, of a deep copy's
        # own mean too: what is written through them is what the next update
        # linearizes at and retracts into
        _, model = make_model(n=3, landmarks=2)
        s = coupled_state(model, 1500)
        twin = copy.deepcopy(s)
        ang, pos, lm = s.ang.copy(), s.pos.copy(), s.landmarks.copy()
        ang[1] += 0.3
        pos[:, 0] -= 0.25
        lm[0] = [1.0, -2.0]
        rng = np.random.default_rng(1500)
        for state in (s, twin):
            untouched = twin.mean.copy()
            state.ang[1] += 0.3
            state.pos[:, 0] -= 0.25
            state.landmarks[0] = [1.0, -2.0]
            if state is s:
                assert twin.mean.tobytes() == untouched.tobytes()
            fresh = EkfState(ang, pos, lm, state.initialized.copy(), state.P.copy())
            assert state.mean.tobytes() == fresh.mean.tobytes()
            rr_idx, lm_edges = np.array([0, 4]), [(1, 0), (3, 1)]
            z = measured_ranges(fresh, model, rr_idx, lm_edges, rng)
            fix = fresh.pos[0] + 0.05 * rng.standard_normal(2)
            for target in (state, fresh):
                ekf_update_ranges(target, model, rr_idx, z[:2], lm_edges, z[2:], 0.1)
                assert ekf_update_gps(target, model, fix, 0.1)[1]
            for name in ("ang", "pos", "landmarks", "P"):
                assert getattr(state, name).tobytes() == getattr(fresh, name).tobytes(), name
            assert not np.array_equal(state.landmarks[0], [1.0, -2.0])


class TestTrilateration:
    def test_exact_recovery_from_triangle(self):
        true = np.array([1.0, 2.0])
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 4.0]])
        rng = np.linalg.norm(pts - true, axis=1)
        sol, cov, cond = trilaterate(pts, rng)
        np.testing.assert_allclose(sol, true, atol=1e-10)
        assert cond < 1e3

    def test_noisy_recovery_within_tolerance(self):
        rng = np.random.default_rng(13)
        true = np.array([0.5, 1.5])
        pts = rng.uniform(-2, 2, (12, 2))
        d = np.linalg.norm(pts - true, axis=1) + 0.1 * rng.standard_normal(12)
        sol, _, _ = trilaterate(pts, d)
        assert np.linalg.norm(sol - true) < 0.15


def random_buffer(rng, kind):
    """Buffered tag positions (3 to 80) and noisy ranges to a landmark: spread
    points, ones within about MIN_BASELINE of each other, ones on or near a line
    (the planar gate), and ones near a line with the landmark within a metre
    of it (a competitive mirror fit)."""
    n = int(rng.integers(3, 81))
    lm = rng.uniform(-3.0, 3.0, 2)
    if kind == "spread":
        pts = rng.uniform(-1.0, 1.0, (n, 2)) * rng.uniform(0.3, 4.0)
    elif kind == "short":
        pts = rng.uniform(-1.0, 1.0, (n, 2)) * rng.uniform(0.1, 0.3)
    else:
        u = rot2(rng.uniform(-np.pi, np.pi))
        along = rng.uniform(-2.0, 2.0, n)
        off = rng.normal(0.0, rng.choice([0.0, 0.05, 0.1, 0.2]) if kind == "line"
                         else rng.uniform(0.08, 0.3), n)
        pts = lm + u[:, 0] * along[:, None] + u[:, 1] * off[:, None]
        lm = lm + u[:, 1] * rng.uniform(0.0, 1.0)
    ranges = np.linalg.norm(pts - lm, axis=1) + rng.choice([0.0, 0.05, 0.1, 0.3]) * \
        rng.standard_normal(n)
    if rng.random() < 0.1:
        ranges[rng.integers(n)] += rng.uniform(1.0, 5.0)
    return pts, ranges


class TestLandmarkInit:
    def test_outcomes_equal_the_per_gate_oracle(self):
        # one centre and one SVD per attempt against three separate buffer
        # measures (singular values without vectors for the planar gate):
        # the decision, the inserted point and every entry of P agree
        _, model = make_model()
        base = make_state(model, seed=30)
        rng = np.random.default_rng(2020)
        c = model.lm_col(0)
        outcomes = Counter()
        for trial in range(2000):
            kind = ("spread", "short", "line", "mirror")[trial % 4]
            pts, ranges = random_buffer(rng, kind)
            want, sol, cov = landmark_init_oracle(pts, ranges, 0.1)
            outcomes[want] += 1
            s = EkfState(base.ang, base.pos, base.landmarks, base.initialized.copy(),
                         base.P.copy())
            _, ok = landmark_init(s, model, 0, LandmarkBuffer(list(pts), ranges.tolist()), 0.1)
            assert ok == (want == "ok"), (trial, kind, want)
            P, lm = base.P.copy(), base.landmarks.copy()
            if ok:
                P[c:c + 2, :] = 0.0
                P[:, c:c + 2] = 0.0
                P[c:c + 2, c:c + 2] = cov
                lm[0] = sol
            assert s.P.tobytes() == P.tobytes() and s.landmarks.tobytes() == lm.tobytes()
            assert s.initialized[0] == ok
        assert min(outcomes[k] for k in ("baseline", "planar", "rms", "mirror", "ok")) >= 20

    def exact_buffer(self, true_lm, pts):
        buf = LandmarkBuffer()
        for p in pts:
            buf.add(np.asarray(p, dtype=np.float64), float(np.linalg.norm(p - true_lm)))
        return buf

    def test_triangle_init_succeeds(self):
        _, model = make_model()
        s = make_state(model, seed=14)
        true_lm = np.array([1.0, 1.0])
        pts = np.array([[0.0, 0.0], [2.5, 0.0], [1.0, 2.5]])
        out, ok = landmark_init(s, model, 0, self.exact_buffer(true_lm, pts), 0.1)
        assert ok
        assert out.initialized[0]
        np.testing.assert_allclose(out.landmarks[0], true_lm, atol=1e-8)
        c = model.lm_col(0)
        assert np.all(np.isfinite(out.P[c:c + 2, c:c + 2]))
        assert np.trace(out.P[c:c + 2, c:c + 2]) < 1.0

    def test_noisy_triangle_init_within_decimeter(self):
        _, model = make_model()
        s = make_state(model, seed=15)
        rng = np.random.default_rng(15)
        true_lm = np.array([1.0, 1.0])
        buf = LandmarkBuffer()
        for p in np.array([[0.0, 0.0], [2.5, 0.0], [1.0, 2.5], [2.5, 2.5], [-0.5, 1.2]]):
            buf.add(p, float(np.linalg.norm(p - true_lm)) + 0.1 * rng.standard_normal())
        out, ok = landmark_init(s, model, 0, buf, 0.1)
        assert ok
        assert np.linalg.norm(out.landmarks[0] - true_lm) < 0.1

    def test_two_points_defer(self):
        _, model = make_model()
        s = make_state(model, seed=16)
        buf = self.exact_buffer(np.array([1.0, 1.0]), np.array([[0.0, 0.0], [2.0, 0.0]]))
        out, ok = landmark_init(s, model, 0, buf, 0.1)
        assert not ok
        assert not out.initialized[0]

    def test_collinear_points_defer(self):
        _, model = make_model()
        s = make_state(model, seed=17)
        pts = np.array([[x, 0.0] for x in np.linspace(0, 2.0, 8)])
        buf = self.exact_buffer(np.array([1.0, 1.5]), pts)
        out, ok = landmark_init(s, model, 0, buf, 0.1)
        assert not ok

    def test_small_baseline_defers(self):
        _, model = make_model()
        s = make_state(model, seed=18)
        pts = np.array([[0.0, 0.0], [0.2, 0.1], [0.1, 0.25]])
        buf = self.exact_buffer(np.array([1.0, 1.0]), pts)
        out, ok = landmark_init(s, model, 0, buf, 0.1)
        assert not ok

    def test_buffer_novelty_spacing(self):
        buf = LandmarkBuffer()
        buf.add(np.array([0.0, 0.0]), 1.0)
        buf.add(np.array([0.01, 0.0]), 1.0)   # too close, dropped
        buf.add(np.array([0.5, 0.0]), 1.2)
        assert len(buf.points) == 2

    def test_fit_that_misses_its_ranges_defers(self):
        # buffer from an exp3plus2 trial: trilateration lands ~100 m off
        # with an RMS residual of ~100 m, so the fit explains nothing
        _, model = make_model()
        s = make_state(model, seed=21)
        buf = LandmarkBuffer()
        pts = [(-0.46325615, 1.21681871), (-0.78840459, 1.57104814), (-0.52101503, 1.8649667)]
        for p, d in zip(pts, (1.95518407, 1.94661162, 1.10038603)):
            buf.add(np.array(p), d)
        out, ok = landmark_init(s, model, 0, buf, 0.1)
        assert not ok
        assert not out.initialized[0]

    def test_double_init_rejected(self):
        _, model = make_model()
        s = make_state(model, seed=19)
        s.initialized[0] = True
        with pytest.raises(ValueError, match="already initialized"):
            landmark_init(s, model, 0, LandmarkBuffer(), 0.1)


class MeanOracle:
    """The filter mean as plain arrays, moved one event at a time by the
    batched numpy step: every correction by ``retract``, every motion by its
    twists. The oracle of ``EkfState._retract`` and of the predict's motion."""

    def __init__(self, state):
        self.ang, self.pos, self.landmarks = (state.ang.copy(), state.pos.copy(),
                                              state.landmarks.copy())

    def move(self, xi):
        exp_step_numpy(self.ang, self.pos, xi)


def assert_mean_matches(state, model, oracle):
    """The state's mean, and every tag position read from it, equal the
    oracle's bit for bit."""
    for name in ("ang", "pos", "landmarks"):
        assert getattr(state, name).tobytes() == getattr(oracle, name).tobytes(), name
    tags = world_tags(model.index, _rot_many(oracle.ang), oracle.pos)
    for tag in range(len(model.tag_robot)):
        assert state.tag_position(model, tag).tobytes() == tags[tag].tobytes(), tag


def correction_rows(rng, model, q, small):
    """q random corrections, every third row exactly zero; with ``small``,
    heading steps of zero and below SMALL_ANGLE among them (V's series)."""
    D = rng.normal(0.0, 0.05, (q, model.dim))
    D[2::3] = 0.0
    if small:
        n = model.n_robots
        D[0::4, 0] = 0.0
        D[1::4, 3 * (1 % n)] = 0.3 * SMALL_ANGLE
        D[1::4, 3 * (2 % n)] = -0.9 * SMALL_ANGLE  # where phi^2/6 still shows
        D[3::4, 3 * (n - 1)] = -2.0 * SMALL_ANGLE  # just above the series
    return D


class TestCurrentMean:
    # every update retracts its correction into the mean when it is made, on
    # Python floats: the result must be the batched numpy step's retraction,
    # bit for bit

    @pytest.mark.parametrize("q", [1, 2, 3, 11, 32, 33])
    @pytest.mark.parametrize("motion", [True, False])
    @pytest.mark.parametrize("landmarks", [0, 2])
    @pytest.mark.parametrize("small", [False, True])
    def test_retract_equals_numpy_step_oracle(self, q, motion, landmarks, small):
        # q corrections in a row, with a predict after every fifth one when
        # ``motion``; the mean is compared after each
        rng = np.random.default_rng(1000 + q)
        _, model = make_model(n=4, landmarks=landmarks)
        for trial in range(5):
            s = make_state(model, spread=5.0, seed=trial)
            s.landmarks[:] = rng.uniform(-5.0, 5.0, s.landmarks.shape)
            oracle = MeanOracle(s)
            for k, delta in enumerate(correction_rows(rng, model, q, small)):
                s._retract(delta)
                retract(oracle, model, delta)
                assert_mean_matches(s, model, oracle)
                if motion and k % 5 == 4:
                    u = rng.uniform(-1.5, 1.5, (model.n_robots, 3))
                    u[0, 0] = 0.0
                    ekf_predict(s, model, 0.1 * u, transitions(u, 0.1), np.zeros((3, 3)))
                    oracle.move(0.1 * u)
                    assert_mean_matches(s, model, oracle)

    @pytest.mark.parametrize("preset", ["sim5", "exp3plus2"])
    def test_mean_equals_the_oracle_after_random_events(self, preset, monkeypatch):
        # ranges (some gated), landmark rows, GPS fixes (some rejected) and
        # predicts in random order, at times with many events between two
        # predicts; each update's correction is taken from its retraction
        sc = load_scenario(preset)
        model = EkfModel.build(sc.team, sc.graph, 2)
        n, n_edges, n_tags = model.n_robots, model.index.edge_i.shape[0], len(model.tag_robot)
        rng = np.random.default_rng(1100)
        corrections = []

        def keep(state, delta):
            corrections.append(delta.copy())
            real_retract(state, delta)

        real_retract = EkfState._retract
        monkeypatch.setattr(EkfState, "_retract", keep)
        for trial in range(8):
            s = coupled_state(model, 1100 + trial)
            oracle = MeanOracle(s)
            p_predict = 0.3 if trial % 2 else 0.015
            for event in range(150):
                roll = rng.random()
                if roll < p_predict:
                    u = rng.uniform(-1.0, 1.0, (n, 3))
                    ekf_predict(s, model, 0.05 * u, transitions(u, 0.05), (0.05 ** 2) * VEL_COV)
                    oracle.move(0.05 * u)
                elif roll < 0.7:
                    tags = world_tags(model.index, _rot_many(oracle.ang), oracle.pos)
                    rr_idx = rng.choice(n_edges, size=rng.integers(0, 3), replace=False)
                    lm_edges = [(int(rng.integers(n_tags)), int(rng.integers(2)))
                                for _ in range(rng.integers(0, 2))]
                    z = np.array([np.linalg.norm(tags[model.index.edge_i[k]] - tags[model.index.edge_j[k]])
                                  for k in rr_idx]
                                 + [np.linalg.norm(tags[tag] - oracle.landmarks[lm])
                                    for tag, lm in lm_edges]) + 0.05 * rng.standard_normal(
                                        len(rr_idx) + len(lm_edges))
                    if z.size and rng.random() < 0.1:
                        z[0] = 500.0  # gated
                    ekf_update_ranges(s, model, rr_idx, z[:len(rr_idx)], lm_edges,
                                      z[len(rr_idx):], 0.1)
                else:
                    fix = oracle.pos[0] + 0.05 * rng.standard_normal(2)
                    if rng.random() < 0.2:
                        fix += 100.0  # rejected
                    ekf_update_gps(s, model, fix, 0.1)
                assert len(corrections) <= 1  # at most one retraction per event
                for delta in corrections:
                    retract(oracle, model, delta)
                corrections.clear()
                assert_mean_matches(s, model, oracle)

    def test_math_trig_rounds_as_numpy(self):
        # se2.exp_step and the rows take math.sin/math.cos where the batched
        # oracles and the design take np.sin/np.cos: on this build they must
        # round alike, in long arrays and in the short ones whose tails take
        # another loop
        rng = np.random.default_rng(1200)
        x = np.concatenate([rng.uniform(-a, a, 20_000)
                            for a in (1e-9, 1e-7, 1e-3, 0.5, np.pi, 50.0, 1e4)])
        for np_f, math_f in ((np.sin, math.sin), (np.cos, math.cos)):
            want = np.array([math_f(v) for v in x.tolist()])
            assert np_f(x).tobytes() == want.tobytes(), np_f.__name__
            for k in range(1, 9):
                short = np.concatenate([np_f(x[i:i + k]) for i in range(0, 4000, k)])
                assert short.tobytes() == want[:short.size].tobytes(), (np_f.__name__, k)
            # strided, as the truth's heading column of its (N, 3) pose array
            assert np_f(x[::3]).tobytes() == want[::3].tobytes(), np_f.__name__

    @pytest.mark.parametrize("preset", ["sim5", "bridge7", "exp3plus2"])
    def test_fold_columns_of_P_come_back_column_major(self, preset):
        # ekf._fold takes P[:, c] @ h on every row's columns; the trial pins
        # (trial_records_line.json, formation_cov_sim5_seed7.json and the
        # trial digests) hold the rounding of that product on the
        # column-major copy numpy 2.4.6 returns for fancy-indexed columns of a
        # C-ordered P. A row-major copy (or P.take(c, axis=1)) rounds
        # differently and moves the records by about 1e-13.
        sc = load_scenario(preset)
        model = EkfModel.build(sc.team, sc.graph, len(sc.sim.landmark_positions))
        P = EkfState.create(model, np.zeros(model.n_robots), np.zeros((model.n_robots, 2)),
                            0.1, 0.1).P
        assert P.flags.c_contiguous
        for c in model.edge_cols + [c for per_tag in model.lm_cols for c in per_tag] + [
                ekf._GPS_COLS]:
            cols = P[:, c]
            assert cols.flags.f_contiguous and cols.strides == (8, 8 * P.shape[0]), (
                f"P[:, c] of a {P.shape} P came back with strides {cols.strides}: "
                "ekf._fold rounds as the trial pins were recorded only on a "
                "column-major copy, so this numpy would move the pinned trials")

    def test_replay_memory_does_not_grow_with_events_per_step(self, monkeypatch):
        # a long dt_truth at a high range rate puts thousands of events
        # between two predicts; each retracts its correction at once, so the
        # replay's peak, taken from its first predict on, stays
        sc, x = preset_line("sim5")
        real_predict = sim.ekf_predict

        def replay_peak(range_rate):
            start = []

            def predict(*args):
                if not start:
                    tracemalloc.reset_peak()
                    start.append(tracemalloc.get_traced_memory()[0])
                return real_predict(*args)

            monkeypatch.setattr(sim, "ekf_predict", predict)
            config = replace(sc.sim, seed=3, dt_truth=0.5, max_sim_time=1.0,
                             range_rate=range_rate)
            tracemalloc.start()
            try:
                sim.run_coverage_sim(sc.team, sc.graph, x, config)
                return tracemalloc.get_traced_memory()[1] - start[0]
            finally:
                tracemalloc.stop()

        small, large = replay_peak(600.0), replay_peak(6000.0)  # 300 and 3,000 events a step
        assert large < small + 16_000, (small, large)
