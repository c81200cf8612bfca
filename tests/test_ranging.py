import numpy as np
import pytest

from covform import costs, optimizer, ranging, se2
from covform.scenario import load_scenario
from covform.team import RangeGraph, TeamConfig, default_full_graph
from helpers import (fisher_loop, from_angle, from_poses, jacobian_gather, range_rows_gather,
                     world_tags)


def random_state(rng, n_robots, spread=4.0, min_sep=0.3):
    """Random non-degenerate formation: resample until robots are separated."""
    while True:
        poses = [from_angle(rng.uniform(-np.pi, np.pi), rng.uniform(-spread, spread, 2))
                 for _ in range(n_robots - 1)]
        x = from_poses(poses)
        pos = x.positions()
        d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        if np.all(d[np.triu_indices(n_robots, 1)] > min_sep):
            return x


def finite_difference_jacobian(x, team, graph, h=1e-6):
    """Central-difference oracle, independent of the analytic path."""
    cols = []
    for k in range(x.dim):
        e = np.zeros(x.dim)
        e[k] = h
        hi = ranging.predict_all(se2.oplus(x, e), team, graph)
        lo = ranging.predict_all(se2.oplus(x, -e), team, graph)
        cols.append((hi - lo) / (2 * h))
    return np.stack(cols, axis=1)


def tag_position(x, team, tag_id):
    """Scalar oracle: world position of one tag, resolved in robot 1's frame."""
    robot = int(team.tag_robot[tag_id - 1])
    offset = np.asarray([o for r in team.robots for o in r.tag_offsets][tag_id - 1])
    if robot == 0:
        return offset
    return x.C[robot - 1] @ offset + x.r[robot - 1]


def predict_range(x, team, edge):
    """Scalar oracle: noiseless range between two tags."""
    i, j = edge
    return float(np.linalg.norm(tag_position(x, team, i) - tag_position(x, team, j)))


def dense_range_rows(idx, C, r, tag_i, tag_j, points=np.zeros((0, 2))):
    """Dense oracle for range_rows: every row over all 3N state columns,
    built with einsum from all T tag positions and levers. Returns (H,
    ranges, unit vectors, valid)."""
    pos = (np.einsum("...tij,tj->...ti", C[..., idx.tag_robot, :, :], idx.tag_body)
           + r[..., idx.tag_robot, :])
    lever = np.einsum("...tij,tj->...ti", C[..., idx.tag_robot, :, :], idx.tag_perp)
    e = tag_j.shape[0]
    far = np.concatenate([pos[tag_j], points]) if points.shape[0] else pos[..., tag_j, :]
    diff = pos[..., tag_i, :] - far
    rng = np.sqrt(np.einsum("...ei,...ei->...e", diff, diff))
    valid = rng > ranging.DEGENERATE_RANGE
    unit = np.where(valid[..., None], diff / np.where(valid, rng, 1.0)[..., None], 0.0)
    rows = np.arange(tag_i.shape[0])
    H = np.zeros(rng.shape + (3 * idx.n_robots,))
    for rr, tags, u, sign in ((rows, tag_i, unit, 1.0), (rows[:e], tag_j, unit[..., :e, :], -1.0)):
        robots = idx.tag_robot[tags]
        H[..., rr, 3 * robots] += sign * np.einsum("...ei,...ei->...e", u, lever[..., tags, :])
        rho = sign * np.einsum("...ei,...eij->...ej", u, C[..., robots, :, :])
        H[..., rr, 3 * robots + 1] += rho[..., 0]
        H[..., rr, 3 * robots + 2] += rho[..., 1]
    return H, rng, unit, valid


def world_tag(x, team, tag_id):
    """The vectorized world tag position of one tag."""
    idx = ranging._edge_index(team, RangeGraph((), ()))
    return world_tags(idx, *ranging.frames(x.C, x.r))[tag_id - 1]


class TestTagPosition:
    def test_reference_robot_tag(self):
        team = TeamConfig.uniform(2)
        x = se2.FormationState.identity(2)
        np.testing.assert_array_equal(world_tag(x, team, 1), [0.17, -0.17])
        np.testing.assert_array_equal(tag_position(x, team, 1), [0.17, -0.17])

    def test_translated_robot_tag(self):
        team = TeamConfig.uniform(2)
        x = from_poses([se2.Pose2(np.eye(2), np.array([3.0, 0.0]))])
        np.testing.assert_allclose(world_tag(x, team, 4), [2.83, 0.17])
        np.testing.assert_allclose(tag_position(x, team, 4), [2.83, 0.17])

    def test_rotated_robot_tag(self):
        team = TeamConfig.uniform(2, tag_offsets=((1.0, 0.0), (-1.0, 0.0)))
        x = from_poses([from_angle(np.pi / 2, (1.0, 0.0))])
        np.testing.assert_allclose(world_tag(x, team, 3), [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(tag_position(x, team, 3), [1.0, 1.0], atol=1e-15)

    def test_unknown_tag(self):
        team = TeamConfig.uniform(2)
        with pytest.raises(ValueError, match="tag outside 1..4"):
            ranging.predict_all(se2.FormationState.identity(2), team,
                                RangeGraph.from_pairs([(1, 9)]))


class TestPredictRange:
    def test_coincident_same_offsets(self):
        team = TeamConfig.uniform(2)
        x = se2.FormationState.identity(2)
        assert ranging.predict_all(x, team, RangeGraph.from_pairs([(1, 3)]))[0] == 0.0
        assert predict_range(x, team, (1, 3)) == 0.0

    def test_hand_evaluated_distance(self):
        team = TeamConfig.uniform(2)
        x = from_poses([se2.Pose2(np.eye(2), np.array([3.0, 0.0]))])
        # tag 1 at (0.17,-0.17), tag 4 at (2.83, 0.17)
        expected = np.hypot(2.66, 0.34)
        got = ranging.predict_all(x, team, RangeGraph.from_pairs([(1, 4)]))[0]
        assert got == pytest.approx(expected, abs=1e-15)
        assert predict_range(x, team, (1, 4)) == pytest.approx(expected, abs=1e-15)

    def test_symmetry(self):
        team = TeamConfig.uniform(3)
        x = random_state(np.random.default_rng(0), 3)
        assert predict_range(x, team, (2, 5)) == predict_range(x, team, (5, 2))
        assert (ranging.predict_all(x, team, RangeGraph.from_pairs([(5, 2)]))[0]
                == pytest.approx(predict_range(x, team, (2, 5)), abs=1e-12))

    def test_same_robot_edge_rejected(self):
        team = TeamConfig.uniform(2)
        with pytest.raises(ValueError, match="robot"):
            ranging.predict_all(se2.FormationState.identity(2), team,
                                RangeGraph.from_pairs([(1, 2)]))


class TestPredictAll:
    def test_empty_graph(self):
        team = TeamConfig.uniform(2)
        g = RangeGraph((), ())
        assert ranging.predict_all(se2.FormationState.identity(2), team, g).shape == (0,)

    def test_matches_per_edge(self):
        team = TeamConfig.uniform(3)
        g = default_full_graph(team)
        x = random_state(np.random.default_rng(1), 3)
        stacked = ranging.predict_all(x, team, g)
        assert stacked.shape == (12,)
        for k, e in enumerate(g.edges):
            assert stacked[k] == pytest.approx(predict_range(x, team, e), abs=1e-12)


class TestJacobian:
    def test_matches_finite_differences(self):
        # primary correctness oracle for this module
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(100):
            n = int(rng.integers(2, 6))
            team = TeamConfig.uniform(n)
            graph = default_full_graph(team)
            x = random_state(rng, n)
            H = ranging.jacobian(x, team, graph)
            H_fd = finite_difference_jacobian(x, team, graph)
            worst = max(worst, float(np.max(np.abs(H - H_fd))))
        assert worst < 1e-5

    def test_no_columns_for_reference_robot(self):
        team = TeamConfig.uniform(2)
        g = default_full_graph(team)
        x = random_state(np.random.default_rng(3), 2)
        assert ranging.jacobian(x, team, g).shape == (4, 3)

    def test_degenerate_range_raises(self):
        team = TeamConfig.uniform(2)
        g = default_full_graph(team)
        x = se2.FormationState.identity(2)  # coincident robots, zero ranges
        with pytest.raises(ValueError, match="singular geometry"):
            ranging.jacobian(x, team, g)

    @pytest.mark.parametrize("preset", ["sim5", "bridge7", "exp3plus2"])
    def test_equals_filter_rows(self, preset):
        # the filter's per-event rows are the design's batched rows: at the
        # same global poses (robot 1 at the identity) the FIM's Jacobian is
        # the EKF's robot-robot rows without robot 1's columns, bit for bit
        from covform.covsim.ekf import EkfModel, EkfState
        from covform.scenario import load_scenario
        from test_ekf import dense_measurement_rows

        sc = load_scenario(preset)
        n = sc.team.n_robots
        model = EkfModel.build(sc.team, sc.graph, 2)
        rng = np.random.default_rng(17)
        for _ in range(25):
            ang = np.concatenate([[0.0], rng.uniform(-np.pi, np.pi, n - 1)])
            pos = np.vstack([np.zeros((1, 2)), rng.uniform(-4.0, 4.0, (n - 1, 2))])
            x = se2.FormationState(se2._rot_many(ang)[1:], pos[1:])
            s = EkfState.create(model, ang, pos, 0.1, 0.3)
            H, zhat, valid = dense_measurement_rows(s, model, np.arange(sc.graph.n_edges), [])
            assert valid.all()
            np.testing.assert_array_equal(zhat, ranging.predict_all(x, sc.team, sc.graph))
            np.testing.assert_array_equal(H[:, 3:3 * n], ranging.jacobian(x, sc.team, sc.graph))
            assert not H[:, 3 * n:].any()


    @pytest.mark.parametrize("preset", ["sim5", "bridge7", "exp3plus2"])
    def test_endpoint_blocks_equal_dense_rows(self, preset):
        # the two blocks of each row, scattered onto their robots' columns,
        # are the dense row bit for bit: range_rows on the graph's edges, and
        # its gather oracle on tag rows and point rows (the EKF's), batched poses
        sc = load_scenario(preset)
        idx = ranging._edge_index(sc.team, sc.graph)
        n, n_tags = sc.team.n_robots, sc.team.n_tags
        rng = np.random.default_rng(29)
        for trial in range(60):
            batch = (int(rng.integers(1, 5)),) if trial % 2 else ()
            C = se2._rot_many(rng.uniform(-4.0, 4.0, batch + (n,)))
            r = rng.uniform(-4.0, 4.0, batch + (n, 2))
            k = int(rng.integers(1, 2 * sc.graph.n_edges))
            tag_i, tag_j = idx.edge_i[:k], idx.edge_j[:k]
            points = np.zeros((0, 2))
            if not batch:  # point rows need unbatched poses
                points = rng.uniform(-4.0, 4.0, (int(rng.integers(0, 4)), 2))
                tag_i = np.concatenate([tag_i, rng.integers(0, n_tags, points.shape[0])])
            cases = [(ranging.range_rows(idx, C, r), idx.edge_i, idx.edge_j, np.zeros((0, 2))),
                     (range_rows_gather(idx, C, r, tag_i, tag_j, points), tag_i, tag_j, points)]
            for (blocks, got_rng, got_unit, got_valid), tag_i, tag_j, points in cases:
                H, want_rng, want_unit, want_valid = dense_range_rows(idx, C, r, tag_i, tag_j,
                                                                      points)
                m, e = tag_i.shape[0], tag_j.shape[0]
                assert blocks.shape == H.shape[:-2] + (m + e, 3)
                dense = np.zeros_like(H)
                rows = np.arange(m)[:, None]
                dense[..., rows, idx.tag_cols[tag_i]] = blocks[..., :m, :]
                dense[..., rows[:e], idx.tag_cols[tag_j]] = blocks[..., m:, :]
                np.testing.assert_array_equal(dense, H)
                np.testing.assert_array_equal(got_rng, want_rng)
                np.testing.assert_array_equal(got_unit, want_unit)
                np.testing.assert_array_equal(got_valid, want_valid)


class TestFisher:
    def test_empty_graph_zero_matrix(self):
        team = TeamConfig.uniform(3)
        x = se2.FormationState.identity(3)
        np.testing.assert_array_equal(ranging.fisher(x, team, RangeGraph((), ())), np.zeros((6, 6)))

    def test_sigma_scaling(self):
        team = TeamConfig.uniform(3)
        x = random_state(np.random.default_rng(5), 3)
        g1 = default_full_graph(team, sigma=0.1)
        g2 = default_full_graph(team, sigma=0.3)
        np.testing.assert_allclose(ranging.fisher(x, team, g1), 9.0 * ranging.fisher(x, team, g2),
                                   rtol=1e-12)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            team = TeamConfig.uniform(n)
            x = random_state(rng, n)
            F = ranging.fisher(x, team, default_full_graph(team))
            np.testing.assert_allclose(F, F.T, atol=1e-10)
            assert np.linalg.eigvalsh(F).min() > -1e-9

    def test_n2_full_graph_rank3(self):
        # rank checked through singular values of an independently stacked H
        team = TeamConfig.uniform(2)
        graph = default_full_graph(team)
        x = random_state(np.random.default_rng(7), 2, min_sep=1.0)
        H_fd = finite_difference_jacobian(x, team, graph)
        sv = np.linalg.svd(H_fd, compute_uv=False)
        assert np.sum(sv > 1e-6) == 3
        F = ranging.fisher(x, team, graph)
        assert np.linalg.matrix_rank(F, tol=1e-8) == 3

    def test_ranges_depend_only_on_relative_geometry(self):
        # embedding the fleet anywhere in a global frame and measuring there
        # reproduces the relative-state ranges exactly
        team = TeamConfig.uniform(3)
        graph = default_full_graph(team)
        rng = np.random.default_rng(8)
        x = random_state(rng, 3)
        base = ranging.predict_all(x, team, graph)
        for _ in range(5):
            G = from_angle(rng.uniform(-np.pi, np.pi), rng.uniform(-50, 50, 2))
            world = {p: se2.compose(G, x.pose(p)) for p in range(1, 4)}
            offsets = [np.asarray(o) for r in team.robots for o in r.tag_offsets]
            meas = []
            for i, j in graph.edges:
                pi, pj = team.tag_robot[i - 1] + 1, team.tag_robot[j - 1] + 1
                ti = world[pi].C @ offsets[i - 1] + world[pi].r
                tj = world[pj].C @ offsets[j - 1] + world[pj].r
                meas.append(np.linalg.norm(ti - tj))
            np.testing.assert_allclose(np.array(meas), base, atol=1e-12)


def probe_stack(x, step=1e-6):
    """x and its central-difference probes as gradient_fd stacks them, as the
    N frames of each formation, and the probes' compose count."""
    C, r, ops = se2.compose_many(x, *optimizer._probe_exps(x.dim, step))
    return (*ranging.frames(np.concatenate([x.C[None], C]), np.concatenate([x.r[None], r])), ops)


class TestProbeStackEqualsOracles:
    """The design's rows from tags placed once, its one block scatter and its
    stacked FIM product equal the per-endpoint gather, per-endpoint scatter and
    per-formation ``h.T @ h`` they replaced (tests/helpers.py) bit for bit,
    on the probe stacks of gradient_fd."""

    @pytest.mark.parametrize("preset", ["sim5", "exp3plus2", "bridge7"])
    def test_random_probe_stacks(self, preset):
        sc = load_scenario(preset)
        idx = ranging._edge_index(sc.team, sc.graph)
        rng = np.random.default_rng(37)
        for t in range(6):
            x = optimizer.random_formation(sc.team.n_robots, rng)
            if t % 2:  # rotations drifted off SO(2), and every probe re-projects
                x = se2.FormationState(x.C + rng.normal(0.0, 1e-9, x.C.shape), x.r,
                                       ops=se2.RENORMALIZE_EVERY)
            C, r, ops = probe_stack(x)
            assert ops == (0 if t % 2 else 1)
            got = ranging.range_rows(idx, C, r)
            for g, w in zip(got, range_rows_gather(idx, C, r, idx.edge_i, idx.edge_j)):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()
            H = ranging.jacobian_many(idx, C, r)
            assert H.flags.c_contiguous and H.shape[-1] == 3 * (sc.team.n_robots - 1)
            assert H.tobytes() == jacobian_gather(idx, C, r).tobytes()
            Hw = ranging.jacobian_many(idx, C, r, weighted=True)
            want = jacobian_gather(idx, C, r) / idx.sigma[:, None]
            assert Hw.shape == want.shape and Hw.tobytes() == want.tobytes()
            F = ranging.fisher_many(Hw)
            assert F.tobytes() == fisher_loop(want).tobytes()
            assert costs.est_many(idx, C, r).tobytes() == costs._neg_logdet(F).tobytes()

    def test_one_formation_jacobian_and_fim(self):
        sc = load_scenario("bridge7")
        idx = ranging._edge_index(sc.team, sc.graph)
        x = optimizer.random_formation(sc.team.n_robots, np.random.default_rng(38))
        H = ranging.jacobian(x, sc.team, sc.graph)
        want = jacobian_gather(idx, *ranging.frames(x.C[None], x.r[None]))[0]
        assert H.tobytes() == want.tobytes()
        F = ranging.fisher(x, sc.team, sc.graph)
        assert F.tobytes() == fisher_loop(want[None] / idx.sigma[:, None])[0].tobytes()

    def test_degenerate_row_raises_alike(self):
        # row 7 of a probe stack moved so that edge 3's far tag sits on its near tag
        sc = load_scenario("sim5")
        idx = ranging._edge_index(sc.team, sc.graph)
        x = optimizer.random_formation(sc.team.n_robots, np.random.default_rng(39))
        C, r, _ = probe_stack(x)
        r = r.copy()
        i, j = idx.edge_i[3], idx.edge_j[3]
        p, q = idx.tag_robot[i], idx.tag_robot[j]
        r[7, q] = C[7, p] @ idx.tag_body[i] + r[7, p] - C[7, q] @ idx.tag_body[j]
        with pytest.raises(ValueError) as want:
            jacobian_gather(idx, C, r)
        assert "edge (" in str(want.value)
        with pytest.raises(ValueError) as got:
            ranging.jacobian_many(idx, C, r, weighted=True)
        assert str(got.value) == str(want.value)
