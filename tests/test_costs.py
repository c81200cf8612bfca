import itertools
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covform import costs, ranging, se2
from covform.assignment import sort_robot_ids
from covform.optimizer import random_formation
from covform.scenario import load_scenario
from covform.team import CostWeights, FormationSpec, RangeGraph, SortedIds, TeamConfig, default_full_graph
from helpers import (fisher_loop, from_angle, from_poses, j_col_pair, jacobian_gather, scalar_cost,
                     scalar_terms)


def state_with_positions(positions, angles=None):
    positions = np.asarray(positions, dtype=np.float64)
    if angles is None:
        angles = np.zeros(len(positions))
    poses = [from_angle(a, p) for a, p in zip(angles, positions)]
    return from_poses(poses)


def line_spec(n, **kw):
    return FormationSpec.line(n, **kw)


class TestCollision:
    def test_pair_value_at_0p7(self):
        x = state_with_positions([(0.7, 0.0)])
        val = j_col_pair(x, 2, 1, 0.9, 0.5)
        assert abs(val - 16.0 / 9.0) <= 1e-12

    def test_pair_zero_at_activation_radius(self):
        x = state_with_positions([(0.9, 0.0)])
        assert j_col_pair(x, 2, 1, 0.9, 0.5) == 0.0

    def test_pair_zero_beyond_activation(self):
        x = state_with_positions([(2.0, 0.0)])
        assert j_col_pair(x, 2, 1, 0.9, 0.5) == 0.0

    def test_pair_sentinel_inside_collision_radius(self):
        x = state_with_positions([(0.4, 0.0)])
        assert j_col_pair(x, 2, 1, 0.9, 0.5) == costs.SATURATION

    def test_pair_symmetric_in_m_n(self):
        x = state_with_positions([(0.7, 0.2), (1.0, -0.4)])
        assert j_col_pair(x, 2, 3, 0.9, 0.5) == j_col_pair(x, 3, 2, 0.9, 0.5)

    def test_total_counts_ordered_pairs_twice(self):
        x = state_with_positions([(0.7, 0.0)])
        spec = line_spec(2)
        assert costs.j_col(x, spec) == pytest.approx(2 * 16.0 / 9.0, abs=1e-12)

    def test_total_zero_when_all_far(self):
        x = state_with_positions([(3.0, 0.0), (6.0, 0.0)])
        assert costs.j_col(x, line_spec(3)) == 0.0

    def test_bad_radii_rejected(self):
        x = state_with_positions([(0.7, 0.0)])
        with pytest.raises(ValueError):
            j_col_pair(x, 2, 1, 0.5, 0.9)


class TestEst:
    def test_empty_graph_saturates(self):
        team = TeamConfig.uniform(3)
        x = state_with_positions([(1.0, 0.0), (2.0, 0.0)])
        assert costs.j_est(x, team, RangeGraph((), ())) == costs.SATURATION

    def test_sigma_scaling_law(self):
        # scaling all sigmas by c adds 6(N-1) ln c
        team = TeamConfig.uniform(3)
        x = state_with_positions([(1.0, 0.3), (2.0, -0.4)], angles=[0.3, -0.8])
        c = 3.0
        base = costs.j_est(x, team, default_full_graph(team, sigma=0.1))
        scaled = costs.j_est(x, team, default_full_graph(team, sigma=0.1 * c))
        assert scaled - base == pytest.approx(6 * 2 * np.log(c), rel=1e-9)

    def test_finite_for_generic_geometry(self):
        team = TeamConfig.uniform(4)
        x = state_with_positions([(1.0, 0.2), (2.1, -0.3), (0.4, 1.4)], angles=[1.0, -2.0, 0.5])
        assert costs.j_est(x, team, default_full_graph(team)) < costs.SATURATION


def desired_offset(spec, sorted_ids, n, m):
    """Summation oracle: target displacement of sorted slot m relative to slot n."""
    if not 1 <= n < m <= sorted_ids.n_robots:
        raise ValueError(f"need 1 <= n < m <= {sorted_ids.n_robots}, got ({n}, {m})")
    radii = sorted_ids.sorted_radii
    out = np.zeros(2)
    for k in range(n, m):
        out += (radii[k] + radii[k - 1]) * np.asarray(spec.directions[k - 1])
    return out


def table_offset(spec, sorted_ids, n, m):
    """The same displacement as j_adj reads it from the prefix-sum slot tables."""
    a, b, desired, *_ = costs._slot_tables(spec, sorted_ids)
    return desired[np.flatnonzero((a == n - 1) & (b == m - 1))[0]]


class TestDesiredOffset:
    def test_adjacent_pair_single_term(self):
        spec = line_spec(5)
        s = SortedIds.identity(TeamConfig.uniform(5))
        np.testing.assert_allclose(table_offset(spec, s, 2, 3), [1.0, 0.0])
        np.testing.assert_allclose(desired_offset(spec, s, 2, 3), [1.0, 0.0])

    def test_two_term_sum(self):
        spec = line_spec(5)
        s = SortedIds.identity(TeamConfig.uniform(5))
        np.testing.assert_allclose(table_offset(spec, s, 1, 3), [2.0, 0.0])
        np.testing.assert_allclose(desired_offset(spec, s, 1, 3), [2.0, 0.0])

    def test_v_shape_traces_a_v(self):
        # desired offsets from slot 1 rise for 5 slots, then descend
        spec = FormationSpec.vee(9)
        s = SortedIds.identity(TeamConfig.uniform(9))
        pts = np.array([table_offset(spec, s, 1, m) for m in range(2, 10)])
        ys = np.concatenate([[0.0], pts[:, 1]])
        assert np.all(np.diff(ys[:5]) > 0)       # ascending arm
        assert np.all(np.diff(ys[4:]) < 0)       # descending arm
        assert np.all(np.diff(np.concatenate([[0.0], pts[:, 0]])) > 0)  # x always advances
        # summation oracle for the apex: 4 steps of (r_k+1 + r_k) / sqrt(2)
        np.testing.assert_allclose(pts[3], [4 / np.sqrt(2), 4 / np.sqrt(2)])

    def test_tables_match_summation_oracle(self):
        rng = np.random.default_rng(12)
        for n in range(2, 9):
            dirs = rng.standard_normal((n - 1, 2))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            spec = FormationSpec(directions=tuple(map(tuple, dirs)))
            order = (1,) + tuple(rng.permutation(np.arange(2, n + 1)).tolist())
            s = SortedIds(order, tuple(rng.uniform(0.3, 0.9, n)))
            for a, b in itertools.combinations(range(1, n + 1), 2):
                np.testing.assert_allclose(table_offset(spec, s, a, b),
                                           desired_offset(spec, s, a, b), rtol=0, atol=1e-12)

    def test_index_order_validated(self):
        spec = line_spec(3)
        s = SortedIds.identity(TeamConfig.uniform(3))
        with pytest.raises(ValueError, match="n < m"):
            desired_offset(spec, s, 2, 2)
        a, b, *_ = costs._slot_tables(spec, s)
        assert np.all(a < b) and len(a) == 3  # the tables hold only n < m pairs


class TestAdj:
    def make_sorted(self, n):
        return SortedIds.identity(TeamConfig.uniform(n))

    def test_zero_at_desired_formation(self):
        spec = line_spec(4)
        s = self.make_sorted(4)
        x = state_with_positions([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
        assert costs.j_adj(x, spec, s) == pytest.approx(0.0, abs=1e-24)

    def test_two_robots_unit_residual(self):
        spec = line_spec(2)
        s = self.make_sorted(2)
        x = state_with_positions([(2.0, 0.0)])
        assert costs.j_adj(x, spec, s) == pytest.approx(1.0, abs=1e-12)

    def test_respects_sorted_order(self):
        spec = line_spec(3)
        team = TeamConfig.uniform(3)
        # robots 2 and 3 physically swapped; sorted order (1, 3, 2) zeroes the cost
        x = state_with_positions([(2.0, 0.0), (1.0, 0.0)])
        swapped = SortedIds((1, 3, 2), (0.5, 0.5, 0.5))
        assert costs.j_adj(x, spec, swapped) == pytest.approx(0.0, abs=1e-24)
        assert costs.j_adj(x, spec, SortedIds.identity(team)) > 1.0


class TestOverlap:
    def test_two_robot_zero_cost_separation(self):
        # lambda = 0.25, radii 0.5: zero exactly at 0.75 m
        spec = line_spec(2, overlap_fraction=0.25)
        s = SortedIds.identity(TeamConfig.uniform(2))
        x = state_with_positions([(0.75, 0.0)])
        assert costs.j_overlap(x, spec, s) == pytest.approx(0.0, abs=1e-24)

    def test_scan_localizes_minimizer(self):
        # 1D scan oracle: the minimizer over separation sits at 0.75 +- 1e-3
        spec = line_spec(2, overlap_fraction=0.25)
        s = SortedIds.identity(TeamConfig.uniform(2))
        seps = np.arange(0.2, 2.0, 1e-4)
        vals = [costs.j_overlap(state_with_positions([(d, 0.0)]), spec, s) for d in seps]
        assert abs(seps[int(np.argmin(vals))] - 0.75) < 1e-3

    def test_lambda_zero_means_tangent_circles(self):
        spec = line_spec(2, overlap_fraction=0.0)
        s = SortedIds.identity(TeamConfig.uniform(2))
        x = state_with_positions([(1.0, 0.0)])
        assert costs.j_overlap(x, spec, s) == pytest.approx(0.0, abs=1e-24)

    def test_direction_free(self):
        # cost depends on distance only, any direction of the pair works
        spec = line_spec(2, overlap_fraction=0.25)
        s = SortedIds.identity(TeamConfig.uniform(2))
        for ang in np.linspace(0, 2 * np.pi, 7):
            x = state_with_positions([(0.75 * np.cos(ang), 0.75 * np.sin(ang))])
            assert costs.j_overlap(x, spec, s) == pytest.approx(0.0, abs=1e-20)

    def test_exempt_slot_contributes_nothing(self):
        s = SortedIds.identity(TeamConfig.uniform(3))
        free = line_spec(3, overlap_fraction=0.25)
        exempt = line_spec(3, overlap_fraction=0.25, overlap_exempt_slots=frozenset({3}))
        x = state_with_positions([(0.75, 0.0), (9.0, 9.0)])  # slot 3 far off target
        assert costs.j_overlap(x, free, s) > 1.0
        assert costs.j_overlap(x, exempt, s) == pytest.approx(0.0, abs=1e-20)

    def test_all_slots_exempt_is_zero(self):
        s = SortedIds.identity(TeamConfig.uniform(2))
        spec = line_spec(2, overlap_exempt_slots=frozenset({1, 2}))
        x = state_with_positions([(5.0, 5.0)])
        assert costs.j_overlap(x, spec, s) == 0.0

    def test_coincident_pair_raises_with_names(self):
        spec = line_spec(2)
        s = SortedIds.identity(TeamConfig.uniform(2))
        x = state_with_positions([(0.0, 0.0)])
        with pytest.raises(ValueError, match="coincident"):
            costs.j_overlap(x, spec, s)


def terms_of(f, x):
    """The objective's unweighted (adj, overlap, est, col) of one formation."""
    return f.terms(x.C[None], x.r[None])[0].tolist()


class TestCombinations:
    def setup_method(self):
        self.team = TeamConfig.uniform(3)
        self.graph = default_full_graph(self.team)
        self.sorted = SortedIds.identity(self.team)
        self.x = state_with_positions([(1.1, 0.2), (2.3, -0.1)], angles=[0.4, -0.2])

    def objective(self, kind, spec):
        return costs.cost_function(kind, self.team, self.graph, spec, self.sorted)

    def test_opt_total_is_est_plus_col(self):
        f = self.objective("opt", line_spec(3))
        adj, overlap, est, col = terms_of(f, self.x)
        assert f(self.x) == est + col
        assert adj == 0.0 and overlap == 0.0

    def test_opt_far_apart_reduces_to_est(self):
        f = self.objective("opt", line_spec(3))
        x = state_with_positions([(3.0, 0.0), (6.0, 0.0)], angles=[0.3, 0.9])
        _, _, est, col = terms_of(f, x)
        assert col == 0.0
        assert f(x) == est

    def test_cov_weighted_sum(self):
        f = self.objective("cov", line_spec(3, weights=CostWeights(adj=2.0, overlap=0.5,
                                                                   est=1.5, col=3.0)))
        adj, overlap, est, col = terms_of(f, self.x)
        expected = 2.0 * adj + 0.5 * overlap + 1.5 * est + 3.0 * col
        assert f(self.x) == pytest.approx(expected, abs=1e-12)

    def test_cov_zero_weights_zero_total(self):
        f = self.objective("cov", line_spec(3, weights=CostWeights(0.0, 0.0, 0.0, 0.0)))
        assert f(self.x) == 0.0

    def test_cov_unit_weights_plain_sum(self):
        f = self.objective("cov", line_spec(3))
        adj, overlap, est, col = terms_of(f, self.x)
        assert f(self.x) == pytest.approx(adj + overlap + est + col, abs=1e-12)

    def test_cost_function_factory(self):
        spec = line_spec(3)
        for kind in ("adj", "opt", "cov"):
            f = costs.cost_function(kind, self.team, self.graph, spec, self.sorted)
            assert np.isfinite(f(self.x))
        with pytest.raises(ValueError, match="unknown cost kind"):
            costs.cost_function("bogus", self.team, self.graph, spec, self.sorted)


@pytest.mark.parametrize("preset", ["sim5", "bridge7", "exp3plus2"])
def test_objective_equals_scalar_oracle(preset):
    # call, many (one stack of all the states) and terms equal the scalar
    # composition byte for byte, on plain and drifted re-projecting states
    sc = load_scenario(preset)
    dirs = np.asarray(sc.formation.directions)
    rng = np.random.default_rng(31)
    xs = []
    for t in range(200):
        x = random_formation(sc.team.n_robots, rng)
        if t % 4 == 3:
            x = se2.FormationState(x.C + rng.normal(0.0, 1e-9, x.C.shape), x.r,
                                   ops=se2.RENORMALIZE_EVERY)
        xs.append((x, sort_robot_ids(x, sc.team, dirs)))
    for kind in ("adj", "opt", "cov"):
        fs = [costs.cost_function(kind, sc.team, sc.graph, sc.formation, s) for _, s in xs]
        want = np.array([scalar_cost(f, x) for f, (x, _) in zip(fs, xs)])
        got = np.array([f(x) for f, (x, _) in zip(fs, xs)])
        assert got.tobytes() == want.tobytes()
        # the objectives differ only by their sorted ids; many of a stack of
        # all states under one of them equals its one-row calls
        f = fs[0]
        C = np.stack([x.C for x, _ in xs])
        r = np.stack([x.r for x, _ in xs])
        want_f = np.array([scalar_cost(f, x) for x, _ in xs])
        assert f.many(C, r).tobytes() == want_f.tobytes()
        want_terms = np.array([scalar_terms(f, x) for x, _ in xs])
        assert f.terms(C, r).tobytes() == want_terms.tobytes()


class TestManyBlocks:
    """``Objective.many`` evaluates a stack in blocks of at most BLOCK_BYTES of
    row_bytes. Rows are independent, so blocks of any size give one call's
    values, and a stack with one degenerate row raises one call's error."""

    @staticmethod
    def outcome(f, C, r):
        try:
            return f.many(C, r).tobytes()
        except ValueError as e:
            return str(e)

    @pytest.mark.parametrize("preset", ["sim5", "bridge7", "exp3plus2"])
    def test_blocks_equal_one_call(self, preset, monkeypatch):
        sc = load_scenario(preset)
        rng = np.random.default_rng(43)
        xs = [random_formation(sc.team.n_robots, rng) for _ in range(11)]
        C, r = np.stack([x.C for x in xs]), np.stack([x.r for x in xs])
        # row 7 with robot 3 on robot 2's pose: its tags coincide (near-zero
        # ranges) and the overlap direction is undefined
        C_bad, r_bad = C.copy(), r.copy()
        C_bad[7, 1], r_bad[7, 1] = C[7, 0], r[7, 0]
        for kind, error in (("adj", None), ("opt", "singular geometry"), ("cov", "coincident")):
            f = costs.cost_function(kind, sc.team, sc.graph, sc.formation,
                                    SortedIds.identity(sc.team))
            want, want_bad = self.outcome(f, C, r), self.outcome(f, C_bad, r_bad)
            assert want == np.array([f(x) for x in xs]).tobytes()
            assert (error is None) == isinstance(want_bad, bytes)
            assert error is None or error in want_bad
            for rows in (1, 3, len(C)):
                monkeypatch.setattr(costs, "BLOCK_BYTES", rows * f.row_bytes)
                assert self.outcome(f, C, r) == want
                assert self.outcome(f, C_bad, r_bad) == want_bad
            monkeypatch.undo()


class TestZeroWeightSkipsTerm:
    """A zero-weight term is never evaluated, so a state degenerate for it
    (here robots 2 and 3 on one origin, where the overlap direction is
    undefined) evaluates; with weight 1 it raises on every path."""

    def setup_method(self):
        self.sc = load_scenario("sim5")
        self.s = SortedIds.identity(self.sc.team)
        self.x = state_with_positions([(1.0, 0.0), (1.0, 0.0), (2.5, 1.0), (-1.5, 2.0)],
                                      angles=[0.3, 1.9, -0.7, 2.4])
        self.stack = (self.x.C[None], self.x.r[None])

    def objective(self, overlap):
        spec = replace(self.sc.formation, weights=CostWeights(overlap=overlap))
        return costs.cost_function("cov", self.sc.team, self.sc.graph, spec, self.s)

    def test_overlap_weight_0_evaluates(self):
        f = self.objective(0.0)
        value, total, terms = f(self.x), f.many(*self.stack), f.terms(*self.stack)
        assert total.tolist() == [value] and value == scalar_cost(f, self.x)
        assert terms[0].tolist() == scalar_terms(f, self.x)
        adj, overlap, est, col = terms[0]
        assert overlap == 0.0 and col >= costs.SATURATION
        assert value == adj + est + col

    def test_overlap_weight_1_raises(self):
        f = self.objective(1.0)
        for path in (lambda: f(self.x), lambda: f.many(*self.stack),
                     lambda: f.terms(*self.stack)):
            with pytest.raises(ValueError, match="coincident"):
                path()


@given(st.lists(st.tuples(st.floats(-4, 4), st.floats(-4, 4)), min_size=2, max_size=5))
@settings(max_examples=80, deadline=None)
def test_shape_costs_are_nonnegative(points):
    n = len(points) + 1
    spec = FormationSpec.line(n)
    s = SortedIds.identity(TeamConfig.uniform(n))
    x = state_with_positions(points)
    assert costs.j_adj(x, spec, s) >= 0.0
    assert costs.j_col(x, spec) >= 0.0
    pos = x.positions()
    d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
    if np.all(d[np.triu_indices(n, 1)] > 1e-6):
        assert costs.j_overlap(x, spec, s) >= 0.0


def stacked(xs):
    """C (B,N-1,2,2) and r (B,N-1,2) of formations xs."""
    return np.stack([x.C for x in xs]), np.stack([x.r for x in xs])


class TestEstScratch:
    """``est_many`` writes each stack's weighted Jacobians into one buffer its
    edge index owns, zero-filled when made, and rewrites only the block
    entries; every value stays that of a fresh Jacobian (the gather oracle)."""

    @staticmethod
    def oracle(idx, C, r):
        return costs._neg_logdet(fisher_loop(jacobian_gather(idx, C, r) / idx.sigma[:, None]))

    def test_alternating_graphs_equal_fresh_evaluations(self):
        # two graphs on one team with equal edge counts: equal stack shapes,
        # blocks on different entries
        sc = load_scenario("sim5")
        edges = sc.graph.edges
        fs = [costs.cost_function("cov", sc.team, RangeGraph.from_pairs(g), sc.formation,
                                  SortedIds.identity(sc.team)) for g in (edges[4:], edges[:-4])]
        rng = np.random.default_rng(44)
        for _ in range(3):
            xs = [random_formation(sc.team.n_robots, rng) for _ in range(7)]
            for f in fs:
                assert f.many(*stacked(xs)).tobytes() == np.array(
                    [scalar_cost(f, x) for x in xs]).tobytes()
                assert np.all(f.terms(*stacked(xs))[:, 2] < costs.SATURATION)

    def test_new_indexes_start_from_zero(self):
        # each round builds a new edge index after dropping the last one, and
        # frees garbage of the buffer's size just before the buffer is made: a
        # buffer kept by object id, or not zero-filled, shows stale entries
        sc = load_scenario("sim5")
        edges = sc.graph.edges
        rng = np.random.default_rng(45)
        C, r = ranging.frames(*stacked([random_formation(5, rng) for _ in range(6)]))
        for _ in range(12):
            keep = np.sort(rng.choice(len(edges), 30, replace=False))
            idx = ranging._edge_index(sc.team, RangeGraph.from_pairs([edges[k] for k in keep]))
            np.full((len(C), 30, 12), 7.0)
            est = costs.est_many(idx, C, r)
            assert est.tobytes() == self.oracle(idx, C, r).tobytes()
            assert np.all(est < costs.SATURATION)
            del idx
            ranging._edge_index.cache_clear()

    def test_degenerate_stack_raises_and_the_next_is_right(self):
        # row 4 moved so that edge 3's far tag sits on its near tag
        sc = load_scenario("sim5")
        idx = ranging._edge_index(sc.team, sc.graph)
        C, r = ranging.frames(*stacked([random_formation(5, np.random.default_rng(s))
                                        for s in range(46, 52)]))
        i, j = idx.edge_i[3], idx.edge_j[3]
        p, q = idx.tag_robot[i], idx.tag_robot[j]
        r_bad = r.copy()
        r_bad[4, q] = C[4, p] @ idx.tag_body[i] + r[4, p] - C[4, q] @ idx.tag_body[j]
        want = self.oracle(idx, C, r)
        assert costs.est_many(idx, C, r).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="singular geometry"):
            costs.est_many(idx, C, r_bad)
        assert costs.est_many(idx, C, r).tobytes() == want.tobytes()

    def test_returned_jacobians_stay_as_returned(self):
        # jacobian and jacobian_many return fresh arrays, never the buffer
        sc = load_scenario("bridge7")
        idx = ranging._edge_index(sc.team, sc.graph)
        f = costs.cost_function("cov", sc.team, sc.graph, sc.formation, SortedIds.identity(sc.team))
        rng = np.random.default_rng(47)
        x, y = (random_formation(sc.team.n_robots, rng) for _ in range(2))
        H = ranging.jacobian(x, sc.team, sc.graph)
        Hs = ranging.jacobian_many(idx, *ranging.frames(*stacked([x, y])), weighted=True)
        want, want_s = H.copy(), Hs.copy()
        f(y)
        f.many(*stacked([y, x]))
        costs.est_many(idx, *ranging.frames(*stacked([y])))
        assert H.tobytes() == want.tobytes() and Hs.tobytes() == want_s.tobytes()


def test_objective_binds_its_tables_outside_fields_eq_hash_and_pickle():
    sc = load_scenario("sim5")
    make = lambda: costs.cost_function("cov", sc.team, sc.graph, sc.formation,
                                       SortedIds.identity(sc.team))
    f, g = make(), make()
    before = pickle.dumps(f)
    x = random_formation(5, np.random.default_rng(48))
    value = f(x)  # binds the weight row, slot tables and edge index
    assert [fl.name for fl in fields(f)] == ["kind", "team", "graph", "spec", "sorted_ids"]
    assert f == g and hash(f) == hash(g)
    assert pickle.dumps(f) == before
    h = pickle.loads(before)
    assert h == f and h(x) == value


def test_pair_table_terms_equal_their_direct_forms():
    # adj, overlap and col from the one pair table (a slot pair's row or its
    # exact negation, the desired offset sign-folded) equal the residuals and
    # distances taken pair by pair in slot order, bit for bit
    rng = np.random.default_rng(13)
    for n in range(2, 9):
        dirs = rng.standard_normal((n - 1, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        spec = FormationSpec(directions=tuple(map(tuple, dirs)),
                             overlap_exempt_slots=(n,) if n > 3 else ())
        order = (1,) + tuple(rng.permutation(np.arange(2, n + 1)).tolist())
        tables = costs._slot_tables(spec, SortedIds(order, tuple(rng.uniform(0.3, 0.9, n))))
        a, b, desired, *_, over_a, over_b, _, overlap_dist = tables
        pos = rng.uniform(-3.0, 3.0, (5, n, 2))
        pos[:, 0] = 0.0
        diff, sq = costs._pairs(pos)
        slots = pos[:, np.asarray(order) - 1]
        resid = ((slots[:, b] - slots[:, a]) - desired).reshape(5, -1)
        assert costs.adj_many(diff, tables).tobytes() == np.einsum("bk,bk->b", resid, resid).tobytes()
        dist = np.linalg.norm(pos[:, over_b] - pos[:, over_a], axis=-1)
        want = costs._row_sum((dist - overlap_dist) ** 2)
        assert costs.overlap_many(sq, tables).tobytes() == want.tobytes()
        m, k = costs._pair_indices(n)
        d = pos[:, m] - pos[:, k]
        assert sq.tobytes() == np.einsum("...ij,...ij->...i", d, d).tobytes()
