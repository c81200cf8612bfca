import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covform import assignment, se2
from covform.assignment import hungarian, sort_robot_ids, travel_cost_matrix
from covform.optimizer import OptimizerConfig, random_formation
from covform.team import TeamConfig
from helpers import from_poses, hungarian_resolve


def brute_force_value(cost):
    n = cost.shape[0]
    return min(sum(cost[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


def state_with_positions(positions):
    poses = [se2.Pose2(np.eye(2), np.asarray(p, dtype=np.float64)) for p in positions]
    return from_poses(poses)


class TestHungarian:
    def test_one_by_one(self):
        np.testing.assert_array_equal(hungarian(np.array([[3.0]])), [0])

    def test_two_by_two_hand_case(self):
        # permutations cost {1+1, 2+3} = {2, 5}; identity wins with 2
        perm = hungarian(np.array([[1.0, 2.0], [3.0, 1.0]]))
        np.testing.assert_array_equal(perm, [0, 1])

    def test_recovers_planted_permutation(self):
        rng = np.random.default_rng(0)
        for n in range(2, 6):
            for _ in range(10):
                planted = rng.permutation(n)
                cost = np.ones((n, n))
                cost[np.arange(n), planted] = 0.0
                np.testing.assert_array_equal(hungarian(cost), planted)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            cost = rng.uniform(0, 10, (n, n))
            perm = hungarian(cost)
            value = cost[np.arange(n), perm].sum()
            assert value == pytest.approx(brute_force_value(cost), rel=1e-12)

    def test_exact_tie_on_dyadic_matrices(self):
        # dyadic entries make every permutation sum exact in float64
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            cost = rng.integers(0, 2**20, (n, n)).astype(np.float64) / 2**10
            perm = hungarian(cost)
            assert cost[np.arange(n), perm].sum() == brute_force_value(cost)

    def test_tie_break_is_lexicographically_smallest(self):
        # all-equal costs: every permutation is optimal, identity is smallest
        np.testing.assert_array_equal(hungarian(np.ones((4, 4))), [0, 1, 2, 3])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hungarian(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian(np.array([[1.0, np.inf], [1.0, 1.0]]))

    @pytest.mark.parametrize("kind", ["integer", "dyadic"])
    def test_equals_resolving_oracle_on_ties(self, kind):
        # small integers tie often; dyadic entries sum exactly, so their ties are exact
        rng = np.random.default_rng({"integer": 41, "dyadic": 42}[kind])
        for _ in range(2500):
            n = int(rng.integers(1, 10))
            if kind == "integer":
                cost = rng.integers(0, 4, (n, n)).astype(np.float64)
            else:
                cost = rng.integers(0, 64, (n, n)).astype(np.float64) / 2**int(rng.integers(0, 12))
            np.testing.assert_array_equal(hungarian(cost), hungarian_resolve(cost))

    @pytest.mark.parametrize("n_robots,starts", [(5, 10), (7, 10), (24, 3)])
    def test_equals_resolving_oracle_on_travel_costs(self, n_robots, starts):
        team = TeamConfig.uniform(n_robots)
        dirs = np.array([[1.0, 0.0]] * (n_robots - 1))
        for child in np.random.SeedSequence(n_robots).spawn(starts):
            x0 = random_formation(n_robots, np.random.default_rng(child), OptimizerConfig())
            cost = travel_cost_matrix(x0, team, dirs)
            np.testing.assert_array_equal(hungarian(cost), hungarian_resolve(cost))

    def test_one_solve_per_call(self, monkeypatch):
        calls = []
        lsap = assignment._lsap
        monkeypatch.setattr(assignment, "_lsap", lambda cost: calls.append(1) or lsap(cost))
        for cost in (np.ones((6, 6)), np.random.default_rng(3).uniform(0, 1, (9, 9))):
            calls.clear()
            hungarian(cost)
            assert len(calls) == 1

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_optimality_property(self, n, seed):
        cost = np.random.default_rng(seed).uniform(0, 5, (n, n))
        perm = hungarian(cost)
        assert sorted(perm) == list(range(n))
        assert cost[np.arange(n), perm].sum() <= brute_force_value(cost) + 1e-9


class TestSortRobotIds:
    line = np.array([[1.0, 0.0]] * 4)

    def test_already_ordered_is_identity(self):
        team = TeamConfig.uniform(5)
        # d_avg = (2/5)*2.5 = 1.0, targets at x = 1, 2, 3, 4
        x = state_with_positions([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)])
        s = sort_robot_ids(x, team, self.line)
        assert s.order == (1, 2, 3, 4, 5)
        assert s.sorted_radii == (0.5,) * 5

    def test_swapped_pair_is_unswapped(self):
        team = TeamConfig.uniform(5)
        x = state_with_positions([(2.0, 0.0), (1.0, 0.0), (3.0, 0.0), (4.0, 0.0)])
        s = sort_robot_ids(x, team, self.line)
        assert s.order == (1, 3, 2, 4, 5)

    def test_slot1_always_robot1(self):
        rng = np.random.default_rng(17)
        team = TeamConfig.uniform(4)
        for _ in range(30):
            x = state_with_positions(rng.uniform(-5, 5, (3, 2)))
            assert sort_robot_ids(x, team, np.array([[1.0, 0.0]] * 3)).order[0] == 1

    def test_radii_follow_the_permutation(self):
        robots = tuple(
            TeamConfig.uniform(4).robots[i].__class__(i + 1, ((0.17, -0.17), (-0.17, 0.17)), 0.4 + 0.1 * i)
            for i in range(4))
        team = TeamConfig(robots)
        x = state_with_positions([(3.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        s = sort_robot_ids(x, team, np.array([[1.0, 0.0]] * 3))
        for slot in range(1, 5):
            assert s.sorted_radii[slot - 1] == team.robots[s.order[slot - 1] - 1].camera_radius

    def test_beats_identity_on_random_states(self):
        rng = np.random.default_rng(31)
        team = TeamConfig.uniform(5)
        dirs = np.array([[1.0, 0.0]] * 4)
        for _ in range(100):
            x = state_with_positions(rng.uniform(-4, 4, (4, 2)))
            cost = travel_cost_matrix(x, team, dirs)
            s = sort_robot_ids(x, team, dirs)
            chosen = sum(cost[i, s.order[i + 1] - 2] for i in range(4))
            identity = np.trace(cost)
            assert chosen <= identity + 1e-12

    def test_matches_brute_force_total_distance(self):
        rng = np.random.default_rng(77)
        team = TeamConfig.uniform(5)
        dirs = np.array([[1.0, 0.0]] * 4)
        for _ in range(25):
            x = state_with_positions(rng.uniform(-4, 4, (4, 2)))
            cost = travel_cost_matrix(x, team, dirs)
            s = sort_robot_ids(x, team, dirs)
            chosen = sum(cost[i, s.order[i + 1] - 2] for i in range(4))
            assert chosen == pytest.approx(brute_force_value(cost), rel=1e-12)

    def test_direction_count_validated(self):
        team = TeamConfig.uniform(4)
        x = state_with_positions([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
        with pytest.raises(ValueError, match="direction"):
            sort_robot_ids(x, team, np.array([[1.0, 0.0]] * 2))
