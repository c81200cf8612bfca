import itertools

import numpy as np
import pytest

from covform.ranging import _edge_index
from covform.team import (
    CostWeights,
    FormationSpec,
    RangeGraph,
    RobotSpec,
    SortedIds,
    TeamConfig,
    default_full_graph,
    mask_edges,
)


def tags_of(team, robot_id):
    """Per-robot loop oracle: the global tag ids a robot carries."""
    t = 0
    for r in team.robots:
        n = len(r.tag_offsets)
        if r.id == robot_id:
            return tuple(range(t + 1, t + n + 1))
        t += n
    raise ValueError(f"unknown robot id {robot_id}")


def full_graph_oracle(team, sigma=0.1):
    edges = [(i, j)
             for p in range(1, team.n_robots + 1)
             for q in range(p + 1, team.n_robots + 1)
             for i in tags_of(team, p)
             for j in tags_of(team, q)]
    return RangeGraph.from_pairs(edges, sigma)


def mask_oracle(graph, robot_pair, team):
    tags_a, tags_b = set(tags_of(team, robot_pair[0])), set(tags_of(team, robot_pair[1]))
    keep = [k for k, (i, j) in enumerate(graph.edges)
            if not ((i in tags_a and j in tags_b) or (i in tags_b and j in tags_a))]
    return RangeGraph(tuple(graph.edges[k] for k in keep), tuple(graph.sigmas[k] for k in keep))


def mixed_team(tag_counts):
    offsets = ((0.17, -0.17), (-0.17, 0.17), (0.2, 0.0))
    return TeamConfig(tuple(RobotSpec(p, offsets[:k]) for p, k in enumerate(tag_counts, 1)))


def test_uniform_team_tag_assignment():
    team = TeamConfig.uniform(3)
    assert team.n_robots == 3
    assert team.n_tags == 6
    np.testing.assert_array_equal(team.tag_robot, [0, 0, 1, 1, 2, 2])
    # robot 1 carries tags 1, 2 and robot 3 tags 5, 6; tag 4 is robot 2's second
    assert tuple(np.flatnonzero(team.tag_robot == 0) + 1) == (1, 2)
    assert tuple(np.flatnonzero(team.tag_robot == 2) + 1) == (5, 6)
    assert team.tag_robot[4 - 1] == 1 and np.flatnonzero(team.tag_robot == 1)[1] == 4 - 1
    body = _edge_index(team, RangeGraph((), ())).tag_body
    np.testing.assert_array_equal(body[0], [0.17, -0.17])
    np.testing.assert_array_equal(body[1], [-0.17, 0.17])


@pytest.mark.parametrize("tag_counts", [(2,) * n for n in range(2, 10)] + [
    (1, 1), (1, 2), (3, 1), (1, 2, 3), (3, 2, 1), (2, 3, 1, 3), (1, 1, 3, 2, 1),
    (3, 3, 3), (2, 1, 2, 3, 1, 2, 3, 1, 2)])
def test_full_graph_and_masks_equal_loop_oracle(tag_counts):
    team = mixed_team(tag_counts)
    for p in range(1, team.n_robots + 1):
        np.testing.assert_array_equal(np.flatnonzero(team.tag_robot == p - 1) + 1,
                                      tags_of(team, p))
    graph = default_full_graph(team)
    assert graph == full_graph_oracle(team)
    for pair in itertools.product(range(1, team.n_robots + 1), repeat=2):
        assert mask_edges(graph, pair, team) == mask_oracle(graph, pair, team)


def test_robot_ids_must_be_consecutive():
    with pytest.raises(ValueError, match="consecutive"):
        TeamConfig((RobotSpec(1), RobotSpec(3)))


def test_robot_spec_validation():
    with pytest.raises(ValueError, match="camera_radius"):
        RobotSpec(1, camera_radius=0.0)
    with pytest.raises(ValueError, match="duplicate"):
        RobotSpec(1, tag_offsets=((0.1, 0.1), (0.1, 0.1)))


@pytest.mark.parametrize("n,expected", [(2, 4), (3, 12), (5, 40), (7, 84)])
def test_full_graph_edge_count(n, expected):
    # 4 * n(n-1)/2 cross pairs for two-tag robots
    assert default_full_graph(TeamConfig.uniform(n)).n_edges == expected


def test_full_graph_excludes_same_robot_pairs():
    team = TeamConfig.uniform(3)
    for i, j in default_full_graph(team).edges:
        assert team.tag_robot[i - 1] != team.tag_robot[j - 1]


def test_full_graph_edges_sorted():
    g = default_full_graph(TeamConfig.uniform(4))
    assert list(g.edges) == sorted(g.edges)


def test_bridge_mask_removes_four_edges():
    team = TeamConfig.uniform(7)
    g = mask_edges(default_full_graph(team), (1, 2), team)
    assert g.n_edges == 80


def test_mask_n3_pair():
    team = TeamConfig.uniform(3)
    g = mask_edges(default_full_graph(team), (2, 3), team)
    assert g.n_edges == 8
    for i, j in g.edges:
        assert {team.tag_robot[i - 1], team.tag_robot[j - 1]} != {1, 2}


def test_mask_is_idempotent():
    team = TeamConfig.uniform(4)
    g1 = mask_edges(default_full_graph(team), (2, 3), team)
    g2 = mask_edges(g1, (2, 3), team)
    assert g1 == g2


def test_mask_full_n2_graph_empties_it():
    team = TeamConfig.uniform(2)
    assert mask_edges(default_full_graph(team), (1, 2), team).n_edges == 0


def test_mask_unknown_robot():
    team = TeamConfig.uniform(2)
    with pytest.raises(ValueError, match="unknown robot pair"):
        mask_edges(default_full_graph(team), (1, 9), team)


def test_graph_rejects_same_robot_edges_sigma_lookup():
    g = RangeGraph.from_pairs([(3, 1), (2, 4)], sigma=0.2)
    assert dict(zip(g.edges, g.sigmas))[(1, 3)] == 0.2
    # edges are normalized and sorted, and each sigma follows its edge
    g = RangeGraph(((2, 4), (3, 1)), (0.5, 0.2))
    assert g.edges == ((1, 3), (2, 4))
    assert g.sigmas == (0.2, 0.5)
    assert (1, 4) not in g.edges


def test_graph_rejects_self_edges_and_bad_sigma():
    with pytest.raises(ValueError, match="self edges"):
        RangeGraph.from_pairs([(2, 2)])
    with pytest.raises(ValueError, match="sigmas"):
        RangeGraph(((1, 3),), (0.0,))


def test_formation_spec_validation():
    with pytest.raises(ValueError, match="unit length"):
        FormationSpec(directions=((1.0, 1.0),))
    with pytest.raises(ValueError, match="overlap_fraction"):
        FormationSpec(directions=((1.0, 0.0),), overlap_fraction=1.5)
    with pytest.raises(ValueError, match="collision_radius"):
        FormationSpec(directions=((1.0, 0.0),), collision_radius=1.2)
    with pytest.raises(ValueError, match="weight"):
        CostWeights(adj=-1.0)


@pytest.mark.parametrize("name", ["adj", "overlap", "est", "col"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_cost_weights_refuse_non_finite(name, value):
    with pytest.raises(ValueError, match=f"weight {name} must be finite"):
        CostWeights(**{name: value})


def test_formation_spec_line_and_vee():
    line = FormationSpec.line(5)
    assert len(line.directions) == 4
    np.testing.assert_array_equal(line.directions[0], [1.0, 0.0])
    vee = FormationSpec.vee(9)
    assert len(vee.directions) == 8
    np.testing.assert_allclose(vee.directions[0], np.array([1, 1]) / np.sqrt(2))
    np.testing.assert_allclose(vee.directions[7], np.array([1, -1]) / np.sqrt(2))


def test_sorted_ids_validation():
    team = TeamConfig.uniform(3)
    s = SortedIds.identity(team)
    assert s.order == (1, 2, 3)
    assert s.order[2 - 1] == 2
    assert s.sorted_radii[1 - 1] == 0.5
    with pytest.raises(ValueError, match="reference"):
        SortedIds((2, 1, 3), (0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="reference"):  # no slot 1 at all
        SortedIds((), (0.5, 0.5))
    with pytest.raises(ValueError, match="permutation"):
        SortedIds((1, 2, 2), (0.5, 0.5, 0.5))
