import numpy as np
import pytest

from covform.covsim.waypoints import (
    MERGE_TOLERANCE,
    footprint_center,
    formation_sweep_width,
    generate_waypoints,
)
from covform.optimizer import OptimizerConfig, random_formation
from covform.se2 import Pose2
from covform.team import TeamConfig
from helpers import from_poses


def disk_intervals(x, team, axis):
    """The disks' extents along one axis, merged where they touch."""
    pos = x.positions()
    radii = team.camera_radii()
    lo = pos[:, axis] - radii
    hi = pos[:, axis] + radii
    merged = []
    for k in np.argsort(lo):
        if merged and lo[k] <= merged[-1][1] + MERGE_TOLERANCE:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi[k]))
        else:
            merged.append((float(lo[k]), float(hi[k])))
    return merged


def footprint_center_by_intervals(x, team):
    """The interval-merge footprint: the oracle of ``footprint_center``."""
    out = np.empty(2)
    for axis in (0, 1):
        merged = disk_intervals(x, team, axis)
        lo = min(m[0] for m in merged)
        hi = max(m[1] for m in merged)
        out[axis] = 0.5 * (lo + hi)
    return out


def line_state(gaps):
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    return from_poses(
        [Pose2(np.eye(2), np.array([x, 0.0])) for x in xs[1:]])


class TestGenerateWaypoints:
    def test_single_leg_two_corners(self):
        wps = generate_waypoints((10.0, 24.0), 10.0)
        assert wps.shape == (2, 2)
        np.testing.assert_allclose(wps, [[5.0, 0.0], [5.0, 24.0]])

    def test_two_legs_four_corners(self):
        wps = generate_waypoints((10.0, 24.0), 5.0)
        assert wps.shape == (4, 2)
        np.testing.assert_allclose(wps, [[2.5, 0.0], [2.5, 24.0], [7.5, 24.0], [7.5, 0.0]])

    def test_consecutive_corners_rectilinear(self):
        wps = generate_waypoints((10.0, 24.0), 3.0)
        for a, b in zip(wps[:-1], wps[1:]):
            changed = np.sum(~np.isclose(a, b))
            assert changed == 1

    def test_legs_cover_width(self):
        wps = generate_waypoints((10.0, 24.0), 4.0)
        xs = np.unique(wps[:, 0])
        assert len(xs) == 3  # ceil(10/4)
        spacing = np.diff(xs)
        assert np.all(spacing <= 4.0 + 1e-12)
        assert xs[0] <= spacing[0] / 2 + 1e-12      # first band reaches the left edge
        assert xs[-1] >= 10.0 - spacing[-1] / 2 - 1e-12

    def test_wider_sweep_never_more_corners(self):
        prev = np.inf
        for sweep in (1.0, 2.0, 3.0, 5.0, 10.0):
            n = len(generate_waypoints((10.0, 24.0), sweep))
            assert n <= prev
            prev = n

    def test_sweep_wider_than_area_rejected(self):
        with pytest.raises(ValueError, match="sweep width"):
            generate_waypoints((10.0, 24.0), 11.0)
        with pytest.raises(ValueError, match="sweep width"):
            generate_waypoints((10.0, 24.0), 0.0)


class TestSweepWidth:
    def test_single_robot_disk(self):
        team = TeamConfig.uniform(2, camera_radius=0.5)
        x = from_poses([Pose2(np.eye(2), np.array([0.0, 5.0]))])
        # two stacked disks in y: x-extent is one diameter
        assert formation_sweep_width(x, team) == pytest.approx(1.0)

    def test_two_tangent_disks(self):
        team = TeamConfig.uniform(2, camera_radius=0.5)
        x = line_state([1.0])
        assert formation_sweep_width(x, team) == pytest.approx(2.0)

    def test_disconnected_union_uses_narrowest_piece(self):
        team = TeamConfig.uniform(2, camera_radius=0.5)
        x = line_state([5.0])
        assert formation_sweep_width(x, team) == pytest.approx(1.0)

    def test_against_rasterization_oracle(self):
        # 1 cm rasterization of the disk union's x-extent
        team = TeamConfig.uniform(5, camera_radius=0.5)
        x = line_state([0.89, 0.87, 0.9, 0.88])
        grid = np.arange(-1.0, 5.5, 0.01)
        pos = x.positions()
        covered = np.zeros_like(grid, dtype=bool)
        for p in pos:
            covered |= np.abs(grid - p[0]) <= 0.5
        runs = np.flatnonzero(covered)
        extent = grid[runs[-1]] - grid[runs[0]]
        assert abs(formation_sweep_width(x, team) - extent) < 0.01
        assert np.all(covered[runs[0]:runs[-1] + 1])  # no interior gap

    def test_footprint_center_of_symmetric_line(self):
        team = TeamConfig.uniform(3, camera_radius=0.5)
        x = line_state([1.0, 1.0])
        np.testing.assert_allclose(footprint_center(x, team), [1.0, 0.0])

    def test_footprint_center_equals_interval_merge(self):
        # random teams and spreads: connected and split disk unions alike
        rng = np.random.default_rng(5)
        n_split = 0
        for _ in range(300):
            n = int(rng.integers(2, 9))
            team = TeamConfig.uniform(n, camera_radius=float(rng.uniform(0.1, 1.0)))
            cfg = OptimizerConfig(init_box=float(rng.uniform(0.2, 6.0)), min_init_separation=0.0)
            x = random_formation(n, rng, cfg)
            n_split += len(disk_intervals(x, team, 0)) > 1 or len(disk_intervals(x, team, 1)) > 1
            np.testing.assert_array_equal(footprint_center(x, team),
                                          footprint_center_by_intervals(x, team))
        assert 50 < n_split < 250
