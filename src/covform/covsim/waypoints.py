"""Square-wave (boustrophedon) corner waypoints and formation sweep width."""

from __future__ import annotations

import math

import numpy as np

from covform.se2 import FormationState
from covform.team import TeamConfig


def generate_waypoints(area: tuple[float, float], sweep_width: float) -> np.ndarray:
    """Corner sequence of a vertical-leg square wave covering the rectangle.

    Legs are spaced so the given sweep width tiles the area's width; the
    path enters at the bottom of the first leg and alternates up/down.
    Returns a (2*legs, 2) array of corners; consecutive corners differ in
    exactly one coordinate.
    """
    width, height = area
    if not 0 < sweep_width <= width:
        raise ValueError(f"sweep width {sweep_width:.3g} must be in (0, {width:.3g}]")
    legs = math.ceil(width / sweep_width)
    spacing = width / legs
    xs = (np.arange(legs) + 0.5) * spacing
    corners = []
    for i, x in enumerate(xs):
        lo, hi = (0.0, height) if i % 2 == 0 else (height, 0.0)
        corners.append((x, lo))
        corners.append((x, hi))
    return np.array(corners)


# disk unions separated by less than this are treated as connected; keeps
# exactly-tangent formations (adjacent gaps = radius sums) off a knife edge
MERGE_TOLERANCE = 1e-2


def formation_sweep_width(x: FormationState, team: TeamConfig) -> float:
    """Width of the gap-free band swept when the formation travels vertically.

    With a connected union of camera disks this is the full horizontal
    extent; if the union is split, the width of the narrowest piece is
    returned so legs at that spacing still tile every piece without gaps.
    """
    pos = x.positions()[:, 0]
    radii = team.camera_radii()
    lo = pos - radii
    hi = pos + radii
    merged: list[tuple[float, float]] = []
    for k in np.argsort(lo):
        if merged and lo[k] <= merged[-1][1] + MERGE_TOLERANCE:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi[k]))
        else:
            merged.append((float(lo[k]), float(hi[k])))
    return min(end - start for start, end in merged)


def footprint_center(x: FormationState, team: TeamConfig) -> np.ndarray:
    """Center of the camera-footprint bounding box, in the leader's frame.

    Leg waypoints position this point (not the leader) on the sweep line.
    """
    pos, radii = x.positions(), team.camera_radii()[:, None]
    return 0.5 * (np.min(pos - radii, axis=0) + np.max(pos + radii, axis=0))
