"""Leader-follower velocity control for holonomic (quadcopter-style) robots.

The leader chases the active waypoint; each follower chases its slot,
defined as the leader's pose composed with the desired relative pose.
Commands are body-frame twists [omega, vx, vy]; translational speed is
norm-capped and heading tracks the formation heading with a proportional
rate, so the formation's orientation stays pinned to the leader's heading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from covform.covsim.config import ControlGains
from covform.se2 import FormationState


@dataclass(frozen=True)
class Controller:
    """The constants of one trial's controller, built once from the desired
    formation and the gains: the slot offsets and the slot headings, as floats."""

    offsets: tuple[tuple[float, float], ...]  # N-1 slot positions in the leader frame
    slot_heading: tuple[float, ...]           # N-1 slot headings relative to the leader
    gains: ControlGains

    @classmethod
    def build(cls, x_des: FormationState, gains: ControlGains) -> "Controller":
        heading = np.arctan2(x_des.C[:, 1, 0], x_des.C[:, 0, 0])
        return cls(tuple(map(tuple, x_des.r.tolist())), tuple(heading.tolist()), gains)


def _wrap(phi: float) -> float:
    """phi wrapped to (-pi, pi]."""
    w = math.atan2(math.sin(phi), math.cos(phi))
    return math.pi if w == -math.pi else w


def control_step(leader_goal: np.ndarray, ang: np.ndarray, pos: np.ndarray,
                 ctrl: Controller) -> tuple[np.ndarray, float]:
    """Commanded body twists (N,3) for every robot plus the formation error norm.

    ang/pos are current true headings (N,) and positions (N,2) in the
    global frame, robot 1 first. The error norm stacks every follower's
    slot-position error; the waypoint gate thresholds it. The twists are
    worked out robot by robot on Python floats, the leader-frame rotations
    written out (c x - s y, s x + c y): up to about 16 robots this beats the
    dispatch of numpy calls on (N,2) arrays (at 64 it takes about twice as long).
    """
    gains = ctrl.gains
    cap, k_form, k_head = gains.speed_cap, gains.formation, gains.heading
    cos, sin, sqrt = math.cos, math.sin, math.sqrt
    phi0, *phis = ang.tolist()
    (x0, y0), *xys = pos.tolist()
    gx, gy = leader_goal.tolist()
    c0, s0 = cos(phi0), sin(phi0)

    # leader: saturated pull toward the waypoint, heading regulated to 0
    vx, vy = gains.waypoint * (gx - x0), gains.waypoint * (gy - y0)
    speed = sqrt(vx * vx + vy * vy)
    if speed > cap:
        vx, vy = vx * (cap / speed), vy * (cap / speed)
    out = [k_head * _wrap(-phi0), c0 * vx + s0 * vy, c0 * vy - s0 * vx]

    # followers: slot = leader pose composed with the desired relative pose;
    # each command is the capped pull toward it in the follower's body frame
    sq = 0.0
    for (ox, oy), heading, phi, (x, y) in zip(ctrl.offsets, ctrl.slot_heading, phis, xys):
        ex = x0 + (c0 * ox - s0 * oy) - x
        ey = y0 + (s0 * ox + c0 * oy) - y
        sq += ex * ex + ey * ey
        vx, vy = k_form * ex, k_form * ey
        speed = sqrt(vx * vx + vy * vy)
        if speed > cap:
            vx, vy = vx * (cap / speed), vy * (cap / speed)
        c, s = cos(phi), sin(phi)
        out += (k_head * _wrap(phi0 + heading - phi), c * vx + s * vy, c * vy - s * vx)
    return np.array(out).reshape(-1, 3), sqrt(sq)
