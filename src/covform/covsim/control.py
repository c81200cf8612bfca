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
from covform.se2 import FormationState, wrap_angle


@dataclass(frozen=True)
class Controller:
    """The constants of one trial's controller, built once from the desired
    formation and the gains: the slot offsets and the slot headings."""

    offsets: np.ndarray          # (N-1, 2) slot positions in the leader frame
    slot_heading: np.ndarray     # (N-1,) slot headings relative to the leader
    gains: ControlGains

    @classmethod
    def build(cls, x_des: FormationState, gains: ControlGains) -> "Controller":
        return cls(x_des.r, np.arctan2(x_des.C[:, 1, 0], x_des.C[:, 0, 0]), gains)


def control_step(leader_goal: np.ndarray, ang: np.ndarray, pos: np.ndarray,
                 ctrl: Controller, trig: tuple[np.ndarray, np.ndarray],
                 ) -> tuple[np.ndarray, float]:
    """Commanded body twists for every robot plus the formation error norm.

    ang/pos are current true headings (N,) and positions (N,2) in the
    global frame, robot 1 first; trig is (cos(ang), sin(ang)).
    The error norm stacks every follower's slot-position error; the
    waypoint gate thresholds it.
    """
    gains = ctrl.gains
    cap = gains.speed_cap
    c, s = trig
    R0 = np.array([[c[0], -s[0]], [s[0], c[0]]])

    # leader: saturated pull toward the waypoint, heading regulated to 0
    v1 = gains.waypoint * (leader_goal - pos[0])
    speed = math.sqrt(v1.dot(v1))
    if speed > cap:
        v1 *= cap / speed

    # followers: slot = leader pose composed with the desired relative pose;
    # cap / max(speed, cap) is exactly 1 under the cap
    err = pos[0] + ctrl.offsets @ R0.T - pos[1:]
    v = gains.formation * err
    vx, vy = v[:, 0], v[:, 1]
    scale = cap / np.maximum(np.sqrt(vx * vx + vy * vy), cap)
    vx *= scale
    vy *= scale

    # body-frame twists R_p^T v_p; the leader keeps its matrix product,
    # whose rounding differs from the elementwise form
    heading_err = np.concatenate(([-ang[0]], ang[0] + ctrl.slot_heading - ang[1:]))
    u = np.empty((ang.shape[0], 3))
    u[:, 0] = gains.heading * wrap_angle(heading_err)
    u[0, 1:] = R0.T @ v1
    c, s = c[1:], s[1:]
    u[1:, 1] = c * vx + s * vy
    u[1:, 2] = c * vy - s * vx

    formation_error = math.sqrt(np.einsum("ij,ij->", err, err))
    return u, formation_error
