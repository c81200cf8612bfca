"""Leader-follower velocity control for holonomic (quadcopter-style) robots.

The leader chases the active waypoint; each follower chases its slot,
defined as the leader's pose composed with the desired relative pose.
Commands are body-frame twists [omega, vx, vy]; translational speed is
norm-capped and heading tracks the formation heading with a proportional
rate, so the formation's orientation stays pinned to the leader's heading.
"""

from __future__ import annotations

import numpy as np

from covform.covsim.config import ControlGains
from covform.se2 import FormationState, _rot_many, wrap_angle


def control_step(leader_goal: np.ndarray, ang: np.ndarray, pos: np.ndarray,
                 x_des: FormationState, gains: ControlGains) -> tuple[np.ndarray, float]:
    """Commanded body twists for every robot plus the formation error norm.

    ang/pos are current true headings (N,) and positions (N,2) in the
    global frame, robot 1 first. The error norm stacks every follower's
    slot-position error; the waypoint gate thresholds it.
    """
    R = _rot_many(ang)

    # leader: saturated pull toward the waypoint, heading regulated to 0
    v1 = gains.waypoint * (leader_goal - pos[0])
    speed = float(np.linalg.norm(v1))
    if speed > gains.speed_cap:
        v1 *= gains.speed_cap / speed

    # followers: slot = leader pose composed with the desired relative pose
    slot_pos = pos[0] + x_des.r @ R[0].T                    # (N-1,2)
    slot_ang = ang[0] + np.arctan2(x_des.C[:, 1, 0], x_des.C[:, 0, 0])
    err = slot_pos - pos[1:]
    v = gains.formation * err
    speeds = np.linalg.norm(v, axis=1)
    over = speeds > gains.speed_cap
    v[over] *= (gains.speed_cap / speeds[over])[:, None]

    # body-frame twists R_p^T v_p; the leader keeps its matrix product,
    # whose rounding differs from the elementwise form
    heading_err = np.concatenate(([-ang[0]], slot_ang - ang[1:]))
    u = np.empty((ang.shape[0], 3))
    u[:, 0] = gains.heading * wrap_angle(heading_err)
    u[0, 1:] = R[0].T @ v1
    u[1:, 1] = R[1:, 0, 0] * v[:, 0] + R[1:, 1, 0] * v[:, 1]
    u[1:, 2] = R[1:, 0, 1] * v[:, 0] + R[1:, 1, 1] * v[:, 1]

    formation_error = float(np.sqrt(np.einsum("ij,ij->", err, err)))
    return u, formation_error
