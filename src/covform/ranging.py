"""Range measurement model, its Jacobian under the right-perturbation, and the FIM.

The Jacobian is derived in closed form here rather than transcribed. For a
tag at body-frame offset a on robot p (pose T with rotation C), its world
position under a right perturbation xi = [phi, rho] is

    pos(xi) = C (R(phi) a + V(phi) rho) + r,

so at xi = 0

    d pos / d phi = C S a,      d pos / d rho = C,

with S the 90-degree generator. A range row for edge (i, j) is then
(rho_ij / |rho_ij|)^T times the position Jacobians, positive for the
endpoint on robot p and negative for the one on robot q. ``range_rows``
builds each row as these two 3-column blocks, one per endpoint robot,
batched over rows and stacked formations. The design scatters them into a
dense Jacobian and drops robot 1's columns (robot 1 is the reference, not
a state there). The EKF builds the same rows one event at a time from
Python floats (``covsim.ekf._measurement_rows``) and folds each in over its
six columns alone; its tests hold those rows equal to ``range_rows`` bit
for bit. Everything is validated against central finite differences in
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from covform.se2 import FormationState, _matvec
from covform.team import RangeGraph, TeamConfig

# Range rows are undefined below this separation (norm gradient blows up).
DEGENERATE_RANGE = 1e-9


@dataclass(frozen=True, eq=False)
class _EdgeIndex:
    """Precomputed tag/edge arrays; built once per (team, graph) pair."""

    n_robots: int
    tag_robot: np.ndarray   # (T,) 0-based robot index per global tag
    tag_body: np.ndarray    # (T,2) body-frame tag positions
    tag_perp: np.ndarray    # (T,2) S @ tag_body, the rotation derivative lever
    tag_cols: np.ndarray    # (T,3) state columns [phi, x, y] of each tag's robot
    edge_i: np.ndarray      # (E,) flat tag index of first endpoint
    edge_j: np.ndarray
    sigma: np.ndarray       # (E,)


@lru_cache(maxsize=64)
def _edge_index(team: TeamConfig, graph: RangeGraph) -> _EdgeIndex:
    tag_robot = team.tag_robot
    tag_body = np.array([o for r in team.robots for o in r.tag_offsets], dtype=np.float64)
    tag_perp = np.stack([-tag_body[:, 1], tag_body[:, 0]], axis=1)
    edge_i, edge_j = np.array(graph.edges, dtype=np.intp).reshape(-1, 2).T - 1
    outside = (edge_i < 0) | (edge_j >= team.n_tags)
    if np.any(outside):
        k = int(np.argmax(outside))
        raise ValueError(f"edge {graph.edges[k]} names a tag outside 1..{team.n_tags}")
    same = tag_robot[edge_i] == tag_robot[edge_j]
    if np.any(same):
        k = int(np.argmax(same))
        raise ValueError(
            f"edge {graph.edges[k]} connects two tags on robot {tag_robot[edge_i[k]] + 1}")
    return _EdgeIndex(
        n_robots=team.n_robots, tag_robot=tag_robot, tag_body=tag_body, tag_perp=tag_perp,
        tag_cols=3 * tag_robot[:, None] + np.arange(3), edge_i=edge_i, edge_j=edge_j,
        sigma=np.asarray(graph.sigmas, dtype=np.float64),
    )


def frames(C: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (...,N,2,2) and positions (...,N,2) of all robots, robot 1 at
    the identity, from the N-1 poses of one formation or a stack of them."""
    lead = r.shape[:-2] + (1,)
    return (np.concatenate([np.broadcast_to(np.eye(2), lead + (2, 2)), C], axis=-3),
            np.concatenate([np.zeros(lead + (2,)), r], axis=-2))


_NO_POINTS = np.zeros((0, 2))


def range_rows(idx: _EdgeIndex, C: np.ndarray, r: np.ndarray, tag_i: np.ndarray,
               tag_j: np.ndarray, points: np.ndarray = _NO_POINTS,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Range rows as two 3-column blocks [phi, x, y] per row, one per endpoint robot.

    Row k ranges from tag tag_i[k] to tag tag_j[k] for the first len(tag_j)
    rows, and to the fixed point points[k - len(tag_j)] after them. Returns
    (Hi (M, 3) on robot tag_robot[tag_i], Hj (M, 3) on robot tag_robot[tag_j]
    and zero for point rows, ranges (M,), unit vectors (M,2), validity mask
    (M,)); a row whose range is not above DEGENERATE_RANGE is invalid and has
    unit 0. Only the endpoint tags are placed. Batch axes leading C and r lead
    every output; points need unbatched poses.
    """
    m, e = tag_i.shape[0], tag_j.shape[0]
    tags = np.concatenate([tag_i, tag_j])
    robots = idx.tag_robot[tags]
    Ct = C[..., robots, :, :]
    pos = _matvec(Ct, idx.tag_body[tags]) + r[..., robots, :]
    # rotation derivative of each endpoint tag position: C_p (S a)
    lever = _matvec(Ct, idx.tag_perp[tags])

    far = np.concatenate([pos[m:], points]) if points.shape[0] else pos[..., m:, :]
    diff = pos[..., :m, :] - far
    rng = np.sqrt(diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1])
    valid = rng > DEGENERATE_RANGE
    if valid.all():  # the common case needs no masking
        unit = diff / rng[..., None]
    else:
        unit = np.where(valid[..., None], diff / np.where(valid, rng, 1.0)[..., None], 0.0)

    # phi column: u . (C S a); rho columns: u^T C; + for tag_i's robot, - for tag_j's
    u = np.concatenate([unit, -unit[..., :e, :]], axis=-2)
    blocks = np.empty(u.shape[:-1] + (3,))
    blocks[..., 0] = u[..., 0] * lever[..., 0] + u[..., 1] * lever[..., 1]
    blocks[..., 1:] = u[..., 0, None] * Ct[..., 0, :] + u[..., 1, None] * Ct[..., 1, :]
    Hj = blocks[..., m:, :]
    if m > e:
        Hj = np.concatenate([Hj, np.zeros(Hj.shape[:-2] + (m - e, 3))], axis=-2)
    return blocks[..., :m, :], Hj, rng, unit, valid


def predict_all(x: FormationState, team: TeamConfig, graph: RangeGraph) -> np.ndarray:
    """Stacked ranges over the graph's (sorted) edge order."""
    idx = _edge_index(team, graph)
    return range_rows(idx, *frames(x.C, x.r), idx.edge_i, idx.edge_j)[2]


def jacobian_many(idx: _EdgeIndex, C: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(B, E, 3(N-1)) Jacobians of B stacked formations from their N frames
    (see ``frames``); raises on the first near-zero range in stack order."""
    Hi, Hj, rng, _, valid = range_rows(idx, C, r, idx.edge_i, idx.edge_j)
    if not np.all(valid):
        b, k = np.unravel_index(np.argmin(valid), valid.shape)
        edge = (int(idx.edge_i[k]) + 1, int(idx.edge_j[k]) + 1)
        raise ValueError(f"singular geometry: edge {edge} has near-zero range {rng[b, k]:.3g}")
    H = np.zeros(rng.shape + (3 * idx.n_robots,))
    rows = np.arange(rng.shape[-1])[:, None]
    H[..., rows, idx.tag_cols[idx.edge_i]] = Hi
    H[..., rows, idx.tag_cols[idx.edge_j]] = Hj
    return H[..., 3:]  # robot 1 is the reference, not a state


def jacobian(x: FormationState, team: TeamConfig, graph: RangeGraph) -> np.ndarray:
    """(E, 3(N-1)) Jacobian of predict_all wrt the oplus perturbation at zero."""
    C, r = frames(x.C[None], x.r[None])
    return jacobian_many(_edge_index(team, graph), C, r)[0]


def fisher_many(idx: _EdgeIndex, H: np.ndarray) -> np.ndarray:
    """FIMs H_b^T R^{-1} H_b (B,D,D), R = diag(sigma_ij^2). One 2-D ``h.T @ h``
    per formation rounds like the one-formation FIM; a stacked matmul need not."""
    Hw = H / idx.sigma[:, None]
    F = np.array([h.T @ h for h in Hw])
    return 0.5 * (F + F.swapaxes(1, 2))


def fisher(x: FormationState, team: TeamConfig, graph: RangeGraph) -> np.ndarray:
    """Fisher information of one formation; the one-row case of fisher_many."""
    return fisher_many(_edge_index(team, graph), jacobian(x, team, graph)[None])[0]
