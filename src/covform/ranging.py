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
batched over rows and stacked formations, each tag placed once. The design
scatters the blocks that are not on robot 1 (robot 1 is the reference, not a
state there) into (B, E, 3(N-1)) Jacobians and takes all FIMs in one
product; the cost's est term scatters into a zero-filled buffer the edge
index owns and reuses, rewriting only the block entries. The EKF
builds the same rows one at a time from Python floats (``covsim.ekf._edge_row``
and ``_landmark_row``), each folded in over its columns alone; its tests
hold those rows, landmark rows included, equal bit for bit to
``range_rows_gather`` in tests/helpers.py, the oracle of ``range_rows``
for any tags and fixed points.
Everything is validated against central finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from covform.se2 import FormationState
from covform.team import RangeGraph, TeamConfig

# Range rows are undefined below this separation (norm gradient blows up).
DEGENERATE_RANGE = 1e-9

_IDENTITY = np.eye(2)  # robot 1's rotation in every frame


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
    tags: np.ndarray        # (2E,) edge_i then edge_j: the tag of each range_rows block
    # the 3K entries of the K range_rows blocks not on robot 1 (a state's blocks):
    free_src: np.ndarray    # (3K,) index of each in flat (2E,3) blocks
    free_dst: np.ndarray    # (3K,) index of each in a flat (E,3(N-1)) Jacobian
    free_sigma: np.ndarray  # (3K,) the sigma of each one's row
    # the weighted Jacobians of costs.est_many, one buffer reused across calls
    scratch: dict = field(default_factory=dict, repr=False)


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
    tag_cols, sigma = 3 * tag_robot[:, None] + np.arange(3), np.asarray(graph.sigmas, float)
    tags = np.concatenate([edge_i, edge_j])
    free = np.flatnonzero(tag_robot[tags] > 0)
    row = np.repeat(free % edge_i.shape[0], 3)
    return _EdgeIndex(
        n_robots=team.n_robots, tag_robot=tag_robot, tag_body=tag_body, tag_perp=tag_perp,
        tag_cols=tag_cols, edge_i=edge_i, edge_j=edge_j, sigma=sigma, tags=tags,
        free_src=(3 * free[:, None] + np.arange(3)).ravel(),
        free_dst=3 * (team.n_robots - 1) * row + tag_cols[tags[free]].ravel() - 3,
        free_sigma=sigma[row])


def frames(C: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (...,N,2,2) and positions (...,N,2) of all robots, robot 1 at
    the identity, from the N-1 poses of one formation or a stack of them."""
    lead = r.shape[:-2] + (r.shape[-2] + 1,)
    Cf, rf = np.empty(lead + (2, 2)), np.empty(lead + (2,))
    Cf[..., 0, :, :], Cf[..., 1:, :, :] = _IDENTITY, C
    rf[..., 0, :], rf[..., 1:, :] = 0.0, r
    return Cf, rf


def range_rows(idx: _EdgeIndex, C: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, ...]:
    """Range rows of the graph's edges as 3-column blocks [phi, x, y], one per endpoint robot.

    Returns (blocks (2E, 3), edge k's block on robot tag_robot[edge_i[k]] at k
    and on robot tag_robot[edge_j[k]] at E + k; ranges (E,); unit vectors
    (E,2); validity mask (E,)); a row whose range is not above
    DEGENERATE_RANGE is invalid and has unit 0. Each tag is placed once.
    Batch axes leading C and r lead every output.
    """
    # coordinates lead while the rows are built; ndarray.take is a C-ordered gather
    d = C.ndim
    rot = C.transpose(d - 2, d - 1, *range(d - 2)).take(idx.tag_robot, -1)  # (2,2,...,T)
    a, s = idx.tag_body.T, idx.tag_perp.T
    pos = (rot[:, 0] * a[0] + rot[:, 1] * a[1]
           + r.transpose(d - 2, *range(d - 2)).take(idx.tag_robot, -1))
    # rotation derivative of each tag position: C_p (S a)
    lever = rot[:, 0] * s[0] + rot[:, 1] * s[1]

    diff = pos.take(idx.edge_i, -1) - pos.take(idx.edge_j, -1)
    rng = np.sqrt(diff[0] * diff[0] + diff[1] * diff[1])
    valid = rng > DEGENERATE_RANGE
    unit = np.where(valid, diff / np.where(valid, rng, 1.0), 0.0)

    # phi column: u . (C S a); rho columns: u^T C; + for edge_i's robot, - for edge_j's
    u = np.concatenate([unit, -unit], axis=-1)
    lev, Ce = lever.take(idx.tags, -1), rot.take(idx.tags, -1)
    blocks = np.empty(rng.shape[:-1] + idx.tags.shape + (3,))
    blocks[..., 0] = u[0] * lev[0] + u[1] * lev[1]
    blocks[..., 1] = u[0] * Ce[0, 0] + u[1] * Ce[1, 0]
    blocks[..., 2] = u[0] * Ce[0, 1] + u[1] * Ce[1, 1]
    return blocks, rng, unit.transpose(*range(1, d - 1), 0), valid


def predict_all(x: FormationState, team: TeamConfig, graph: RangeGraph) -> np.ndarray:
    """Stacked ranges over the graph's (sorted) edge order."""
    idx = _edge_index(team, graph)
    return range_rows(idx, *frames(x.C, x.r))[1]


def _scatter(idx: _EdgeIndex, C: np.ndarray, r: np.ndarray, weighted: bool,
             H: np.ndarray) -> np.ndarray:
    """Write the Jacobians of ``jacobian_many`` into H (B, E, 3(N-1)) and return it.

    Only the entries of the blocks not on robot 1 are written, the same
    entries at every call, so every other entry of H must be zero already.
    Raises on the first near-zero range in stack order, before H is written.
    """
    blocks, rng, _, valid = range_rows(idx, C, r)
    if not valid.all():
        b, k = np.unravel_index(np.argmin(valid), valid.shape)
        edge = (int(idx.edge_i[k]) + 1, int(idx.edge_j[k]) + 1)
        raise ValueError(f"singular geometry: edge {edge} has near-zero range {rng[b, k]:.3g}")
    lead = rng.shape[:-1] + (-1,)
    free = blocks.reshape(lead).take(idx.free_src, -1)
    H.reshape(lead)[..., idx.free_dst] = free / idx.free_sigma if weighted else free
    return H


def jacobian_many(idx: _EdgeIndex, C: np.ndarray, r: np.ndarray,
                  weighted: bool = False) -> np.ndarray:
    """(B, E, 3(N-1)) Jacobians of B stacked formations from their N frames
    (see ``frames``), each row divided by its sigma if ``weighted``; raises
    on the first near-zero range in stack order. Robot 1 is the reference,
    not a state: its blocks are dropped. A fresh array at every call."""
    return _scatter(idx, C, r, weighted,
                    np.zeros(r.shape[:-2] + (idx.edge_i.shape[0], 3 * idx.n_robots - 3)))


def jacobian(x: FormationState, team: TeamConfig, graph: RangeGraph) -> np.ndarray:
    """(E, 3(N-1)) Jacobian of predict_all wrt the oplus perturbation at zero."""
    return jacobian_many(_edge_index(team, graph), *frames(x.C[None], x.r[None]))[0]


def fisher_many(Hw: np.ndarray) -> np.ndarray:
    """FIMs Hw_b^T Hw_b (B,D,D) of weighted Jacobians Hw = R^{-1/2} H, R = diag(sigma^2),
    in one product, which numpy takes by BLAS syrk per matrix as for one: each FIM
    is symmetric, with the bits of its own 2-D ``h.T @ h`` (tests/test_ranging.py)."""
    return Hw.swapaxes(-1, -2) @ Hw


def fisher(x: FormationState, team: TeamConfig, graph: RangeGraph) -> np.ndarray:
    """Fisher information of one formation; the one-row case of fisher_many."""
    return fisher_many(jacobian(x, team, graph) / _edge_index(team, graph).sigma[:, None])
