"""Sort robot ids into formation slots by travel distance.

Robots start anywhere; the target formation defines one slot per robot.
Assigning robots to slots so the fleet travels the least total (squared)
distance is a linear assignment problem, solved with the Hungarian
algorithm (shortest augmenting path with potentials, O(n^3)) instead of
brute force. Robot 1 is the reference and always keeps slot 1.
"""

from __future__ import annotations

import numpy as np

from covform.se2 import FormationState
from covform.team import SortedIds, TeamConfig

_TIE_TOL = 1e-9


def _lsap(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-cost square assignment by shortest augmenting paths. Returns
    (col_of_row, u, v): potentials with cost - u[:, None] - v >= 0 everywhere
    and 0 on the assignment, up to rounding."""
    n = cost.shape[0]
    c = np.pad(cost, ((1, 0), (1, 0)))  # row and column 0 are the search's root
    u, v = np.zeros(n + 1), np.zeros(n + 1)
    row_of_col = np.zeros(n + 1, dtype=int)  # 0 means unassigned
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        row_of_col[0], j0 = i, 0
        minv, used = np.full(n + 1, np.inf), np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = row_of_col[j0]
            cur = c[i0] - u[i0] - v
            better = ~used & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            j0 = int(np.argmin(np.where(used, np.inf, minv)))  # the first minimum
            delta = minv[j0]
            u[row_of_col[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            if row_of_col[j0] == 0:
                break
        while j0:  # augment along the path back to the root
            row_of_col[j0], j0 = row_of_col[way[j0]], way[j0]
    col_of_row = np.empty(n, dtype=int)
    col_of_row[row_of_col[1:] - 1] = np.arange(n)
    return col_of_row, u[1:], v[1:]


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Optimal assignment for a square cost matrix.

    Returns col_of_row: row i is assigned column col_of_row[i]. Among
    optimal assignments, the lexicographically smallest one is returned,
    which makes downstream id sorting deterministic across platforms. One
    solve's potentials mark the tight entries (reduced cost within
    _TIE_TOL * max(1, |best|) of 0), and every optimal assignment uses only
    those; an assignment whose every entry is tight counts as optimal.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    n = cost.shape[0]
    col_of_row, u, v = _lsap(cost)
    best = float(cost[np.arange(n), col_of_row].sum())
    tight = cost - u[:, None] - v <= _TIE_TOL * max(1.0, abs(best))
    tight[np.arange(n), col_of_row] = True  # 0 up to rounding by construction
    tight_cols = [np.flatnonzero(t).tolist() for t in tight]
    col, row = col_of_row.tolist(), np.argsort(col_of_row).tolist()

    def take(k: int, freed: int, seen: set[int]) -> bool:
        """Row k takes its smallest tight column whose row, and so on, can give
        way along one alternating path of tight entries ending in column freed;
        rows in seen do not move."""
        for j in tight_cols[k]:
            if j == freed or (row[j] not in seen  # set.add returns None
                              and (seen.add(row[j]) or take(row[j], freed, seen))):
                col[k], row[j] = j, k
                return True
        return False

    for i in range(n):  # lexicographic refinement: rows in order, earlier ones fixed
        take(i, col[i], set(range(i + 1)))
    return np.array(col, dtype=int)


def travel_cost_matrix(x: FormationState, team: TeamConfig,
                       directions: np.ndarray) -> np.ndarray:
    """(N-1)x(N-1) matrix of squared distances from robots to slot targets.

    Slot targets are the cumulative sums of d_avg * direction_k with
    d_avg = (2/N) * sum of camera radii, i.e. an average-diameter mockup
    of the goal formation used only to decide the ordering.
    """
    n = team.n_robots
    directions = np.asarray(directions, dtype=np.float64)
    if directions.shape != (n - 1, 2):
        raise ValueError(f"need {n - 1} direction vectors, got shape {directions.shape}")
    d_avg = 2.0 / n * float(team.camera_radii().sum())
    targets = np.cumsum(d_avg * directions, axis=0)   # slot i+2 target
    diff = targets[:, None, :] - x.r[None, :, :]      # robots 2..N positions
    return np.einsum("ijk,ijk->ij", diff, diff)


def sort_robot_ids(x: FormationState, team: TeamConfig, directions) -> SortedIds:
    """Assign robots 2..N to formation slots minimizing total travel.

    Slot 1 is pinned to robot 1. Returns the slot order and the camera
    radii re-indexed to it.
    """
    cost = travel_cost_matrix(x, team, np.asarray(directions, dtype=np.float64))
    col_of_slot = hungarian(cost)
    order = (1,) + tuple(int(j) + 2 for j in col_of_slot)
    radii = tuple(team.robots[r - 1].camera_radius for r in order)
    return SortedIds(order, radii)
