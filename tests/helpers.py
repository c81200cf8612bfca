"""Helpers only the tests use: scalar pose constructors, the SE(2) adjoint,
the batched right-exp step (the pose step's oracle), every tag's world
position, the per-endpoint range rows (of any tags and fixed points, the EKF
rows' oracle), Jacobian and per-formation FIM of the design, the one-pair
collision barrier, the scalar composition of the objective, a plain cost
function in the shape of an objective, a plain multistart over
``optimizer.minimize``, the re-solving assignment oracle, the landmark-init
oracle composed of per-gate buffer measures and the EKF's rows-then-fold
update."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from covform import costs, se2
from covform.covsim import ekf
from covform.optimizer import OptimizationTrace, OptimizerConfig, minimize, random_formation
from covform.ranging import DEGENERATE_RANGE, _EdgeIndex


def from_angle(phi: float, r=(0.0, 0.0)) -> se2.Pose2:
    """Pose with heading phi and translation r."""
    return se2.Pose2(se2.rot2(phi), np.asarray(r, dtype=np.float64))


def adjoint(T: se2.Pose2) -> np.ndarray:
    """3x3 adjoint of T under the [phi, rho] twist ordering, which satisfies
    T * exp(xi) = exp(Ad_T xi) * T: the oracle of ``ekf.transitions``' F."""
    S = np.array([[0.0, -1.0], [1.0, 0.0]])  # 90 deg rotation generator
    A = np.eye(3)
    A[1:, 0] = -(S @ T.r)
    A[1:, 1:] = T.C
    return A


def exp_step_numpy(ang: np.ndarray, pos: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Right-exp step on stacked poses, in place: T_p <- T_p exp(xi_p) for
    headings ``ang`` (N,), positions ``pos`` (N,2) and twists xi (N,3), all
    robots in one pass of numpy calls, V(phi) rho from ``se2._V_apply``;
    returns those translations. The oracle of ``se2.exp_step``."""
    t = se2._V_apply(xi[:, 0], xi[:, 1:])
    c, s = np.cos(ang), np.sin(ang)
    tx, ty = t[:, 0], t[:, 1]
    pos[:, 0] += c * tx - s * ty
    pos[:, 1] += s * tx + c * ty
    ang += xi[:, 0]
    return t


def from_poses(poses: list[se2.Pose2]) -> se2.FormationState:
    """Formation of robots 2..N from their poses relative to robot 1."""
    if not poses:
        raise ValueError("a formation needs at least one non-reference robot")
    return se2.FormationState(np.array([p.C for p in poses]), np.array([p.r for p in poses]))


def world_tags(idx: _EdgeIndex, C: np.ndarray, r: np.ndarray) -> np.ndarray:
    """World positions (...,T,2) of every tag for robot rotations C (...,N,2,2)
    and positions r (...,N,2): the oracle of the tag placement in
    ``ranging.range_rows`` and ``EkfState.tag_position``."""
    return se2._matvec(C[..., idx.tag_robot, :, :], idx.tag_body) + r[..., idx.tag_robot, :]


def range_rows_gather(idx: _EdgeIndex, C: np.ndarray, r: np.ndarray, tag_i: np.ndarray,
                      tag_j: np.ndarray, points: np.ndarray = np.zeros((0, 2))):
    """Oracle of ``ranging.range_rows``, with its outputs on the graph's edges:
    every one of the M + E endpoints placed from its own (..., M + E, 2, 2)
    gather of the robot rotations, as the design did before tags were placed
    once each. Row k ranges from tag tag_i[k] to tag tag_j[k] for the first
    E = len(tag_j) rows, and to the fixed point points[k - E] after them (the
    EKF's landmark rows); point rows need unbatched poses."""
    m, e = tag_i.shape[0], tag_j.shape[0]
    tags = np.concatenate([tag_i, tag_j])
    robots = idx.tag_robot[tags]
    Ct = C[..., robots, :, :]
    pos = se2._matvec(Ct, idx.tag_body[tags]) + r[..., robots, :]
    lever = se2._matvec(Ct, idx.tag_perp[tags])
    far = np.concatenate([pos[m:], points]) if points.shape[0] else pos[..., m:, :]
    diff = pos[..., :m, :] - far
    rng = np.sqrt(diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1])
    valid = rng > DEGENERATE_RANGE
    unit = np.where(valid[..., None], diff / np.where(valid, rng, 1.0)[..., None], 0.0)
    u = np.concatenate([unit, -unit[..., :e, :]], axis=-2)
    blocks = np.empty(u.shape[:-1] + (3,))
    blocks[..., 0] = u[..., 0] * lever[..., 0] + u[..., 1] * lever[..., 1]
    blocks[..., 1:] = u[..., 0, None] * Ct[..., 0, :] + u[..., 1, None] * Ct[..., 1, :]
    return blocks, rng, unit, valid


def jacobian_gather(idx: _EdgeIndex, C: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Oracle of ``ranging.jacobian_many``: the blocks of ``range_rows_gather``
    scattered one endpoint at a time, with the same error on a degenerate row."""
    blocks, rng, _, valid = range_rows_gather(idx, C, r, idx.edge_i, idx.edge_j)
    if not np.all(valid):
        b, k = np.unravel_index(np.argmin(valid), valid.shape)
        edge = (int(idx.edge_i[k]) + 1, int(idx.edge_j[k]) + 1)
        raise ValueError(f"singular geometry: edge {edge} has near-zero range {rng[b, k]:.3g}")
    e = idx.edge_i.shape[0]
    H = np.zeros(rng.shape + (3 * idx.n_robots,))
    rows = np.arange(e)[:, None]
    H[..., rows, idx.tag_cols[idx.edge_i]] = blocks[..., :e, :]
    H[..., rows, idx.tag_cols[idx.edge_j]] = blocks[..., e:, :]
    return H[..., 3:]


def fisher_loop(Hw: np.ndarray) -> np.ndarray:
    """Oracle of ``ranging.fisher_many``: one 2-D ``h.T @ h`` per weighted
    Jacobian of the stack, symmetrized."""
    F = np.array([h.T @ h for h in Hw])
    return 0.5 * (F + F.swapaxes(1, 2))


def j_col_pair(x: se2.FormationState, m: int, n: int,
               activation_radius: float, collision_radius: float) -> float:
    """Barrier term for one ordered robot pair (the oracle of ``costs.col_many``)."""
    if not 0.0 < collision_radius < activation_radius:
        raise ValueError("need 0 < collision_radius < activation_radius")
    x._check_id(m)
    x._check_id(n)
    rx = x.positions()
    sq = np.sum((rx[m - 1] - rx[n - 1]) ** 2)
    return float(costs._barrier(sq, activation_radius ** 2, collision_radius ** 2))


def scalar_terms(obj: costs.Objective, x: se2.FormationState) -> list[float]:
    """Oracle of ``Objective.terms``: (adj, overlap, est, col) of one formation
    from the scalar ``j_*`` terms, evaluating adj alone for the adj kind, est
    and col for opt, and each term of nonzero spec weight for cov; a term not
    evaluated is 0.0."""
    spec, s, w = obj.spec, obj.sorted_ids, obj.spec.weights
    use = {"adj": (True, False, False, False), "opt": (False, False, True, True),
           "cov": (w.adj != 0.0, w.overlap != 0.0, w.est != 0.0, w.col != 0.0)}[obj.kind]
    thunks = (lambda: costs.j_adj(x, spec, s), lambda: costs.j_overlap(x, spec, s),
              lambda: costs.j_est(x, obj.team, obj.graph), lambda: costs.j_col(x, spec))
    return [t() if u else 0.0 for u, t in zip(use, thunks)]


def scalar_cost(obj: costs.Objective, x: se2.FormationState) -> float:
    """Oracle of ``Objective.__call__`` and ``many``: adj alone, est + col, or
    the cov-weighted sum of the scalar terms, each written out in that order."""
    adj, overlap, est, col = scalar_terms(obj, x)
    if obj.kind == "adj":
        return adj
    if obj.kind == "opt":
        return est + col
    w = obj.spec.weights
    return w.adj * adj + w.overlap * overlap + w.est * est + w.col * col


@dataclass(frozen=True)
class Mapped:
    """A plain cost function in the shape ``optimizer.minimize`` takes: called
    on one formation, and mapped over a stack row by row by ``many``."""

    fn: Callable[[se2.FormationState], float]

    def __call__(self, x: se2.FormationState) -> float:
        return self.fn(x)

    def many(self, C: np.ndarray, r: np.ndarray) -> np.ndarray:
        return np.array([self.fn(se2.FormationState(c, p)) for c, p in zip(C, r)],
                        dtype=np.float64)


def minimize_multistart(cost: costs.Objective | Mapped, n_robots: int,
                        cfg: OptimizerConfig = OptimizerConfig(),
                        seed: int = 0) -> OptimizationTrace:
    """Best of cfg.restarts independent seeded runs (by final cost)."""
    best: OptimizationTrace | None = None
    for s in np.random.SeedSequence(seed).spawn(cfg.restarts):
        x0 = random_formation(n_robots, np.random.default_rng(s), cfg)
        tr = minimize(cost, x0, cfg)
        if best is None or tr.final_cost < best.final_cost:
            best = tr
    assert best is not None
    return best


def _lsap_scan(cost: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum-cost square assignment with a column-by-column scan per
    augmenting step; returns (value, col_of_row)."""
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    row_of_col = np.zeros(n + 1, dtype=int)  # 0 means unassigned
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        row_of_col[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = row_of_col[j0]
            delta = np.inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[row_of_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if row_of_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            row_of_col[j0] = row_of_col[j1]
            j0 = j1
    col_of_row = np.empty(n, dtype=int)
    for j in range(1, n + 1):
        col_of_row[row_of_col[j] - 1] = j - 1
    value = float(cost[np.arange(n), col_of_row].sum())
    return value, col_of_row


def hungarian_resolve(cost: np.ndarray, tie_tol: float = 1e-9) -> np.ndarray:
    """Oracle of ``assignment.hungarian``: the lexicographically smallest
    assignment whose total is within tie_tol * max(1, |best|) of the best,
    found by fixing rows in order to the smallest column that still admits
    such a completion, re-solving the rest of the matrix for every candidate."""
    cost = np.asarray(cost, dtype=np.float64)
    n = cost.shape[0]
    if n == 1:
        return np.zeros(1, dtype=int)
    best = _lsap_scan(cost)[0]
    tol = tie_tol * max(1.0, abs(best))
    chosen = np.empty(n, dtype=int)
    free_cols = list(range(n))
    prefix = 0.0
    for i in range(n):
        rest_rows = np.arange(i + 1, n)
        for j in free_cols:
            others = [c for c in free_cols if c != j]
            tail = _lsap_scan(cost[np.ix_(rest_rows, others)])[0] if others else 0.0
            if prefix + cost[i, j] + tail <= best + tol:
                chosen[i] = j
                prefix += cost[i, j]
                free_cols.remove(j)
                break
        else:
            raise AssertionError("no optimal completion found during tie-breaking")
    return chosen


def buffer_spread(points: np.ndarray) -> float:
    """Largest pairwise distance among buffered points."""
    if len(points) < 2:
        return 0.0
    d = np.linalg.norm(points[:, None] - points[None, :], axis=-1)
    return float(d.max())


def planar_spread(points: np.ndarray) -> float:
    """Point spread off the principal line (smallest principal std), from
    singular values taken without vectors."""
    if len(points) < 3:
        return 0.0
    sv = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    return float(sv[-1] / np.sqrt(len(points)))


def principal_reflection(points: np.ndarray, sol: np.ndarray) -> np.ndarray:
    """Mirror a point across the best-fit line through the points."""
    c = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - c, full_matrices=False)
    v = vt[0]
    R = 2.0 * np.outer(v, v) - np.eye(2)
    return c + R @ (sol - c)


def landmark_init_oracle(points: np.ndarray, ranges: np.ndarray, sigma: float):
    """Oracle of ``ekf.landmark_init`` on one buffer: (outcome, point, covariance
    block), the last two None unless the outcome is "ok". The gates are
    composed of the per-gate measures above, each converting and centring the
    points itself, and the fit's condition number and normal-matrix inverse
    are taken from its normal matrix here; the outcome names the first gate
    that defers."""
    if len(points) < 3:
        return "few", None, None
    if buffer_spread(points) <= ekf.MIN_BASELINE:
        return "baseline", None, None
    if planar_spread(points) < ekf.MIN_PLANAR_SPREAD:
        return "planar", None, None
    p0, d0 = points[0], ranges[0]
    A = 2.0 * (points[1:] - p0)
    b = (np.einsum("ij,ij->i", points[1:], points[1:]) - p0 @ p0
         - ranges[1:] ** 2 + d0 ** 2)
    start, *_ = np.linalg.lstsq(A, b, rcond=None)
    sol, _, JtJ = ekf._gauss_newton(points, ranges, start)
    if np.linalg.cond(JtJ) > ekf.MAX_TRILAT_COND or not np.all(np.isfinite(sol)):
        return "cond", None, None
    _, cost, _ = ekf._gauss_newton(points, ranges, sol)
    if np.sqrt(cost / len(ranges)) > ekf.MAX_INIT_RMS_SIGMAS * sigma:
        return "rms", None, None
    mirror, mirror_cost, _ = ekf._gauss_newton(points, ranges,
                                               principal_reflection(points, sol))
    if np.linalg.norm(mirror - sol) > 0.05 and cost > ekf.MIRROR_COST_RATIO * mirror_cost:
        return "mirror", None, None
    return "ok", sol, ekf.INIT_COV_INFLATION * sigma ** 2 * np.linalg.pinv(JtJ)


def measurement_rows(state: ekf.EkfState, model: ekf.EkfModel, rr_idx, lm_edges):
    """Every row of one range update at once, before any is folded: (cols,
    vals, predicted ranges, validity) of the given robot-robot rows (edge
    indices), then the (tag, landmark) rows, a degenerate range flagged
    invalid with a zero row. Part of the oracle of the one-pass update."""
    def block(ux, uy, c, s, lx, ly):
        return [ux * lx + uy * ly, ux * c + uy * s, uy * c - ux * s]

    cols, vals, zhat, valid = [], [], [], []
    for k in rr_idx:
        i, j = model.edge_tags[k]
        ci, si, xi, yi, lxi, lyi = ekf._place(state, model, i)
        cj, sj, xj, yj, lxj, lyj = ekf._place(state, model, j)
        rng, ux, uy, ok = ekf._range_unit(xi - xj, yi - yj)
        cols.append(model.edge_cols[k])
        vals.append(np.array(block(ux, uy, ci, si, lxi, lyi) + block(-ux, -uy, cj, sj, lxj, lyj)))
        zhat.append(rng)
        valid.append(ok)
    for tag, lm in lm_edges:
        c, s, x, y, lx, ly = ekf._place(state, model, tag)
        mx, my = state.landmarks[lm].tolist()
        rng, ux, uy, ok = ekf._range_unit(x - mx, y - my)
        cols.append(model.lm_cols[tag][lm])
        vals.append(np.array(block(ux, uy, c, s, lx, ly) + [-ux, -uy]))
        zhat.append(rng)
        valid.append(ok)
    return cols, vals, zhat, valid


def fold_rows(state: ekf.EkfState, cols, vals, nu, sigmas, gate) -> int:
    """Fold listed rows in one scalar update at a time on numpy scalars, each
    rank-1 downdate of P a fresh array, and retract the summed correction
    once; returns how many rows the gate dropped. Part of the oracle of the
    one-pass update."""
    P = state.P
    delta = None
    n_rejected = 0
    for c, h, v, sigma in zip(cols, vals, nu, sigmas):
        Ph = P[:, c] @ h
        s = h @ Ph[c] + sigma * sigma
        if delta is not None:
            v -= h @ delta[c]
        if gate is not None and not v * v / s <= gate:
            n_rejected += 1
            continue
        if delta is None:
            delta = Ph * (v / s)
        else:
            delta += Ph * (v / s)
        P -= Ph[:, None] * Ph / s
    if delta is not None:
        state._retract(delta)
    return n_rejected


def update_ranges_rows_then_fold(state, model, rr_idx, z_rr, lm_edges, z_lm, lm_sigma) -> int:
    """Oracle of ``ekf.ekf_update_ranges``, in place: all rows linearized
    first, the degenerate ones filtered out, then the rest folded in; returns
    how many rows the gate dropped."""
    cols, vals, zhat, valid = measurement_rows(state, model, rr_idx, lm_edges)
    nu = [float(z) - h for z, h in zip(chain(z_rr, z_lm), zhat)]
    sigmas = [model.edge_sigma[k] for k in rr_idx] + [lm_sigma] * len(lm_edges)
    if not all(valid):
        cols, vals, nu, sigmas = ([row for row, ok in zip(rows, valid) if ok]
                                  for rows in (cols, vals, nu, sigmas))
    return fold_rows(state, cols, vals, nu, sigmas, ekf.RANGE_GATE_1DOF)


def fold_gps_fix(state: ekf.EkfState, measured: np.ndarray, sigma: float) -> None:
    """Oracle of the fold of an accepted ``ekf.ekf_update_gps`` fix, in place:
    its two rows, the rotation of robot 1's heading on robot 1's position
    columns, through ``fold_rows``."""
    ang = float(state.ang[0])
    c, s = math.cos(ang), math.sin(ang)
    x, y = state.pos[0].tolist()
    nu = [float(measured[0]) - x, float(measured[1]) - y]
    cols = np.array([1, 2])
    fold_rows(state, (cols, cols), np.array([[c, -s], [s, c]]), nu, (sigma, sigma), None)
