"""Helpers only the tests use: scalar pose constructors, the SE(2) adjoint,
every tag's world position, the one-pair collision barrier, the scalar
composition of the objective and a plain multistart over
``optimizer.minimize``."""

from __future__ import annotations

from typing import Callable

import numpy as np

from covform import costs, se2
from covform.optimizer import OptimizationTrace, OptimizerConfig, minimize, random_formation
from covform.ranging import _EdgeIndex


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


def minimize_multistart(cost: Callable[[se2.FormationState], float], n_robots: int,
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
