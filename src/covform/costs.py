"""The four formation cost terms and their standard combinations.

Terms, all evaluated on a FormationState:

* est: negative log-determinant of the range-measurement Fisher
  information; low where the relative poses are well observable.
* col: inverse-barrier collision penalty, zero beyond the activation
  radius, exploding toward the collision radius.
* adj: squared residual between actual and desired inter-robot offsets,
  the offsets built from per-slot direction vectors and camera radii.
* overlap: squared residual between actual inter-robot distances and the
  distance at which neighboring camera disks overlap by the requested
  fraction.

``j_opt`` (est + col) reproduces the clustered formations of the
observability-only objective; ``j_cov`` adds the two shape terms and is
the objective that yields high-coverage formations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from covform.ranging import _edge_index, _EdgeIndex, fisher, fisher_many, frames, jacobian_many
from covform.se2 import FormationState
from covform.team import FormationSpec, RangeGraph, SortedIds, TeamConfig

# Value reported when the Fisher information is singular (or a collision
# barrier is breached): large enough that the optimizer flees, finite so
# the gradient probes stay evaluable.
SATURATION = 1e12


@dataclass
class CostBreakdown:
    """Unweighted components plus the weighted total."""

    adj: float
    overlap: float
    est: float
    col: float
    total: float


def _row_sum(v: np.ndarray) -> np.ndarray:
    # per-row pairwise sum, rounding exactly like the 1-D .sum() of one row
    return np.add.reduce(np.ascontiguousarray(v), axis=-1)


def _neg_logdet(F: np.ndarray) -> np.ndarray:
    """-ln det of each FIM in the stack, saturated (not raised) where singular."""
    try:
        L = np.linalg.cholesky(F)
    except np.linalg.LinAlgError:  # raised for the whole stack: saturate row by row
        if len(F) == 1:
            return np.array([SATURATION])
        return np.concatenate([_neg_logdet(f[None]) for f in F])
    logdet = 2.0 * _row_sum(np.log(np.diagonal(L, axis1=1, axis2=2)))
    return np.where(np.isfinite(logdet), -logdet, SATURATION)


def est_many(idx: _EdgeIndex, C: np.ndarray, r: np.ndarray) -> np.ndarray:
    """est term of B stacked formations from their N frames (see ``ranging.frames``)."""
    return _neg_logdet(fisher_many(idx, jacobian_many(idx, C, r)))


def j_est(x: FormationState, team: TeamConfig, graph: RangeGraph) -> float:
    """-ln det of the FIM, saturated (not raised) when the FIM is singular."""
    return float(_neg_logdet(fisher(x, team, graph)[None])[0])


def _barrier(sq, A2: float, d2: float):
    """(min{0, (sq - A^2) / (sq - d^2)})^2, saturated once sq reaches d^2."""
    breached = sq <= d2
    ratio = np.minimum(0.0, (sq - A2) / np.where(breached, 1.0, sq - d2))
    return np.where(breached, SATURATION, ratio * ratio)


@lru_cache(maxsize=32)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, 1)


def col_many(pos: np.ndarray, spec: FormationSpec) -> np.ndarray:
    """col term of B stacked formations, positions pos (B,N,2)."""
    a, b = _pair_indices(pos.shape[-2])
    diff = pos[..., a, :] - pos[..., b, :]
    sq = np.einsum("...ij,...ij->...i", diff, diff)
    vals = _barrier(sq, spec.activation_radius ** 2, spec.collision_radius ** 2)
    return 2.0 * _row_sum(vals)


def j_col(x: FormationState, spec: FormationSpec) -> float:
    """Collision penalty summed over ordered pairs m != n (each pair twice)."""
    return float(col_many(x.positions()[None], spec)[0])


@lru_cache(maxsize=256)
def _slot_tables(spec: FormationSpec, sorted_ids: SortedIds):
    """Per-pair arrays in sorted-slot space, cached on the frozen configs."""
    n = sorted_ids.n_robots
    if len(spec.directions) != n - 1:
        raise ValueError(
            f"spec has {len(spec.directions)} directions for {n} robots (need {n - 1})")
    radii = np.asarray(sorted_ids.sorted_radii)
    dirs = np.asarray(spec.directions, dtype=np.float64)

    # prefix sums: desired offset slot a -> slot b is a difference of these
    step = (radii[1:] + radii[:-1])[:, None] * dirs          # (N-1, 2)
    offset_prefix = np.vstack([np.zeros((1, 2)), np.cumsum(step, axis=0)])
    radius_prefix = np.concatenate([[0.0], np.cumsum(radii)])

    a, b = np.triu_indices(n, 1)                             # 0-based slot pairs
    desired = offset_prefix[b] - offset_prefix[a]            # (P, 2)
    # 2 * sum_{k=a..b} radius_k - radius_a - radius_b, slots inclusive
    interior = 2.0 * (radius_prefix[b + 1] - radius_prefix[a]) - radii[a] - radii[b]
    overlap_dist = (1.0 - spec.overlap_fraction) * interior  # (P,)
    keep = np.array([not (ai + 1 in spec.overlap_exempt_slots
                          or bi + 1 in spec.overlap_exempt_slots)
                     for ai, bi in zip(a, b)], dtype=bool)
    order = np.asarray(sorted_ids.order, dtype=np.intp) - 1  # robot index by slot
    # the overlap term's pairs as robot indices, exempt slots already dropped
    return a, b, desired, order, order[a[keep]], order[b[keep]], overlap_dist[keep]


def adj_many(pos: np.ndarray, spec: FormationSpec, sorted_ids: SortedIds) -> np.ndarray:
    """adj term of B stacked formations, positions pos (B,N,2)."""
    a, b, desired, order, *_ = _slot_tables(spec, sorted_ids)
    pos = pos[:, order]
    resid = ((pos[:, b] - pos[:, a]) - desired).reshape(pos.shape[0], -1)
    return np.einsum("bk,bk->b", resid, resid)


def j_adj(x: FormationState, spec: FormationSpec, sorted_ids: SortedIds) -> float:
    """Sum of squared offset residuals over all sorted slot pairs."""
    return float(adj_many(x.positions()[None], spec, sorted_ids)[0])


def overlap_many(pos: np.ndarray, spec: FormationSpec, sorted_ids: SortedIds) -> np.ndarray:
    """overlap term of B stacked formations, positions pos (B,N,2).

    Exempt slots contribute nothing. Each pair's target is a distance along the current pair direction, so
    the term reduces to (actual distance - target distance)^2.
    """
    *_, over_a, over_b, overlap_dist = _slot_tables(spec, sorted_ids)
    dist = np.linalg.norm(pos[:, over_b] - pos[:, over_a], axis=-1)
    close = dist < 1e-9
    if close.any():
        k = np.unravel_index(close.argmax(), close.shape)[1]
        pair = (int(over_a[k]) + 1, int(over_b[k]) + 1)
        raise ValueError(f"robots {pair} are coincident; overlap direction undefined")
    return _row_sum((dist - overlap_dist) ** 2)


def j_overlap(x: FormationState, spec: FormationSpec, sorted_ids: SortedIds) -> float:
    """Camera-overlap residual of one formation; exempt slots contribute nothing."""
    return float(overlap_many(x.positions()[None], spec, sorted_ids)[0])


def j_opt(x: FormationState, team: TeamConfig, graph: RangeGraph,
          spec: FormationSpec) -> CostBreakdown:
    """Observability + collision objective (the clustered-formation baseline)."""
    est = j_est(x, team, graph)
    col = j_col(x, spec)
    return CostBreakdown(adj=0.0, overlap=0.0, est=est, col=col, total=est + col)


def _weighted(w, adj, overlap, est, col):
    """Weighted terms and their sum; each term is a thunk, and a zero-weight
    term is never evaluated (reported as 0)."""
    terms = [t() if wt != 0.0 else 0.0
             for wt, t in ((w.adj, adj), (w.overlap, overlap), (w.est, est), (w.col, col))]
    return terms, w.adj * terms[0] + w.overlap * terms[1] + w.est * terms[2] + w.col * terms[3]


def j_cov(x: FormationState, team: TeamConfig, graph: RangeGraph,
          spec: FormationSpec, sorted_ids: SortedIds) -> CostBreakdown:
    """Full coverage objective: weighted adj + overlap + est + col.

    Zero-weight components are skipped entirely (reported as 0), so states
    that are degenerate for an unused term still evaluate.
    """
    terms, total = _weighted(spec.weights, lambda: j_adj(x, spec, sorted_ids),
                             lambda: j_overlap(x, spec, sorted_ids),
                             lambda: j_est(x, team, graph), lambda: j_col(x, spec))
    return CostBreakdown(*terms, total=total)


CostKind = Literal["adj", "opt", "cov"]


@dataclass(frozen=True)
class Objective:
    """The optimizer's objective, adj alone, est+col or the full sum, of one
    FormationState (call) or of a stack of formations (``many``)."""

    kind: CostKind
    team: TeamConfig
    graph: RangeGraph
    spec: FormationSpec
    sorted_ids: SortedIds

    def __call__(self, x: FormationState) -> float:
        if self.kind == "adj":
            return j_adj(x, self.spec, self.sorted_ids)
        if self.kind == "opt":
            return j_opt(x, self.team, self.graph, self.spec).total
        return j_cov(x, self.team, self.graph, self.spec, self.sorted_ids).total

    def many(self, C: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Objective of B formations stacked as C (B,N-1,2,2), r (B,N-1,2) -> (B,)."""
        C, pos = frames(C, r)
        spec, s = self.spec, self.sorted_ids
        if self.kind == "adj":
            return adj_many(pos, spec, s)
        est = lambda: est_many(_edge_index(self.team, self.graph), C, pos)
        if self.kind == "opt":
            return est() + col_many(pos, spec)
        total = _weighted(spec.weights, lambda: adj_many(pos, spec, s),
                          lambda: overlap_many(pos, spec, s), est,
                          lambda: col_many(pos, spec))[1]
        return np.broadcast_to(total, pos.shape[:1])  # a float when every weight is 0


def cost_function(kind: CostKind, team: TeamConfig, graph: RangeGraph,
                  spec: FormationSpec, sorted_ids: SortedIds) -> Objective:
    """The optimizer's objective of the given kind (see :class:`Objective`)."""
    if kind not in ("adj", "opt", "cov"):
        raise ValueError(f"unknown cost kind {kind!r} (expected adj, opt or cov)")
    return Objective(kind, team, graph, spec, sorted_ids)
