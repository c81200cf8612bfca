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
from typing import Callable, Literal

import numpy as np

from covform.ranging import fisher
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


def j_est(x: FormationState, team: TeamConfig, graph: RangeGraph) -> float:
    """-ln det of the FIM, saturated (not raised) when the FIM is singular."""
    F = fisher(x, team, graph)
    try:
        L = np.linalg.cholesky(F)
    except np.linalg.LinAlgError:
        return SATURATION
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    if not np.isfinite(logdet):
        return SATURATION
    return -logdet


def j_col_pair(x: FormationState, m: int, n: int,
               activation_radius: float, collision_radius: float) -> float:
    """Barrier term for one ordered robot pair.

    (min{0, (|r|^2 - A^2) / (|r|^2 - d^2)})^2 with the pair separation r;
    returns the saturation sentinel once the separation reaches d.
    """
    if not 0.0 < collision_radius < activation_radius:
        raise ValueError("need 0 < collision_radius < activation_radius")
    x._check_id(m)
    x._check_id(n)
    rx = x.positions()
    rm = rx[m - 1]
    rn = rx[n - 1]
    return _col_term(float(np.sum((rm - rn) ** 2)),
                     activation_radius ** 2, collision_radius ** 2)


def _col_term(sq: float, A2: float, d2: float) -> float:
    if sq <= d2:
        return SATURATION
    ratio = (sq - A2) / (sq - d2)
    return min(0.0, ratio) ** 2


@lru_cache(maxsize=32)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, 1)


def j_col(x: FormationState, spec: FormationSpec) -> float:
    """Collision penalty summed over ordered pairs m != n (each pair twice)."""
    pos = x.positions()
    a, b = _pair_indices(pos.shape[0])
    diff = pos[a] - pos[b]
    sq = np.einsum("ij,ij->i", diff, diff)
    A2 = spec.activation_radius ** 2
    d2 = spec.collision_radius ** 2
    breached = sq <= d2
    ratio = np.minimum(0.0, (sq - A2) / np.where(breached, 1.0, sq - d2))
    vals = np.where(breached, SATURATION, ratio * ratio)
    return 2.0 * float(vals.sum())


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


def j_adj(x: FormationState, spec: FormationSpec, sorted_ids: SortedIds) -> float:
    """Sum of squared offset residuals over all sorted slot pairs."""
    a, b, desired, order, *_ = _slot_tables(spec, sorted_ids)
    pos = x.positions()[order]
    resid = (pos[b] - pos[a]) - desired
    return float(np.einsum("ij,ij->", resid, resid))


def j_overlap(x: FormationState, spec: FormationSpec, sorted_ids: SortedIds) -> float:
    """Camera-overlap residual; exempt slots contribute nothing.

    Each pair's target is a distance along the current pair direction, so
    the term reduces to (actual distance - target distance)^2.
    """
    *_, over_a, over_b, overlap_dist = _slot_tables(spec, sorted_ids)
    pos = x.positions()
    dist = np.linalg.norm(pos[over_b] - pos[over_a], axis=1)
    close = dist < 1e-9
    if close.any():
        k = int(close.argmax())
        pair = (int(over_a[k]) + 1, int(over_b[k]) + 1)
        raise ValueError(f"robots {pair} are coincident; overlap direction undefined")
    return float(((dist - overlap_dist) ** 2).sum())


def j_opt(x: FormationState, team: TeamConfig, graph: RangeGraph,
          spec: FormationSpec) -> CostBreakdown:
    """Observability + collision objective (the clustered-formation baseline)."""
    est = j_est(x, team, graph)
    col = j_col(x, spec)
    return CostBreakdown(adj=0.0, overlap=0.0, est=est, col=col, total=est + col)


def j_cov(x: FormationState, team: TeamConfig, graph: RangeGraph,
          spec: FormationSpec, sorted_ids: SortedIds) -> CostBreakdown:
    """Full coverage objective: weighted adj + overlap + est + col.

    Zero-weight components are skipped entirely (reported as 0), so states
    that are degenerate for an unused term still evaluate.
    """
    w = spec.weights
    adj = j_adj(x, spec, sorted_ids) if w.adj != 0.0 else 0.0
    overlap = j_overlap(x, spec, sorted_ids) if w.overlap != 0.0 else 0.0
    est = j_est(x, team, graph) if w.est != 0.0 else 0.0
    col = j_col(x, spec) if w.col != 0.0 else 0.0
    total = w.adj * adj + w.overlap * overlap + w.est * est + w.col * col
    return CostBreakdown(adj=adj, overlap=overlap, est=est, col=col, total=total)


CostKind = Literal["adj", "opt", "cov"]


def cost_function(kind: CostKind, team: TeamConfig, graph: RangeGraph,
                  spec: FormationSpec, sorted_ids: SortedIds) -> Callable[[FormationState], float]:
    """Scalar objective for the optimizer: adj alone, est+col, or the full sum."""
    if kind == "adj":
        return lambda x: j_adj(x, spec, sorted_ids)
    if kind == "opt":
        return lambda x: j_opt(x, team, graph, spec).total
    if kind == "cov":
        return lambda x: j_cov(x, team, graph, spec, sorted_ids).total
    raise ValueError(f"unknown cost kind {kind!r} (expected adj, opt or cov)")
