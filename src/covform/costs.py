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

An objective is one weighted sum of the four. The observability-only
objective est + col reproduces the clustered formations; the full weighted
sum ``j_cov`` adds the two shape terms and yields high-coverage formations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Literal

import numpy as np

# fisher is not called here: perfbench wraps it by module attribute, as costs.fisher
from covform.ranging import _edge_index, _EdgeIndex, _scatter, fisher, fisher_many, frames
from covform.se2 import FormationState
from covform.team import CostWeights, FormationSpec, RangeGraph, SortedIds, TeamConfig

# Value reported when the Fisher information is singular (or a collision
# barrier is breached): large enough that the optimizer flees, finite so
# the gradient probes stay evaluable.
SATURATION = 1e12
# Objective.many evaluates a stack in row blocks of at most this many row_bytes
BLOCK_BYTES = 16 << 20
# est_many's one buffer of weighted Jacobians and the edge index it holds them for;
# the index is held, so no later index can take its id
_EST_SCRATCH: dict = {}


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
    logdet = 2.0 * _row_sum(np.log(L.diagonal(axis1=1, axis2=2)))
    return np.where(np.isfinite(logdet), -logdet, SATURATION)


def est_many(idx: _EdgeIndex, C: np.ndarray, r: np.ndarray) -> np.ndarray:
    """est term of B stacked formations from their N frames (see ``ranging.frames``).

    The weighted Jacobians go into the first B rows of one buffer per process,
    held with the edge index it was made for (_EST_SCRATCH): zero-filled when
    it is made, and replaced (the old one dropped first) when idx changes or a
    stack has more rows. Each call rewrites only its block entries
    (``ranging._scatter``), the others stay zero. So est_many is not reentrant
    across threads (covform runs its parallel work in processes).
    """
    H = _EST_SCRATCH.get("H")
    if _EST_SCRATCH.get("idx") is not idx or len(H) < len(r):
        _EST_SCRATCH.clear()
        H = np.zeros((len(r), idx.edge_i.shape[0], 3 * idx.n_robots - 3))
        _EST_SCRATCH.update(idx=idx, H=H)
    return _neg_logdet(fisher_many(_scatter(idx, C, r, True, H[:len(r)])))


def j_est(x: FormationState, team: TeamConfig, graph: RangeGraph) -> float:
    """-ln det of the FIM, saturated (not raised) when the FIM is singular."""
    return float(est_many(_edge_index(team, graph), *frames(x.C[None], x.r[None]))[0])


def _barrier(sq, A2: float, d2: float):
    """(min{0, (sq - A^2) / (sq - d^2)})^2, saturated once sq reaches d^2."""
    breached = sq <= d2
    ratio = np.minimum(0.0, (sq - A2) / np.where(breached, 1.0, sq - d2))
    return np.where(breached, SATURATION, ratio * ratio)


@lru_cache(maxsize=32)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, 1)


def _pairs(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one pair-difference table of the shape terms: pos_m - pos_n (B,P,2)
    and squared distances (B,P) of every robot pair m < n (``_pair_indices``)
    of B stacked formations, positions pos (B,N,2). A pair taken the other
    way round is the exact negation of its row, with the same square."""
    a, b = _pair_indices(pos.shape[-2])
    diff = pos.take(a, -2) - pos.take(b, -2)
    return diff, np.add.reduce(diff * diff, axis=-1)


def col_many(sq: np.ndarray, spec: FormationSpec) -> np.ndarray:
    """col term of B stacked formations from their squared pair distances (``_pairs``)."""
    vals = _barrier(sq, spec.activation_radius ** 2, spec.collision_radius ** 2)
    return 2.0 * _row_sum(vals)


def j_col(x: FormationState, spec: FormationSpec) -> float:
    """Collision penalty summed over ordered pairs m != n (each pair twice)."""
    return float(col_many(_pairs(x.positions()[None])[1], spec)[0])


def line_formation(spec: FormationSpec, radii: np.ndarray) -> FormationState:
    """The formation at which adj is exactly zero when slot k holds robot k:
    robot k + 1 sits radius_k + radius_(k+1) along direction k from robot k."""
    step = (radii[1:] + radii[:-1])[:, None] * np.asarray(spec.directions, dtype=np.float64)
    r = np.cumsum(step, axis=0)
    return FormationState(np.tile(np.eye(2), (len(r), 1, 1)), r)


@lru_cache(maxsize=256)
def _slot_tables(spec: FormationSpec, sorted_ids: SortedIds):
    """Per-pair arrays in sorted-slot space, cached on the frozen configs."""
    n = sorted_ids.n_robots
    if len(spec.directions) != n - 1:
        raise ValueError(
            f"spec has {len(spec.directions)} directions for {n} robots (need {n - 1})")
    radii = np.asarray(sorted_ids.sorted_radii)

    # prefix sums: desired offset slot a -> slot b is a difference of these
    offset_prefix = line_formation(spec, radii).positions()  # (N, 2)
    radius_prefix = np.concatenate([[0.0], np.cumsum(radii)])

    a, b = _pair_indices(n)                                  # 0-based slot pairs
    desired = offset_prefix[b] - offset_prefix[a]            # (P, 2)
    # 2 * sum_{k=a..b} radius_k - radius_a - radius_b, slots inclusive
    interior = 2.0 * (radius_prefix[b + 1] - radius_prefix[a]) - radii[a] - radii[b]
    overlap_dist = (1.0 - spec.overlap_fraction) * interior  # (P,)
    keep = np.array([not (ai + 1 in spec.overlap_exempt_slots
                          or bi + 1 in spec.overlap_exempt_slots)
                     for ai, bi in zip(a, b)], dtype=bool)
    order = np.asarray(sorted_ids.order, dtype=np.intp) - 1  # robot index by slot
    # each slot pair's row of the pair table: robots m < n of slots a, b
    m, k = np.minimum(order[a], order[b]), np.maximum(order[a], order[b])
    pair = m * (2 * n - m - 1) // 2 + k - m - 1
    # its row is pos_m - pos_n, the slot offset pos_b - pos_a negated when
    # slot a's robot is m: the desired offset is negated alike
    target = np.where((order[a] == m)[:, None], -desired, desired)
    # the overlap term's pairs as robot indices, exempt slots already dropped
    return (a, b, desired, pair, target, order[a[keep]], order[b[keep]], pair[keep],
            overlap_dist[keep])


def adj_many(diff: np.ndarray, tables) -> np.ndarray:
    """adj term of B stacked formations from their pair table (``_pairs``) and
    the spec's and sorted ids' ``_slot_tables``: a residual of the pair table
    is the slot-order one or its exact negation, with the same square."""
    _, _, _, pair, target, *_ = tables
    resid = (diff.take(pair, 1) - target).reshape(diff.shape[0], -1)
    return np.einsum("bk,bk->b", resid, resid)


def j_adj(x: FormationState, spec: FormationSpec, sorted_ids: SortedIds) -> float:
    """Sum of squared offset residuals over all sorted slot pairs."""
    return float(adj_many(_pairs(x.positions()[None])[0], _slot_tables(spec, sorted_ids))[0])


def overlap_many(sq: np.ndarray, tables) -> np.ndarray:
    """overlap term of B stacked formations from their squared pair distances
    (``_pairs``) and the spec's and sorted ids' ``_slot_tables``.

    Exempt slots contribute nothing. Each pair's target is a distance along the current pair direction, so
    the term reduces to (actual distance - target distance)^2.
    """
    *_, over_a, over_b, over_pair, overlap_dist = tables
    dist = np.sqrt(sq.take(over_pair, 1))
    close = dist < 1e-9
    if np.count_nonzero(close):
        k = np.unravel_index(close.argmax(), close.shape)[1]
        pair = (int(over_a[k]) + 1, int(over_b[k]) + 1)
        raise ValueError(f"robots {pair} are coincident; overlap direction undefined")
    resid = dist - overlap_dist
    return _row_sum(resid * resid)


def j_overlap(x: FormationState, spec: FormationSpec, sorted_ids: SortedIds) -> float:
    """Camera-overlap residual of one formation; exempt slots contribute nothing."""
    return float(overlap_many(_pairs(x.positions()[None])[1], _slot_tables(spec, sorted_ids))[0])


CostKind = Literal["adj", "opt", "cov"]

# the fixed weight rows of the adj-only and the est + col objectives
_KIND_WEIGHTS = {"adj": CostWeights(1.0, 0.0, 0.0, 0.0), "opt": CostWeights(0.0, 0.0, 1.0, 1.0)}


@dataclass(frozen=True)
class Objective:
    """The optimizer's objective: a weighted sum of the four terms, with the
    weights (adj, overlap, est, col) fixed by the kind, adj (1, 0, 0, 0),
    opt (0, 0, 1, 1), or cov (the spec's). Evaluated on a stack of
    formations (``many``), of which one FormationState (call) is the
    one-row case. Zero-weight terms are skipped entirely, so states that
    are degenerate for an unused term still evaluate. The weight row, the
    slot tables and the edge index are bound on first use (not pickled)."""

    kind: CostKind
    team: TeamConfig
    graph: RangeGraph
    spec: FormationSpec
    sorted_ids: SortedIds

    @cached_property
    def _weights(self) -> CostWeights:
        return _KIND_WEIGHTS.get(self.kind, self.spec.weights)

    @cached_property
    def _tables(self):
        return _slot_tables(self.spec, self.sorted_ids)

    @cached_property
    def _index(self) -> _EdgeIndex:
        return _edge_index(self.team, self.graph)

    def __getstate__(self):  # the five fields; the bound tables are rebuilt on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def _terms(self, C: np.ndarray, r: np.ndarray):
        # the kind's weight row and the (adj, overlap, est, col) vectors it
        # weighs, 0.0 for a zero-weight term
        w = self._weights
        C, pos = frames(C, r)
        diff, sq = _pairs(pos)
        return w, (adj_many(diff, self._tables) if w.adj else 0.0,
                   overlap_many(sq, self._tables) if w.overlap else 0.0,
                   est_many(self._index, C, pos) if w.est else 0.0,
                   col_many(sq, self.spec) if w.col else 0.0)

    def terms(self, C: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Unweighted (adj, overlap, est, col) rows (B,4) of B formations stacked
        as C (B,N-1,2,2), r (B,N-1,2); a zero-weight term is 0."""
        return np.column_stack([np.broadcast_to(t, len(C)) for t in self._terms(C, r)[1]])

    @property
    def row_bytes(self) -> int:  # one formation's Jacobian (E, 3(N-1)), the largest array of many
        return 24 * self.graph.n_edges * (self.team.n_robots - 1)

    def _many(self, C: np.ndarray, r: np.ndarray) -> np.ndarray:
        w, (adj, overlap, est, col) = self._terms(C, r)
        total = w.adj * adj + w.overlap * overlap + w.est * est + w.col * col
        return total if isinstance(total, np.ndarray) else np.full(len(C), total)  # all w 0

    def many(self, C: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Objective of B formations stacked as C (B,N-1,2,2), r (B,N-1,2) -> (B,),
        in row blocks of at most BLOCK_BYTES of row_bytes (values as one call's)."""
        n = max(1, BLOCK_BYTES // max(1, self.row_bytes))
        if len(C) <= n:
            return self._many(C, r)
        return np.concatenate([self._many(C[k:k + n], r[k:k + n]) for k in range(0, len(C), n)])

    def __call__(self, x: FormationState) -> float:
        return float(self.many(x.C[None], x.r[None])[0])


def cost_function(kind: CostKind, team: TeamConfig, graph: RangeGraph,
                  spec: FormationSpec, sorted_ids: SortedIds) -> Objective:
    """The optimizer's objective of the given kind (see :class:`Objective`)."""
    if kind not in ("adj", "opt", "cov"):
        raise ValueError(f"unknown cost kind {kind!r} (expected adj, opt or cov)")
    return Objective(kind, team, graph, spec, sorted_ids)


def j_cov(x: FormationState, team: TeamConfig, graph: RangeGraph,
          spec: FormationSpec, sorted_ids: SortedIds) -> float:
    """Full coverage objective of one formation: weighted adj + overlap + est + col."""
    return Objective("cov", team, graph, spec, sorted_ids)(x)
