"""Static fleet description: tag geometry, camera radii, ranging graph, formation spec.

All types here are frozen dataclasses built from plain tuples so they are
hashable; the ranging module caches per-(team, graph) index arrays keyed on
these values.

Robot ids are 1..N with robot 1 the reference. Tag ids are 1..2N for
two-tag robots; robot p owns tags 2p-1 and 2p by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Tag placements measured on the experiment platforms (x, y in the body
# frame, meters); the 0.5 m camera radius is the simulation value (the
# exp3plus2 preset sets the experiment's 0.7 m).
DEFAULT_TAG_OFFSETS = ((0.17, -0.17), (-0.17, 0.17))
SIM_CAMERA_RADIUS = 0.5
DEFAULT_RANGE_SIGMA = 0.1


@dataclass(frozen=True)
class RobotSpec:
    """One robot: integer id, body-frame tag offsets, camera footprint radius."""

    id: int
    tag_offsets: tuple[tuple[float, float], ...] = DEFAULT_TAG_OFFSETS
    camera_radius: float = SIM_CAMERA_RADIUS

    def __post_init__(self):
        if self.id < 1:
            raise ValueError(f"robot id must be >= 1, got {self.id}")
        if self.camera_radius <= 0:
            raise ValueError(f"camera_radius must be > 0, got {self.camera_radius}")
        if len(self.tag_offsets) < 1:
            raise ValueError("each robot needs at least one tag")
        if len(set(self.tag_offsets)) != len(self.tag_offsets):
            raise ValueError(f"robot {self.id} has duplicate tag offsets")


@dataclass(frozen=True)
class TeamConfig:
    """The fleet. Tag ids are assigned consecutively: robot p gets tags
    ``n_tags*(p-1)+1 .. n_tags*p`` (2p-1 and 2p for two-tag robots)."""

    robots: tuple[RobotSpec, ...]

    def __post_init__(self):
        ids = [r.id for r in self.robots]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError(f"robot ids must be 1..N consecutive, got {ids}")
        if len(ids) < 2:
            raise ValueError("a team needs at least 2 robots")

    @classmethod
    def uniform(cls, n_robots: int, tag_offsets=DEFAULT_TAG_OFFSETS,
                camera_radius: float = SIM_CAMERA_RADIUS) -> "TeamConfig":
        """N identical robots."""
        return cls(tuple(RobotSpec(i, tuple(map(tuple, tag_offsets)), camera_radius)
                         for i in range(1, n_robots + 1)))

    @property
    def n_robots(self) -> int:
        return len(self.robots)

    @property
    def n_tags(self) -> int:
        return sum(len(r.tag_offsets) for r in self.robots)

    def camera_radii(self) -> np.ndarray:
        return np.array([r.camera_radius for r in self.robots])

    @property
    def tag_robot(self) -> np.ndarray:
        """(T,) 0-based index of the robot carrying each tag; tag id t is entry t-1."""
        return np.repeat(np.arange(self.n_robots), [len(r.tag_offsets) for r in self.robots])


def _normalize_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class RangeGraph:
    """Inter-tag measurement edges with per-edge noise std-dev.

    ``edges`` is kept sorted lexicographically by (min tag, max tag); this
    order fixes measurement-vector and Jacobian row order everywhere.
    """

    edges: tuple[tuple[int, int], ...]
    sigmas: tuple[float, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.sigmas):
            raise ValueError("edges and sigmas must have equal length")
        if any(s <= 0 for s in self.sigmas):
            raise ValueError("all sigmas must be > 0")
        norm = [_normalize_edge(*e) for e in self.edges]
        if any(i == j for i, j in norm):
            raise ValueError("self edges are not allowed")
        order = sorted(range(len(norm)), key=lambda k: norm[k])
        object.__setattr__(self, "edges", tuple(norm[k] for k in order))
        object.__setattr__(self, "sigmas", tuple(self.sigmas[k] for k in order))
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")

    @classmethod
    def from_pairs(cls, pairs, sigma: float = DEFAULT_RANGE_SIGMA) -> "RangeGraph":
        pairs = tuple(tuple(p) for p in pairs)
        return cls(pairs, (sigma,) * len(pairs))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def default_full_graph(team: TeamConfig, sigma: float = DEFAULT_RANGE_SIGMA) -> RangeGraph:
    """Every tag pair across distinct robots, one shared noise level."""
    owner = team.tag_robot
    i, j = np.nonzero(owner[:, None] < owner[None, :])
    return RangeGraph.from_pairs(zip((i + 1).tolist(), (j + 1).tolist()), sigma)


def mask_edges(graph: RangeGraph, robot_pair: tuple[int, int], team: TeamConfig) -> RangeGraph:
    """Drop every edge whose endpoints lie on the given robot pair.

    Used for GPS-equipped robots that do not range against each other.
    Idempotent; masking a pair with no edges returns an equal graph.
    """
    a, b = robot_pair
    if not (1 <= a <= team.n_robots and 1 <= b <= team.n_robots):
        raise ValueError(f"unknown robot pair {robot_pair}")
    owner = team.tag_robot[np.array(graph.edges, dtype=np.intp).reshape(-1, 2) - 1] + 1
    pair = np.sort(owner, axis=1)
    keep = np.flatnonzero((pair[:, 0] != min(a, b)) | (pair[:, 1] != max(a, b)))
    return RangeGraph(tuple(graph.edges[k] for k in keep), tuple(graph.sigmas[k] for k in keep))


@dataclass(frozen=True)
class CostWeights:
    """Multipliers for the four cost terms; all 1.0 reproduces the plain sum."""

    adj: float = 1.0
    overlap: float = 1.0
    est: float = 1.0
    col: float = 1.0

    def __post_init__(self):
        for name in ("adj", "overlap", "est", "col"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"weight {name} must be finite and >= 0")


@dataclass(frozen=True)
class FormationSpec:
    """User-level description of the target formation.

    directions: N-1 unit vectors, entry k the desired direction from sorted
        slot k to slot k+1, resolved in robot 1's frame.
    overlap_fraction: fraction of the inter-robot distance whose camera
        footprints should overlap (0 = tangent circles).
    overlap_exempt_slots: sorted-order slots (1..N) whose pairs contribute
        nothing to the overlap cost, e.g. end robots in the bridge scenario.
    activation_radius / collision_radius: collision term geometry (A > d).
    """

    directions: tuple[tuple[float, float], ...]
    overlap_fraction: float = 0.25
    overlap_exempt_slots: frozenset[int] = frozenset()
    activation_radius: float = 0.9
    collision_radius: float = 0.5
    weights: CostWeights = field(default_factory=CostWeights)

    def __post_init__(self):
        object.__setattr__(self, "overlap_exempt_slots", frozenset(self.overlap_exempt_slots))
        for d in self.directions:
            n = np.hypot(d[0], d[1])
            if abs(n - 1.0) > 1e-9:
                raise ValueError(f"direction {d} must be unit length (norm {n:.3g})")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError(f"overlap_fraction must lie in [0, 1], got {self.overlap_fraction}")
        if not 0.0 < self.collision_radius < self.activation_radius:
            raise ValueError("need 0 < collision_radius < activation_radius")

    @classmethod
    def line(cls, n_robots: int, **kw) -> "FormationSpec":
        """Straight line along +x, the default high-coverage shape."""
        return cls(directions=((1.0, 0.0),) * (n_robots - 1), **kw)

    @classmethod
    def vee(cls, n_robots: int, **kw) -> "FormationSpec":
        """V shape: up-diagonal for the first half of the slots, then down."""
        m = n_robots - 1
        half = (m + 1) // 2
        s = 1.0 / np.sqrt(2.0)
        dirs = tuple((s, s) for _ in range(half)) + tuple((s, -s) for _ in range(m - half))
        return cls(directions=dirs, **kw)


@dataclass(frozen=True)
class SortedIds:
    """Permutation of robot ids into formation slots, slot 1 always robot 1."""

    order: tuple[int, ...]
    sorted_radii: tuple[float, ...]

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"order must be a permutation of 1..{n}, got {self.order}")
        if not self.order or self.order[0] != 1:
            raise ValueError("slot 1 must hold robot 1 (the reference)")
        if len(self.sorted_radii) != n:
            raise ValueError("sorted_radii must match order length")

    @classmethod
    def identity(cls, team: TeamConfig) -> "SortedIds":
        order = tuple(range(1, team.n_robots + 1))
        return cls(order, tuple(team.robots[i - 1].camera_radius for i in order))

    @property
    def n_robots(self) -> int:
        return len(self.order)
