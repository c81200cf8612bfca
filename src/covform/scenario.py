"""Scenario files: one JSON document describing team, graph, formation, solver, sim.

Schema (all sections optional except team and formation):

    {
      "team": {"count": 5, "tag_offsets": [[0.17,-0.17],[-0.17,0.17]],
               "camera_radius": 0.5}
            or {"robots": [{"id":1, "tag_offsets": [...], "camera_radius": 0.5}, ...]},
      "graph": {"full": true, "sigma": 0.1, "masks": [[1,2]]}
            or {"edges": [[1,3],...], "sigma": 0.1},
      "formation": {"directions": [[1,0],...], "lambda": 0.25,
                    "exempt_slots": [1,7], "activation_radius": 0.9,
                    "collision_radius": 0.5,
                    "weights": {"adj":1,"overlap":1,"est":1,"col":1}},
      "optimizer": {"alpha":1e-3, "beta":0.9, "tol":1e-4, "max_iters":50000,
                    "fd_step":1e-6, "restarts":8, "init_box":3.0},
      "sim": {"area":[10,24], "landmarks":[[5,12],[2,20]], "dt_truth":0.01,
              "range_rate":110, "gps_rate":50, "gps_sigma":0.1,
              "range_sigma":0.1, "vel_noise":[0.01,0.1], ...,
              "gains":{"waypoint":0.8,"formation":1.2,"heading":2.0,"speed_cap":1.0}},
      "gps_robots": [1, 2]
    }

Direction vectors are normalized on load. Named presets (sim5, bridge7,
exp3plus2) can be used anywhere a config path is accepted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from covform.covsim.config import ControlGains, SimConfig
from covform.optimizer import OptimizerConfig
from covform.ranging import _edge_index
from covform.team import (
    CostWeights,
    FormationSpec,
    RangeGraph,
    RobotSpec,
    TeamConfig,
    default_full_graph,
    mask_edges,
)


# Largest team a document may describe (9x bridge7); checked before any
# robot is built, so a huge count fails at once instead of allocating.
MAX_ROBOTS = 64
MAX_TAGS_PER_ROBOT = 16  # the full graph grows with its square
MAX_LANDMARKS = 16  # the filter state has 3N + 2L entries: at most 224 at N = 64
# Each piece of the camera-disk union is at least one disk wide, so a sweep has
# at most area width / (2 * smallest camera radius) legs, whatever the formation.
MAX_SWEEP_LEGS = 100_000


class ScenarioError(ValueError):
    """Config validation problem; the message carries the offending field path."""


@dataclass
class Scenario:
    team: TeamConfig
    graph: RangeGraph
    formation: FormationSpec
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    gps_robots: tuple[int, ...] = ()
    name: str = "scenario"


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ScenarioError(f"{path}: {msg}")


def _section(cfg: Any, path: str, known: set[str]) -> dict:
    """The object at path, once it is checked to be one with only known fields."""
    _expect(isinstance(cfg, dict), path, "must be an object")
    unknown = set(cfg) - known
    _expect(not unknown, path, f"unknown fields {sorted(unknown)}")
    return cfg


def _make(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a ValueError it raises reported at path."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise ScenarioError(f"{path}: {e}") from None


def _num(value: Any, path: str, kind: type = float):
    _expect(kind is float or not isinstance(value, float) or value.is_integer(), path,
            f"expected a whole number, got {value!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{path}: expected a number, got {value!r}") from None
    _expect(kind is not float or math.isfinite(out), path, f"expected a finite number, got {value!r}")
    return out


def _nums(values: Any, path: str, length: int | None = None, kind: type = float) -> tuple:
    _expect(isinstance(values, (list, tuple)) and length in (None, len(values)), path,
            f"expected {length or 'a list of'} numbers, got {values!r}")
    return tuple(_num(v, f"{path}[{k}]", kind) for k, v in enumerate(values))


def _pairs(values: Any, path: str, kind: type = float, most: int | None = None) -> tuple:
    _expect(isinstance(values, (list, tuple)), path, f"expected a list, got {values!r}")
    _expect(most is None or len(values) <= most, path, f"at most {most} entries, got {len(values)}")
    return tuple(_nums(v, f"{path}[{k}]", 2, kind) for k, v in enumerate(values))


_DEFAULT_TAGS = [[0.17, -0.17], [-0.17, 0.17]]


def _build_team(cfg: dict) -> TeamConfig:
    _section(cfg, "team", {"count", "robots", "tag_offsets", "camera_radius"})
    if "robots" in cfg:
        _expect(isinstance(cfg["robots"], list), "team.robots", "must be a list")
        _expect(len(cfg["robots"]) <= MAX_ROBOTS, "team.robots",
                f"at most {MAX_ROBOTS} robots, got {len(cfg['robots'])}")
        robots = []
        for i, r in enumerate(cfg["robots"]):
            path = f"team.robots[{i}]"
            _section(r, path, {"id", "tag_offsets", "camera_radius"})
            _expect("id" in r, path, "missing id")
            robots.append(_make(
                path, RobotSpec, _num(r["id"], f"{path}.id", int),
                _pairs(r.get("tag_offsets", _DEFAULT_TAGS), f"{path}.tag_offsets",
                       most=MAX_TAGS_PER_ROBOT),
                _num(r.get("camera_radius", 0.5), f"{path}.camera_radius")))
        return _make("team.robots", TeamConfig, tuple(robots))
    _expect("count" in cfg, "team", "needs either 'count' or 'robots'")
    count = _num(cfg["count"], "team.count", int)
    _expect(2 <= count <= MAX_ROBOTS, "team.count",
            f"need 2 to {MAX_ROBOTS} robots, got {count}")
    offsets = _pairs(cfg.get("tag_offsets", _DEFAULT_TAGS), "team.tag_offsets",
                     most=MAX_TAGS_PER_ROBOT)
    radius = _num(cfg.get("camera_radius", 0.5), "team.camera_radius")
    return _make("team", TeamConfig.uniform, count, offsets, radius)


def _build_graph(cfg: dict, team: TeamConfig) -> RangeGraph:
    _section(cfg, "graph", {"full", "edges", "sigma", "masks"})
    sigma = _num(cfg.get("sigma", 0.1), "graph.sigma")
    _expect(sigma > 0, "graph.sigma", f"must be > 0, got {sigma}")
    if cfg.get("edges") is not None:
        graph = _make("graph.edges", RangeGraph.from_pairs,
                      _pairs(cfg["edges"], "graph.edges", int), sigma)
        _make("graph.edges", _edge_index, team, graph)  # known tags on distinct robots
    else:
        _expect(cfg.get("full", True) is True, "graph.full",
                "must be true unless 'edges' lists the graph")
        graph = default_full_graph(team, sigma)
    for k, (a, b) in enumerate(_pairs(cfg.get("masks", ()), "graph.masks", int)):
        _expect(1 <= a <= team.n_robots and 1 <= b <= team.n_robots,
                f"graph.masks[{k}]", f"unknown robot pair ({a}, {b})")
        graph = mask_edges(graph, (a, b), team)
    return graph


def _build_formation(cfg: dict, team: TeamConfig) -> FormationSpec:
    _section(cfg, "formation", {"directions", "lambda", "exempt_slots", "activation_radius",
                                "collision_radius", "weights"})
    _expect("directions" in cfg, "formation", "missing directions")
    raw = _pairs(cfg["directions"], "formation.directions")
    _expect(len(raw) == team.n_robots - 1, "formation.directions",
            f"expected {team.n_robots - 1} vectors for {team.n_robots} robots, got {len(raw)}")
    dirs = []
    for k, (x, y) in enumerate(raw):
        norm = math.hypot(x, y)
        _expect(norm > 0, f"formation.directions[{k}]", "zero vector")
        dirs.append((x / norm, y / norm))
    exempt = frozenset(_nums(cfg.get("exempt_slots", ()), "formation.exempt_slots", kind=int))
    for s in sorted(exempt):
        _expect(1 <= s <= team.n_robots, "formation.exempt_slots",
                f"slot {s} outside 1..{team.n_robots}")
    w = _section(cfg.get("weights", {}), "formation.weights", {"adj", "overlap", "est", "col"})
    kw = {key: _num(cfg[key], f"formation.{key}")
          for key in ("activation_radius", "collision_radius") if key in cfg}
    if "lambda" in cfg:
        kw["overlap_fraction"] = _num(cfg["lambda"], "formation.lambda")
    weights = _make("formation.weights", CostWeights,
                    **{k: _num(v, f"formation.weights.{k}") for k, v in w.items()})
    return _make("formation", FormationSpec, directions=tuple(dirs),
                 overlap_exempt_slots=exempt, weights=weights, **kw)


def _build_optimizer(cfg: dict) -> OptimizerConfig:
    _section(cfg, "optimizer", {f.name for f in fields(OptimizerConfig)})
    ints = {"max_iters", "restarts"}
    kw = {k: _num(v, f"optimizer.{k}", int if k in ints else float) for k, v in cfg.items()}
    return _make("optimizer", OptimizerConfig, **kw)


def _build_sim(cfg: dict) -> SimConfig:
    # every field but the five the section spells its own way is a number under its name
    own_way = {"area", "landmark_positions", "vel_noise_omega", "vel_noise_v", "gains"}
    passthrough = [f.name for f in fields(SimConfig) if f.name not in own_way]
    _section(cfg, "sim", set(passthrough) | {"area", "landmarks", "vel_noise", "gains"})
    kw: dict[str, Any] = {}
    if "area" in cfg:
        kw["area"] = _nums(cfg["area"], "sim.area", 2)
    if "landmarks" in cfg:
        kw["landmark_positions"] = _pairs(cfg["landmarks"], "sim.landmarks", most=MAX_LANDMARKS)
    if "vel_noise" in cfg:
        kw["vel_noise_omega"], kw["vel_noise_v"] = _nums(cfg["vel_noise"], "sim.vel_noise", 2)
    if "gains" in cfg:
        g = _section(cfg["gains"], "sim.gains", {f.name for f in fields(ControlGains)})
        kw["gains"] = _make("sim.gains", ControlGains,
                            **{k: _num(v, f"sim.gains.{k}") for k, v in g.items()})
    for key in passthrough:
        if key in cfg:
            kw[key] = _num(cfg[key], f"sim.{key}", type(getattr(SimConfig, key)))
    _expect(kw.get("seed", 0) >= 0, "sim.seed", f"must be >= 0, got {kw.get('seed')}")
    return _make("sim", SimConfig, **kw)


def build_scenario(doc: dict, name: str = "scenario") -> Scenario:
    """Validate one parsed config document; raises ScenarioError with a field path."""
    _section(doc, "config", {"team", "graph", "formation", "optimizer", "sim", "gps_robots"})
    _expect("team" in doc, "team", "missing section")
    _expect("formation" in doc, "formation", "missing section")
    team = _build_team(doc["team"])
    graph = _build_graph(doc.get("graph", {}), team)
    formation = _build_formation(doc["formation"], team)
    optimizer = _build_optimizer(doc.get("optimizer", {}))
    sim = _build_sim(doc.get("sim", {}))
    gps = _nums(doc.get("gps_robots", ()), "gps_robots", kind=int)
    for g in gps:
        _expect(1 <= g <= team.n_robots, "gps_robots", f"unknown robot {g}")
    diameter = 2.0 * float(min(team.camera_radii()))
    _expect(sim.area[0] / diameter <= MAX_SWEEP_LEGS, "sim.area", f"the width must be at most "
            f"{MAX_SWEEP_LEGS:,} sweep legs of the smallest camera diameter ({diameter:.3g} m), "
            f"got {sim.area[0]:.3g} m")
    return Scenario(team=team, graph=graph, formation=formation,
                    optimizer=optimizer, sim=sim, gps_robots=gps, name=name)


PRESETS: dict[str, dict] = {
    # five-robot coverage study: line formation, 10 x 24 m sweep
    "sim5": {
        "team": {"count": 5, "camera_radius": 0.5},
        "graph": {"full": True, "sigma": 0.1},
        "formation": {"directions": [[1, 0]] * 4, "lambda": 0.25},
        "sim": {"area": [10, 24]},
    },
    # seven-robot bridge inspection: five camera robots in a near line,
    # two GPS-carrying robots angled off the ends, which neither range
    # against each other nor count toward camera overlap
    "bridge7": {
        "team": {"count": 7, "camera_radius": 0.5},
        "graph": {"full": True, "sigma": 0.1, "masks": [[1, 2]]},
        "formation": {
            "directions": [[1, 1]] + [[1, 0]] * 4 + [[1, -1]],
            "lambda": 0.25,
            "exempt_slots": [1, 7],
        },
        "gps_robots": [1, 2],
    },
    # lab-scale geometry: 4 x 6 m room, 0.7 m cameras, slower sensor rates
    "exp3plus2": {
        "team": {"count": 5, "camera_radius": 0.7},
        "graph": {"full": True, "sigma": 0.1},
        "formation": {"directions": [[1, 0]] * 4, "lambda": 0.25},
        "sim": {
            "area": [4, 6],
            "dt_truth": 0.1,
            "range_rate": 80,
            "gps_rate": 30,
            "landmarks": [[0.2, 3.0], [3.8, 5.0]],
            "max_sim_time": 300,
        },
    },
}


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario from a preset name or a JSON file path."""
    key = str(source)
    if key in PRESETS:
        return build_scenario(PRESETS[key], name=key)
    path = Path(source)
    if not path.exists():
        raise ScenarioError(
            f"config: no file {path} and no preset named {key!r} "
            f"(presets: {', '.join(sorted(PRESETS))})")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ScenarioError(f"config: {path} is not valid JSON ({e})") from None
    return build_scenario(doc, name=path.stem)
