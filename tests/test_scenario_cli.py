import json
import math
import re
import tracemalloc
from dataclasses import fields
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covform import cli, costs
from covform.cli import (
    MAX_GRID_POINTS,
    OK,
    formation_from_doc,
    formation_to_doc,
    load_formation_file,
    main,
)
from covform.covsim import SimConfig
from covform.covsim.config import MAX_SENSOR_EVENTS, MAX_TRUTH_STEPS
from covform.scenario import (
    MAX_LANDMARKS,
    MAX_ROBOTS,
    MAX_SWEEP_LEGS,
    MAX_TAGS_PER_ROBOT,
    PRESETS,
    ScenarioError,
    build_scenario,
    load_scenario,
)
from covform.se2 import FormationState, Pose2
from covform.team import SortedIds, TeamConfig
from helpers import from_angle, from_poses


def minimal_doc(n=3):
    return {
        "team": {"count": n, "camera_radius": 0.5},
        "formation": {"directions": [[1, 0]] * (n - 1)},
    }


class TestScenarioValidation:
    def test_minimal_document(self):
        s = build_scenario(minimal_doc())
        assert s.team.n_robots == 3
        assert s.graph.n_edges == 12
        assert len(s.formation.directions) == 2

    def test_direction_count_mismatch_names_field(self):
        doc = minimal_doc()
        doc["formation"]["directions"] = [[1, 0]]
        with pytest.raises(ScenarioError, match="formation.directions"):
            build_scenario(doc)

    def test_directions_normalized(self):
        doc = minimal_doc()
        doc["formation"]["directions"] = [[2, 0], [1, 1]]
        s = build_scenario(doc)
        np.testing.assert_allclose(s.formation.directions[0], [1, 0])
        np.testing.assert_allclose(s.formation.directions[1], np.array([1, 1]) / np.sqrt(2))

    def test_bad_exempt_slot(self):
        doc = minimal_doc()
        doc["formation"]["exempt_slots"] = [9]
        with pytest.raises(ScenarioError, match="exempt_slots"):
            build_scenario(doc)

    def test_bad_mask_pair(self):
        doc = minimal_doc()
        doc["graph"] = {"masks": [[1, 9]]}
        with pytest.raises(ScenarioError, match=r"graph.masks\[0\]"):
            build_scenario(doc)

    def test_unknown_sim_field(self):
        doc = minimal_doc()
        doc["sim"] = {"bogus_rate": 1.0}
        with pytest.raises(ScenarioError, match="sim.*bogus_rate"):
            build_scenario(doc)

    def test_each_plain_sim_field_reaches_sim_config(self):
        # every SimConfig field but the five the section spells its own way is
        # read under its own name, as a number of its default's type
        own_way = {"area", "landmark_positions", "vel_noise_omega", "vel_noise_v", "gains"}
        names = [f.name for f in fields(SimConfig) if f.name not in own_way]
        sim = {name: 2 * getattr(SimConfig, name) + 1 for name in names}
        got = build_scenario({**minimal_doc(), "sim": sim}).sim
        for name in names:
            value = getattr(got, name)
            assert value == sim[name] and type(value) is type(getattr(SimConfig, name)), name

    @pytest.mark.parametrize("key", ["landmark_positions", "vel_noise_omega", "vel_noise_v"])
    def test_sim_fields_spelled_otherwise_are_unknown_keys(self, key):
        doc = minimal_doc()
        doc["sim"] = {key: 1.0}
        with pytest.raises(ScenarioError, match=rf"^sim: unknown fields \['{key}'\]"):
            build_scenario(doc)

    def test_unknown_gps_robot(self):
        doc = minimal_doc()
        doc["gps_robots"] = [5]
        with pytest.raises(ScenarioError, match="gps_robots"):
            build_scenario(doc)

    @pytest.mark.parametrize("path, patch", [
        ("sim.area[0]", {"sim": {"area": [float("nan"), 24]}}),
        ("sim.area[0]", {"sim": {"area": [float("inf"), 24]}}),
        ("sim", {"sim": {"area": [-1, 24]}}),
        ("sim", {"sim": {"area": [10, 0]}}),
        ("team.camera_radius", {"team": {"count": 3, "camera_radius": float("nan")}}),
        ("team.camera_radius", {"team": {"count": 3, "camera_radius": float("inf")}}),
        ("graph.sigma", {"graph": {"sigma": float("inf")}}),
        ("formation.directions[1][0]",
         {"formation": {"directions": [[1, 0], [float("inf"), 0]]}}),
        ("sim.max_sim_time", {"sim": {"max_sim_time": float("-inf")}}),
    ])
    def test_non_finite_numbers_and_empty_area_are_config_errors(self, path, patch):
        with pytest.raises(ScenarioError, match="^" + re.escape(path) + ":"):
            build_scenario({**minimal_doc(), **patch})

    @pytest.mark.parametrize("sim, field", [
        ({"gps_sigma": 0}, "gps_sigma must be > 0"),
        ({"gps_sigma": -0.1}, "gps_sigma must be > 0"),
        ({"range_sigma": 0}, "range_sigma must be > 0"),
        ({"range_sigma": -0.1}, "range_sigma must be > 0"),
        ({"max_sim_time": 0}, "max_sim_time must be > 0"),
        ({"max_sim_time": -5}, "max_sim_time must be > 0"),
        ({"formation_gate": 0}, "formation_gate must be > 0"),
        ({"divergence_threshold": -1}, "divergence_threshold must be > 0"),
        ({"init_pos_sigma": -0.3}, "init_pos_sigma must be >= 0"),
        ({"init_att_sigma": -0.1}, "init_att_sigma must be >= 0"),
        ({"vel_noise": [-0.01, 0.1]}, "vel_noise_omega must be >= 0"),
        ({"vel_noise": [0.01, -0.1]}, "vel_noise_v must be >= 0"),
    ])
    def test_sim_values_that_break_a_trial_are_config_errors(self, tmp_path, capsys, sim, field):
        # each crashed a trial, flagged every trial as diverged or was ignored
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**minimal_doc(), "sim": sim}))
        rc = main(["optimize", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert f"config error: sim: {field}, got" in capsys.readouterr().err

    @pytest.mark.parametrize("sim, message, at_bound, over_bound", [
        ({"range_rate": 1e15, "max_sim_time": 0.05},
         f"sim: max_sim_time times the larger of range_rate and gps_rate must be at most "
         f"{MAX_SENSOR_EVENTS:,} events, got 5e+13",
         {"max_sim_time": MAX_SENSOR_EVENTS / 1000, "range_rate": 1000.0},
         {"max_sim_time": MAX_SENSOR_EVENTS / 1000, "range_rate": 1000.1}),
        ({"gps_rate": 1e15, "max_sim_time": 0.05},
         f"sim: max_sim_time times the larger of range_rate and gps_rate must be at most "
         f"{MAX_SENSOR_EVENTS:,} events, got 5e+13",
         {"max_sim_time": MAX_SENSOR_EVENTS / 1000, "gps_rate": 1000.0},
         {"max_sim_time": MAX_SENSOR_EVENTS / 1000, "gps_rate": 1000.1}),
        ({"dt_truth": 1e-6},
         f"sim: max_sim_time / dt_truth must be at most {MAX_TRUTH_STEPS:,} truth steps, "
         f"got 6e+08",
         {"max_sim_time": MAX_TRUTH_STEPS * 1e-3, "dt_truth": 1e-3},
         {"max_sim_time": MAX_TRUTH_STEPS * 1e-3, "dt_truth": 0.9999e-3}),
        ({"landmarks": [[5.0, -1.45]] * 10_000},
         f"sim.landmarks: at most {MAX_LANDMARKS} entries, got 10000",
         {"landmarks": [[0.5 * l, 30.0] for l in range(MAX_LANDMARKS)]},
         {"landmarks": [[0.5 * l, 30.0] for l in range(MAX_LANDMARKS + 1)]}),
    ], ids=["range_rate", "gps_rate", "dt_truth", "landmarks"])
    def test_sensor_event_count_is_bounded(self, tmp_path, capsys, monkeypatch, sim, message,
                                           at_bound, over_bound):
        # the replay draws every event of a trial up front: 1e15 Hz for
        # 0.05 s asked numpy for 364 TiB of event steps; the truth log keeps
        # every step, and 1e-6 s steps over sim5's 600 s grew it by 13 MB/s;
        # 10,000 landmarks would size P and each update's downdate buffer at
        # 3.2 GB apiece. Reaching the truth phase here fails the test before
        # it allocates
        def refuse(*args):
            raise AssertionError("the truth phase was started")

        monkeypatch.setattr("covform.covsim.sim.simulate_truth", refuse)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**PRESETS["sim5"], "sim": sim}))
        rc = main(["simulate", "--config", str(bad), "--formation", str(GOLDEN),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert f"config error: {message}" in capsys.readouterr().err
        build_scenario({**minimal_doc(), "sim": at_bound})
        with pytest.raises(ValueError, match="at most"):
            build_scenario({**minimal_doc(), "sim": over_bound})

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    @pytest.mark.parametrize("patch", [{"sim": {"area": [1e12, 24]}},
                                       {"team": {"count": 5, "camera_radius": 1e-12}}],
                             ids=["wide_area", "tiny_camera"])
    def test_sweep_leg_count_is_bounded(self, tmp_path, capsys, monkeypatch, command, patch):
        # a 1e12 m wide area asked numpy for 1.66 TiB of sweep legs; reaching
        # the sweep here fails the test before it allocates anything
        def refuse(*args):
            raise AssertionError("the sweep was planned")

        monkeypatch.setattr("covform.covsim.sim.generate_waypoints", refuse)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**PRESETS["sim5"], **patch}))
        formation = (["--formation", str(GOLDEN)] if command == "simulate"
                     else ["--formations", str(GOLDEN), "--trials", "1"])
        rc = main([command, "--config", str(bad), *formation, "--out", str(tmp_path)])
        assert rc == 1
        assert ("config error: sim.area: the width must be at most "
                f"{MAX_SWEEP_LEGS:,} sweep legs of the smallest camera diameter"
                in capsys.readouterr().err)
        # the presets need at most 10 legs; the bound admits widths up to it
        for doc in PRESETS.values():
            build_scenario(doc)
        build_scenario({**minimal_doc(), "sim": {"area": [MAX_SWEEP_LEGS, 24]}})
        with pytest.raises(ScenarioError, match="sim.area"):
            build_scenario({**minimal_doc(), "sim": {"area": [MAX_SWEEP_LEGS * 1.0001, 24]}})

    def test_zero_init_sigmas_and_velocity_noise_are_allowed(self):
        sim = {"init_pos_sigma": 0, "init_att_sigma": 0, "vel_noise": [0, 0]}
        s = build_scenario({**minimal_doc(), "sim": sim}).sim
        assert (s.init_pos_sigma, s.init_att_sigma, s.vel_noise_omega, s.vel_noise_v) == (0,) * 4

    def test_presets_load(self):
        for name, n in (("sim5", 5), ("bridge7", 7), ("exp3plus2", 5)):
            s = load_scenario(name)
            assert s.team.n_robots == n

    def test_bridge_preset_masks_gps_pair(self):
        s = load_scenario("bridge7")
        assert s.graph.n_edges == 80  # full graph 84 minus the 4 masked edges
        assert s.formation.overlap_exempt_slots == frozenset({1, 7})
        assert s.gps_robots == (1, 2)

    def test_missing_file_mentions_presets(self):
        with pytest.raises(ScenarioError, match="preset"):
            load_scenario("/nonexistent/path.json")

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "scen.json"
        p.write_text(json.dumps(minimal_doc()))
        s = load_scenario(p)
        assert s.team.n_robots == 3
        assert s.name == "scen"


class TestFormationFiles:
    def test_doc_roundtrip_is_bit_identical(self):
        rng = np.random.default_rng(0)
        poses = [from_angle(rng.uniform(-np.pi, np.pi), rng.uniform(-3, 3, 2))
                 for _ in range(4)]
        x = from_poses(poses)
        s = SortedIds((1, 3, 2, 4, 5), (0.5,) * 5)
        doc = json.loads(json.dumps(formation_to_doc(x, s)))
        x2, s2 = formation_from_doc(doc)
        np.testing.assert_array_equal(x.C, x2.C)
        np.testing.assert_array_equal(x.r, x2.r)
        assert s == s2


def fast_scenario(tmp_path, n=3, restarts=1, max_iters=4000):
    doc = minimal_doc(n)
    doc["optimizer"] = {"restarts": restarts, "max_iters": max_iters}
    doc["sim"] = {
        "area": [6, 8],
        "landmarks": [[3.0, 4.0], [1.0, 6.0]],
        "max_sim_time": 200,
    }
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return p


GOLDEN = Path(__file__).resolve().parent / "data" / "formation_cov_sim5_seed7.json"


class TestCli:
    def test_graph_without_edges_designs(self, tmp_path):
        # masking the only robot pair leaves no edge: each formation's Jacobian
        # is 0 bytes, the FIM singular everywhere, and est saturates
        doc = minimal_doc(2)
        doc["graph"] = {"masks": [[1, 2]]}
        doc["optimizer"] = {"restarts": 1, "max_iters": 20}
        cfg = tmp_path / "no_edges.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["optimize", "--config", str(cfg), "--cost", "cov", "--out", str(tmp_path)])
        assert rc == cli.NOT_CONVERGED
        out = json.loads((tmp_path / "formation_cov.json").read_text())
        assert out["cost"]["est"] == costs.SATURATION

    def test_seeded_design_reproduces_golden_file(self, tmp_path):
        # seeded outputs are the oracle: this is the formation JSON that
        # `optimize --config sim5 --cost cov --seed 7` wrote (x86-64, numpy
        # 2.4, float64) before the finite-difference probes were stacked
        rc = main(["optimize", "--config", "sim5", "--cost", "cov",
                   "--seed", "7", "--out", str(tmp_path)])
        assert rc == OK
        assert (tmp_path / "formation_cov.json").read_bytes() == GOLDEN.read_bytes()

    def test_optimize_writes_parseable_formation(self, tmp_path):
        cfg = fast_scenario(tmp_path)
        rc = main(["optimize", "--config", str(cfg), "--cost", "adj",
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == OK
        x, s, doc = load_formation_file(tmp_path / "formation_adj.json", TeamConfig.uniform(3))
        assert doc["trace"]["converged"]
        assert doc["cost"]["adj"] < 1e-3
        assert s.order[0] == 1

    def test_optimize_roundtrip_bit_identical(self, tmp_path):
        cfg = fast_scenario(tmp_path)
        main(["optimize", "--config", str(cfg), "--cost", "adj",
              "--seed", "3", "--out", str(tmp_path)])
        path = tmp_path / "formation_adj.json"
        x1, _, _ = load_formation_file(path, TeamConfig.uniform(3))
        rewritten = tmp_path / "rewrite.json"
        doc = json.loads(path.read_text())
        rewritten.write_text(json.dumps(doc))
        x2, _, _ = load_formation_file(rewritten, TeamConfig.uniform(3))
        np.testing.assert_array_equal(x1.C, x2.C)
        np.testing.assert_array_equal(x1.r, x2.r)

    @pytest.mark.parametrize("path, patch", [
        ("team.count", {"team": {"count": "abc"}}),
        ("team.count", {"team": {"count": 2.5}}),
        ("optimizer.restarts", {"optimizer": {"restarts": "x"}}),
        ("gps_robots[1]", {"gps_robots": [1, "a"]}),
        ("formation.directions[0]", {"formation": {"directions": [1, [1, 0]]}}),
        ("graph.masks[0]", {"graph": {"masks": [[1]]}}),
        ("graph.edges", {"graph": {"edges": [[1, 2]]}}),
        ("graph.edges", {"graph": {"edges": [[1, 99]]}}),
        ("optimizer", {"optimizer": {"restarts": 0}}),
        ("optimizer", {"optimizer": {"max_iters": 0}}),
        ("optimizer", {"optimizer": {"init_box": 0}}),
        ("optimizer", {"optimizer": {"min_init_separation": -0.1}}),
        # three robots within 0.14 m of the origin always hold a pair closer than 0.5 m
        ("optimizer.init_box", {"optimizer": {"init_box": 0.1}}),
        ("team", {"team": {"count": 3, "colour": "red"}}),
        ("graph", {"graph": {"ful": True}}),
        ("formation", {"formation": {"directions": [[1, 0]] * 2, "lamda": 0.3}}),
        ("graph.full", {"graph": {"full": False}}),
    ])
    def test_malformed_config_is_a_config_error(self, tmp_path, capsys, path, patch):
        doc = {**minimal_doc(), **patch}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["optimize", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert f"config error: {path}:" in capsys.readouterr().err

    def test_team_size_is_bounded(self, tmp_path, capsys):
        # a huge count is refused before any robot is built
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps({**minimal_doc(), "team": {"count": 10**400}}))
        rc = main(["optimize", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert "config error: team.count:" in capsys.readouterr().err
        robots = [{"id": i} for i in range(1, MAX_ROBOTS + 2)]
        with pytest.raises(ScenarioError, match="team.robots"):
            build_scenario({**minimal_doc(), "team": {"robots": robots}})
        assert build_scenario(minimal_doc(MAX_ROBOTS)).team.n_robots == MAX_ROBOTS

    def test_tags_per_robot_are_bounded(self, tmp_path, capsys):
        # a huge tag list is refused before any edge is built
        many = [[0.01 * k, 0.0] for k in range(5000)]
        bad = tmp_path / "tags.json"
        bad.write_text(json.dumps({**minimal_doc(), "team": {"count": 3, "tag_offsets": many}}))
        rc = main(["optimize", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert f"config error: team.tag_offsets: at most {MAX_TAGS_PER_ROBOT} entries, got 5000" in capsys.readouterr().err
        robots = [{"id": 1}, {"id": 2, "tag_offsets": many[:MAX_TAGS_PER_ROBOT + 1]}, {"id": 3}]
        with pytest.raises(ScenarioError, match=r"team.robots\[1\].tag_offsets: at most"):
            build_scenario({**minimal_doc(), "team": {"robots": robots}})
        ok = [[0.01 * k, 0.0] for k in range(MAX_TAGS_PER_ROBOT)]
        team = build_scenario({**minimal_doc(), "team": {"count": 3, "tag_offsets": ok}}).team
        assert team.n_tags == 3 * MAX_TAGS_PER_ROBOT
        robots[1]["tag_offsets"] = ok
        assert build_scenario({**minimal_doc(), "team": {"robots": robots}}).team.n_tags == \
            4 + MAX_TAGS_PER_ROBOT

    @pytest.mark.parametrize("command", ["simulate", "heatmap", "montecarlo"])
    @pytest.mark.parametrize("name", ["missing", "not_json", "empty", "one_pose", "no_order",
                                      "scaled_C", "zero_C", "mirror_C", "sheared_C",
                                      "list_kind", "path_kind", "number_kind"])
    def test_malformed_formation_file_is_a_config_error(self, tmp_path, capsys, command, name):
        one_pose = formation_to_doc(
            from_poses([Pose2(np.eye(2), np.array([1.0, 0.0]))]),
            SortedIds((1, 2), (0.5, 0.5)))

        def golden_with_C(k, C):
            doc = json.loads(GOLDEN.read_text())
            doc["formation"]["poses"][k]["C"] = C
            return json.dumps(doc), f"formation.poses[{k}].C: not a rotation"

        def golden_with_kind(kind):
            # montecarlo names the trials file trials_<cost_kind>.jsonl and
            # keys the summary by it
            doc = json.loads(GOLDEN.read_text())
            doc["cost_kind"] = kind
            return json.dumps(doc), f"cost_kind: must be a non-empty name without a path " \
                                    f"separator, got {kind!r}"

        content, message = {
            "missing": (None, "cannot read formation file"),
            "not_json": ("{not json", "not valid JSON"),
            "empty": ("{}", "formation: missing section"),
            "one_pose": (json.dumps({"formation": one_pose}), "formation.poses: expected 4 poses"),
            "no_order": (json.dumps({"formation": {**one_pose, "sorted_ids": {
                "order": [], "radii": [0.5, 0.5]}}}), "formation.sorted_ids: slot 1 must hold robot 1"),
            "scaled_C": golden_with_C(0, [[2, 0], [0, 2]]),
            "zero_C": golden_with_C(3, [[0, 0], [0, 0]]),
            "mirror_C": golden_with_C(1, [[1, 0], [0, -1]]),
            "sheared_C": golden_with_C(2, [[1, 1e-8], [0, 1]]),
            "list_kind": golden_with_kind([1]),
            "path_kind": golden_with_kind("a/b"),
            "number_kind": golden_with_kind(3),
        }[name]
        path = tmp_path / f"{name}.json"
        if content is not None:
            path.write_text(content)
        flag = "--formations" if command == "montecarlo" else "--formation"
        rc = main([command, "--config", "sim5", flag, str(path), "--out", str(tmp_path)])
        assert rc == 1
        assert f"config error: {path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "heatmap", "montecarlo"])
    def test_formation_radii_must_be_the_teams(self, tmp_path, capsys, command):
        # the sim5 file's slots hold 0.5 m cameras, exp3plus2's robots 0.7 m
        # ones: scoring it there would mix the two
        flag = "--formations" if command == "montecarlo" else "--formation"
        rc = main([command, "--config", "exp3plus2", flag, str(GOLDEN), "--out", str(tmp_path)])
        assert rc == 1
        assert (f"config error: {GOLDEN}: formation.sorted_ids.radii: expected the team's "
                "camera radii in slot order, [0.7, 0.7, 0.7, 0.7, 0.7], got [0.5, 0.5, 0.5, 0.5, 0.5]"
                ) in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = minimal_doc()
        doc["formation"]["directions"] = [[1, 0]]  # wrong count
        bad.write_text(json.dumps(doc))
        rc = main(["optimize", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert "formation.directions" in capsys.readouterr().err

    def test_heatmap_grid_shape_and_collision_support(self, tmp_path):
        cfg = fast_scenario(tmp_path)
        main(["optimize", "--config", str(cfg), "--cost", "adj",
              "--seed", "3", "--out", str(tmp_path)])
        rc = main(["heatmap", "--config", str(cfg), "--cost", "adj",
                   "--formation", str(tmp_path / "formation_adj.json"),
                   "--robot", "3", "--grid=-1,3,-1,1,9,7",
                   "--out", str(tmp_path)])
        assert rc == OK
        rows = (tmp_path / "heatmap_adj_r3.csv").read_text().strip().splitlines()
        assert rows[0] == "x,y,cost"
        assert len(rows) == 1 + 9 * 7
        grid = np.loadtxt(rows[1:], delimiter=",")
        assert np.all(np.isfinite(grid))

    @pytest.mark.parametrize("grid, field", [
        ("0,1,0,1,inf,5", "grid[4]"),
        ("0,nan,0,1,3,3", "grid[1]"),
        ("0,1,0,1,3.7,3", "grid[4]"),
        ("0,1,0,1,3,x", "grid[5]"),
        ("0,1,0,1,3", "grid must be"),
    ])
    def test_heatmap_malformed_grid_is_a_config_error(self, tmp_path, capsys, grid, field):
        x = from_poses([Pose2(np.eye(2), np.array([k, 0.0])) for k in range(1, 5)])
        form = tmp_path / "line.json"
        form.write_text(json.dumps(
            {"formation": formation_to_doc(x, SortedIds((1, 2, 3, 4, 5), (0.5,) * 5))}))
        rc = main(["heatmap", "--config", "sim5", "--formation", str(form),
                   f"--grid={grid}", "--out", str(tmp_path)])
        assert rc == 1
        assert f"config error: {field}" in capsys.readouterr().err
        assert not list(tmp_path.glob("heatmap_*.csv"))

    @pytest.mark.parametrize("grid, field", [
        ("0,1,0,1,100000,100000", "grid[4]/grid[5]"),
        (f"0,1,0,1,2,{MAX_GRID_POINTS // 2 + 1}", "grid[4]/grid[5]"),
        (None, "--resolution"),
    ])
    def test_heatmap_grid_is_bounded(self, tmp_path, capsys, grid, field):
        # a grid past the cap exits before the first cost evaluation
        x = from_poses([Pose2(np.eye(2), np.array([k, 0.0])) for k in range(1, 5)])
        form = tmp_path / "line.json"
        form.write_text(json.dumps(
            {"formation": formation_to_doc(x, SortedIds((1, 2, 3, 4, 5), (0.5,) * 5))}))
        size = [f"--grid={grid}"] if grid else ["--resolution", "100000"]
        rc = main(["heatmap", "--config", "sim5", "--formation", str(form), *size,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not list(tmp_path.glob("heatmap_*.csv"))

    @pytest.mark.parametrize("command", ["optimize", "simulate", "montecarlo"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command):
        extra = {"optimize": [], "simulate": ["--formation", "unused.json"],
                 "montecarlo": ["--formations", "unused.json", "--trials", "1"]}[command]
        rc = main([command, "--config", "sim5", "--seed", "-1", *extra, "--out", str(tmp_path)])
        assert rc == 1
        assert "config error: --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_negative_scenario_seed_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "seed.json"
        cfg.write_text(json.dumps({**PRESETS["sim5"], "sim": {"seed": -3}}))
        rc = main(["simulate", "--config", str(cfg), "--formation", "unused.json",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "config error: sim.seed: must be >= 0, got -3" in capsys.readouterr().err
        assert build_scenario({**PRESETS["sim5"], "sim": {"seed": 0}}).sim.seed == 0

    @pytest.mark.parametrize("area", [[-1, 24], [float("nan"), 24], [float("inf"), 24]])
    def test_empty_or_non_finite_area_exits_before_simulating(self, tmp_path, capsys, area):
        cfg = tmp_path / "area.json"
        cfg.write_text(json.dumps({**PRESETS["sim5"], "sim": {"area": area}}))
        rc = main(["simulate", "--config", str(cfg), "--formation", "unused.json",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "config error: sim" in capsys.readouterr().err

    def test_heatmap_constant_cost_gives_constant_grid(self, tmp_path):
        # all-zero weights zero out the cov objective everywhere
        doc = minimal_doc()
        doc["formation"]["weights"] = {"adj": 0, "overlap": 0, "est": 0, "col": 0}
        doc["optimizer"] = {"restarts": 1, "max_iters": 50}
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps(doc))
        main(["optimize", "--config", cfg.as_posix(), "--cost", "adj",
              "--seed", "3", "--out", str(tmp_path)])
        rc = main(["heatmap", "--config", cfg.as_posix(), "--cost", "cov",
                   "--formation", str(tmp_path / "formation_adj.json"),
                   "--grid=0,2,0,2,5,5", "--out", str(tmp_path)])
        assert rc == OK
        rows = (tmp_path / "heatmap_cov_r3.csv").read_text().strip().splitlines()
        vals = np.loadtxt(rows[1:], delimiter=",")[:, 2]
        assert np.all(vals == 0.0)

    def test_simulate_and_trajectory_dump(self, tmp_path):
        cfg = fast_scenario(tmp_path)
        main(["optimize", "--config", str(cfg), "--cost", "adj",
              "--seed", "3", "--out", str(tmp_path)])
        rc = main(["simulate", "--config", str(cfg),
                   "--formation", str(tmp_path / "formation_adj.json"),
                   "--seed", "5", "--out", str(tmp_path), "--dump-trajectories"])
        assert rc == OK
        metrics = json.loads((tmp_path / "simulate_metrics.json").read_text())
        assert metrics["completed"]
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert "true_x1" in header and "lm1_3sig_x" in header

    def test_montecarlo_deterministic_bytes(self, tmp_path):
        cfg = fast_scenario(tmp_path)
        main(["optimize", "--config", str(cfg), "--cost", "adj",
              "--seed", "3", "--out", str(tmp_path)])
        form = str(tmp_path / "formation_adj.json")
        outs = []
        for sub in ("mc1", "mc2"):
            rc = main(["montecarlo", "--config", str(cfg), "--formations", form,
                       "--trials", "2", "--seed", "11", "--out", str(tmp_path / sub)])
            assert rc == OK
            outs.append((
                (tmp_path / sub / "trials_adj.jsonl").read_bytes(),
                (tmp_path / sub / "montecarlo_summary.json").read_bytes(),
            ))
        assert outs[0] == outs[1]
        # the reduction table reads back in its own column order, not sorted
        table = json.loads(outs[0][1])["reduction_vs_adj"]
        assert list(table["adj"]) == ["landmark1_error", "landmark2_error",
                                      "interrobot_att_rmse", "interrobot_pos_rmse"]


    def test_montecarlo_parallel_jobs_match_serial(self, tmp_path):
        cfg = fast_scenario(tmp_path)
        main(["optimize", "--config", str(cfg), "--cost", "adj",
              "--seed", "3", "--out", str(tmp_path)])
        form = str(tmp_path / "formation_adj.json")
        blobs = []
        for sub, jobs in (("serial", "1"), ("parallel", "2")):
            rc = main(["montecarlo", "--config", str(cfg), "--formations", form,
                       "--trials", "2", "--seed", "11", "--jobs", jobs,
                       "--out", str(tmp_path / sub)])
            assert rc == OK
            blobs.append((tmp_path / sub / "trials_adj.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_montecarlo_missing_formation_file(self, tmp_path, capsys):
        cfg = fast_scenario(tmp_path)
        rc = main(["montecarlo", "--config", str(cfg),
                   "--formations", str(tmp_path / "nope.json"),
                   "--trials", "1", "--out", str(tmp_path)])
        assert rc == 1

    def test_montecarlo_rejects_formations_of_one_name(self, tmp_path, capsys):
        # two seeds of one cost kind: the second would overwrite the first's trials
        cfg = fast_scenario(tmp_path)
        forms = []
        for seed in ("1", "2"):
            main(["optimize", "--config", str(cfg), "--cost", "adj",
                  "--seed", seed, "--out", str(tmp_path / seed)])
            forms.append(str(tmp_path / seed / "formation_adj.json"))
        rc = main(["montecarlo", "--config", str(cfg), "--formations", *forms,
                   "--trials", "1", "--out", str(tmp_path / "mc")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error: --formations:" in err
        assert forms[0] in err and forms[1] in err and "'adj'" in err
        assert not (tmp_path / "mc").exists()

    @pytest.mark.parametrize("flag", ["--trials", "--jobs"])
    def test_montecarlo_rejects_zero_counts(self, tmp_path, capsys, flag):
        cfg = fast_scenario(tmp_path)
        rc = main(["montecarlo", "--config", str(cfg), "--formations", "unused.json",
                   flag, "0", "--out", str(tmp_path)])
        assert rc == 1
        assert "--trials and --jobs must be >= 1" in capsys.readouterr().err


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 100), st.integers(min_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True)),
             max_size=3),
    st.dictionaries(st.sampled_from(["id", "count", "x"]), st.integers(-2, 6), max_size=2))


def heatmap_loop(config, formation_path, kind, robot, grid):
    """Oracle for the heatmap CSV: one scalar cost call per grid point."""
    sc = load_scenario(config)
    x, sorted_ids, _ = load_formation_file(formation_path, sc.team)
    cost = costs.cost_function(kind, sc.team, sc.graph, sc.formation, sorted_ids)
    x0, x1, y0, y1, nx, ny = grid
    lines = ["x,y,cost\n"]
    for gy in np.linspace(y0, y1, ny):
        for gx in np.linspace(x0, x1, nx):
            r = x.r.copy()
            r[robot - 2] = (gx, gy)
            try:
                value = cost(FormationState(x.C.copy(), r))
            except ValueError:
                value = costs.SATURATION
            lines.append(f"{gx:.17g},{gy:.17g},{value:.17g}\n")
    return "".join(lines)


def limit_block_rows(monkeypatch, config, rows):
    """Shrink ``costs.BLOCK_BYTES`` to ``rows`` formations of the scenario's
    objective; None keeps it."""
    if rows is not None:
        sc = load_scenario(config)
        f = costs.cost_function("cov", sc.team, sc.graph, sc.formation, SortedIds.identity(sc.team))
        monkeypatch.setattr(costs, "BLOCK_BYTES", rows * f.row_bytes)


class TestHeatmapRows:
    """heatmap evaluates each grid row in one ``Objective.many`` call, in
    that call's blocks; its CSV equals the point-by-point loop byte for byte
    whatever the block size."""

    @pytest.mark.parametrize("rows", [None, 1, 2])
    @pytest.mark.parametrize("kind", ["adj", "opt", "cov"])
    def test_collision_support_grid(self, tmp_path, monkeypatch, kind, rows):
        cfg = fast_scenario(tmp_path)
        limit_block_rows(monkeypatch, str(cfg), rows)
        main(["optimize", "--config", str(cfg), "--cost", "adj",
              "--seed", "3", "--out", str(tmp_path)])
        form = tmp_path / "formation_adj.json"
        rc = main(["heatmap", "--config", str(cfg), "--cost", kind, "--formation", str(form),
                   "--robot", "3", "--grid=-1,3,-1,1,9,7", "--out", str(tmp_path)])
        assert rc == OK
        assert (tmp_path / f"heatmap_{kind}_r3.csv").read_text() == \
            heatmap_loop(str(cfg), form, kind, 3, (-1.0, 3.0, -1.0, 1.0, 9, 7))

    def test_zero_weights(self, tmp_path):
        # every cov weight 0: the stacked objective is 0 at every grid point too
        doc = minimal_doc()
        doc["formation"]["weights"] = {"adj": 0, "overlap": 0, "est": 0, "col": 0}
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps(doc))
        x = from_poses([Pose2(np.eye(2), np.array([k, 0.0])) for k in (1, 2)])
        form = tmp_path / "line.json"
        form.write_text(json.dumps(
            {"formation": formation_to_doc(x, SortedIds((1, 2, 3), (0.5,) * 3))}))
        assert main(["heatmap", "--config", str(cfg), "--cost", "cov", "--formation",
                     str(form), "--grid=0,2,0,2,5,5", "--out", str(tmp_path)]) == OK
        assert (tmp_path / "heatmap_cov_r3.csv").read_text() == \
            heatmap_loop(str(cfg), form, "cov", 3, (0.0, 2.0, 0.0, 2.0, 5, 5))

    @pytest.mark.parametrize("rows", [None, 1, 2])
    @pytest.mark.parametrize("kind", ["adj", "opt", "cov"])
    def test_degenerate_points_saturate(self, tmp_path, monkeypatch, kind, rows):
        # robot 5 swept over a grid through robots 2 and 3 at (1, 0) and (2, 0)
        limit_block_rows(monkeypatch, "sim5", rows)
        x = from_poses([Pose2(np.eye(2), np.array([k, 0.0])) for k in range(1, 5)])
        form = tmp_path / "line.json"
        form.write_text(json.dumps(
            {"formation": formation_to_doc(x, SortedIds((1, 2, 3, 4, 5), (0.5,) * 5))}))
        rc = main(["heatmap", "--config", "sim5", "--cost", kind, "--formation", str(form),
                   "--grid=0,2,-1,1,5,5", "--out", str(tmp_path)])
        assert rc == OK
        csv = (tmp_path / f"heatmap_{kind}_r5.csv").read_text()
        assert csv == heatmap_loop("sim5", form, kind, 5, (0.0, 2.0, -1.0, 1.0, 5, 5))
        if kind == "cov":  # on robots 1-3 the overlap direction is undefined
            grid = np.loadtxt(csv.splitlines()[1:], delimiter=",")
            assert {tuple(row[:2]) for row in grid if row[2] == costs.SATURATION} == \
                {(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)}

    def test_memory_is_bounded_on_24_robots(self, tmp_path):
        # the default two-tag team on its full graph, 1,104 edges and 636 KB of
        # Jacobian a formation: one 400-point row in one block peaked at 309 MB
        n = 24
        cfg = tmp_path / "team24.json"
        cfg.write_text(json.dumps(minimal_doc(n)))
        x = from_poses([from_angle(0.3 * k, (2.0 * (k % 5), 2.0 * (k // 5))) for k in range(1, n)])
        form = tmp_path / "grid.json"
        form.write_text(json.dumps(
            {"formation": formation_to_doc(x, SortedIds(tuple(range(1, n + 1)), (0.5,) * n))}))
        tracemalloc.start()
        try:
            rc = main(["heatmap", "--config", str(cfg), "--cost", "cov", "--formation", str(form),
                       "--grid=-3,12,-2,-1,400,2", "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == OK
        assert peak < 1.5 * costs.BLOCK_BYTES
        values = np.loadtxt(tmp_path / "heatmap_cov_r24.csv", delimiter=",", skiprows=1)[:, 2]
        assert values.shape == (800,) and np.all(np.isfinite(values))


def value_paths(doc, prefix=()):
    """The path of every value in a JSON document, containers included."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for k, v in items:
        yield from value_paths(v, prefix + (k,))


@st.composite
def mutated_presets(draw):
    """A preset document with one to three values replaced, deleted or added."""
    doc = json.loads(json.dumps(PRESETS[draw(st.sampled_from(sorted(PRESETS)))]))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(value_paths(doc))[1:]))
        parent = reduce(getitem, path[:-1], doc)
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif action == "add" and isinstance(parent[path[-1]], dict):
            parent[path[-1]][draw(st.sampled_from(["count", "sigma", "area", "seed", "x"]))] = \
                draw(JUNK)
        else:
            parent[path[-1]] = draw(JUNK)
    return doc


class TestScenarioFuzz:
    @given(mutated_presets())
    @settings(max_examples=400, deadline=None)
    def test_mutated_preset_builds_or_is_a_config_error(self, doc):
        try:
            scenario = build_scenario(doc)
        except ScenarioError:
            return
        numbers = [scenario.sim.area, scenario.team.camera_radii(), scenario.graph.sigmas,
                   scenario.formation.directions]
        assert all(np.all(np.isfinite(np.asarray(v, dtype=np.float64))) for v in numbers)
        assert min(scenario.sim.area) > 0


@st.composite
def mutated_formation_files(draw):
    """A formation file with one to three values replaced, deleted, added or
    resized."""
    x = from_poses([from_angle(0.1 * k, (k, 0.2 * k)) for k in range(1, 5)])
    doc = json.loads(json.dumps({"formation": formation_to_doc(x, SortedIds((1, 3, 2, 4, 5),
                                                                        (0.5,) * 5))}))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(value_paths(doc))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = reduce(getitem, path[:-1], doc)
        value = parent[path[-1]]
        action = draw(st.sampled_from(["replace", "delete", "add", "resize"]))
        if action == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif action == "add" and isinstance(value, dict):
            value[draw(st.sampled_from(["poses", "C", "r", "order", "radii", "x"]))] = draw(JUNK)
        elif action == "resize" and isinstance(value, list) and value:
            if draw(st.booleans()):
                value.pop()
            else:
                value.append(json.loads(json.dumps(value[0])))
        else:
            parent[path[-1]] = draw(JUNK)
    return doc


class TestFormationFileFuzz:
    @given(mutated_formation_files())
    @settings(max_examples=400, deadline=None)
    def test_mutated_file_loads_or_is_a_config_error(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "fuzzed_formation.json"
        path.write_text(json.dumps(doc))
        try:
            x, s, _ = load_formation_file(path, TeamConfig.uniform(5))
        except ScenarioError as e:
            assert str(e).startswith(f"{path}: formation"), str(e)
            return
        assert x.n_robots == s.n_robots == 5
        assert np.all(np.isfinite(x.C)) and np.all(np.isfinite(x.r))
        CtC = np.einsum("kji,kjl->kil", x.C, x.C)
        assert np.abs(CtC - np.eye(2)).max() <= cli.ROTATION_TOL
        assert np.all(np.linalg.det(x.C) > 0)
        assert all(math.isfinite(v) for v in s.sorted_radii)


class TestBridgeDemo:
    def bridge_config(self, tmp_path):
        doc = {
            "team": {"count": 7, "camera_radius": 0.5},
            "graph": {"full": True, "sigma": 0.1, "masks": [[1, 2]]},
            "formation": {
                "directions": [[1, 1]] + [[1, 0]] * 4 + [[1, -1]],
                "lambda": 0.25,
                "exempt_slots": [1, 7],
            },
            "gps_robots": [1, 2],
            "optimizer": {"restarts": 1, "max_iters": 8000},
        }
        p = tmp_path / "bridge.json"
        p.write_text(json.dumps(doc))
        return p

    def test_bridge_demo_end_to_end(self, tmp_path):
        import covform.ranging as ranging

        cfg = self.bridge_config(tmp_path)
        rc = main(["optimize", "--config", str(cfg), "--cost", "cov", "--seed", "1",
                   "--out", str(tmp_path)])
        assert rc == OK
        x, s, doc = load_formation_file(tmp_path / "formation_cov.json", TeamConfig.uniform(7))
        assert doc["gps_robots"] == [1, 2]
        assert s.order[0] == 1

        # the five inspection slots (2..6) sit on a near-straight line
        pos = x.positions()[np.array(s.order) - 1]
        inner = pos[1:6]
        centered = inner - inner.mean(axis=0)
        resid = np.abs(centered @ np.linalg.svd(centered, full_matrices=False)[2][-1])
        assert resid.max() < 0.2

        # the masked GPS pair contributes no measurement rows
        scenario = __import__("covform.scenario", fromlist=["load_scenario"]).load_scenario(str(cfg))
        H = ranging.jacobian(x, scenario.team, scenario.graph)
        assert H.shape == (80, 18)
