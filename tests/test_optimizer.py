import copy
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from covform import cli, costs, optimizer, se2
from covform.assignment import sort_robot_ids
from covform.optimizer import (
    OptimizationTrace,
    OptimizerConfig,
    gradient_fd,
    minimize,
    random_formation,
)
from covform.ranging import _edge_index, frames
from covform.scenario import PRESETS, build_scenario, load_scenario
from covform.team import (CostWeights, FormationSpec, RangeGraph, RobotSpec, SortedIds, TeamConfig,
                          default_full_graph)
from helpers import Mapped, from_angle, from_poses, minimize_multistart, scalar_cost


def state_with_positions(positions, angles=None):
    positions = np.asarray(positions, dtype=np.float64)
    if angles is None:
        angles = np.zeros(len(positions))
    return from_poses(
        [from_angle(a, p) for a, p in zip(angles, positions)])


def fit_line_residual(points):
    """Max perpendicular distance of points from their best-fit line."""
    pts = np.asarray(points)
    centered = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    normal = vt[-1]
    return float(np.max(np.abs(centered @ normal)))


def scalar_of(cost):
    """The scalar oracle of an Objective (``helpers.scalar_cost``); a mapped
    function is its own scalar form."""
    if isinstance(cost, costs.Objective):
        return lambda st: scalar_cost(cost, st)
    return cost


def gradient_loop(cost, x, step):
    """Per-probe oracle for gradient_fd: the scalar cost at x, then one oplus
    and one scalar cost call per probe, in the order +e_0, -e_0, +e_1, ..."""
    cost = scalar_of(cost)
    value = cost(x)
    g = np.empty(x.dim)
    e = np.zeros(x.dim)
    for k in range(x.dim):
        e[k] = step
        hi = cost(se2.oplus(x, e))
        e[k] = -step
        lo = cost(se2.oplus(x, e))
        e[k] = 0.0
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"cost is not finite at finite-difference probe, coordinate {k}")
        g[k] = (hi - lo) / (2.0 * step)
    return value, g


def minimize_loop(cost, x0, cfg=OptimizerConfig()):
    """Oracle for minimize: the gradient at the top of each step and one
    scalar cost after it."""
    scalar = scalar_of(cost)
    trace = OptimizationTrace()
    x = x0
    c = scalar(x)
    if not np.isfinite(c):
        raise ValueError("cost is not finite at the initial state")
    step = np.zeros(x.dim)
    for it in range(cfg.max_iters):
        _, g = gradient_fd(cost, x, cfg.fd_step)
        if it == 0 and c >= costs.SATURATION and np.all(g == 0.0):
            trace.final_state, trace.final_cost = x, c
            trace.message = "started on a saturated cost plateau with zero gradient"
            return trace
        step = cfg.beta * step - cfg.alpha * g
        x = se2.oplus(x, step)
        c = scalar(x)
        norm = float(np.linalg.norm(step))
        trace.iterates.append((it, c, norm))
        if norm < cfg.tol:
            trace.converged = True
            break
    trace.final_state = x
    trace.final_cost = c
    if not trace.converged:
        trace.message = f"step norm still {trace.iterates[-1][2]:.3g} after {cfg.max_iters} iters"
    return trace


def outcome(fn, *args):
    """(result, None) or (None, (exception type, message))."""
    try:
        return fn(*args), None
    except ValueError as e:
        return None, (type(e), str(e))


def f64(v):
    return np.float64(v).tobytes()


def assert_matches_loop(cost, x, step=1e-6):
    """gradient_fd equals the per-probe oracle bit for bit, value included,
    or raises alike; returns (gradient, error)."""
    res, err = outcome(gradient_fd, cost, x, step)
    ref, err_ref = outcome(gradient_loop, cost, x, step)
    assert err == err_ref
    if err is not None:
        return None, err
    assert f64(res[0]) == f64(ref[0]) and type(res[0]) is type(ref[0])
    assert res[1].tobytes() == ref[1].tobytes()
    return res[1], None


def trace_key(tr):
    """Everything a trace holds, with floats compared by their exact repr."""
    x = tr.final_state
    return (repr(tr.iterates), x.C.tobytes(), x.r.tobytes(), x._ops,
            repr(tr.final_cost), tr.converged, tr.message)


def assert_minimize_matches_loop(cost, x0, cfg=OptimizerConfig()):
    """minimize equals the scalar-cost loop byte for byte, or raises alike."""
    tr, err = outcome(minimize, cost, x0, cfg)
    ref, err_ref = outcome(minimize_loop, cost, x0, cfg)
    assert err == err_ref
    if err is None:
        assert trace_key(tr) == trace_key(ref)
    return tr, err


class TestStackedProbesMatchLoop:
    """Central differences multiply last-bit noise in a probe value by
    1/(2h) = 5e5, so the stacked probes must equal the loop exactly."""

    @pytest.mark.parametrize("preset", ["sim5", "bridge7", "exp3plus2"])
    def test_random_states(self, preset):
        sc = load_scenario(preset)
        n = sc.team.n_robots
        dirs = np.asarray(sc.formation.directions)
        rng = np.random.default_rng(41)
        for t in range(8):
            x = random_formation(n, rng)
            if t % 2:
                # a state one compose short of re-projection, rotations drifted
                # off SO(2), so every probe re-projects as oplus does
                C = x.C + rng.normal(0.0, 1e-9, x.C.shape)
                x = se2.FormationState(C, x.r, ops=se2.RENORMALIZE_EVERY)
            s = sort_robot_ids(x, sc.team, dirs)
            for kind in ("adj", "opt", "cov"):
                cost = costs.cost_function(kind, sc.team, sc.graph, sc.formation, s)
                g, err = assert_matches_loop(cost, x)
                assert err is None and np.all(np.isfinite(g))

    def test_reprojected_probes(self):
        sc = load_scenario("sim5")
        x = random_formation(5, np.random.default_rng(3))
        C = x.C * (1.0 + 1e-7)
        s = SortedIds.identity(sc.team)
        cost = costs.cost_function("cov", sc.team, sc.graph, sc.formation, s)
        drifted = se2.FormationState(C, x.r, ops=se2.RENORMALIZE_EVERY)
        fresh = se2.FormationState(C, x.r, ops=se2.RENORMALIZE_EVERY - 1)
        g, _ = assert_matches_loop(cost, drifted)
        g_fresh, _ = assert_matches_loop(cost, fresh)
        assert g.tobytes() != g_fresh.tobytes()  # the re-projection is seen

    def test_active_collision_barrier(self):
        sc = load_scenario("sim5")
        spec = sc.formation
        # robots 2 and 3 inside the activation radius, outside the collision radius
        x = state_with_positions([(0.7, 0.0), (0.0, 0.65), (2.0, 1.0), (-1.5, 2.0)],
                                 angles=[0.3, -1.0, 2.0, 0.5])
        assert 0.0 < costs.j_col(x, spec) < costs.SATURATION
        s = SortedIds.identity(sc.team)
        for kind in ("opt", "cov"):
            g, err = assert_matches_loop(
                costs.cost_function(kind, sc.team, sc.graph, spec, s), x)
            assert err is None and np.any(g != 0.0)

    def test_singular_fim_saturates_per_probe(self):
        # all four tags on the x axis: the FIM is singular at the state and at
        # the probes along x, but not at the probes that leave the axis
        team = TeamConfig((RobotSpec(1, ((-0.2, 0.0), (0.2, 0.0)), 0.5),
                           RobotSpec(2, ((-0.2, 0.0), (0.2, 0.0)), 0.5)))
        graph = RangeGraph.from_pairs([(1, 3), (1, 4), (2, 3), (2, 4)], 0.1)
        spec = FormationSpec.line(2)
        s = SortedIds.identity(team)
        x = state_with_positions([(2.0, 0.0)])
        assert costs.j_est(x, team, graph) == costs.SATURATION
        for kind in ("opt", "cov"):
            cost = costs.cost_function(kind, team, graph, spec, s)
            probes = np.repeat(np.eye(3), 2, axis=0) * np.tile([1e-6, -1e-6], 3)[:, None]
            C, r, _ = se2.compose_many(x, *se2.exp_many(probes))
            est = costs.est_many(_edge_index(team, graph), *frames(C, r))
            assert np.sum(est == costs.SATURATION) == 2 and np.all(np.isfinite(est))
            assert_matches_loop(cost, x)

    def test_coincident_robots_raise_alike(self):
        sc = load_scenario("sim5")
        s = SortedIds.identity(sc.team)
        x = state_with_positions([(1.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 0.0)])
        for kind in ("opt", "cov"):
            cost = costs.cost_function(kind, sc.team, sc.graph, sc.formation, s)
            _, err = assert_matches_loop(cost, x)
            assert err is not None and err[0] is ValueError

    def test_non_finite_probe_raises_alike(self):
        sc = load_scenario("sim5")
        s = SortedIds.identity(sc.team)
        x = random_formation(5, np.random.default_rng(8))
        cost = costs.cost_function("cov", sc.team, sc.graph, sc.formation, s)
        # a function mapped over the probes that is infinite once robot 4
        # moves along its first axis
        bad = Mapped(lambda st: np.inf if st.r[2, 0] > x.r[2, 0] else cost(st))
        _, err = assert_matches_loop(bad, x)
        assert err is not None and "coordinate 7" in err[1]
        # the stacked evaluator: squared offsets overflow at every probe
        huge = se2.FormationState(x.C, x.r * 1e160)
        with np.errstate(over="ignore", invalid="ignore"):
            _, err = assert_matches_loop(
                costs.cost_function("adj", sc.team, sc.graph, sc.formation, s), huge)
        assert err is not None and "coordinate 0" in err[1]


class TestValueIsTheScalarCost:
    """The value gradient_fd returns is the cost at x, byte for byte, the
    scalar oracle's for an Objective: the descent records it in place of a
    separate cost(x) call."""

    def test_drifted_and_singular(self):
        sc = load_scenario("sim5")
        s = SortedIds.identity(sc.team)
        x = random_formation(5, np.random.default_rng(12))
        drifted = se2.FormationState(x.C * (1.0 + 1e-7), x.r, ops=se2.RENORMALIZE_EVERY)
        team = TeamConfig((RobotSpec(1, ((-0.2, 0.0), (0.2, 0.0)), 0.5),
                           RobotSpec(2, ((-0.2, 0.0), (0.2, 0.0)), 0.5)))
        graph = RangeGraph.from_pairs([(1, 3), (1, 4), (2, 3), (2, 4)], 0.1)
        singular = state_with_positions([(2.0, 0.0)])
        cases = [(costs.cost_function(kind, sc.team, sc.graph, sc.formation, s), st)
                 for kind in ("adj", "opt", "cov") for st in (x, drifted)]
        cases += [(costs.cost_function(kind, team, graph, FormationSpec.line(2),
                                       SortedIds.identity(team)), singular)
                  for kind in ("opt", "cov")]
        for cost, st in cases:
            value, g = gradient_fd(cost, st, 1e-6)
            assert f64(value) == f64(scalar_of(cost)(st)) and type(value) is float
        assert gradient_fd(cases[-2][0], singular, 1e-6)[0] == costs.SATURATION
        # the drift is visible in the cost, so the value is taken at x as it is,
        # not at x re-projected like its probes
        reprojected = se2.FormationState(drifted.C, drifted.r, ops=se2.RENORMALIZE_EVERY + 1)
        assert f64(cases[5][0](drifted)) != f64(cases[5][0](reprojected))  # cov


class TestMinimizeMatchesLoop:
    """minimize takes the cost at each iterate from the stacked gradient call;
    the oracle evaluates it with the scalar cost after each step."""

    @pytest.mark.parametrize("preset", ["sim5", "bridge7", "exp3plus2"])
    def test_random_starts(self, preset):
        sc = load_scenario(preset)
        dirs = np.asarray(sc.formation.directions)
        rng = np.random.default_rng(17)
        seen = set()
        for _ in range(2):
            x0 = random_formation(sc.team.n_robots, rng)
            s = sort_robot_ids(x0, sc.team, dirs)
            for kind in ("adj", "opt", "cov"):
                cost = costs.cost_function(kind, sc.team, sc.graph, sc.formation, s)
                # the default tol stops at max_iters; the loose one converges
                for tol in (1e-4, 5e-3):
                    tr, err = assert_minimize_matches_loop(
                        cost, x0, OptimizerConfig(max_iters=250, tol=tol))
                    assert err is None
                    seen.add(tr.converged)
        assert seen == {True, False}

    def test_converged_small_team(self):
        team = TeamConfig.uniform(3)
        s = SortedIds.identity(team)
        x0 = random_formation(3, np.random.default_rng(3))
        tr, _ = assert_minimize_matches_loop(
            Mapped(lambda st: costs.j_adj(st, FormationSpec.line(3), s)), x0)
        assert tr.converged and tr.message == ""

    def test_one_iteration(self):
        sc = load_scenario("sim5")
        x0 = random_formation(5, np.random.default_rng(5))
        cost = costs.cost_function("cov", sc.team, sc.graph, sc.formation,
                                   SortedIds.identity(sc.team))
        tr, _ = assert_minimize_matches_loop(cost, x0, OptimizerConfig(max_iters=1))
        assert tr.n_iters == 1 and not tr.converged

    def test_zero_weight_objective(self):
        # every weight 0: the stacked objective is a zero row per state
        sc = load_scenario("sim5")
        spec = replace(sc.formation, weights=CostWeights(0.0, 0.0, 0.0, 0.0))
        cost = costs.cost_function("cov", sc.team, sc.graph, spec, SortedIds.identity(sc.team))
        x0 = random_formation(5, np.random.default_rng(6))
        assert cost.many(x0.C[None], x0.r[None]).tolist() == [0.0]
        tr, _ = assert_minimize_matches_loop(cost, x0)
        assert tr.converged and tr.n_iters == 1 and tr.final_cost == 0.0

    def test_saturated_plateau(self):
        x0 = state_with_positions([(1.0, 0.0)])
        tr, _ = assert_minimize_matches_loop(Mapped(lambda st: costs.SATURATION), x0)
        assert "plateau" in tr.message and tr.n_iters == 0

    def test_non_finite_start(self):
        x0 = state_with_positions([(1.0, 0.0)])
        _, err = assert_minimize_matches_loop(Mapped(lambda st: np.nan), x0)
        assert err is not None and "initial state" in err[1]

    def test_probe_raises_mid_descent(self):
        # a bowl whose minimum lies past a fence on robot 2's x: the iterate
        # that crosses it costs inf and its probes raise
        target, fence = np.array([0.8, -1.1]), 0.4

        class Fenced:
            def __call__(self, st):
                return np.inf if st.r[0, 0] > fence else float(np.sum((st.r[0] - target) ** 2))

            def many(self, C, r):
                return np.where(r[:, 0, 0] > fence, np.inf,
                                np.sum((r[:, 0] - target) ** 2, axis=-1))

        x0 = state_with_positions([(0.0, 0.0)])
        for cost in (Fenced(), Mapped(Fenced())):
            _, err = assert_minimize_matches_loop(cost, x0)
            assert err is not None and "finite-difference probe, coordinate 0" in err[1]

    def test_scalar_cost_only_at_start_and_stop(self):
        sc = load_scenario("sim5")
        x0 = random_formation(5, np.random.default_rng(9))
        objective = costs.cost_function("cov", sc.team, sc.graph, sc.formation,
                                        SortedIds.identity(sc.team))
        calls = []

        class Counted:
            many = staticmethod(objective.many)

            def __call__(self, st):
                calls.append(st)
                return objective(st)

        tr = minimize(Counted(), x0, OptimizerConfig(max_iters=40))
        assert calls[0] is x0 and calls[1] is tr.final_state and len(calls) == 2


class TestGradient:
    def test_constant_cost_zero_gradient(self):
        x = state_with_positions([(1.0, 0.0), (2.0, 0.0)])
        value, g = gradient_fd(Mapped(lambda s: 4.2), x, 1e-6)
        assert value == 4.2
        np.testing.assert_array_equal(g, np.zeros(6))

    def test_zero_at_stationary_point(self):
        target = np.array([1.5, -0.5])
        cost = Mapped(lambda s: float(np.sum((s.r[0] - target) ** 2)))
        x = state_with_positions([target])
        value, g = gradient_fd(cost, x, 1e-6)
        assert value == 0.0
        np.testing.assert_allclose(g, np.zeros(3), atol=1e-9)

    def test_matches_analytic_translation_gradient(self):
        # pure translation case: d/d rho |r - r_des|^2 = 2 C^T (r - r_des)
        spec = FormationSpec.line(2)
        s = SortedIds.identity(TeamConfig.uniform(2))
        x = state_with_positions([(1.7, 0.4)], angles=[0.6])
        _, g = gradient_fd(Mapped(lambda st: costs.j_adj(st, spec, s)), x, 1e-6)
        resid = x.r[0] - np.array([1.0, 0.0])
        expected_rho = 2.0 * x.C[0].T @ resid
        np.testing.assert_allclose(g[1:], expected_rho, rtol=1e-4)
        assert abs(g[0]) < 1e-6  # heading does not move robot origins

    def test_non_finite_probe_reports_coordinate(self):
        x = state_with_positions([(1.0, 0.0)])

        def bad(s):
            return np.inf if s.r[0, 1] > 1e-8 else 1.0

        with pytest.raises(ValueError, match="coordinate 2"):
            gradient_fd(Mapped(bad), x, 1e-6)


def count_blocks(monkeypatch):
    """Count the row blocks ``Objective.many`` evaluates from here on."""
    seen = []
    real = costs.Objective._many
    monkeypatch.setattr(costs.Objective, "_many",
                        lambda self, C, r: seen.append(len(C)) or real(self, C, r))
    return seen


class TestProbeBlocks:
    def test_probe_exps_built_once_per_dim_and_step(self):
        R, t = optimizer._probe_exps(12, 1e-6)
        assert optimizer._probe_exps(12, 1e-6)[0] is R
        # the probes +1e-6 e_0, -1e-6 e_0, ... as gradient_fd built them at every
        # call, +0.0 off the axis
        probes = np.zeros((12, 2, 12))
        probes[np.arange(12), :, np.arange(12)] = (1e-6, -1e-6)
        R_want, t_want = se2.exp_many(probes.reshape(24, 12))
        assert R.tobytes() == R_want.tobytes() and t.tobytes() == t_want.tobytes()
        assert optimizer._probe_exps(12, 1e-5)[1].tobytes() != t.tobytes()

    @pytest.mark.parametrize("preset", ["sim5", "exp3plus2", "bridge7"])
    def test_row_blocks_equal_one_call(self, preset, monkeypatch):
        sc = load_scenario(preset)
        x = random_formation(sc.team.n_robots, np.random.default_rng(17))
        objective = costs.cost_function("cov", sc.team, sc.graph, sc.formation,
                                        SortedIds.identity(sc.team))
        seen = count_blocks(monkeypatch)
        value, g = gradient_fd(objective, x, 1e-6)
        assert seen == [2 * x.dim + 1]  # the presets' probe stacks are one block
        for rows in (1, 3, 2 * x.dim):
            monkeypatch.setattr(costs, "BLOCK_BYTES", rows * objective.row_bytes)
            seen.clear()
            value_b, g_b = gradient_fd(objective, x, 1e-6)
            assert len(seen) == -(-(2 * x.dim + 1) // rows) and max(seen) == rows
            assert f64(value_b) == f64(value) and g_b.tobytes() == g.tobytes()

    def test_memory_is_bounded_on_24_robots(self):
        # the default two-tag team on its full graph, 1,104 edges: one stacked
        # call over all 139 rows peaked at 184 MB
        n = 24
        team = TeamConfig.uniform(n)
        cost = costs.cost_function("cov", team, default_full_graph(team), FormationSpec.line(n),
                                   SortedIds.identity(team))
        rng = np.random.default_rng(5)
        grid = np.array([(2.0 * (k % 5), 2.0 * (k // 5)) for k in range(1, n)])
        x = se2.FormationState(se2._rot_many(rng.uniform(-np.pi, np.pi, n - 1)),
                               grid + rng.uniform(-0.3, 0.3, grid.shape))
        assert cost.row_bytes * (2 * x.dim + 1) > 5 * costs.BLOCK_BYTES
        tracemalloc.start()
        try:
            value, g = gradient_fd(cost, x, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(value) and np.all(np.isfinite(g))
        assert peak < 1.5 * costs.BLOCK_BYTES


class TestReferenceReplay:
    """The benchmark's recorded designs (perfbench/reference.json, read only)
    replay exactly: the three with the fewest iterations reach their recorded
    iteration counts and objective bit for bit."""

    def test_cheapest_reference_designs(self):
        ref = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                          / "reference.json").read_text())
        doc = copy.deepcopy(PRESETS["sim5"])
        doc["optimizer"] = {"restarts": ref["restarts"]}
        scenario = build_scenario(doc, name="sim5")
        real = cli.minimize
        for design in sorted(ref["designs"], key=lambda d: d["iterations"])[:3]:
            restarts = []
            cli.minimize = lambda *a, **k: restarts.append(real(*a, **k)) or restarts[-1]
            try:
                best, _ = cli.optimize_formation(scenario, "cov", design["seed"])
            finally:
                cli.minimize = real
            assert sum(t.n_iters for t in restarts) == design["iterations"]
            assert best.n_iters == design["winner_iterations"]
            assert f64(best.final_cost) == f64(design["objective"])


class TestMinimize:
    def test_converges_immediately_at_minimum(self):
        spec = FormationSpec.line(3)
        s = SortedIds.identity(TeamConfig.uniform(3))
        x0 = state_with_positions([(1.0, 0.0), (2.0, 0.0)])
        tr = minimize(Mapped(lambda st: costs.j_adj(st, spec, s)), x0)
        assert tr.converged
        assert tr.n_iters <= 2

    def test_quadratic_bowl_converges(self):
        target = np.array([0.8, -1.1])
        cost = Mapped(lambda s: float(np.sum((s.r[0] - target) ** 2)))
        x0 = state_with_positions([(0.0, 0.0)])
        tr = minimize(cost, x0, OptimizerConfig(max_iters=20_000))
        assert tr.converged
        np.testing.assert_allclose(tr.final_state.r[0], target, atol=1e-2)

    def test_adj_line_formation_n4(self):
        team = TeamConfig.uniform(4)
        spec = FormationSpec.line(4)
        rng = np.random.default_rng(5)
        x0 = random_formation(4, rng)
        s = SortedIds.identity(team)
        tr = minimize(Mapped(lambda st: costs.j_adj(st, spec, s)), x0,
                      OptimizerConfig(max_iters=30_000))
        assert tr.converged
        assert tr.final_cost < 1e-3
        assert fit_line_residual(tr.final_state.positions()) < 0.05

    def test_best_so_far_is_non_increasing_per_window(self):
        team = TeamConfig.uniform(3)
        spec = FormationSpec.line(3)
        s = SortedIds.identity(team)
        x0 = random_formation(3, np.random.default_rng(2))
        tr = minimize(Mapped(lambda st: costs.j_adj(st, spec, s)), x0,
                      OptimizerConfig(max_iters=5000))
        vals = np.array([c for _, c, _ in tr.iterates])
        best = np.minimum.accumulate(vals)
        for w in range(0, len(best) - 100, 100):
            assert best[w + 100] <= best[w] + 1e-15

    def test_step_norm_below_tol_at_convergence(self):
        team = TeamConfig.uniform(3)
        spec = FormationSpec.line(3)
        s = SortedIds.identity(team)
        x0 = random_formation(3, np.random.default_rng(3))
        tr = minimize(Mapped(lambda st: costs.j_adj(st, spec, s)), x0)
        assert tr.converged
        assert tr.iterates[-1][2] < 1e-4

    def test_saturated_plateau_returns_diagnostic(self):
        x0 = state_with_positions([(1.0, 0.0)])
        tr = minimize(Mapped(lambda s: costs.SATURATION), x0)
        assert not tr.converged
        assert "plateau" in tr.message

    def test_non_finite_start_rejected(self):
        x0 = state_with_positions([(1.0, 0.0)])
        with pytest.raises(ValueError, match="initial state"):
            minimize(Mapped(lambda s: np.nan), x0)

    def test_deterministic_given_seed(self):
        team = TeamConfig.uniform(3)
        spec = FormationSpec.line(3)
        s = SortedIds.identity(team)
        cost = Mapped(lambda st: costs.j_adj(st, spec, s))
        cfg = OptimizerConfig(restarts=2, max_iters=3000)
        tr1 = minimize_multistart(cost, 3, cfg, seed=11)
        tr2 = minimize_multistart(cost, 3, cfg, seed=11)
        assert tr1.iterates == tr2.iterates
        np.testing.assert_array_equal(tr1.final_state.r, tr2.final_state.r)
        np.testing.assert_array_equal(tr1.final_state.C, tr2.final_state.C)

    def test_scaled_cost_shares_fixed_points(self):
        # converged states of the scaled problem are stationary for it:
        # gradient norm below tol * scale
        team = TeamConfig.uniform(3)
        spec = FormationSpec.line(3)
        s = SortedIds.identity(team)
        scale = 7.0
        cost = Mapped(lambda st: scale * costs.j_adj(st, spec, s))
        x0 = random_formation(3, np.random.default_rng(4))
        tr = minimize(cost, x0, OptimizerConfig(max_iters=30_000))
        assert tr.converged
        _, g = gradient_fd(cost, tr.final_state, 1e-6)
        assert np.linalg.norm(g) < 1e-4 * scale / (1 - 0.9) * 10


class TestRandomFormation:
    def test_respects_min_separation(self):
        cfg = OptimizerConfig(min_init_separation=0.5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = random_formation(5, rng, cfg)
            pos = x.positions()
            d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
            assert d[np.triu_indices(5, 1)].min() > 0.5

    def test_within_box(self):
        cfg = OptimizerConfig(init_box=2.0)
        x = random_formation(4, np.random.default_rng(1), cfg)
        assert np.all(np.abs(x.r) <= 2.0)

    def test_crowded_box_is_a_value_error(self):
        # 40 robots in the default 6 m box hold about 17 close pairs a draw
        with pytest.raises(ValueError, match="1000 draws of 40 robots"):
            random_formation(40, np.random.default_rng(0))

    @pytest.mark.parametrize("kw", [{"init_box": 0.0}, {"init_box": -1.0},
                                    {"min_init_separation": -0.1}])
    def test_start_box_is_validated(self, kw):
        with pytest.raises(ValueError, match="init_box > 0 and min_init_separation >= 0"):
            OptimizerConfig(**kw)
