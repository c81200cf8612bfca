import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from covform.covsim import SimConfig, SimMetrics, aggregate, monte_carlo, reduction_table, trial_seeds
from covform.covsim import sim
from covform.covsim.sim import run_coverage_sim
from covform.se2 import Pose2
from covform.team import TeamConfig, default_full_graph
from helpers import from_poses, load_script, preset_line

TRIAL_DIGEST = load_script("trial_digest")


def small_setup():
    team = TeamConfig.uniform(3)
    graph = default_full_graph(team)
    x = from_poses(
        [Pose2(np.eye(2), np.array([k * 0.85, 0.0])) for k in range(1, 3)])
    cfg = SimConfig(area=(6.0, 8.0), landmark_positions=((3.0, 4.0), (1.0, 6.0)),
                    max_sim_time=200.0, seed=42)
    return team, graph, x, cfg


def fake_metrics(**kw):
    base = dict(coverage_time=50.0, interrobot_att_rmse=0.01, interrobot_pos_rmse=0.02,
                landmark_errors=[0.1, 0.2], nees_containment=0.95, completed=True,
                diverged=False, n_rejected_ranges=0, n_rejected_gps=0, seed=0)
    base.update(kw)
    return SimMetrics(**base)


class TestTrialSeeds:
    def test_deterministic_and_distinct(self):
        a = trial_seeds(7, 10)
        b = trial_seeds(7, 10)
        assert a == b
        assert len(set(a)) == 10
        assert trial_seeds(8, 10) != a


class TestMonteCarlo:
    @pytest.mark.parametrize("jobs, trials, cpus, workers", [
        (8, 3, 16, 3),      # no more workers than trials
        (8, 5, 2, 2),       # nor than CPUs
        (3, 5, 16, 3),      # nor than asked for
        (4, 3, 1, None),    # one CPU: serial
        (4, 3, None, None),  # an unknown CPU count counts as one
        (4, 1, 16, None),   # one trial: serial
        (1, 3, 16, None),
    ])
    def test_workers_are_capped_by_trials_and_cpus(self, monkeypatch, jobs, trials, cpus,
                                                   workers):
        # a recording stand-in for the pool: no process is started
        import concurrent.futures
        import os

        started = []

        class FakePool:
            def __init__(self, max_workers, mp_context):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        team, graph, x, cfg = small_setup()
        cfg = replace(cfg, max_sim_time=1.0)
        results, _ = monte_carlo(team, graph, x, cfg, trials, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        serial, _ = monte_carlo(team, graph, x, cfg, trials)
        assert ([json.dumps(r.as_record()) for r in results]
                == [json.dumps(r.as_record()) for r in serial])

    def test_zero_jobs_is_refused(self):
        team, graph, x, cfg = small_setup()
        with pytest.raises(ValueError, match="trials and jobs must be >= 1"):
            monte_carlo(team, graph, x, cfg, 2, jobs=0)

    def test_noiseless_trial_is_clean(self):
        team, graph, x, cfg = small_setup()
        results, agg = monte_carlo(team, graph, x, replace(cfg, noise_scale=0.0), 1)
        assert len(results) == 1
        m = results[0]
        assert m.completed and not m.diverged
        assert m.interrobot_att_rmse < 1e-6
        assert m.interrobot_pos_rmse < 1e-6
        assert all(e < 1e-6 for e in m.landmark_errors)
        assert agg["excluded_incomplete"] == 0

    def test_non_finite_gps_fix_is_rejected_and_counted(self, monkeypatch):
        # one NaN fix in a noiseless trial fails the gate instead of turning
        # the estimate non-finite; every other fix is exact and accepted
        team, graph, x, cfg = small_setup()
        schedule = sim.measurement_schedule

        def with_nan_fix(*args):
            sched = schedule(*args)
            sched.gps_z[3, 0] = np.nan
            return sched

        monkeypatch.setattr(sim, "measurement_schedule", with_nan_fix)
        m = run_coverage_sim(team, graph, x, replace(cfg, noise_scale=0.0)).metrics
        assert m.n_rejected_gps == 1
        assert not m.diverged
        assert m.interrobot_pos_rmse < 1e-6

    def test_reproducible_records(self):
        team, graph, x, cfg = small_setup()
        r1, a1 = monte_carlo(team, graph, x, cfg, 2)
        r2, a2 = monte_carlo(team, graph, x, cfg, 2)
        for m1, m2 in zip(r1, r2):
            assert m1.as_record("f") == m2.as_record("f")
        assert a1 == a2

    def test_trial_without_landmarks(self):
        # an empty landmark list is a valid scenario: the ranging cycles over
        # the edges alone and the trial reports no landmark errors
        team, graph, x, cfg = small_setup()
        (m,), agg = monte_carlo(team, graph, x,
                                replace(cfg, landmark_positions=(), max_sim_time=20.0), 1)
        assert m.landmark_errors == [] and m.nees_containment == 0.0
        assert np.isfinite(m.interrobot_pos_rmse) and not m.diverged
        assert agg["trials"] == 1 and "landmark1_error" not in agg["raw"]

    def test_landmark_never_initialized_does_not_flag_divergence(self):
        # cut at 2 s, the trial never sees landmark 2, whose error stays at
        # the inf sentinel; only the estimates it has count against the threshold
        sc, x = preset_line("sim5")
        config = replace(sc.sim, seed=3, max_sim_time=2.0)
        m = run_coverage_sim(sc.team, sc.graph, x, config).metrics
        assert m.landmark_errors[1] == math.inf and not m.diverged
        assert m.interrobot_pos_rmse < 0.3 < m.landmark_errors[0]
        for threshold in (1e-6, 0.3):  # below the position RMSE, then landmark 1's alone
            cut = run_coverage_sim(sc.team, sc.graph, x,
                                   replace(config, divergence_threshold=threshold)).metrics
            assert cut.diverged, threshold

    def test_rejects_zero_trials(self):
        team, graph, x, cfg = small_setup()
        with pytest.raises(ValueError, match="trials"):
            monte_carlo(team, graph, x, cfg, 0)


class TestAggregate:
    def test_median_and_quartiles(self):
        rows = [fake_metrics(coverage_time=t) for t in (10.0, 20.0, 30.0, 40.0, 50.0)]
        agg = aggregate(rows)
        assert agg["filtered"]["coverage_time"]["median"] == 30.0
        assert agg["filtered"]["coverage_time"]["p25"] == 20.0
        assert agg["filtered"]["coverage_time"]["p75"] == 40.0
        assert agg["trials"] == 5

    def test_incomplete_excluded_and_counted(self):
        rows = [fake_metrics(), fake_metrics(completed=False, coverage_time=float("nan"))]
        agg = aggregate(rows)
        assert agg["excluded_incomplete"] == 1
        assert agg["filtered"]["coverage_time"]["median"] == 50.0

    def test_diverged_excluded_from_filtered_kept_in_raw(self):
        rows = [fake_metrics(interrobot_pos_rmse=0.02),
                fake_metrics(diverged=True, interrobot_pos_rmse=500.0)]
        agg = aggregate(rows)
        assert agg["excluded_diverged"] == 1
        assert agg["filtered"]["interrobot_pos_rmse"]["median"] == 0.02
        assert agg["raw"]["interrobot_pos_rmse"]["median"] == pytest.approx(250.01)

    def test_landmark_stats_per_landmark(self):
        rows = [fake_metrics(landmark_errors=[0.1, 0.4]),
                fake_metrics(landmark_errors=[0.3, 0.8])]
        agg = aggregate(rows)
        assert agg["filtered"]["landmark1_error"]["median"] == pytest.approx(0.2)
        assert agg["filtered"]["landmark2_error"]["median"] == pytest.approx(0.6)


def quartile(v, q):
    """numpy's linear-interpolation percentile, or its limit where the
    interpolation meets inf: the value at an exact rank, else inf."""
    s = np.sort(v)
    if np.isnan(s[-1]):
        return math.nan
    pos = (len(s) - 1) * q / 100
    lo = math.floor(pos)
    if pos == lo:
        return float(s[lo])
    if np.isinf(s[lo + 1]):
        return math.inf
    return float(np.percentile(v, q))


def stats_per_metric(values):
    """The summary of one metric on its own: one median and two quartiles."""
    if not values:
        return {"median": None, "p25": None, "p75": None}
    v = np.asarray(values, dtype=np.float64)
    return {"median": float(np.median(v)), "p25": quartile(v, 25), "p75": quartile(v, 75)}


def aggregate_per_metric(rows, n_landmarks):
    """Oracle of one ``aggregate`` table: every metric summarized on its own."""
    keys = ("coverage_time", "interrobot_att_rmse", "interrobot_pos_rmse", "nees_containment")
    out = {k: stats_per_metric([getattr(r, k) for r in rows]) for k in keys}
    for l in range(n_landmarks):
        out[f"landmark{l + 1}_error"] = stats_per_metric(
            [r.landmark_errors[l] for r in rows if np.isfinite(r.landmark_errors[l])])
    return out


class TestAggregateQuantiles:
    @pytest.mark.parametrize("n", [*range(1, 30), 60, 100, 1500])
    def test_batched_quantiles_equal_per_metric_calls(self, n):
        # one median and one percentile call per table, against three calls
        # per metric: the summary keeps its bytes, with diverged (inf and nan)
        # and uninitialized (inf) trials among the rows
        rng = np.random.default_rng(n)
        rows = []
        for k in range(n):
            bad = rng.random() < 0.15
            rows.append(fake_metrics(
                coverage_time=float(rng.uniform(30.0, 300.0)),
                interrobot_att_rmse=float(rng.lognormal(-4.0, 1.0)),
                interrobot_pos_rmse=float(rng.choice([np.inf, np.nan])) if bad
                else float(rng.lognormal(-2.0, 1.5)),
                nees_containment=float(rng.uniform()),
                landmark_errors=[float(rng.lognormal(-1.0, 1.0)) if rng.random() < 0.8
                                 else float("inf") for _ in range(2)],
                diverged=bad, completed=rng.random() < 0.95))
        completed = [r for r in rows if r.completed]
        agg = aggregate(rows)
        for name, table in (("raw", completed),
                            ("filtered", [r for r in completed if not r.diverged])):
            assert json.dumps(agg[name]) == json.dumps(aggregate_per_metric(table, 2)), name

    @pytest.mark.parametrize("values, p25, p75", [
        ([1.0, 2.0, math.inf], 1.5, math.inf),
        ([1.0, math.inf, math.inf], math.inf, math.inf),
        ([math.inf], math.inf, math.inf),
        ([1.0, 2.0, 3.0, 4.0, math.inf], 2.0, 4.0),  # exact ranks next to inf
        ([2.0, 1.0, 3.0, math.inf], 1.75, math.inf),
    ])
    def test_quartiles_next_to_inf_are_not_nan(self, values, p25, p75):
        # diverged trials with an infinite RMSE stay in the raw table, where
        # numpy's interpolation takes inf - inf; the summary reports its limit
        rows = [fake_metrics(interrobot_pos_rmse=v, diverged=not math.isfinite(v))
                for v in values]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = aggregate(rows)["raw"]["interrobot_pos_rmse"]
        assert (raw["p25"], raw["p75"]) == (p25, p75)
        assert raw["median"] == float(np.median(values))
        assert "NaN" not in json.dumps(aggregate(rows))


class TestReductionTable:
    def test_self_reduction_is_zero(self):
        rows = [fake_metrics(), fake_metrics(landmark_errors=[0.2, 0.3])]
        aggs = {"adj": aggregate(rows)}
        table = reduction_table(aggs, "adj")
        for v in table["adj"].values():
            assert v == pytest.approx(0.0)

    def test_reduction_percentages(self):
        base = [fake_metrics(landmark_errors=[1.0, 1.0],
                             interrobot_att_rmse=0.1, interrobot_pos_rmse=0.1)]
        better = [fake_metrics(landmark_errors=[0.5, 0.75],
                               interrobot_att_rmse=0.05, interrobot_pos_rmse=0.02)]
        aggs = {"adj": aggregate(base), "cov": aggregate(better)}
        table = reduction_table(aggs, "adj")
        assert table["cov"]["landmark1_error"] == pytest.approx(50.0)
        assert table["cov"]["landmark2_error"] == pytest.approx(25.0)
        assert table["cov"]["interrobot_att_rmse"] == pytest.approx(50.0)
        assert table["cov"]["interrobot_pos_rmse"] == pytest.approx(80.0)

    @pytest.mark.parametrize("n_landmarks", [0, 1, 3, 11])
    def test_rows_follow_the_baseline_landmarks(self, n_landmarks):
        # one row per landmark of the baseline, in landmark order, then att and pos
        base = [fake_metrics(landmark_errors=[1.0] * n_landmarks)]
        better = [fake_metrics(landmark_errors=[1.0 - 0.05 * l for l in range(n_landmarks)],
                               interrobot_att_rmse=0.005)]
        aggs = {"adj": aggregate(base), "cov": aggregate(better)}
        # the order is kept through the sorted-key JSON the summary is written as
        for table in (reduction_table(aggs, "adj"),
                      reduction_table(json.loads(json.dumps(aggs, sort_keys=True)), "adj")):
            keys = [f"landmark{l + 1}_error" for l in range(n_landmarks)]
            assert list(table["cov"]) == keys + ["interrobot_att_rmse", "interrobot_pos_rmse"]
            assert [table["cov"][k] for k in keys] == pytest.approx(
                [5.0 * l for l in range(n_landmarks)])
            assert table["cov"]["interrobot_att_rmse"] == pytest.approx(50.0)

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            reduction_table({"cov": aggregate([fake_metrics()])}, "adj")


class TestRejectionCounters:
    def test_each_sensor_counts_its_own_gate_rejections(self, monkeypatch):
        from covform.covsim import ekf, sim

        team, graph, x, cfg = small_setup()
        seen = {"gps_calls": 0, "gps": 0, "ranges": 0}
        real_gps, real_ranges = sim.ekf_update_gps, sim.ekf_update_ranges

        def gps(state, model, z, sigma):
            seen["gps_calls"] += 1
            with monkeypatch.context() as patch:
                if seen["gps_calls"] % 3 == 0:  # every third fix meets a gate nothing passes
                    patch.setattr(ekf, "GPS_GATE_2DOF", -1.0)
                state, ok = real_gps(state, model, z, sigma)
            seen["gps"] += not ok
            return state, ok

        def ranges(*args):
            state, n_rejected = real_ranges(*args)
            seen["ranges"] += n_rejected
            return state, n_rejected

        monkeypatch.setattr(sim, "ekf_update_gps", gps)
        monkeypatch.setattr(sim, "ekf_update_ranges", ranges)
        m = sim.run_coverage_sim(team, graph, x, replace(cfg, max_sim_time=4.0)).metrics
        assert seen["gps"] >= seen["gps_calls"] // 3 > 0
        assert m.n_rejected_gps == seen["gps"]
        assert m.n_rejected_ranges == seen["ranges"]
        assert m.as_record()["n_rejected_gps"] == seen["gps"]


GOLDEN_RECORDS = Path(__file__).resolve().parent / "data" / "trial_records_line.json"


def golden_breaks(got, want, where="record"):
    """The fields of record got that break the golden-record rule against want:
    the rule of ``trial_digest.py --compare`` (its ``drifts``)."""
    return [w for w, _, breaks in TRIAL_DIGEST.drifts(got, want, where) if breaks]


class TestGoldenTrialRecords:
    # seeded outputs are the oracle: as_record() of line-formation trials
    # (x86-64, numpy 2.4, float64) before the EKF became an in-place
    # sequence of scalar updates; seeds are SeedSequence([801, i]) draws
    # plus one fixed seed
    @pytest.mark.parametrize("preset", ["exp3plus2", "sim5"])
    def test_line_trials_reproduce_golden_records(self, preset):
        sc, x = preset_line(preset)
        for want in json.loads(GOLDEN_RECORDS.read_text())[preset]:
            m = run_coverage_sim(sc.team, sc.graph, x, replace(sc.sim, seed=want["seed"])).metrics
            assert golden_breaks(m.as_record(), want, f"{preset} seed {want['seed']}") == []

    # a noiseless sim5 trial's rounding residue (RMSEs, second landmark error)
    # before the controller ran on Python floats, which moved it by up to 2.4%,
    # a noisy trial's smallest float (6.6e-4) and a landmark never initialized
    WANT = {"completed": True, "coverage_time": math.nan, "diverged": False, "formation": "line",
            "interrobot_att_rmse": 7.61507868762628e-17, "nees_containment": 0.25,
            "interrobot_pos_rmse": 3.1098537778707787e-16, "n_rejected_ranges": 3,
            "landmark_errors": [6.6e-4, 3.66205343881779e-15, math.inf]}

    @pytest.mark.parametrize("changes, breaks", [
        ({"interrobot_att_rmse": 7.430459262297326e-17, "interrobot_pos_rmse": 3.038925779259955e-16,
          "landmark_errors": [6.6e-4, 3.614624287906422e-15, math.inf]}, False),  # the residue moved
        ({"landmark_errors": [6.6e-4 * (1 + 1e-8), 3.66205343881779e-15, math.inf]}, True),
        ({"landmark_errors": [6.6e-4, 3.66205343881779e-15, 1e300]}, True),
        ({"landmark_errors": [6.6e-4, 3.66205343881779e-15]}, True),
        ({"nees_containment": 0.25 * (1 + 4e-10)}, False), ({"nees_containment": 0.25 * (1 + 3e-9)}, True),
        ({"coverage_time": float("nan")}, False), ({"coverage_time": 1.0}, True),
        ({"n_rejected_ranges": 4}, True), ({"n_rejected_ranges": 3.0}, True),
        ({"completed": False}, True), ({"formation": "adj"}, True),
        ({"seed": 1}, True),  # in place of "diverged": a missing key
    ])
    def test_hand_made_records_get_the_verdict_of_compare(self, capsys, changes, breaks):
        got = {**self.WANT, **changes}
        if "seed" in changes:
            del got["diverged"]
        verdict = TRIAL_DIGEST.compare([{"run": "run", "trial": 0, "record": got}],
                                       {("run", 0): self.WANT}, Path("parent"))
        named = [line.removeprefix("breaks the rule: ") for line in capsys.readouterr().err.splitlines()
                 if line.startswith("breaks the rule: ")]
        assert verdict == int(breaks) and bool(named) == breaks
        assert golden_breaks(got, self.WANT, "run[0]") == named
