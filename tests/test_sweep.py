"""Seeded robustness sweep: some two hundred trials over every kind of run the
simulator accepts (full exp3plus2 trials, short sim5 and bridge7 runs,
noiseless runs, a graph without edges, a scenario without landmarks). Each
must end with finite metrics, no divergence and a final covariance that is
symmetric and positive definite, so that a regression in the landmark-init
gate or the fold fails here rather than in a benchmark run."""

from dataclasses import replace

import numpy as np
import pytest

from covform.covsim import sim, trial_seeds
from covform.covsim.ekf import EkfState
from covform.team import RangeGraph
from test_montecarlo import preset_line

# the exp3plus2 trial that diverged before the landmark-init residual gate
GATE_SEED = 989652364

SWEEP = {  # name: (preset, config changes, graph (None: the preset's), trial seeds)
    "exp3plus2": ("exp3plus2", {}, None, trial_seeds(12, 119) + [GATE_SEED]),
    "exp3plus2_noiseless": ("exp3plus2", {"noise_scale": 0.0}, None, trial_seeds(13, 10)),
    "exp3plus2_no_edges": ("exp3plus2", {}, RangeGraph((), ()), trial_seeds(14, 10)),
    "exp3plus2_no_landmarks": ("exp3plus2", {"landmark_positions": ()}, None,
                               trial_seeds(15, 10)),
    "sim5_short": ("sim5", {"max_sim_time": 2.0}, None, trial_seeds(16, 25)),
    "sim5_short_noiseless": ("sim5", {"max_sim_time": 2.0, "noise_scale": 0.0}, None,
                             trial_seeds(17, 5)),
    "bridge7_short": ("bridge7", {"max_sim_time": 1.5}, None, trial_seeds(18, 20)),
    "bridge7_short_noiseless": ("bridge7", {"max_sim_time": 1.5, "noise_scale": 0.0}, None,
                                trial_seeds(19, 5)),
}


def test_sweep_size():
    assert sum(len(seeds) for *_, seeds in SWEEP.values()) >= 200


class KeptState(EkfState):
    """The filter state of the last trial, kept for its final covariance."""

    last = None

    @classmethod
    def create(cls, *args, **kwargs):
        KeptState.last = super().create(*args, **kwargs)
        return KeptState.last


def assert_valid_covariance(P):
    """P finite and symmetric (entries within 1e-9 of the scale sqrt(P_ii P_jj)),
    with a positive diagonal and a correlation matrix whose smallest
    eigenvalue is positive, so P itself is positive definite."""
    assert np.all(np.isfinite(P))
    d = np.sqrt(np.diag(P))
    assert np.all(d > 0)
    scale = np.outer(d, d)
    assert np.max(np.abs(P - P.T) / scale) <= 1e-9
    assert np.linalg.eigvalsh(0.5 * (P + P.T) / scale).min() > 0


@pytest.mark.parametrize("name", list(SWEEP))
def test_sweep(name, monkeypatch):
    preset, changes, graph, seeds = SWEEP[name]
    sc, x = preset_line(preset)
    monkeypatch.setattr(sim, "EkfState", KeptState)
    for seed in seeds:
        config = replace(sc.sim, seed=seed, **changes)
        m = sim.run_coverage_sim(sc.team, graph or sc.graph, x, config).metrics
        where = f"{name} seed {seed}"
        assert np.isfinite([m.interrobot_att_rmse, m.interrobot_pos_rmse,
                            m.nees_containment]).all(), where
        # the two sentinels: no coverage time for a run cut short, and an
        # infinite error for a landmark never initialized
        assert np.isfinite(m.coverage_time) == m.completed, where
        state = KeptState.last
        assert np.isfinite(m.landmark_errors).tolist() == state.initialized.tolist(), where
        assert not m.diverged, where
        if "short" in name:
            # a run cut short may end before a landmark is seen, which must not
            # set the flag; the estimates are held to the threshold directly too
            limit = config.divergence_threshold
            assert m.interrobot_pos_rmse <= limit, where
            assert all(e <= limit for e in m.landmark_errors if np.isfinite(e)), where
        else:
            assert m.completed, where
        assert_valid_covariance(state.P)
