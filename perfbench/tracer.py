"""Span recorder that wraps covform's functions from outside the program.

Each wrapped function is replaced at the module attribute its caller looks
it up through (``covform.costs.fisher`` for the call in ``j_est``, not
``covform.ranging.fisher``), so the program's own code stays untouched.
A span is (name, start, end, parent); spans live in flat arrays while the
run lasts and self time is derived from them at the end.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module the caller resolves the name in, attribute, span name)
PATCH_POINTS = (
    ("covform.cli", "sort_robot_ids", "assignment.sort_robot_ids"),
    ("covform.cli", "minimize", "optimizer.minimize"),
    ("covform.optimizer", "gradient_fd", "optimizer.gradient_fd"),
    ("covform.optimizer", "oplus", "se2.oplus"),
    ("covform.costs", "j_cov", "costs.j_cov"),
    ("covform.costs", "j_est", "costs.j_est"),
    ("covform.costs", "fisher", "ranging.fisher"),
    ("covform.ranging", "jacobian", "ranging.jacobian"),
    ("covform.costs", "j_col", "costs.j_col"),
    ("covform.costs", "j_adj", "costs.j_adj"),
    ("covform.costs", "j_overlap", "costs.j_overlap"),
    ("covform.covsim.montecarlo", "run_coverage_sim", "sim.run_coverage_sim"),
    ("covform.covsim.sim", "simulate_truth", "sim.simulate_truth"),
    ("covform.covsim.sim", "control_step", "control.control_step"),
    ("covform.covsim.sim", "ekf_predict", "ekf.ekf_predict"),
    ("covform.covsim.sim", "ekf_update_ranges", "ekf.ekf_update_ranges"),
    ("covform.covsim.sim", "ekf_update_gps", "ekf.ekf_update_gps"),
    ("covform.covsim.sim", "landmark_init", "ekf.landmark_init"),
)


def _count_range_rows(counters: dict, args: tuple, result) -> None:
    # ekf_update_ranges(state, model, rr_idx, z_rr, lm_edges, z_lm, ...) -> (state, n_rejected)
    counters["range_rows"] += len(args[2]) + len(args[4])
    counters["range_rejected"] += int(result[1])


def _count_flag(key: str):
    def hook(counters: dict, args: tuple, result) -> None:
        counters[key] += int(bool(result[1]))
    return hook


RESULT_HOOKS = {
    "ekf.ekf_update_ranges": _count_range_rows,
    "ekf.ekf_update_gps": _count_flag("gps_accepted"),
    "ekf.landmark_init": _count_flag("landmark_init_ok"),
}


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters = {"range_rows": 0, "range_rejected": 0,
                         "gps_accepted": 0, "landmark_init_ok": 0}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span named ``name``."""
        nid = self._intern(name)
        hook = RESULT_HOOKS.get(name)
        counters = self.counters
        stack, name_id, parent, start, end = (self._stack, self.name_id, self.parent,
                                              self.start, self.end)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every patch point for its traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, span in PATCH_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call(self, name: str, fn, *args, **kwargs):
        """Run one root operation inside a span of its own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, total self seconds)} over every recorded span.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans sum to the root spans'
        durations.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        busy = np.bincount(a["name_id"], weights=self_time, minlength=len(self.names))
        return {n: (int(calls[i]), float(busy[i])) for i, n in enumerate(self.names)}

    def write(self, path: Path, meta: dict) -> None:
        """Dump every span plus the name table and run metadata."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            meta=np.array(json.dumps(meta, sort_keys=True)), **self.arrays())
