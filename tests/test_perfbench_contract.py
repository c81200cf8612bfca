"""The benchmark's tracer (perfbench/tracer.py, read here and never edited)
wraps covform's functions by module attribute from outside the program, so
a rename or a reordered signature in src fails here, not only in the
benchmark's self-check."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves_to_a_callable():
    tracer = load_tracer()
    assert tracer.PATCH_POINTS
    for module_name, attr, span in tracer.PATCH_POINTS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{span}: {module_name}.{attr} is not a callable"


def test_range_row_counter_reads_rr_idx_and_lm_edges():
    # _count_range_rows counts len(args[2]) + len(args[4]) of each traced call
    tracer = load_tracer()
    assert tracer.RESULT_HOOKS["ekf.ekf_update_ranges"] is tracer._count_range_rows
    (module_name, attr), = [(m, a) for m, a, span in tracer.PATCH_POINTS
                            if span == "ekf.ekf_update_ranges"]
    fn = getattr(importlib.import_module(module_name), attr)
    params = list(inspect.signature(fn).parameters)
    assert (params[2], params[4]) == ("rr_idx", "lm_edges")
