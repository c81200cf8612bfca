"""covform benchmark: formation design and coverage-trial throughput.

One process, one caller, closed loop: each operation starts when the
previous one has returned. Run from the root of a checkout:

    python3 perfbench/run.py --workload design_sim5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` times operations with nothing wrapped and reports the
end-to-end metrics. ``--trace 1`` runs a fixed, seed-determined list of
operations twice each, once plain and once with every layer wrapped,
checks that both give identical outputs, and reports the per-layer
metrics. ``--workload all`` runs every workload in turn. Untraced runs
also print, by name and unit, the design and trial times, the quality
medians and the fail fraction. The last line of standard
output is always one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Modules that load numpy (workloads, tracer) are imported inside functions,
# after cap_blas_threads() has run.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 4
# Calibration (see Calibrator): a CAL_STEPS-step kernel every CAL_PERIOD_S of
# an operation; CAL_REF_S is the kernel's typical time on the reference
# machine, so that calibrated rates stay close to raw ones there.
CAL_PERIOD_S = 0.05
CAL_STEPS = 20
CAL_REF_S = 0.0004
PROBE_TIMEOUT_S = 60
# Seconds one (plain, traced) pair of operations took at the reference commit
# on a 2-core Xeon. A traced run does round(--seconds / this) pairs, a count
# fixed by the arguments alone, so that per-layer call counts repeat exactly.
NOMINAL_PAIR_S = {"design_sim5": 16.0, "coverage_sim5": 11.0, "coverage_lab": 0.8}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap every BLAS thread-count variable at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc: int) -> dict:
    import platform

    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "blas_thread_cap": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def measure_setup(workload: str) -> list[dict]:
    """SETUP_SAMPLES fresh interpreters, each importing, building and warming up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def attempt(wl, i: int, call=None):
    """Run and time operation i. Returns (seconds, raw output or the exception)."""
    t0 = time.perf_counter()
    try:
        raw = wl.run_op(i) if call is None else wl.run_op(i, call)
    except Exception as e:  # a crashing operation is a failed one; keep measuring
        traceback.print_exc(file=sys.stderr)
        raw = e
    return time.perf_counter() - t0, raw


def judge(wl, i: int, raw):
    """Check the outputs of operation i, outside the timed and traced region."""
    from workloads import OpResult

    if isinstance(raw, Exception):
        return OpResult(work=0, failure=f"op {i} raised {raw!r}", fingerprint=repr(raw),
                        wrong=True)
    return wl.check(i, raw)


class Calibrator:
    """Samples the host's speed while an operation runs.

    A shared host changes speed every few seconds, faster than a 5 s
    operation lasts, and by up to half. So during each timed operation an
    interval timer fires every CAL_PERIOD_S of wall time and its handler
    times a short fixed kernel that never touches covform: a 19-state rank-1
    covariance update and a 2x2 rotation per step, as small numpy calls
    driven from a Python loop, the mix of the EKF and cost code. The kernel's
    time is taken out of the operation's time, and the operation's host
    slowdown is the kernel's mean time over CAL_REF_S, the mean being taken
    over speeds so that it weighs each stretch of wall time alike.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((19, 19))
        self.p0 = a @ a.T + 19.0 * np.eye(19)
        self.h = rng.standard_normal(19)
        self.eye = np.eye(19)
        self.samples: list[float] = []
        for _ in range(50):  # warm up before any sample counts
            self.kernel()

    def kernel(self) -> float:
        import numpy as np

        p, h, acc = self.p0, self.h, 0.0
        for k in range(CAL_STEPS):
            c, s = math.cos(0.01 * k), math.sin(0.01 * k)
            v = np.array([[c, -s], [s, c]]) @ np.array([1.0, 2.0])
            ph = p @ h
            sk = float(h @ ph) + 0.01
            p = p - np.outer(ph, ph) / sk
            p = 0.5 * (p + p.T) + 1e-3 * self.eye
            acc += float(v[0]) + sk
        return acc

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def attempt(self, wl, i: int) -> tuple[float, float, object]:
        """``attempt(wl, i)`` with sampling on. Returns (program seconds,
        host slowdown, raw output or the exception)."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1e-4, CAL_PERIOD_S)
        try:
            dt, raw = attempt(wl, i)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        dt -= sum(self.samples)
        if not self.samples:  # the operation ended before the first tick
            self._tick(signal.SIGALRM, None)
        speed = statistics.fmean(CAL_REF_S / k for k in self.samples)
        return dt, 1.0 / speed, raw


def measure(wl, seconds: float) -> tuple[list[float], list, list[float]]:
    """Closed loop: run operations until ``seconds`` have passed (at least one).

    Returns each operation's program time (calibration excluded), its
    checked result and the host slowdown measured during it.
    """
    cal = Calibrator()
    times, results, slowdown = [], [], []
    t_end = time.perf_counter() + seconds
    i = 0
    while True:
        dt, factor, raw = cal.attempt(wl, i)
        times.append(dt)
        slowdown.append(factor)
        results.append(judge(wl, i, raw))
        i += 1
        if time.perf_counter() >= t_end:
            return times, results, slowdown


def work_per_s(times: list[float], results: list, slowdown: list[float]) -> float:
    """Median over passing operations of work per second, each operation's
    rate multiplied by the host slowdown measured during it."""
    rates = [r.work / t * f for t, r, f in zip(times, results, slowdown) if not r.failure]
    return statistics.median(rates) if rates else 0.0


def trace_pairs(wl, n_pairs: int):
    """Each operation plain and traced, in alternating order; outputs compared."""
    from tracer import Tracer

    tracer = Tracer()
    plain_t, plain_r, traced_t, traced_r = [], [], [], []
    for i in range(n_pairs):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    dt, raw = attempt(wl, i, tracer.call)
                traced_t.append(dt)
                traced_r.append(judge(wl, i, raw))
            else:
                dt, raw = attempt(wl, i)
                plain_t.append(dt)
                plain_r.append(judge(wl, i, raw))
    mismatched = [i for i, (a, b) in enumerate(zip(plain_r, traced_r))
                  if a.fingerprint != b.fingerprint]
    return tracer, plain_t, plain_r, traced_t, traced_r, mismatched


def report_lines(name: str, setup: list[dict], times: list[float], results: list,
                 slowdown: list[float]) -> list[str]:
    """Every end-to-end figure of a run by name and unit, for people to read."""
    from metrics import quality_medians

    n = len(results)
    failed = sum(bool(r.failure) for r in results)
    q = quality_medians(results)
    n_ok = n - failed
    rate = work_per_s(times, results, [1.0] * n)
    rows = [("setup_s", statistics.median(s["setup_s"] for s in setup), "s", len(setup)),
            ("work_per_s", work_per_s(times, results, slowdown), "1/s", n_ok),
            ("host_slowdown", statistics.median(slowdown), "ratio", n)]
    if name == "design_sim5":
        rows += [("design_s_p50", statistics.median(times), "s", n),
                 ("iters_per_s", rate, "1/s", n_ok),
                 ("objective", q.get("objective", math.nan), "1", n)]
    else:
        n_lm = sum(len(r.quality.get("landmark_err_m", [])) for r in results)
        rows += [("trial_s_p50", statistics.median(times), "s", n),
                 ("steps_per_s", rate, "1/s", n_ok),
                 ("coverage_time_s", q.get("coverage_time_s", math.nan), "s", n),
                 ("rel_pos_rmse_m", q.get("rel_pos_rmse_m", math.nan), "m", n),
                 ("rel_att_rmse_rad", q.get("rel_att_rmse_rad", math.nan), "rad", n),
                 ("landmark_err_m", q.get("landmark_err_m", math.nan), "m", n_lm)]
    rows.append(("fail_frac", failed / n, "ratio", n))
    return [f"{name:14s} {metric:17s} {value:12.6g} {unit:5s} n={count}"
            for metric, value, unit, count in rows]


def run_untraced(name: str, seed: int, seconds: float):
    import workloads

    # half the set-up samples before the timed loop and half after it, so
    # that they see more than one state of a shared host
    setup = measure_setup(name)
    wl = workloads.make(name, seed)
    wl.warm_up()
    times, results, slowdown = measure(wl, seconds)
    setup += measure_setup(name)
    metrics = {"setup_s": statistics.median(s["setup_s"] for s in setup),
               "work_per_s": work_per_s(times, results, slowdown)}
    return setup, times, results, slowdown, metrics


def run_traced(name: str, seed: int, seconds: float, env: dict):
    import workloads
    from metrics import per_layer

    setup = measure_setup(name)
    wl = workloads.make(name, seed)
    wl.warm_up()
    n_pairs = max(1, round(seconds / NOMINAL_PAIR_S[name]))
    tracer, plain_t, plain_r, traced_t, traced_r, mismatched = trace_pairs(wl, n_pairs)
    for i in mismatched:
        print(f"op {i}: traced output differs from the untraced one", file=sys.stderr)
    metrics = per_layer(tracer.layer_totals(), tracer.counters, traced_r, plain_r,
                        traced_t, plain_t,
                        statistics.median(s["build_scenario_s"] for s in setup),
                        wl.root_span)
    tracer.write(BENCH_DIR / "out" / f"trace_{name}.npz",
                 {"workload": name, "seed": seed, "pairs": n_pairs, "env": env})
    return plain_r + traced_r, metrics, not mismatched


def result_line(correct: bool, results: list, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": len(results),
        "failed": sum(bool(r.failure) for r in results),
        "metrics": {k: {"value": v, "unit": units[k.rsplit(":", 1)[-1]]}
                    for k, v in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("design_sim5", "coverage_sim5", "coverage_lab", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "covform" / "__init__.py").is_file():
        print(f"error: no covform sources under {SRC}; run from a covform checkout",
              file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import metrics
    import workloads

    env = environment(nproc)
    print("env " + json.dumps(env, sort_keys=True))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    everything, values, correct = [], {}, True
    for name in names:
        if args.trace:
            results, m, outputs_equal = run_traced(name, args.seed, args.seconds, env)
            correct = correct and outputs_equal
        else:
            setup, times, results, slowdown, m = run_untraced(name, args.seed, args.seconds)
            print("\n".join(report_lines(name, setup, times, results, slowdown)), flush=True)
        everything += results
        values.update({(f"{name}:{k}" if len(names) > 1 else k): v for k, v in m.items()})
    for r in everything:
        if r.failure:
            print(f"FAILED {r.failure}", file=sys.stderr)
    correct = correct and not any(r.wrong for r in everything)
    print(result_line(correct, everything, values, metrics.UNITS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
