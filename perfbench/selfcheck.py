"""Self-checks for the benchmark itself, at smoke size (under two minutes).

    python3 perfbench/selfcheck.py

1. BENCHMARK.json lists exactly the metrics metrics.py emits.
2. Every workload, untraced and traced, emits every metric with its unit,
   and its outputs pass the checks.
3. Per-layer call counts repeat exactly for a fixed seed.
4. A design with seed 7 and 2 restarts takes 992 descent iterations,
   counted as optimizer.gradient_fd calls.
5. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 3


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180, check=False)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_manifest() -> None:
    import metrics

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in manifest[key]]
        assert listed == list(table), f"BENCHMARK.json {key} differs from metrics.py"
    print("ok  BENCHMARK.json matches metrics.py")


def check_smoke() -> None:
    import metrics
    import workloads

    for name in workloads.WORKLOADS:
        calls = []
        for trace, table in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER),
                             (1, metrics.PER_LAYER)):
            res = result_of(run(["--workload", name, "--seed", str(SEED),
                                 "--seconds", "1", "--trace", str(trace)]))
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            emitted = {k: v["unit"] for k, v in res["metrics"].items()}
            assert emitted == {n: u for n, u, _ in table}, (name, trace, emitted)
            if trace:
                calls.append({k: v["value"] for k, v in res["metrics"].items()
                              if k.endswith(".calls") or k in ("sim.truth_steps", "run.ops")})
        assert calls[0] == calls[1], f"{name}: call counts differ between runs: {calls}"
        print(f"ok  {name}: every metric emitted with its unit; call counts repeat")


def check_design_seed_7() -> None:
    import workloads
    from tracer import Tracer

    wl = workloads.DesignSim5(0)
    wl.order = [next(k for k, d in enumerate(wl.designs) if d["seed"] == 7)]
    assert wl.restarts == 2
    tracer = Tracer()
    with tracer.installed():
        raw = wl.run_op(0, tracer.call)
    result = wl.check(0, raw)
    n_grad = tracer.layer_totals()["optimizer.gradient_fd"][0]
    assert not result.failure, result.failure
    assert n_grad == 992 == result.work, (n_grad, result.work)
    print("ok  design seed 7, 2 restarts: optimizer.gradient_fd.calls = 992")


def check_bare_directory() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", "coverage_lab", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  bare directory: exit code", proc.returncode, "and no result")


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    check_manifest()
    check_bare_directory()
    check_design_seed_7()
    check_smoke()


if __name__ == "__main__":
    main()
