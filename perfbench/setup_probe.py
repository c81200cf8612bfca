"""One set-up sample, run in a fresh interpreter by run.py.

Times the import of the program, the scenario build and the first-call
warm-up (the lru_cache tables), and prints them as one JSON line.
Usage: python3 perfbench/setup_probe.py <workload>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    import workloads

    t_import = time.perf_counter()
    build_s = []
    real_build = workloads.build_scenario

    def timed_build(*args, **kwargs):
        t = time.perf_counter()
        try:
            return real_build(*args, **kwargs)
        finally:
            build_s.append(time.perf_counter() - t)

    workloads.build_scenario = timed_build
    wl = workloads.make(sys.argv[1], 0)
    workloads.build_scenario = real_build
    t_build = time.perf_counter()
    wl.warm_up()
    t_end = time.perf_counter()
    print(json.dumps({"import_s": t_import - T0, "build_s": t_build - t_import,
                      "build_scenario_s": sum(build_s), "warm_up_s": t_end - t_build,
                      "setup_s": t_end - T0}))


if __name__ == "__main__":
    main()
