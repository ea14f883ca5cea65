"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src``; nothing is installed.  The output is a detailed
JSON report (every metric with its unit, median, quartiles and sample
count, provenance) followed, as the last line, by one
JSON object with exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` a traced run's per-layer
metrics.  The exit code is non-zero, and no result is printed, when the
benchmark cannot run (for instance without ``src/repro``).
"""

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("campaign-cold", "serve-churn")


def _provenance(seed: int) -> dict:
    import platform

    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def _benchmark_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    # The benchmark's modules import as the ``perfbench`` package from
    # the checkout root, never as top-level names from this directory.
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # A terminated benchmark still stops the servers and children it
    # started: SIGTERM unwinds through their ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    config = _benchmark_config()
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in config[group]}

    from perfbench import procs, workloads

    steal_before = procs.steal_s()
    work_root = os.path.join(ROOT, "perfbench", ".work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                            dir=work_root)
    try:
        ctx = workloads.Context(root=ROOT, work=work, seed=args.seed,
                                seconds=args.seconds)
        run = (workloads.campaign_cold if args.workload == "campaign-cold"
               else workloads.serve_churn)
        outcome = run(ctx, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        print(f"workload did not measure {missing}", file=sys.stderr)
        return 3
    details = dict(outcome.details)
    details["provenance"] = _provenance(args.seed)
    # Time stolen by other guests of the host during the run: the usual
    # cause of a run that reads slower than its neighbours.
    details["provenance"]["cpu_steal_s"] = procs.steal_s() - steal_before
    details["workload"] = args.workload
    details["traced"] = bool(args.trace)
    details["failed_ratio"] = outcome.failed / outcome.attempted
    print(json.dumps(details, indent=1, sort_keys=True, default=str))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
