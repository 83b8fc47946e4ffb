#!/usr/bin/env python3
"""The repository benchmark: host time of the GuardNN simulator, end to
end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``llm-decode``, ``random-access``, ``secure-inference``,
``serve-sweeps``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the public calls into each layer and reports the
per-layer metrics, the tracing overhead, and writes the spans under
``.perfbench/``. Every run checks the program's outputs; the last line
of standard output is the JSON result.

All times are host time of the simulator. Simulated statistics (cycles,
bursts, DRAM statistics, traffic) are outputs that must stay identical,
never performance metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "llm-decode": "wl_pipeline",
    "random-access": "wl_pipeline",
    "secure-inference": "wl_secure",
    "serve-sweeps": "wl_serve",
}
#: the seed later performance claims are developed on, and the one held
#: out to confirm them
DEVELOPMENT_SEED = 1
HELD_OUT_SEED = 7919


def scalar_requested() -> bool:
    """``REPRO_SCALAR=1`` times the scalar reference paths — a
    different program, whose numbers this benchmark refuses to report."""
    return os.environ.get("REPRO_SCALAR", "").strip().lower() in (
        "1", "true", "yes", "on")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no simulator source under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if scalar_requested():
        print("error: REPRO_SCALAR is set; the benchmark times the fast "
              "paths only", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    sys.path.insert(1, SRC)

    import harness

    module = importlib.import_module(WORKLOADS[args.workload])
    ticks = harness.host_cpu_ticks()
    result = module.run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    result.notes["host_cpu_steal_share"] = round(
        harness.steal_share(ticks, harness.host_cpu_ticks()), 4)

    # report exactly the metrics BENCHMARK.json defines for this mode; a
    # layer the workload does not run reads 0 (a layer it does run but
    # whose spans never fired has already made the run incorrect)
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in wanted}
    unknown = sorted(set(result.metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    for name, (_, unit) in result.metrics.items():
        if unit != units[name]:
            raise RuntimeError(f"{name}: unit {unit!r}, "
                               f"BENCHMARK.json says {units[name]!r}")
    result.metrics = {name: result.metrics.get(name, (0.0, unit))
                      for name, unit in units.items()}
    harness.emit(result, dict(harness.environment(), workload=args.workload,
                              seed=args.seed, trace=args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
