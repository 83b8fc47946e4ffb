#!/usr/bin/env python3
"""Regenerate ``pins.json``: the simulated outcome of every input
variant of the pipeline workloads (cycles, requests, bursts, DRAM
statistics and per-kind traffic per scheme).

Run from the repository root: ``python3 perfbench/pin.py``. It takes a
few minutes. Only a deliberate change to the simulated model may move
these values; a change meant only to run faster must leave them alone.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import wl_pipeline  # noqa: E402


def main() -> int:
    pins = {}
    for workload in wl_pipeline.CONFIG:
        pins[workload] = {}
        for variant in range(wl_pipeline.VARIANTS):
            pipeline = wl_pipeline.build_pipeline(workload, variant)
            results = pipeline.run()
            pins[workload][str(variant)] = wl_pipeline.outcome(pipeline, results)
            print(f"{workload} variant {variant}: "
                  f"bp cycles {results['bp'].cycles}", file=sys.stderr)
    with open(wl_pipeline.PINS, "w") as out:
        json.dump(pins, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
