#!/usr/bin/env python3
"""Set-up probe for the in-process workloads, run in a fresh
interpreter: import the layers the workload uses, construct its
objects, print ``ready``. The parent times spawn to ``ready``.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(workload: str, seed: int) -> int:
    if workload == "secure-inference":
        import wl_secure

        wl_secure.build_device(seed)
    else:
        import wl_pipeline

        wl_pipeline.build_pipeline(workload, seed % wl_pipeline.VARIANTS)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
