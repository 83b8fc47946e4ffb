"""Shared plumbing for the benchmark workloads: checkout paths, the
environment record, run-length control, percentiles, set-up timing and
the result line.

Every workload module exposes ``run(workload, seed, seconds, trace)``
returning a :class:`Result`; ``run.py`` picks one by name and prints it. Nothing here imports ``repro``:
``run.py`` must be able to refuse a checkout that has no source tree.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: everything a run writes (spans, the daemon's cache directory) lands
#: here, inside the checkout; the root .gitignore names it
WORK = os.path.join(ROOT, ".perfbench")

#: percentiles the tail metric may report, low to high
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10


def child_env() -> Dict[str, str]:
    """Environment for processes the benchmark starts: the checkout's
    ``src`` on the import path, and a temporary directory inside the
    checkout when its path is short enough for the Unix sockets that
    ``multiprocessing`` places there."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    tmp = os.path.join(WORK, "tmp")
    if len(tmp) <= 60:
        os.makedirs(tmp, exist_ok=True)
        env["TMPDIR"] = tmp
    return env


def environment() -> Dict[str, object]:
    """What every result is recorded with: interpreter, numpy, CPU count
    and the simulator's perf mode."""
    import numpy
    from repro import perf

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "perf_mode": "fast" if perf.fast_enabled() else "scalar",
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of another live process, MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _children(pid: int) -> List[int]:
    """Direct children of ``pid``, from every thread's ``children``
    list (a child belongs to the thread that forked it)."""
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                out.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return out


def tree_peak_rss_mb(pid: int) -> tuple:
    """Sum of the peak resident memory (``VmHWM``) of ``pid`` and every
    live descendant, in MiB, with the number of processes summed.

    The sum covers the worker processes a daemon hands its jobs to, not
    only the daemon itself. It is an upper bound on the tree's
    simultaneous peak: the processes need not peak at the same moment,
    and pages they share are counted once in each."""
    total, processes, pending = 0.0, 0, [pid]
    while pending:
        current = pending.pop()
        try:
            total += process_peak_rss_mb(current)
        except (OSError, RuntimeError):
            continue  # ended between listing and reading
        processes += 1
        pending.extend(_children(current))
    return total, processes


def host_cpu_ticks() -> List[int]:
    """The machine-wide CPU time counters of ``/proc/stat`` (user, nice,
    system, idle, iowait, irq, softirq, steal, ...), or ``[]`` where
    there is no such file."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except OSError:
        return []


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`host_cpu_ticks` readings: the noise a shared machine adds to
    every host-time number, recorded so a slow run can be told apart
    from a slow program."""
    if len(before) < 8 or len(after) < 8:
        return float("nan")
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


@dataclass
class Tail:
    pct: float
    value: float
    samples: int
    beyond: int


def tail(values: Sequence[float], cap: float) -> Tail:
    """The highest ladder percentile, no higher than ``cap``, that has at
    least :data:`TAIL_BEYOND` samples beyond it. ``cap`` is fixed per
    workload, so a faster program that completes more operations in a
    run does not silently move the metric to a higher percentile."""
    n = len(values)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if pct <= cap and n * (1 - pct / 100.0) >= TAIL_BEYOND:
            chosen = pct
    return Tail(chosen, percentile(values, chosen), n,
                int(n * (1 - chosen / 100.0)))


class Budget:
    """Closed-loop run-length control: keep starting units of work
    until the next one, at the median duration seen so far, would end
    past the deadline — but always at least ``min_units``, and never
    more than ``max_units``."""

    def __init__(self, seconds: float, min_units: int = 1,
                 max_units: Optional[int] = None):
        self.deadline = time.perf_counter() + seconds
        self.min_units = min_units
        self.max_units = max_units
        self.durations: List[float] = []

    def more(self) -> bool:
        if len(self.durations) < self.min_units:
            return True
        if self.max_units is not None and len(self.durations) >= self.max_units:
            return False
        estimate = statistics.median(self.durations)
        return time.perf_counter() + estimate <= self.deadline

    def record(self, seconds: float) -> None:
        self.durations.append(seconds)


def time_subprocess_ready(argv: List[str]) -> float:
    """Seconds from spawning ``argv`` until it prints its first stdout
    line (``ready``); the process is then waited for, so interpreter
    teardown is not counted."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe {argv} failed "
                           f"(exit {code}, said {line!r}{rest!r})")
    return ready


#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5


def probe_setup(workload: str, seed: int,
                repeats: int = SETUP_REPEATS) -> List[float]:
    """Set-up times of an in-process workload: a fresh interpreter that
    imports the layers the workload uses and constructs its objects,
    ``repeats`` times."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"),
            workload, str(seed)]
    return [time_subprocess_ready(argv) for _ in range(repeats)]


@dataclass
class Result:
    """One run's outcome. ``metrics`` maps a metric name to
    ``(value, unit)``; ``notes`` are printed as ``#`` lines before the
    result line (percentile used, sample counts, error rate, ...)."""

    attempted: int
    failed: int
    correct: bool
    metrics: Dict[str, tuple]
    notes: Dict[str, object] = field(default_factory=dict)


def emit(result: Result, env: Dict[str, object]) -> None:
    """Print the human-readable ``#`` lines, then the one-line JSON
    result, always the last line of standard output."""
    print("# env " + json.dumps(env, sort_keys=True))
    error_rate = result.failed / result.attempted if result.attempted else 1.0
    print(f"# error_rate {error_rate:.6f} "
          f"({result.failed} of {result.attempted} operations)")
    for key, value in result.notes.items():
        print(f"# {key} {json.dumps(value, sort_keys=True)}")
    width = max(len(name) for name in result.metrics)
    for name, (value, unit) in result.metrics.items():
        print(f"# {name:<{width}}  {value:.6g} {unit}")
    line = {
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }
    print(json.dumps(line))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def check_spans(tracer, required: Sequence[str],
                notes: Dict[str, object]) -> bool:
    """Whether every span in ``required`` fired at least once. A layer
    the workload runs must never read 0 because its wrap stopped
    catching calls: a missing span makes the run incorrect, and is
    named on a ``#`` line."""
    missing = tracer.missing(required)
    if missing:
        notes["missing_spans"] = missing
    return not missing


def finish_trace(tracer, workload: str, seed: int, metrics: Dict[str, tuple],
                 notes: Dict[str, object],
                 traced_s: Optional[float] = None,
                 root: Optional[str] = None) -> None:
    """Write the spans under :data:`WORK`. When ``traced_s`` (the host
    seconds the traced operations took) is given, also report each
    span name's self time as a share of it, and the share the layer
    spans account for as ``trace.accounted_share``. The self time of
    ``root``, a span that wraps a whole operation, is left out of that
    sum: the self times of a span tree add up to its root's duration,
    so counting the root would make the share 1 by construction."""
    if traced_s:
        self_times = tracer.self_times()
        metrics["trace.accounted_share"] = (
            sum(value for name, value in self_times.items() if name != root)
            / traced_s, "ratio")
        notes["self_time_share"] = {
            name: round(value / traced_s, 4) for name, value in
            sorted(self_times.items(), key=lambda item: -item[1])}
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"spans-{workload}-seed{seed}.jsonl")
    tracer.write(path)
    notes["spans_file"] = os.path.relpath(path, ROOT)
