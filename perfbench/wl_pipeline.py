"""The two streaming-pipeline workloads: ``llm-decode`` and
``random-access``.

Both push one seeded trace through ``np, guardnn-c, guardnn-ci, bp`` in
a single :class:`~repro.mem.pipeline.TracePipeline` shared pass. One
*round* is one such pass over the fixed trace; a run repeats rounds
until its time is spent.

* ``llm-decode``: one GPT-2 decode token at context 512 (1.47 M source
  requests, default 64 Ki-request chunks). Long weight streams take the
  controller's row-hit-run fast path; bp's metadata walk takes the
  per-burst miss path.
* ``random-access``: 32 Ki uniform random 64 B requests, 30 % writes,
  over a 4 GiB span — far beyond the DRAM rows and the MEE metadata
  cache — in 1 Ki-request chunks. No row locality: every burst misses.

The seed selects one of :data:`VARIANTS` input variants (the embedding
row of the decode token; the random stream). Each variant's simulated
outcome — cycles, requests, bursts, DRAM statistics and per-kind
traffic for every scheme — is pinned in ``pins.json`` (regenerate with
``python3 perfbench/pin.py``); every round is checked against it.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

from repro.mem.controller import ControllerSession
from repro.mem.pipeline import TracePipeline
from repro.protection.trace_rewriter import (
    GuardNNTraceRewriter,
    MeeTraceRewriter,
)
from repro.workloads import build_trace_spec

import harness
from spans import Tracer

SCHEMES = ("np", "guardnn-c", "guardnn-ci", "bp")
REWRITTEN = ("guardnn-ci", "bp")
#: the spans a traced run must record: every layer this workload runs
SPANS = (("workloads.batch", "pipeline.run")
         + tuple("protection.rewrite." + name for name in REWRITTEN)
         + tuple("mem.controller." + name for name in SCHEMES))
VARIANTS = 16
PINS = os.path.join(harness.HERE, "pins.json")

#: per workload: chunk size, the fixed tail percentile cap (see
#: harness.tail) and the minimum rounds per run — enough progress steps
#: for the cap to have ten samples beyond it (2 x 24 >= 40 for p75,
#: 4 x 33 >= 100 for p90)
CONFIG = {
    "llm-decode": {"chunk": 1 << 16, "tail_cap": 75.0, "min_rounds": 2},
    "random-access": {"chunk": 1 << 10, "tail_cap": 90.0, "min_rounds": 4},
}


def build_pipeline(workload: str, variant: int) -> TracePipeline:
    if workload == "llm-decode":
        spec = build_trace_spec("gpt2", tokens=1, context=512,
                                seed=variant + 1)
    elif workload == "random-access":
        spec = build_trace_spec("random", n_requests=1 << 15,
                                span_bytes=1 << 32, seed=variant,
                                write_fraction=0.3)
    else:
        raise KeyError(workload)
    return TracePipeline(spec, schemes=SCHEMES,
                         chunk_requests=CONFIG[workload]["chunk"])


def outcome(pipeline: TracePipeline, results) -> Dict[str, dict]:
    """The simulated statistics a speed-only change must not move."""
    out = {}
    for name in SCHEMES:
        timing = results[name].result
        out[name] = {
            "cycles": timing.cycles,
            "requests": timing.requests,
            "bursts": timing.bursts,
            "dram": dict(pipeline.controllers[name].dram.stats),
            "traffic": timing.stats.state_dict(),
        }
    return out


def load_pins(workload: str) -> Dict[str, dict]:
    with open(PINS) as handle:
        return json.load(handle)[workload]


def run_round(pipeline: TracePipeline) -> tuple:
    """One pass; returns (wall seconds, progress-step latencies, results).
    A progress step runs from one chunk boundary to the next; the last
    one is the rewriters' flush plus the controllers' drain."""
    marks: List[float] = []
    start = time.perf_counter()
    results = pipeline.run(on_chunk=lambda *_: marks.append(time.perf_counter()))
    end = time.perf_counter()
    points = [start] + marks + [end]
    steps = [b - a for a, b in zip(points, points[1:])]
    return end - start, steps, results


def install_tracer(tracer: Tracer, pipeline: TracePipeline) -> None:
    """Wrap the public calls into workloads, protection, mem and
    mem.pipeline for one round; spans name the scheme that owns the
    rewriter or controller called."""
    owners = {id(obj): name for name in SCHEMES
              for obj in (pipeline.controllers[name], pipeline.rewriters[name])
              if obj is not None}
    tracer.wrap_method(type(pipeline.source), "batch", "workloads.batch")
    for cls in (GuardNNTraceRewriter, MeeTraceRewriter):
        for attr in ("rewrite_batch", "flush_batch"):
            tracer.wrap_method(
                cls, attr,
                lambda obj, *_: "protection.rewrite." + owners[id(obj)])
    for attr in ("feed", "finish"):
        tracer.wrap_method(
            ControllerSession, attr,
            lambda obj, *_: "mem.controller." + owners[id(obj.controller)])
    tracer.wrap_method(TracePipeline, "run", "pipeline.run")


def layer_metrics(tracer: Tracer, rounds: int, pinned: Dict[str, dict],
                  source_requests: int) -> Dict[str, tuple]:
    busy = tracer.busy()
    self_times = tracer.self_times()
    metrics = {"workloads.batch_s": (busy.get("workloads.batch", 0.0) / rounds, "s")}
    for name in REWRITTEN:
        metrics[f"protection.rewrite_s.{name}"] = (
            busy.get("protection.rewrite." + name, 0.0) / rounds, "s")
        metrics[f"protection.amplification.{name}"] = (
            pinned[name]["requests"] / source_requests, "ratio")
    for name in SCHEMES:
        seconds = busy.get("mem.controller." + name, 0.0) / rounds
        dram = pinned[name]["dram"]
        row_accesses = dram["row_hits"] + dram["row_misses"] + dram["row_conflicts"]
        metrics[f"mem.controller_s.{name}"] = (seconds, "s")
        metrics[f"mem.us_per_burst.{name}"] = (
            1e6 * seconds / pinned[name]["bursts"], "us")
        metrics[f"mem.row_hit_ratio.{name}"] = (
            dram["row_hits"] / row_accesses, "ratio")
    metrics["pipeline.self_s"] = (self_times.get("pipeline.run", 0.0) / rounds, "s")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> harness.Result:
    config = CONFIG[workload]
    variant = seed % VARIANTS
    setup = harness.probe_setup(workload, seed)
    pinned = load_pins(workload)[str(variant)]

    tracer = Tracer() if trace else None
    walls: Dict[bool, List[float]] = {False: [], True: []}
    steps: List[float] = []
    attempted = failed = 0
    # a traced run starts with a warm-up round, then alternates traced
    # and untraced rounds, so both sides of the tracing-overhead
    # estimate see the same (warm) machine
    budget = harness.Budget(seconds, config["min_rounds"] + trace)
    while budget.more():
        warmup = trace and attempted == 0
        traced = trace and attempted % 2 == 1
        pipeline = build_pipeline(workload, variant)
        if traced:
            tracer.set_op(attempted)
            install_tracer(tracer, pipeline)
        try:
            wall, round_steps, results = run_round(pipeline)
        finally:
            if traced:
                tracer.restore()
        attempted += 1
        failed += outcome(pipeline, results) != pinned
        budget.record(wall)
        if not warmup:
            walls[traced].append(wall)
            steps.extend(round_steps)

    notes: Dict[str, object] = {"variant": variant, "setup_samples_s": setup,
                                "rounds": attempted}
    source_requests = pipeline.source.total_requests
    if not trace:
        t = harness.tail(steps, config["tail_cap"])
        notes.update(latency_tail_pct=t.pct, latency_samples=t.samples,
                     latency_beyond_tail=t.beyond)
        metrics = {
            "setup_s": (harness.median(setup), "s"),
            "wall_s": (harness.median(walls[False]), "s"),
            "latency_p50_s": (harness.percentile(steps, 50.0), "s"),
            "latency_tail_s": (t.value, "s"),
            "requests_per_s": (
                source_requests * len(walls[False]) / sum(walls[False]), "1/s"),
            "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        }
        return harness.Result(attempted, failed, failed == 0, metrics, notes)

    spans_ok = harness.check_spans(tracer, SPANS, notes)
    metrics = layer_metrics(tracer, len(walls[True]), pinned, source_requests)
    traced_wall = harness.median(walls[True])
    untraced_wall = harness.median(walls[False])
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    notes.update(traced_wall_s=traced_wall, untraced_wall_s=untraced_wall)
    harness.finish_trace(tracer, workload, seed, metrics, notes,
                         sum(walls[True]), root="pipeline.run")
    return harness.Result(attempted, failed, failed == 0 and spans_ok,
                          metrics, notes)
