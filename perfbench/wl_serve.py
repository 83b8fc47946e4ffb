"""The ``serve-sweeps`` workload: two closed-loop clients against a
``repro serve`` daemon, the only workload that runs ``service``,
``experiments`` and ``accel``.

The daemon gets a fresh cache directory inside the checkout; its pool
width and ``--max-running`` are ``min(2, nproc)``. Two client threads of
this process share one seeded flight stream. One *round* is nine
flights, shuffled:

* six new fig3-style grids: twice, the nine paper networks split into
  three seeded triples, each x the four schemes x one seeded batch
  (1-1024) x one mode (training only for triples without DLRM, as in
  Figure 3b);
* two repeats of grids from earlier rounds (the generator records
  which flights repeat; the daemon's in-process memo answers them);
* one small ``streaming`` pipeline flight (64 KiB - 1 MiB, distinct).

No trace of real traffic to the service exists to take this mix from,
so it is chosen for what the metric should mean: new grids are two
thirds of the flights, so the median flight lies among the new grids
(near their first quartile), and ``latency_p50_s`` times the service
and runner overhead on grids that the serve tier's later changes
target. Repeats take a few milliseconds and the pipeline flight
3-120 ms; together they are a third of the flights, too few to set the
median. The ``#`` line ``p50_by_kind_s`` shows the median of each kind.

A warm-up round of three grids runs before the measured rounds, so the
first round already has grids to repeat and the daemon's pool is warm.
Each flight's table or rows must equal a direct ``Runner.run`` /
``pipeline_rows`` of the same jobs, computed in this process after the
daemon has stopped.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from repro.experiments import jobs as jobs_module
from repro.experiments import Runner, SweepSpec
from repro.experiments.executors import pipeline_rows
from repro.experiments.presets import FIG3_INFERENCE_NETWORKS
from repro.mem.pipeline import DEFAULT_CHUNK_REQUESTS
from repro.service.client import ServiceClient, ServiceRejected

import harness
from spans import Tracer

SCHEMES = ["np", "guardnn-c", "guardnn-ci", "bp"]
CLIENTS = 2
TAIL_CAP = 90.0
#: 12 rounds x 9 flights >= 100 samples, so p90 has ten beyond it
MIN_ROUNDS = 12
#: a grid's host time does not depend on its batch, so a wide batch
#: range only keeps new grids new: DLRM, inference only, takes two of
#: its 1024 points a round, and MAX_ROUNDS keeps the draw far from
#: running out however fast the program gets
MAX_BATCH = 1024
MAX_ROUNDS = 400
#: the spans a traced run must record: every layer this workload runs
SPANS = ("service.flight", "experiments.runner", "accel.run")


class FlightStream:
    """Seeded flight bodies; records which ones repeat earlier grids."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.grids: List[dict] = []
        self._points = set()
        self._sizes = set()
        self.count = 0

    def _flight(self, kind: str, body: dict) -> dict:
        self.count += 1
        return {"id": self.count, "kind": kind, "body": body,
                "key": json.dumps(body, sort_keys=True)}

    def _new_grids(self) -> List[dict]:
        """Three grids covering the nine networks. No (network, batch,
        mode) point repeats an earlier grid's, so a new grid is new
        work for every job in it, never a memo hit."""
        networks = list(FIG3_INFERENCE_NETWORKS)
        self.rng.shuffle(networks)
        out = []
        for i in range(0, len(networks), 3):
            triple = sorted(networks[i:i + 3])
            mode = ("training" if "dlrm" not in triple
                    and self.rng.random() < 0.5 else "inference")
            batch = self.rng.randint(1, MAX_BATCH)
            while any((net, batch, mode) in self._points for net in triple):
                batch = self.rng.randint(1, MAX_BATCH)
            self._points.update((net, batch, mode) for net in triple)
            out.append(self._flight("grid", {"kind": "sweep", "spec": {
                "models": triple, "schemes": SCHEMES, "batches": [batch],
                "modes": [mode], "zoo": "paper"}}))
        return out

    def warmup(self) -> List[dict]:
        flights = self._new_grids()
        self.grids.extend(flight["body"] for flight in flights)
        return flights

    def round(self) -> List[dict]:
        history = list(self.grids)
        flights = self._new_grids() + self._new_grids()
        self.grids.extend(flight["body"] for flight in flights)
        flights += [self._flight("repeat", self.rng.choice(history))
                    for _ in range(2)]
        size = self.rng.randint(1 << 10, 1 << 14) * 64
        while size in self._sizes:
            size = self.rng.randint(1 << 10, 1 << 14) * 64
        self._sizes.add(size)
        flights.append(self._flight("pipeline", {
            "kind": "pipeline", "workload": "streaming",
            "schemes": SCHEMES, "params": {"nbytes": size}}))
        self.rng.shuffle(flights)
        return flights


class Daemon:
    """One ``repro serve`` process in its own session (process group).
    Its stderr goes to a log file, never a pipe: a daemon must not be
    able to block on (or lose) a reader."""

    def __init__(self, cache_dir: str, width: int):
        self.cache_dir = cache_dir
        self.log_path = cache_dir + ".log"
        start = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(width), "--max-running", str(width),
                 "--max-queued", "8", "--cache-dir", cache_dir],
                cwd=harness.ROOT, env=harness.child_env(),
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True)
        try:
            host, port = self._announced_address(timeout=60)
            self.client = ServiceClient(host, port, timeout=120)
            self.client.wait_ready(timeout=60, interval=0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _announced_address(self, timeout: float) -> tuple:
        """The daemon prints its ephemeral port once it has bound."""
        deadline = time.monotonic() + timeout
        while True:
            with open(self.log_path) as log:
                text = log.read()
            match = re.search(r"http://([\d.]+):(\d+)", text)
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro serve announced no port:\n{text}")
            time.sleep(0.002)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure nothing of the
        daemon's process group outlives it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        # the daemon leads its own process group: wait for its pool and
        # forkserver to exit with it, and kill whatever has not
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline + 10:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL
                          if time.monotonic() > deadline else 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.unlink(self.log_path)


def submit(client: ServiceClient, flight: dict, tracer: Optional[Tracer]) -> dict:
    """One flight, closed loop: returns its latency, status and result."""
    start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.set_op(flight["id"])
            event = tracer.call("service.flight", client.run, flight["body"])
        else:
            event = client.run(flight["body"])
        status = "ok"
    except ServiceRejected:
        event, status = None, "refused"
    except Exception as error:  # a failed flight, counted
        event, status = None, f"error: {error!r}"
    return {"flight": flight, "latency": time.perf_counter() - start,
            "status": status, "event": event, "traced": tracer is not None}


def expected_result(flight: dict):
    """The direct engine's answer for a flight, as the wire carries it."""
    body = flight["body"]
    if body["kind"] == "sweep":
        spec = body["spec"]
        table = Runner(workers=1, cache=None).run(SweepSpec(
            models=tuple(spec["models"]), schemes=tuple(spec["schemes"]),
            batches=tuple(spec["batches"]), modes=tuple(spec["modes"]),
            zoo=spec["zoo"]).jobs())
        return json.loads(json.dumps(
            {"columns": table.columns, "rows": table.rows}))
    params = {"workload": body["workload"], "schemes": body["schemes"],
              "chunk_requests": DEFAULT_CHUNK_REQUESTS, **body["params"]}
    return json.loads(json.dumps(pipeline_rows(params)))


def observed_result(outcome: dict):
    event = outcome["event"]
    return event["table"] if event["kind"] == "sweep" else event["rows"]


def install_tracer(tracer: Tracer) -> None:
    """Wrap the direct engine calls into experiments and accel."""
    tracer.wrap_method(Runner, "run", "experiments.runner",
                       lambda obj, jobs, *_: {"experiments.jobs": len(jobs)})
    get_executor = jobs_module.get_executor

    def traced_get_executor(name: str):
        fn = get_executor(name)
        if name != "accel_run":
            return fn
        return lambda params: tracer.call("accel.run", fn, params)

    tracer.patch(jobs_module, "get_executor", traced_get_executor)


def run(workload: str, seed: int, seconds: float, trace: bool) -> harness.Result:
    width = max(1, min(2, os.cpu_count() or 1))
    os.makedirs(harness.WORK, exist_ok=True)

    def cache_dir(i: int) -> str:
        return os.path.join(harness.WORK, f"serve-cache-{os.getpid()}-{i}")

    setup: List[float] = []
    for i in range(harness.SETUP_REPEATS - 1):
        daemon = Daemon(cache_dir(i), width)
        setup.append(daemon.setup_s)
        daemon.stop()
    daemon = Daemon(cache_dir(harness.SETUP_REPEATS - 1), width)
    setup.append(daemon.setup_s)

    stream = FlightStream(seed)
    outcomes: List[dict] = []
    tracer = Tracer() if trace else None
    try:
        with ThreadPoolExecutor(max_workers=CLIENTS) as clients:
            def play(flights: List[dict], traced: bool) -> float:
                start = time.perf_counter()
                done = list(clients.map(
                    lambda f: submit(daemon.client, f,
                                     tracer if traced else None), flights))
                outcomes.extend(done)
                return time.perf_counter() - start

            play(stream.warmup(), False)
            measured_from = len(outcomes)
            rounds: Dict[bool, List[float]] = {False: [], True: []}
            budget = harness.Budget(seconds, MIN_ROUNDS, MAX_ROUNDS)
            while budget.more():
                # a traced run alternates untraced and traced rounds
                traced = trace and len(budget.durations) % 2 == 1
                rounds[traced].append(play(stream.round(), traced))
                budget.record(rounds[traced][-1])
                if len(budget.durations) == MIN_ROUNDS:
                    # the daemon hands grids to its pool workers: count
                    # the whole process tree, so the metric covers the
                    # processes that run them. Read after a fixed number
                    # of rounds: the daemon's memo grows with every new
                    # grid, so a later reading would grow with speed.
                    tree_rss, tree_processes = harness.tree_peak_rss_mb(
                        daemon.proc.pid)
        server = daemon.client.metrics()
    finally:
        daemon.stop()

    # output checks, with the daemon gone: every flight against the
    # direct engine, computed once per distinct job list
    if trace:
        install_tracer(tracer)
    expected: Dict[str, object] = {}
    direct_s: Dict[str, float] = {}
    failed = 0
    try:
        for outcome in outcomes:
            flight = outcome["flight"]
            if flight["key"] not in expected:
                start = time.perf_counter()
                expected[flight["key"]] = expected_result(flight)
                direct_s[flight["key"]] = time.perf_counter() - start
            if outcome["status"] != "ok":
                print(f"# flight {flight['id']} {flight['kind']}: "
                      f"{outcome['status']}")
                failed += 1
            elif observed_result(outcome) != expected[flight["key"]]:
                print(f"# flight {flight['id']} {flight['kind']}: wrong output")
                failed += 1
    finally:
        if tracer is not None:
            tracer.restore()

    measured = outcomes[measured_from:]
    all_rounds = rounds[False] + rounds[True]
    latencies = [o["latency"] for o in measured]
    repeats = [o for o in measured if o["flight"]["kind"] == "repeat"]
    counters = server["counters"]
    notes: Dict[str, object] = {
        "setup_samples_s": setup, "rounds": len(all_rounds),
        "flights": len(measured),
        "p50_by_kind_s": {kind: harness.median(
            [o["latency"] for o in measured if o["flight"]["kind"] == kind])
            for kind in ("grid", "repeat", "pipeline")},
        "server_cache_hits_total": counters["cache_hits_total"],
        "daemon_width": width,
        "daemon_tree_processes": tree_processes,
    }
    if not trace:
        t = harness.tail(latencies, TAIL_CAP)
        notes.update(latency_tail_pct=t.pct, latency_beyond_tail=t.beyond)
        metrics = {
            "setup_s": (harness.median(setup), "s"),
            "wall_s": (harness.median(all_rounds), "s"),
            "latency_p50_s": (harness.percentile(latencies, 50.0), "s"),
            "latency_tail_s": (t.value, "s"),
            "requests_per_s": (len(measured) / sum(all_rounds), "1/s"),
            "peak_rss_mb": (tree_rss, "MB"),
        }
        return harness.Result(len(outcomes), failed, failed == 0, metrics, notes)

    traced = [o["latency"] for o in measured if o["traced"]]
    plain = [o["latency"] for o in measured if not o["traced"]]
    fresh = [o for o in measured if o["flight"]["kind"] != "repeat"]
    grids = len({o["flight"]["key"] for o in outcomes
                 if o["flight"]["body"]["kind"] == "sweep"})
    spans_ok = harness.check_spans(tracer, SPANS, notes)
    busy = tracer.busy()
    metrics = {
        "service.server_flight_p50_s": (server["latency"]["p50_s"], "s"),
        "service.overhead_s": (harness.median(
            [o["latency"] - direct_s[o["flight"]["key"]] for o in fresh]), "s"),
        "service.coalesced": (counters["coalesced_total"], "count"),
        "service.rejected": (counters["rejected_total"], "count"),
        "service.cache_hits": (counters["cache_hits_total"], "count"),
        "service.repeat_share": (len(repeats) / len(measured), "ratio"),
        "experiments.runner_s": (busy.get("experiments.runner", 0.0) / grids, "s"),
        "experiments.jobs": (tracer.counts.get("experiments.jobs", 0.0), "count"),
        "accel.run_s": (busy.get("accel.run", 0.0) / grids, "s"),
        "trace.overhead_s": (harness.median(traced) - harness.median(plain), "s"),
    }
    harness.finish_trace(tracer, workload, seed, metrics, notes)
    return harness.Result(len(outcomes), failed, failed == 0 and spans_ok,
                          metrics, notes)
