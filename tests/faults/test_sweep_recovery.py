"""Worker-crash recovery: a SIGKILLed pool worker must not change a
sweep's rows, only its wall clock.

The deterministic fault plan kills exactly one worker (``once_file``
guarantees the re-dispatched chunk survives), and the recovered sweep's
table is asserted *bit-identical* to the unfaulted reference — the
recovery machinery re-dispatches lost work, it never re-orders or
drops rows.
"""

import os

import pytest

from repro.experiments.runner import (
    JobExecutionError,
    Runner,
    _MEMORY_CACHE,
    recovery_counts,
)
from repro.experiments.spec import SweepSpec
from repro.testing import faults

SPEC = SweepSpec(models=("alexnet", "mobilenet"), schemes=("np", "bp"))


@pytest.fixture(autouse=True)
def _clean():
    faults.clear()
    _MEMORY_CACHE.clear()
    yield
    faults.clear_env()
    _MEMORY_CACHE.clear()


def _reference():
    with Runner(workers=2, chunksize=1) as runner:
        return runner.run(SPEC).to_json()


def test_sigkilled_worker_mid_sweep_rows_bit_identical(tmp_path):
    """The ISSUE's required scenario: SIGKILL one pool worker mid-sweep,
    sweep completes, rows bit-identical to the unfaulted run."""
    reference = _reference()
    _MEMORY_CACHE.clear()
    before = recovery_counts()
    faults.install_env({"points": [
        {"site": "worker.chunk", "at": 1, "action": "kill",
         "once_file": str(tmp_path / "killed.once")}]})
    try:
        with Runner(workers=2, chunksize=1, chunk_timeout=30.0,
                    chunk_retries=2) as runner:
            recovered = runner.run(SPEC).to_json()
    finally:
        faults.clear_env()
    assert recovered == reference
    after = recovery_counts()
    assert after["worker_restarts"] > before["worker_restarts"]
    assert after["chunk_retries"] > before["chunk_retries"]
    assert os.path.exists(tmp_path / "killed.once")


def test_straggler_duplicate_rescues_lost_chunk(tmp_path):
    """With no chunk timeout, a chunk whose worker was killed is still
    rescued: the dead worker breaks the pool, the pending futures fail,
    and the lost chunks are re-dispatched to a fresh pool."""
    reference = _reference()
    _MEMORY_CACHE.clear()
    faults.install_env({"points": [
        {"site": "worker.chunk", "at": 2, "action": "kill",
         "once_file": str(tmp_path / "killed.once")}]})
    try:
        with Runner(workers=2, chunksize=1, chunk_timeout=None,
                    chunk_retries=2) as runner:
            recovered = runner.run(SPEC).to_json()
    finally:
        faults.clear_env()
    assert recovered == reference


def test_retry_budget_exhaustion_raises_with_completed_rows(tmp_path):
    """A chunk that dies on *every* dispatch eventually surfaces as
    JobExecutionError naming a job of the lost chunk — after exactly
    the configured number of redispatches — with the completed chunks'
    rows preserved for caching."""
    faults.install_env({"points": [
        {"site": "worker.chunk", "at": 0, "action": "raise",
         "times": None}]})
    try:
        with Runner(workers=2, chunksize=1, chunk_timeout=30.0,
                    chunk_retries=1) as runner:
            with pytest.raises(JobExecutionError) as excinfo:
                runner.run(SPEC)
    finally:
        faults.clear_env()
    assert "worker lost or timed out" in str(excinfo.value)


def test_serial_path_untouched_by_worker_faults():
    """The workers<=1 path never crosses a process boundary, so a
    worker-site plan is inert there (sanity: fault scoping is real)."""
    reference = _reference()
    _MEMORY_CACHE.clear()
    faults.install({"points": [
        {"site": "worker.chunk", "action": "kill"}]})
    try:
        with Runner(workers=1) as runner:
            rows = runner.run(SPEC).to_json()
    finally:
        faults.clear()
    assert rows == reference
