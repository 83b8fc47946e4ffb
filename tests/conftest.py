"""Shared fixtures: a provisioned device, its manufacturer, a remote
user, and an honest host — the full cast of the paper's threat model.
An autouse guard also fails any test that leaves a process-pool worker
alive behind it."""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.core.device import GuardNNDevice
from repro.core.host import HonestHost
from repro.core.session import UserSession
from repro.crypto.pki import ManufacturerCA
from repro.crypto.rng import HmacDrbg


#: how long a test's pool workers get to exit after it returns (a pool
#: retired with ``shutdown(wait=False)`` lets its idle workers go lazily)
POOL_EXIT_SECONDS = 10.0


def _shared_runner_workers() -> set:
    """Workers of ``run_sweep``'s process-wide runners: their pools
    serve every sweep of a session by design, so they outlive the test
    that happened to start them (closed at session end, below)."""
    from repro.experiments import registry

    workers = set()
    for runner in registry._shared_runners.values():
        pool = runner._pool
        if pool is not None and pool._processes:
            workers.update(pool._processes.values())
    return workers


@pytest.fixture(scope="session", autouse=True)
def close_shared_runners():
    yield
    from repro.experiments import registry

    for runner in registry._shared_runners.values():
        runner.close()


@pytest.fixture(autouse=True)
def no_leaked_pool_workers():
    """Fail the test that leaves a multiprocessing child running: every
    pool a test builds must be closed (``with Runner(...)``) or owned by
    something that outlives it."""
    before = set(multiprocessing.active_children())
    yield
    owned = before | _shared_runner_workers()
    leaked = [child for child in multiprocessing.active_children()
              if child not in owned]
    # join in short slices: an executor's manager thread may reap the
    # same child concurrently, and until it records the exit code our
    # join can return with the child still reported alive
    deadline = time.monotonic() + POOL_EXIT_SECONDS
    for child in leaked:
        while child.is_alive() and time.monotonic() < deadline:
            child.join(timeout=0.05)
    alive = [child for child in leaked if child.is_alive()]
    if alive:
        pytest.fail(f"test left {len(alive)} pool worker(s) alive: "
                    f"{[child.name for child in alive]}")


@pytest.fixture
def manufacturer() -> ManufacturerCA:
    return ManufacturerCA(HmacDrbg(b"test-manufacturer-seed"))


@pytest.fixture
def device(manufacturer) -> GuardNNDevice:
    return GuardNNDevice(b"accel-under-test", manufacturer, seed=b"test-device-seed",
                         dram_bytes=1 << 20, debug_log_vns=True)


@pytest.fixture
def user(manufacturer) -> UserSession:
    return UserSession(manufacturer.root_public, HmacDrbg(b"test-user-seed"))


@pytest.fixture
def host(device) -> HonestHost:
    return HonestHost(device)


@pytest.fixture
def established(device, user, host):
    """A ready session (integrity on): returns (device, user, host)."""
    user.authenticate_device(host.fetch_device_info())
    host.establish_session(user, enable_integrity=True)
    return device, user, host


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
