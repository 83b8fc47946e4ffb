"""Global fast-path switch for the vectorized hot-path engine.

The simulator keeps two implementations of every hot kernel:

* the **scalar reference** — the original first-principles code
  (byte-wise AES rounds, bit-serial GF(2^128), per-``MemoryRequest``
  object streams, per-call tiling analysis).  It is what the property
  tests trust and what ``scripts/bench_perf.py`` measures as the
  "pre-PR" baseline.
* the **fast path** — table-driven batched crypto kernels, the
  structure-of-arrays :class:`~repro.mem.batch.RequestBatch` pipeline,
  and memoized analytic-model stages.  Every fast path is bit-identical
  to its scalar reference (asserted by the equivalence suite in
  ``tests/property/test_vectorized_equivalence.py``).

The trace rewriters follow the same split: in scalar mode their
``rewrite_batch`` runs the reference ``rewrite()`` over request objects;
on the fast path GuardNN runs one vectorized batch path and MEE a
speculative whole-batch program with a sequential run engine as its
exact fallback.

This module owns the process-wide toggle.  The fast path is the
default; :func:`scalar_mode` drops back to the reference
implementations so benchmarks can time an honest before/after on the
same tree.  Setting the environment variable ``REPRO_SCALAR=1``
disables the fast path for a whole process (useful for bisecting a
suspected fast-path bug).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, List

_env_scalar = os.environ.get("REPRO_SCALAR", "").strip().lower() in (
    "1", "true", "yes", "on",
)
_fast = not _env_scalar

#: cache-clearing callbacks registered by modules that memoize on the
#: fast path, so toggling modes never serves results computed under the
#: other mode's code path (the results are identical by contract, but
#: benchmark timings must not be).
_cache_clearers: List[Callable[[], None]] = []


def fast_enabled() -> bool:
    """True when the vectorized/memoized hot paths are active."""
    return _fast


def set_fast(enabled: bool) -> None:
    """Switch the fast path on or off process-wide."""
    global _fast
    _fast = bool(enabled)
    if not _fast:
        clear_caches()


def register_cache(clear: Callable[[], None]) -> Callable[[], None]:
    """Register a memo-cache clearer; returns it so modules can use this
    as a decorator-style one-liner."""
    _cache_clearers.append(clear)
    return clear


def clear_caches() -> None:
    """Drop every registered memo cache."""
    for clear in _cache_clearers:
        clear()


@contextmanager
def scalar_mode():
    """Run a block on the scalar reference paths (and with cold memo
    caches), restoring the previous mode afterwards."""
    previous = _fast
    set_fast(False)
    try:
        yield
    finally:
        set_fast(previous)
        clear_caches()
