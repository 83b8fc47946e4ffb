"""Event-driven protection: rewrite a data request stream into the full
protected stream, request by request.

The analytic scheme models in :mod:`repro.protection.mee` /
:mod:`repro.protection.guardnn` compute metadata traffic with closed
forms. This module is the *mechanistic* counterpart: it walks an actual
:class:`~repro.mem.trace.MemoryRequest` stream, runs the baseline's
VN/MAC/tree lookups through a real set-associative cache, and emits the
exact interleaved request sequence a memory-protection engine would put
on the bus. The integration tests cross-validate the two models; the
rewritten traces can also be timed on the event-driven DDR4 controller.

Address map: metadata regions live above ``metadata_base`` —
VN lines, then MAC lines, then tree levels — mirroring how MEE carves
out a protected-metadata range.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Iterable, List

import numpy as _np

from repro import perf
from repro.testing import faults
from repro.mem.batch import MAC_CODE, TREE_CODE, VN_CODE, RequestBatch
from repro.mem.cache import SetAssociativeCache
from repro.mem.cache_fast import FastSetAssociativeCache
from repro.mem.trace import MemoryRequest, RequestKind
from repro.protection.guardnn import GuardNNParams
from repro.protection.mee import MeeParams


def build_trace_rewriter(name: str, **params):
    """Mechanistic rewriter for a scheme short name (the same names as
    :data:`repro.protection.SCHEME_FACTORIES`).

    ``np`` and ``guardnn-c`` leave the request stream untouched (AES-CTR
    confidentiality adds no transfers), so they return ``None``;
    ``guardnn-ci`` adds MAC-line traffic, ``bp`` the full MEE
    VN/MAC/tree walk. ``params`` forward to the scheme's parameter
    dataclass. Rewriters carry their state (active MAC line, metadata
    cache) across calls, so one instance rewrites a chunked stream
    exactly as it would the whole trace.
    """
    if name in ("np", "guardnn-c"):
        if params:
            raise ValueError(f"scheme {name!r} takes no rewriter parameters")
        return None
    if name == "guardnn-ci":
        return GuardNNTraceRewriter(integrity=True, params=GuardNNParams(**params))
    if name == "bp":
        return MeeTraceRewriter(params=MeeParams(**params))
    raise KeyError(
        f"unknown scheme {name!r}; known: bp, guardnn-c, guardnn-ci, np")


def _prev_occurrence(values):
    """For each element, the index of the previous element with the same
    value, or ``-1`` for first occurrences. One stable argsort — the
    vectorized backbone of the cache-pressure guess."""
    n = len(values)
    prev = _np.full(n, -1, dtype=_np.int64)
    if n > 1:
        order = _np.argsort(values, kind="stable")
        sorted_values = values[order]
        same = sorted_values[1:] == sorted_values[:-1]
        prev[order[1:][same]] = order[:-1][same]
    return prev


def _run_starts(key, coalescable):
    """Start indices of maximal runs of requests that share a metadata
    key and may be coalesced (single-span requests only); requests with
    ``coalescable`` False become singleton runs. The SoA pre-pass of
    both rewriters: one vectorized sweep replaces the per-request
    Python span/line arithmetic. Returns an ``(n_runs,)`` int index
    array (callers gather per-run attributes from it, so nothing
    per-request ever crosses back into Python)."""
    n = len(key)
    change = _np.empty(n, dtype=bool)
    change[0] = True
    _np.not_equal(key[1:], key[:-1], out=change[1:])
    change[1:] |= ~coalescable[1:] | ~coalescable[:-1]
    return _np.flatnonzero(change)


def _scatter_assemble(out: RequestBatch, batch: RequestBatch, address, size,
                      is_write, ev_pos, ev_addr, ev_write, ev_kind,
                      line_bytes: int) -> None:
    """Interleave the verbatim input stream with positioned metadata
    events (event j rides directly after input request ``ev_pos[j]``)
    in one vectorized scatter instead of per-run array flushes.

    Event columns may be Python lists (the sequential run engine) or
    numpy arrays (the vectorized paths)."""
    n = len(address)
    m = len(ev_pos)
    if not m:
        out.extend(batch)
        return
    if isinstance(ev_pos, _np.ndarray):
        pos = ev_pos
        addr_col = ev_addr
        write_col = ev_write.astype(_np.int8)
        kind_col = ev_kind.astype(_np.int8)
    else:
        pos = _np.frombuffer(array("q", ev_pos), dtype=_np.int64)
        addr_col = _np.frombuffer(array("q", ev_addr), dtype=_np.int64)
        write_col = _np.frombuffer(array("b", ev_write), dtype=_np.int8)
        kind_col = _np.frombuffer(array("b", ev_kind), dtype=_np.int8)
    total = n + m
    # input i is preceded by i inputs and every event with pos < i;
    # event j by (pos_j + 1) inputs and j events — emission order wins
    # among events that share a position
    prefix = _np.concatenate(([0], _np.cumsum(_np.bincount(pos, minlength=n))[:-1]))
    dest_input = _np.arange(n, dtype=_np.int64) + prefix
    dest_event = pos + 1 + _np.arange(m, dtype=_np.int64)
    merged_address = _np.empty(total, dtype=_np.int64)
    merged_address[dest_input] = address
    merged_address[dest_event] = addr_col
    merged_size = _np.empty(total, dtype=_np.int64)
    merged_size[dest_input] = size
    merged_size[dest_event] = line_bytes
    merged_write = _np.empty(total, dtype=_np.int8)
    merged_write[dest_input] = is_write
    merged_write[dest_event] = write_col
    merged_kind = _np.empty(total, dtype=_np.int8)
    merged_kind[dest_input] = _np.frombuffer(batch.kind, dtype=_np.int8)
    merged_kind[dest_event] = kind_col
    out.address.frombytes(merged_address.tobytes())
    out.size.frombytes(merged_size.tobytes())
    out.is_write.frombytes(merged_write.tobytes())
    out.kind.frombytes(merged_kind.tobytes())


class GuardNNTraceRewriter:
    """GuardNN_C/CI: confidentiality adds nothing to the stream; CI adds
    MAC-line transfers.

    Tags are ``mac_bytes`` each, packed into 64-B DRAM lines (~5 tags
    per line for the 12-B default). The IV engine holds the *active*
    MAC line in a register, so a sequential chunk stream fetches one
    64-B MAC line per ~5 chunks — and, on writes, streams the filled
    line back out when it retires. This is why GuardNN_CI's ~2.3% byte
    overhead translates to a similarly small cycle overhead instead of
    a per-chunk row-conflict penalty.
    """

    LINE_BYTES = 64

    def __init__(self, integrity: bool, params: GuardNNParams = GuardNNParams(),
                 metadata_base: int = 1 << 34):
        self.integrity = integrity
        self.params = params
        self.metadata_base = metadata_base
        self._active_line = None
        self._active_dirty = False
        self._rewrite_calls = 0

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        return {"active_line": self._active_line,
                "active_dirty": self._active_dirty}

    def load_state(self, state: dict) -> None:
        line = state["active_line"]
        self._active_line = None if line is None else int(line)
        self._active_dirty = bool(state["active_dirty"])

    def _mac_line(self, chunk_index: int) -> int:
        byte_offset = chunk_index * self.params.mac_bytes
        return self.metadata_base + (byte_offset // self.LINE_BYTES) * self.LINE_BYTES

    def _retire_active(self, out: List[MemoryRequest]) -> None:
        if self._active_line is not None and self._active_dirty:
            out.append(MemoryRequest(self._active_line, self.LINE_BYTES, True,
                                     RequestKind.MAC))
        self._active_dirty = False

    def rewrite(self, trace: Iterable[MemoryRequest]) -> List[MemoryRequest]:
        out: List[MemoryRequest] = []
        for req in trace:
            out.append(req)
            if not self.integrity:
                continue
            first = req.address // self.params.chunk_bytes
            last = (req.address + req.size - 1) // self.params.chunk_bytes
            for chunk in range(first, last + 1):
                line = self._mac_line(chunk)
                if line != self._active_line:
                    self._retire_active(out)
                    # reads must fetch the stored tags to verify against;
                    # writes produce fresh tags, so the engine
                    # write-allocates without a fill (streaming writes
                    # never read old MACs)
                    if not req.is_write:
                        out.append(MemoryRequest(line, self.LINE_BYTES, False,
                                                 RequestKind.MAC))
                    self._active_line = line
                if req.is_write:
                    self._active_dirty = True
        return out

    def flush(self) -> List[MemoryRequest]:
        """Retire the active MAC line at end of stream."""
        out: List[MemoryRequest] = []
        self._retire_active(out)
        self._active_line = None
        return out

    # -- structure-of-arrays fast lane ------------------------------------

    def rewrite_batch(self, batch: RequestBatch) -> RequestBatch:
        """Batch counterpart of :meth:`rewrite`: same stream, emitted as
        a :class:`RequestBatch` without per-request object churn. Shares
        the active-MAC-line state with the scalar path; in scalar mode
        it runs :meth:`rewrite` itself.

        Each request expands into one item per chunk it covers, in
        stream order (the identity for the single-chunk streaming case).
        Same-line item runs collapse to a MAC-line-change event stream
        computed entirely in numpy, then one scatter interleaves the
        events after the requests that raised them.
        """
        if faults.enabled():
            faults.fire("rewriter.rewrite", self._rewrite_calls)
        self._rewrite_calls += 1
        out = RequestBatch()
        if not self.integrity:
            out.extend(batch)
            return out
        if not perf.fast_enabled():
            return RequestBatch.from_requests(self.rewrite(batch))
        n = len(batch)
        if not n:
            return out
        address = _np.frombuffer(batch.address, dtype=_np.int64)
        size = _np.frombuffer(batch.size, dtype=_np.int64)
        is_write = _np.frombuffer(batch.is_write, dtype=_np.int8)
        chunk_bytes = self.params.chunk_bytes
        line_bytes = self.LINE_BYTES
        chunk = address // chunk_bytes
        spans = (address + size - 1) // chunk_bytes - chunk + 1
        item_req = None  # item -> request index; None is the identity
        item_write = is_write
        if int(spans.max()) > 1:
            item_req = _np.repeat(_np.arange(n), spans)
            item_off = _np.cumsum(spans) - spans
            chunk = (chunk[item_req] + _np.arange(len(item_req))
                     - item_off[item_req])
            item_write = is_write[item_req]
        line = (self.metadata_base
                + chunk * self.params.mac_bytes // line_bytes * line_bytes)
        items = len(line)
        starts = _run_starts(line, _np.ones(items, dtype=bool))
        ends = _np.concatenate((starts[1:], [items]))
        m = len(starts)
        writes_before = _np.concatenate(([0], _np.cumsum(item_write != 0)))
        run_any_write = writes_before[ends] > writes_before[starts]
        run_line = line[starts]
        run_read_first = item_write[starts] == 0

        first = 0  # run 0 may just extend the carried active line
        if self._active_line is not None and run_line[0] == self._active_line:
            if run_any_write[0]:
                self._active_dirty = True
            first = 1
        if first >= m:
            out.extend(batch)
            return out
        # per line change: retire the previous line if dirty, then
        # fetch the new one when the run leads with a read
        span = m - first
        prev_dirty = _np.empty(span, dtype=bool)
        prev_line = _np.empty(span, dtype=_np.int64)
        prev_dirty[1:] = run_any_write[first:m - 1]
        prev_line[1:] = run_line[first:m - 1]
        prev_dirty[0] = self._active_line is not None and self._active_dirty
        prev_line[0] = self._active_line if self._active_line is not None else 0
        has_fill = run_read_first[first:]
        slot_mask = _np.empty(2 * span, dtype=bool)
        slot_mask[0::2] = prev_dirty  # the retire precedes the fetch
        slot_mask[1::2] = has_fill
        ev_slot = _np.flatnonzero(slot_mask)
        ev_run = ev_slot >> 1
        ev_is_wb = (ev_slot & 1) == 0
        pos = starts[first:]
        if item_req is not None:
            pos = item_req[pos]
        ev_pos = pos[ev_run]
        ev_addr = _np.where(ev_is_wb, prev_line[ev_run],
                            run_line[first:][ev_run])
        ev_write = ev_is_wb.astype(_np.int8)
        ev_kind = _np.full(len(ev_slot), MAC_CODE, dtype=_np.int8)
        self._active_line = int(run_line[-1])
        self._active_dirty = bool(run_any_write[-1])
        _scatter_assemble(out, batch, address, size, is_write,
                          ev_pos, ev_addr, ev_write, ev_kind, line_bytes)
        return out

    def flush_batch(self) -> RequestBatch:
        """Batch counterpart of :meth:`flush`."""
        out = RequestBatch()
        if self._active_line is not None and self._active_dirty:
            out.append(self._active_line, self.LINE_BYTES, True, MAC_CODE)
        self._active_dirty = False
        self._active_line = None
        return out


@dataclass
class _MeeRegions:
    """Where each metadata kind lives."""

    vn_base: int
    mac_base: int
    tree_bases: List[int]


class MeeTraceRewriter:
    """Baseline protection, mechanistically: per 64-B data line, find
    the covering VN line and MAC line; on a metadata-cache miss, fetch
    the line (a read request) and walk the counter tree upward until a
    cached level authenticates it; dirty evictions emit writebacks."""

    def __init__(self, params: MeeParams = MeeParams(),
                 protected_bytes: int = 1 << 30, metadata_base: int = 1 << 34):
        self.params = params
        # the metadata cache: dense numpy state with the batched
        # access_many kernel on the fast path, the OrderedDict
        # reference in scalar mode — same API, bit-identical behaviour
        # (tests/property/test_cache_equivalence.py)
        if perf.fast_enabled():
            self.cache = FastSetAssociativeCache(
                params.cache_bytes, params.line_bytes, ways=8)
        else:
            self.cache = SetAssociativeCache(
                params.cache_bytes, params.line_bytes, ways=8)
        self.metadata_base = metadata_base
        self.regions = self._lay_out(protected_bytes)
        self._rewrite_calls = 0

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Carried state is exactly the metadata cache (the region
        layout is derived from constructor parameters). The cache's
        canonical form loads into either implementation, so a
        checkpoint written in fast mode resumes in scalar mode and
        vice versa."""
        return {"cache": self.cache.state_dict()}

    def load_state(self, state: dict) -> None:
        self.cache.load_state(state["cache"])

    def _lay_out(self, protected_bytes: int) -> _MeeRegions:
        p = self.params
        vn_lines = math.ceil(protected_bytes / p.data_per_vn_line)
        mac_lines = math.ceil(protected_bytes / p.data_per_mac_line)
        vn_base = self.metadata_base
        mac_base = vn_base + vn_lines * p.line_bytes
        tree_bases = []
        level_base = mac_base + mac_lines * p.line_bytes
        coverage = p.data_per_vn_line * p.tree_arity
        while coverage < protected_bytes:
            lines = math.ceil(protected_bytes / coverage)
            tree_bases.append(level_base)
            level_base += lines * p.line_bytes
            coverage *= p.tree_arity
        return _MeeRegions(vn_base, mac_base, tree_bases)

    def _vn_line(self, address: int) -> int:
        return self.regions.vn_base + (address // self.params.data_per_vn_line) * self.params.line_bytes

    def _mac_line(self, address: int) -> int:
        return self.regions.mac_base + (address // self.params.data_per_mac_line) * self.params.line_bytes

    def _tree_line(self, address: int, level: int) -> int:
        coverage = self.params.data_per_vn_line * self.params.tree_arity ** (level + 1)
        return self.regions.tree_bases[level] + (address // coverage) * self.params.line_bytes

    def _kind_of(self, meta_address: int) -> RequestKind:
        if meta_address < self.regions.mac_base:
            return RequestKind.VN
        if not self.regions.tree_bases or meta_address < self.regions.tree_bases[0]:
            return RequestKind.MAC
        return RequestKind.TREE

    def _touch(self, out: List[MemoryRequest], meta_address: int, is_write: bool,
               kind: RequestKind) -> bool:
        """Access one metadata line through the cache; emit fill +
        writeback requests. Returns True on hit."""
        hit, writeback = self.cache.access(meta_address, is_write)
        if writeback is not None:
            out.append(MemoryRequest(writeback, self.params.line_bytes, True,
                                     self._kind_of(writeback)))
        if not hit:
            out.append(MemoryRequest(meta_address, self.params.line_bytes, False, kind))
        return hit

    def rewrite(self, trace: Iterable[MemoryRequest]) -> List[MemoryRequest]:
        out: List[MemoryRequest] = []
        unit = self.params.data_per_vn_line  # one metadata line per unit
        for req in trace:
            out.append(req)
            first_unit = req.address // unit
            last_unit = (req.address + req.size - 1) // unit
            for u in range(first_unit, last_unit + 1):
                addr = u * unit
                # VN line (decrypt pad / increment on write)
                vn_hit = self._touch(out, self._vn_line(addr), req.is_write, RequestKind.VN)
                # MAC line (verify on read, update on write)
                self._touch(out, self._mac_line(addr), req.is_write, RequestKind.MAC)
                if not vn_hit:
                    # authenticate the fetched VN line: walk the tree
                    # upward until a level hits in the cache
                    for level in range(len(self.regions.tree_bases)):
                        if self._touch(out, self._tree_line(addr, level),
                                       req.is_write, RequestKind.TREE):
                            break
        return out

    def flush(self) -> List[MemoryRequest]:
        """Drain dirty metadata at end of run (writebacks)."""
        out = []
        for address in self.cache.flush():
            out.append(MemoryRequest(address, self.params.line_bytes, True,
                                     self._kind_of(address)))
        return out

    # -- structure-of-arrays fast lane ------------------------------------

    def _kind_code_of(self, meta_address: int) -> int:
        if meta_address < self.regions.mac_base:
            return VN_CODE
        if not self.regions.tree_bases or meta_address < self.regions.tree_bases[0]:
            return MAC_CODE
        return TREE_CODE

    def rewrite_batch(self, batch: RequestBatch) -> RequestBatch:
        """Batch counterpart of :meth:`rewrite`: identical request
        sequence (same metadata-cache state machine), emitted straight
        into parallel arrays.

        In scalar mode this runs :meth:`rewrite` itself. Otherwise, when
        the cache is the vectorized engine and the tree is shallow, the
        whole batch is first attempted as one *speculative program*:
        every metadata touch the batch will make is laid out up front
        (tree-walk depths guessed by a vectorized infinite-cache
        heuristic), run through
        :meth:`~repro.mem.cache_fast.FastSetAssociativeCache.simulate`
        in set-collision waves, and validated against the guess. A
        validated program is provably the sequential result (guards are
        causally determined by the access prefix, so any fixpoint is
        unique); a failed validation restores the cache snapshot and
        falls back to the sequential run engine
        (:meth:`_rewrite_batch_runs`)."""
        if faults.enabled():
            faults.fire("rewriter.rewrite", self._rewrite_calls)
        self._rewrite_calls += 1
        if not perf.fast_enabled():
            return RequestBatch.from_requests(self.rewrite(batch))
        if not len(batch):
            return RequestBatch()
        if (isinstance(self.cache, FastSetAssociativeCache)
                and len(self.regions.tree_bases) + 1 < self.cache.ways):
            out = self._rewrite_batch_spec(batch)
            if out is not None:
                return out
        return self._rewrite_batch_runs(batch)

    def _rewrite_batch_spec(self, batch: RequestBatch):
        """Speculative whole-batch rewrite on the vectorized cache.

        Returns the rewritten batch, or ``None`` if the guessed
        tree-walk depths failed validation (cache state restored; the
        caller re-runs sequentially)."""
        n = len(batch)
        address = _np.frombuffer(batch.address, dtype=_np.int64)
        size = _np.frombuffer(batch.size, dtype=_np.int64)
        is_write = _np.frombuffer(batch.is_write, dtype=_np.int8)
        cache = self.cache
        line_bytes = self.params.line_bytes
        unit = self.params.data_per_vn_line
        per_mac = self.params.data_per_mac_line
        vn_base = self.regions.vn_base
        mac_base = self.regions.mac_base
        tree_bases = self.regions.tree_bases
        arity = self.params.tree_arity
        levels = len(tree_bases)

        # -- runs and items (one item per (run, VN unit)) ------------------
        first_unit = address // unit
        last_unit = (address + size - 1) // unit
        single = first_unit == last_unit
        starts = _run_starts(first_unit, single)
        ends = _np.concatenate((starts[1:], [n]))
        m = len(starts)
        writes_before = _np.concatenate(([0], _np.cumsum(is_write != 0)))
        run_rest_write = writes_before[ends] > writes_before[
            _np.minimum(starts + 1, n)]
        run_single = single[starts]
        run_write = is_write[starts] != 0
        run_len = ends - starts
        run_first = first_unit[starts]
        run_units = _np.where(run_single, 1, last_unit[starts] - run_first + 1)

        item_total = int(run_units.sum())
        run_item_off = _np.concatenate(([0], _np.cumsum(run_units)[:-1]))
        item_run = _np.repeat(_np.arange(m), run_units)
        item_unit = (run_first[item_run]
                     + _np.arange(item_total) - run_item_off[item_run])
        item_pos = starts[item_run]
        item_write = run_write[item_run]
        item_addr = item_unit * unit
        item_vn = vn_base + item_unit * line_bytes
        item_mac = mac_base + item_addr // per_mac * line_bytes
        # hit-run coalescing: single runs fold their tail's retouches
        item_rest = _np.where(run_single[item_run], run_len[item_run] - 1, 0)
        item_fold_write = run_rest_write[item_run] & (item_rest > 0)

        # -- tree-walk depth guesses ---------------------------------------
        ways = cache.ways
        pressure = ways * cache.num_sets  # insert-pressure eviction horizon
        cold = not cache.any_resident()  # fresh cache: skip residency probes

        def guessed_hit(line, idx):
            """Predict hit/miss for touches of ``line`` at item
            positions ``idx``: a re-touch hits while the VN/MAC insert
            pressure since the previous touch (~2 fills per item spread
            over num_sets sets) cannot have filled its set's ways; an
            untouched start-resident line hits on the same horizon from
            batch start. Pure heuristic — validation decides."""
            prev = _prev_occurrence(line)
            seen = prev >= 0
            gap = _np.where(seen, idx - idx[prev], idx + 1)
            recent = 2 * gap < pressure
            if cold:
                return seen & recent
            return (seen | cache.contains_many(line)) & recent

        def guess_depths(vn_hit, fixed, floor):
            """Per-item walk depths implied by ``vn_hit`` plus the hit
            heuristic level by level; ``fixed >= 0`` pins a depth
            (observed hit in the prior attempt), ``floor`` forces
            guessed misses below that level (observed misses)."""
            depth = _np.zeros(item_total, dtype=_np.int64)
            if not levels:
                return depth
            alive = ~vn_hit
            if fixed is not None:
                pinned = fixed >= 0
                depth[pinned & ~vn_hit] = fixed[pinned & ~vn_hit]
                alive &= ~pinned
            coverage = unit * arity
            for level in range(levels):
                idx = _np.flatnonzero(alive)
                if not idx.size:
                    break
                depth[idx] = level + 1
                line = (tree_bases[level]
                        + item_addr[idx] // coverage * line_bytes)
                hit = guessed_hit(line, idx)
                if floor is not None:
                    hit &= level >= floor[idx]
                alive[idx[hit]] = False
                coverage *= arity
            return depth

        item_index = _np.arange(item_total)
        depth = guess_depths(guessed_hit(item_vn, item_index), None, None)

        snapshot = (cache.tags.copy(), cache.dirty.copy(),
                    cache.stamp.copy(), cache._clock,
                    (cache.stats.hits, cache.stats.misses,
                     cache.stats.evictions, cache.stats.dirty_evictions))
        base_clock = cache._clock

        # a failed attempt pins what it observed and can extend a
        # mispredicted walk by one level, so depth-`levels` walks need
        # up to levels + 1 tries before the sequential fallback is the
        # only honest answer (each retry is one cheap `simulate`; the
        # fallback is orders of magnitude slower)
        attempts = max(2, levels + 1)
        for attempt in range(attempts):
            # -- lay the program out as flat entry arrays ------------------
            counts = 2 + depth  # vn, mac, then `depth` tree touches
            slots = counts + 2 * (item_rest > 0)  # + folded retouch slots
            entry_off = _np.concatenate(([0], _np.cumsum(counts)[:-1]))
            slot_off = _np.concatenate(([0], _np.cumsum(slots)[:-1]))
            total_entries = int(counts.sum())
            entry_item = _np.repeat(item_index, counts)
            k_in_item = _np.arange(total_entries) - entry_off[entry_item]

            e_addr = _np.empty(total_entries, dtype=_np.int64)
            vn_mask = k_in_item == 0
            mac_mask = k_in_item == 1
            tree_mask = k_in_item >= 2
            e_addr[vn_mask] = item_vn
            e_addr[mac_mask] = item_mac
            e_kind = _np.where(vn_mask, VN_CODE,
                               _np.where(mac_mask, MAC_CODE, TREE_CODE))
            tree_level = k_in_item[tree_mask] - 2
            tree_item = entry_item[tree_mask]
            if tree_item.size:
                cov = unit * arity ** (_np.arange(levels, dtype=_np.int64) + 1)
                bases = _np.asarray(tree_bases, dtype=_np.int64)
                e_addr[tree_mask] = (bases[tree_level]
                                     + item_addr[tree_item] // cov[tree_level]
                                     * line_bytes)
            e_write = item_write[entry_item] | (
                item_fold_write[entry_item] & ~tree_mask)
            # stamps: each entry's program slot; a folded retouch
            # inflates its touch's stamp to the replay slot (safe: a
            # walk inserts at most 2 + levels <= ways lines into any
            # set, so victims are always pre-run residents whose
            # relative order is unchanged)
            stamps = slot_off[entry_item] + k_in_item
            fold_e = (item_rest > 0)[entry_item]
            stamps[fold_e & vn_mask] = (slot_off + counts)[entry_item[
                fold_e & vn_mask]]
            stamps[fold_e & mac_mask] = (slot_off + counts + 1)[entry_item[
                fold_e & mac_mask]]
            stamps += base_clock

            hits = _np.empty(total_entries, dtype=bool)
            writebacks = _np.full(total_entries, -1, dtype=_np.int64)
            cache.simulate(e_addr, e_write, stamps, hits, writebacks)

            # -- validate the guess ----------------------------------------
            ok = True
            vn_hit = hits[entry_off]
            t_hits = hits[tree_mask]
            if levels:
                if _np.any(vn_hit != (depth == 0)):
                    ok = False
                elif tree_item.size:
                    t_depth = depth[tree_item]
                    expected = (tree_level == t_depth - 1) & (t_depth < levels)
                    unconstrained = (tree_level == t_depth - 1) & (
                        t_depth == levels)
                    if _np.any((t_hits != expected) & ~unconstrained):
                        ok = False
            if ok:
                cache._clock = base_clock + int(slots.sum())
                cache.credit_hits(2 * int(item_rest.sum()))
                break

            cache.tags[...] = snapshot[0]
            cache.dirty[...] = snapshot[1]
            cache.stamp[...] = snapshot[2]
            cache._clock = snapshot[3]
            (cache.stats.hits, cache.stats.misses, cache.stats.evictions,
             cache.stats.dirty_evictions) = snapshot[4]
            if attempt == attempts - 1:
                return None
            # refine: actual hits pin what the attempt proved, the
            # heuristic only extends walks past the proven misses
            first_hit = _np.full(item_total, levels, dtype=_np.int64)
            hit_tree = t_hits.nonzero()[0]
            if hit_tree.size:
                _np.minimum.at(first_hit, tree_item[hit_tree],
                               tree_level[hit_tree])
            fixed = _np.where(first_hit < levels, first_hit + 1, -1)
            depth = guess_depths(vn_hit, fixed, depth)

        # -- assemble positioned events ------------------------------------
        has_wb = writebacks >= 0
        has_fill = ~hits
        slot_mask = _np.empty(2 * total_entries, dtype=bool)
        slot_mask[0::2] = has_wb  # a writeback precedes its fill
        slot_mask[1::2] = has_fill
        ev_slot = _np.flatnonzero(slot_mask)
        ev_entry = ev_slot >> 1
        ev_is_wb = (ev_slot & 1) == 0
        ev_pos = item_pos[entry_item[ev_entry]]
        ev_addr = _np.where(ev_is_wb, writebacks[ev_entry], e_addr[ev_entry])
        ev_write = ev_is_wb.astype(_np.int8)
        wb_kind = _np.where(
            ev_addr < mac_base, VN_CODE,
            _np.where(ev_addr < (tree_bases[0] if tree_bases else 1 << 62),
                      MAC_CODE, TREE_CODE))
        ev_kind = _np.where(ev_is_wb, wb_kind, e_kind[ev_entry])

        out = RequestBatch()
        _scatter_assemble(out, batch, address, size, is_write,
                          ev_pos, ev_addr, ev_write, ev_kind, line_bytes)
        return out

    def _rewrite_batch_runs(self, batch: RequestBatch) -> RequestBatch:
        """Sequential run engine: the exact fallback when speculation
        fails validation or cannot run (a deep tree, or the reference
        cache). A run is a maximal stretch of requests inside
        one VN unit; its first request walks the cache state machine and
        the rest are provably hits, replayed as one LRU re-touch of the
        unit's VN and MAC lines plus an OR over their write bits."""
        out = RequestBatch()
        n = len(batch)
        address = _np.frombuffer(batch.address, dtype=_np.int64)
        size = _np.frombuffer(batch.size, dtype=_np.int64)
        is_write = _np.frombuffer(batch.is_write, dtype=_np.int8)
        line_bytes = self.params.line_bytes
        unit = self.params.data_per_vn_line
        per_mac = self.params.data_per_mac_line
        access = self.cache.access
        retouch = self.cache.retouch
        kind_code_of = self._kind_code_of
        vn_base = self.regions.vn_base
        mac_base = self.regions.mac_base
        tree_bases = self.regions.tree_bases
        arity = self.params.tree_arity

        first_unit = address // unit
        last_unit = (address + size - 1) // unit
        # a fill inserted by this walk can only be evicted by the walk's
        # own later insertions; with <= tree-levels + 1 of those after
        # the VN fill, an 8-way set can never push VN/MAC out before the
        # run's remaining (all-hit) requests replay. Deeper trees run
        # every request through the full walk.
        coalesce_safe = len(tree_bases) + 1 < self.cache.ways
        starts = _run_starts(first_unit,
                             (first_unit == last_unit) & coalesce_safe)
        ends = _np.concatenate((starts[1:], [n]))
        writes_before = _np.concatenate(([0], _np.cumsum(is_write != 0)))
        # writes among requests s+1..e-1 (the coalesced tail of a run)
        run_rest_write = (writes_before[ends]
                          > writes_before[_np.minimum(starts + 1, n)]).tolist()
        run_first = first_unit[starts].tolist()
        run_last = last_unit[starts].tolist()
        run_write = is_write[starts].tolist()
        run_len = (ends - starts).tolist()

        # positioned metadata emissions: (after-request-index, address,
        # is_write, kind) as four parallel lists. The interleaved output
        # stream is scatter-assembled once at the end instead of being
        # flushed run by run.
        ev_pos, ev_addr, ev_write, ev_kind = [], [], [], []
        put_pos = ev_pos.append
        put_addr = ev_addr.append
        put_write = ev_write.append
        put_kind = ev_kind.append

        def touch(position: int, meta_address: int, write: int,
                  kind_code: int) -> bool:
            hit, writeback = access(meta_address, write)
            if writeback is not None:
                put_pos(position)
                put_addr(writeback)
                put_write(1)
                put_kind(kind_code_of(writeback))
            if not hit:
                put_pos(position)
                put_addr(meta_address)
                put_write(0)
                put_kind(kind_code)
            return hit

        for k, s in enumerate(starts.tolist()):
            write = run_write[k]
            for u in range(run_first[k], run_last[k] + 1):
                addr = u * unit
                vn_line = vn_base + u * line_bytes
                mac_line = mac_base + addr // per_mac * line_bytes
                vn_hit = touch(s, vn_line, write, VN_CODE)
                touch(s, mac_line, write, MAC_CODE)
                if not vn_hit:
                    coverage = unit * arity
                    for level_base in tree_bases:
                        if touch(s, level_base + addr // coverage * line_bytes,
                                 write, TREE_CODE):
                            break
                        coverage *= arity
            rest = run_len[k] - 1
            if rest:
                rest_write = run_rest_write[k]
                retouch(vn_line, rest_write, rest)
                retouch(mac_line, rest_write, rest)
        _scatter_assemble(out, batch, address, size, is_write,
                          ev_pos, ev_addr, ev_write, ev_kind, line_bytes)
        return out

    def flush_batch(self) -> RequestBatch:
        """Batch counterpart of :meth:`flush`."""
        out = RequestBatch()
        for address in self.cache.flush():
            out.append(address, self.params.line_bytes, True,
                       self._kind_code_of(address))
        return out
