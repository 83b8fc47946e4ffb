"""FR-FCFS memory controller.

Schedules a request stream onto :class:`repro.mem.dram.DramChip` with the
classic First-Ready, First-Come-First-Served policy: among queued
requests, prefer row-buffer hits; break ties by age. Requests larger than
one burst are split into per-burst sub-requests.

The controller is used two ways:

* **event-driven**: :meth:`run_trace` times an explicit request list —
  used by tests, microbenches, and bandwidth characterization;
* **characterization**: :meth:`effective_bandwidth_gbps` measures
  sustainable bandwidth for a synthetic streaming mix, which the
  analytical layer-performance model uses as its bandwidth input
  (see :mod:`repro.accel.accelerator`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Union

import numpy as _np

from repro import perf
from repro.mem.batch import RequestBatch
from repro.mem.dram import CMD_DATA_COUPLING, DramChip, DDR4_2400, DramTiming
from repro.mem.layout import AddressLayout
from repro.mem.trace import MemoryRequest, TraceStats


@dataclass
class ControllerResult:
    """Outcome of timing one trace."""

    cycles: int
    requests: int
    bursts: int
    stats: TraceStats

    def bandwidth_gbps(self, freq_mhz: float, burst_bytes: int = 64) -> float:
        if self.cycles == 0:
            return 0.0
        bytes_moved = self.bursts * burst_bytes
        seconds = self.cycles / (freq_mhz * 1e6)
        return bytes_moved / seconds / 1e9


class MemoryController:
    """FR-FCFS over a single channel."""

    def __init__(self, timing: DramTiming = DDR4_2400, layout: AddressLayout = None,
                 queue_depth: int = 32):
        self.layout = layout or AddressLayout()
        self.dram = DramChip(timing, self.layout)
        self.queue_depth = queue_depth

    def _split_bursts(self, request: MemoryRequest) -> Iterable[tuple]:
        """Yield (address, is_write) per burst covering the request."""
        burst = self.layout.burst_bytes
        start = (request.address // burst) * burst
        end = request.address + request.size
        addr = start
        while addr < end:
            yield (addr, request.is_write)
            addr += burst

    def run_trace(self, trace: Union[List[MemoryRequest], RequestBatch]) -> ControllerResult:
        """Time an entire trace; returns total cycles and statistics.

        Accepts either a ``MemoryRequest`` list (the scalar reference
        path below) or a :class:`RequestBatch` (routed to
        :meth:`run_batch`); both produce identical results.
        """
        if isinstance(trace, RequestBatch):
            return self.run_batch(trace)
        stats = TraceStats()
        pending = deque()
        for req in trace:
            stats.add(req)
            for burst in self._split_bursts(req):
                pending.append(burst)

        cycle = 0
        last_data_end = 0
        bursts = 0
        window = deque()
        while pending or window:
            while pending and len(window) < self.queue_depth:
                window.append(pending.popleft())
            # FR-FCFS: first row hit in the window, else the oldest
            chosen = None
            for i, (addr, _w) in enumerate(window):
                bank, row, _col = self.layout.decompose(addr)
                if self.dram.open_row_of(bank) == row:
                    chosen = i
                    break
            if chosen is None:
                chosen = 0
            addr, is_write = window[chosen]
            del window[chosen]
            cycle, data_end = self.dram.access(addr, is_write, cycle)
            last_data_end = max(last_data_end, data_end)
            bursts += 1
        total = max(cycle, last_data_end)
        return ControllerResult(cycles=total, requests=len(trace), bursts=bursts, stats=stats)

    def _expand_bursts_soa(self, batch: RequestBatch):
        """Per-burst (is_write, bank, row, run_end) lists for a batch,
        decomposed up front in numpy. ``run_end[i]`` is the exclusive
        end of the maximal stretch of consecutive bursts sharing burst
        ``i``'s (bank, row): the schedule loop services whole row-hit
        runs from it without rescanning the window per burst (``None``
        for an empty batch)."""
        burst = self.layout.burst_bytes
        cpr = self.layout.columns_per_row
        banks = self.layout.banks
        if len(batch):
            addr = _np.frombuffer(batch.address, dtype=_np.int64)
            size = _np.frombuffer(batch.size, dtype=_np.int64)
            start_burst = addr // burst
            counts = (addr + size - 1) // burst - start_burst + 1
            total = int(counts.sum())
            starts = _np.repeat(start_burst, counts)
            ends = _np.cumsum(counts)
            ramp = _np.arange(total, dtype=_np.int64) - _np.repeat(ends - counts, counts)
            burst_index = starts + ramp
            rest = burst_index // cpr
            bank_arr = rest % banks
            row_arr = rest // banks
            write_arr = _np.repeat(
                _np.frombuffer(batch.is_write, dtype=_np.int8), counts
            )
            boundary = _np.empty(total, dtype=bool)
            boundary[-1] = True
            boundary[:-1] = (bank_arr[1:] != bank_arr[:-1]) | (row_arr[1:] != row_arr[:-1])
            run_ends = _np.flatnonzero(boundary) + 1
            run_end = _np.repeat(
                run_ends, _np.diff(_np.concatenate(([0], run_ends))))
            return (write_arr.tolist(), bank_arr.tolist(), row_arr.tolist(),
                    run_end.tolist())
        writes, bank_list, row_list = [], [], []
        decompose = self.layout.decompose
        for address, size, is_write in zip(batch.address, batch.size, batch.is_write):
            first = (address // burst) * burst
            end = address + size
            a = first
            while a < end:
                bank, row, _col = decompose(a)
                writes.append(is_write)
                bank_list.append(bank)
                row_list.append(row)
                a += burst
        return writes, bank_list, row_list, None

    def run_batch(self, batch: RequestBatch) -> ControllerResult:
        """Time a :class:`RequestBatch` — same FR-FCFS schedule and
        cycle accounting as :meth:`run_trace`, but burst expansion and
        address decomposition happen once, vectorized, and the schedule
        loop services whole row-hit runs at a time (see
        :class:`ControllerSession`, which owns the loop; this method is
        the one-shot feed + finish)."""
        session = ControllerSession(self)
        session.feed(batch)
        return session.finish()

    def session(self) -> "ControllerSession":
        """Open a streaming run over this controller's DRAM state."""
        return ControllerSession(self)

    def effective_bandwidth_gbps(self, nbytes: int = 1 << 20, write_fraction: float = 0.3,
                                 stride: int = 64) -> float:
        """Measure sustainable bandwidth with a streaming read/write mix
        (the access shape of a DNN accelerator fetching tiles)."""
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        # deliberately keeps the historical int(1/f) cadence (33% writes
        # for f=0.3) rather than the generators' exact write mask: this
        # mix calibrates the analytic bandwidth model, and changing it
        # would move the pinned Figure-3 goldens
        writes_every = int(1 / write_fraction) if write_fraction > 0 else 0
        n = nbytes // stride
        if perf.fast_enabled():
            trace = RequestBatch()
            for i in range(n):
                is_write = writes_every > 0 and (i % writes_every == 0)
                trace.append(i * stride, stride, is_write)
        else:
            trace = []
            for i in range(n):
                is_write = writes_every > 0 and (i % writes_every == 0)
                trace.append(MemoryRequest(address=i * stride, size=stride, is_write=is_write))
        result = self.run_trace(trace)
        return result.bandwidth_gbps(self.dram.timing.freq_mhz, self.layout.burst_bytes)


class ControllerSession:
    """A resumable FR-FCFS run: feed successive :class:`RequestBatch`
    chunks, get the **bit-identical** schedule of one monolithic
    :meth:`MemoryController.run_batch` over their concatenation.

    The monolithic loop's only cross-request state is the DRAM timing
    state (owned by the controller, which persists anyway) plus the
    scheduling window. The session therefore schedules only while the
    window can be held at full depth; once a chunk cannot refill it,
    the un-issued window residue — out-of-order leftovers first, then
    the FIFO tail, i.e. exactly the window in age order — is carried
    as burst descriptors and replayed ahead of the next chunk's bursts.
    Every scheduling decision is thus taken with the same window
    contents in the same order as the monolithic run, so cycles,
    bursts, per-bank state, and DRAM stats all match exactly (the
    pipeline-equivalence property suite asserts this across chunk
    sizes, including chunk seams that split a row-hit run).

    Within a chunk the loop is the one :meth:`run_batch` always ran:
    row-hit runs serviced wholesale with a closed-form bus-bound jump
    between refreshes on the fast path, the plain windowed reference
    loop under ``REPRO_SCALAR=1``.
    """

    def __init__(self, controller: MemoryController):
        self.controller = controller
        self._stats = TraceStats()
        self._requests = 0
        self._bursts = 0
        self._cycle = 0
        self._last_data_end = 0
        self._run_hits = 0
        # window residue carried across chunks (burst descriptors in
        # window/age order: leftovers first, then the FIFO tail)
        self._carry_write: List[int] = []
        self._carry_bank: List[int] = []
        self._carry_row: List[int] = []
        self._leftover_hit_possible = True
        self._result = None

    def feed(self, batch: RequestBatch) -> None:
        """Append one chunk to the stream and schedule as far as the
        window allows."""
        if self._result is not None:
            raise RuntimeError("session already finished")
        if not len(batch):
            return
        self._stats.merge(batch.stats())
        self._requests += len(batch)
        writes, banks, rows, run_end = self.controller._expand_bursts_soa(batch)
        self._schedule(writes, banks, rows, run_end, final=False)

    def finish(self) -> ControllerResult:
        """Drain the window and return the whole stream's result."""
        if self._result is None:
            self._schedule([], [], [], None, final=True)
            self.controller.dram.stats["row_hits"] += self._run_hits
            self._run_hits = 0
            self._result = ControllerResult(
                cycles=max(self._cycle, self._last_data_end),
                requests=self._requests, bursts=self._bursts, stats=self._stats)
        return self._result

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """The session's complete mid-stream state, including the DRAM
        chip it schedules onto. Captured only at chunk seams, where the
        carried window residue is < queue_depth burst descriptors — a
        checkpoint stays a few KB regardless of trace length."""
        if self._result is not None:
            raise RuntimeError("session already finished")
        return {
            "stats": self._stats.state_dict(),
            "requests": self._requests,
            "bursts": self._bursts,
            "cycle": self._cycle,
            "last_data_end": self._last_data_end,
            "run_hits": self._run_hits,
            "carry_write": list(self._carry_write),
            "carry_bank": list(self._carry_bank),
            "carry_row": list(self._carry_row),
            "leftover_hit_possible": self._leftover_hit_possible,
            "dram": self.controller.dram.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self._stats = TraceStats()
        self._stats.load_state(state["stats"])
        self._requests = int(state["requests"])
        self._bursts = int(state["bursts"])
        self._cycle = int(state["cycle"])
        self._last_data_end = int(state["last_data_end"])
        self._run_hits = int(state["run_hits"])
        self._carry_write = [int(v) for v in state["carry_write"]]
        self._carry_bank = [int(v) for v in state["carry_bank"]]
        self._carry_row = [int(v) for v in state["carry_row"]]
        self._leftover_hit_possible = bool(state["leftover_hit_possible"])
        self._result = None
        self.controller.dram.load_state(state["dram"])

    @staticmethod
    def _run_ends(bank_list, row_list):
        """Recompute row-hit run ends over carried + fresh bursts (the
        seam may fuse a split run back together)."""
        bank_arr = _np.asarray(bank_list, dtype=_np.int64)
        row_arr = _np.asarray(row_list, dtype=_np.int64)
        boundary = _np.empty(len(bank_arr), dtype=bool)
        boundary[-1] = True
        boundary[:-1] = (bank_arr[1:] != bank_arr[:-1]) | (row_arr[1:] != row_arr[:-1])
        run_ends = _np.flatnonzero(boundary) + 1
        return _np.repeat(run_ends,
                          _np.diff(_np.concatenate(([0], run_ends)))).tolist()

    def _schedule(self, writes, bank_list, row_list, run_end, final: bool) -> None:
        ctrl = self.controller
        if self._carry_write:
            writes = self._carry_write + writes
            bank_list = self._carry_bank + bank_list
            row_list = self._carry_row + row_list
            run_end = None  # recomputed below: the seam may fuse runs
            self._carry_write, self._carry_bank, self._carry_row = [], [], []
        n = len(writes)
        if not n:
            return
        depth = ctrl.queue_depth
        if not final and n < depth:
            # the window cannot fill yet: every burst carries forward
            self._carry_write = list(writes)
            self._carry_bank = list(bank_list)
            self._carry_row = list(row_list)
            return
        dram = ctrl.dram
        dram_banks = dram._banks  # the scan needs raw open-row state
        access = dram.access_decomposed
        cycle = self._cycle
        last_data_end = self._last_data_end
        bursts = 0

        # REPRO_SCALAR drops even the batch entry point to the plain
        # windowed reference loop (the escape hatch for bisecting a
        # suspected run-servicing bug)
        if run_end is None and perf.fast_enabled():
            run_end = self._run_ends(bank_list, row_list)
        if run_end is None or not perf.fast_enabled():
            window = deque()
            head = 0
            while head < n or window:
                while head < n and len(window) < depth:
                    window.append(head)
                    head += 1
                if not final and len(window) < depth:
                    break  # refill exhausted: pause until the next chunk
                chosen_pos = None
                for pos, j in enumerate(window):
                    if dram_banks[bank_list[j]].open_row == row_list[j]:
                        chosen_pos = pos
                        break
                if chosen_pos is None:
                    chosen_pos = 0
                j = window[chosen_pos]
                del window[chosen_pos]
                cycle, data_end = access(bank_list[j], row_list[j],
                                         bool(writes[j]), cycle)
                if data_end > last_data_end:
                    last_data_end = data_end
                bursts += 1
            residue = list(window)
            self._save(writes, bank_list, row_list, residue, cycle,
                       last_data_end, bursts)
            return

        t = dram.timing
        tRCD = t.tRCD
        tCL = t.tCL
        tCWL = t.tCWL
        tBL = t.tBL
        slot = max(t.tBL, t.tCCD)  # data-bus spacing between bursts
        couple = CMD_DATA_COUPLING
        # the closed form needs CAS to hide inside the command/data
        # coupling window (true for every DDR4-class timing)
        jumpable = tCL <= couple + slot and tCWL <= couple + slot
        run_hits = 0
        leftovers: List[int] = []  # out-of-order window residue, ascending
        # open rows change only on miss/conflict accesses and refreshes,
        # so once a scan proves no leftover hits, the result stands until
        # one of those happens — the scan is skipped in between
        leftover_hit_possible = self._leftover_hit_possible
        tail_lo = 0  # contiguous FIFO tail [tail_lo, tail_hi)
        while leftovers or tail_lo < n:
            if not final and len(leftovers) + (n - tail_lo) < depth:
                break  # the window can no longer fill: pause here
            # FR-FCFS: the first row hit in window order wins, and
            # leftovers precede the FIFO tail
            j = -1
            pre_hit = True
            if leftovers and leftover_hit_possible:
                for pos, candidate in enumerate(leftovers):
                    if dram_banks[bank_list[candidate]].open_row == row_list[candidate]:
                        j = candidate
                        del leftovers[pos]
                        break
                else:
                    leftover_hit_possible = False
            if j < 0 and tail_lo < n:
                j0 = tail_lo
                bank = dram_banks[bank_list[j0]]
                if bank.open_row == row_list[j0]:
                    # service the whole row-hit run from the FIFO head
                    stop = run_end[j0]
                    next_refresh = dram._next_refresh
                    bus_free = dram._bus_free_at
                    act_rcd = bank.activated_at + tRCD
                    data_end = 0
                    i = tail_lo
                    while i < stop:
                        if cycle >= next_refresh:
                            break  # generic step replays this burst
                        col_issue = cycle if cycle > act_rcd else act_rcd
                        ready = col_issue + (tCWL if writes[i] else tCL)
                        data_start = ready if ready > bus_free else bus_free
                        data_end = data_start + tBL
                        bus_free = data_start + slot
                        stall = data_start - couple
                        nc = cycle + 1
                        cycle = nc if nc > stall else stall
                        i += 1
                        if (i < stop and jumpable and cycle == stall
                                and cycle >= act_rcd):
                            # bus-bound steady state: every further hit
                            # adds one bus slot; jump to the refresh
                            # horizon in O(1)
                            horizon = (next_refresh + couple - 1
                                       - data_start) // slot + 1
                            m = stop - i
                            if horizon < m:
                                m = horizon
                            if m > 0:
                                data_start += m * slot
                                data_end = data_start + tBL
                                bus_free = data_start + slot
                                cycle = data_start - couple
                                i += m
                    serviced = i - tail_lo
                    if serviced:
                        run_hits += serviced
                        bursts += serviced
                        bank.last_data_end = data_end
                        bank.last_was_write = bool(writes[i - 1])
                        dram._bus_free_at = bus_free
                        if data_end > last_data_end:
                            last_data_end = data_end
                        tail_lo = i
                        continue
                    # refresh due before the first hit: service the head
                    # burst through the full model (it is still the first
                    # hit in window order — no leftover hits exist here)
                    j = j0
                    tail_lo += 1
            if j < 0:
                # no leftover hit and the head is not a hit: scan the
                # FIFO tail for the first hit, else take the oldest
                tail_hi = tail_lo + depth - len(leftovers)
                if tail_hi > n:
                    tail_hi = n
                for candidate in range(tail_lo, tail_hi):
                    if dram_banks[bank_list[candidate]].open_row == row_list[candidate]:
                        j = candidate
                        leftovers.extend(range(tail_lo, candidate))
                        tail_lo = candidate + 1
                        break
                if j < 0:
                    pre_hit = False  # no hit anywhere: oldest, row opens
                    if leftovers:
                        j = leftovers.pop(0)
                    else:
                        j = tail_lo
                        tail_lo += 1
            refresh_mark = dram._next_refresh
            cycle, data_end = access(bank_list[j], row_list[j], bool(writes[j]), cycle)
            if not pre_hit or dram._next_refresh != refresh_mark:
                leftover_hit_possible = True
            if data_end > last_data_end:
                last_data_end = data_end
            bursts += 1
        self._run_hits += run_hits
        self._leftover_hit_possible = leftover_hit_possible
        residue = leftovers + list(range(tail_lo, n))
        self._save(writes, bank_list, row_list, residue, cycle,
                   last_data_end, bursts)

    def _save(self, writes, bank_list, row_list, residue, cycle,
              last_data_end, bursts) -> None:
        """Persist loop state; ``residue`` lists the un-issued burst
        indices in window/age order (empty on a final drain)."""
        self._carry_write = [writes[j] for j in residue]
        self._carry_bank = [bank_list[j] for j in residue]
        self._carry_row = [row_list[j] for j in residue]
        self._cycle = cycle
        self._last_data_end = last_data_end
        self._bursts += bursts
