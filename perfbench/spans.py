"""Span recording from outside the program.

The traced run wraps public functions and methods of the simulator's
modules (for example ``ControllerSession.feed`` or
``GuardNNDevice.execute``) so that every call records a span: name,
start, end, parent span and the id of the operation it belongs to.
Spans stay in memory and are written out once, when the run ends.
Nothing inside ``src/`` is edited; untraced runs patch nothing.

A span's *self time* is its duration minus the time its child spans
cover. A call into a layer that is already open on the same thread
(``AesCtr.crypt_region`` reaching ``AesCtr.crypt``, ``Sha256.digest``
reaching ``Sha256.update``) records no second span, so busy time and
byte counts are never counted twice.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []  # (name, start, end, parent, op)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: object) -> None:
        """Tag the spans this thread records from now on with ``op``."""
        self._local.op = op

    def active(self, name: str) -> bool:
        return any(entry[0] == name for entry in self._stack())

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        parent = stack[-1][1] if stack else -1
        stack.append((name, index))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent,
                                  getattr(self._local, "op", None))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- patching ----------------------------------------------------------

    def wrap_method(self, owner, attr: str, name_of,
                    count_of: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a plain method) with a traced one.
        ``name_of(self, *args)`` names the span (a string is used as
        is); ``count_of(self, *args)`` returns ``{counter: amount}``
        added for each outermost call."""
        original = owner.__dict__[attr]
        tracer = self

        def traced(obj, *args, **kwargs):
            name = name_of if isinstance(name_of, str) else name_of(obj, *args)
            if name is None or tracer.active(name):
                return original(obj, *args, **kwargs)
            if count_of is not None:
                for key, amount in count_of(obj, *args).items():
                    tracer.count(key, amount)
            return tracer.call(name, original, obj, *args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_static(self, owner, attr: str, name: str) -> None:
        """Trace a ``staticmethod`` of ``owner``."""
        original = owner.__dict__[attr]
        fn = original.__func__
        tracer = self

        def traced(*args, **kwargs):
            if tracer.active(name):
                return fn(*args, **kwargs)
            return tracer.call(name, fn, *args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, staticmethod(traced))

    def wrap_function(self, module, attr: str, name: str) -> None:
        """Trace a module-level function everywhere it is bound: the
        defining module and every ``repro`` module that imported it by
        name."""
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.active(name):
                return original(*args, **kwargs)
            return tracer.call(name, original, *args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if (mod is not None and mod_name.split(".")[0] == "repro"
                    and getattr(mod, attr, None) is original):
                self._patches.append((mod, attr, original))
                setattr(mod, attr, traced)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def missing(self, names) -> List[str]:
        """The names among ``names`` that recorded no span: a layer the
        workload runs but whose wrap caught no call."""
        fired = {span[0] for span in self.spans}
        return [name for name in names if name not in fired]

    def busy(self) -> Dict[str, float]:
        """Total duration per span name."""
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "op": op}) + "\n")
