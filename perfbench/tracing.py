"""Spans recorded from outside the program.

The benchmark never edits the program to trace it. Instead it replaces
a layer's public entry point (a module function or a class attribute)
with a wrapper that records a span around the original call, and puts
the original back afterwards. Every traced call is synchronous on one
thread, so spans nest strictly and a span's children never overlap:
self time is the span's duration minus the summed durations of its
direct children.

Garbage collection is observed through ``gc.callbacks`` only (the
collector is never disabled, frozen or tuned here). Each collection is
recorded as a ``gc`` span, a child of whatever span it interrupted, so a
layer's self time does not include collector pauses.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span records kept in memory for the trace file; aggregates (self
#: time, call counts) keep counting past this.
SPAN_CAP = 100_000

#: ``note(args, result)`` observes a call that returned (it may count
#: what the call did) and gives the span's message id, or None.
NoteFn = Callable[[Tuple[Any, ...], Any], Any]

SpanRecord = Tuple[str, int, int, int, Any]


class Tracer:
    """Span stack, per-name self-time aggregates and capped records.

    Records are ``(name, start_ns, end_ns, parent_index, mid)``; the
    parent index points into :attr:`records` (-1: no recorded parent).
    """

    def __init__(
        self, clock: Callable[[], int] = time.perf_counter_ns, cap: int = SPAN_CAP
    ) -> None:
        self.clock = clock
        self.cap = cap
        #: Open spans, innermost last: [record index, child ns].
        self._stack: List[List[int]] = []
        self.records: List[Optional[SpanRecord]] = []
        self.self_ns: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self._gc_open: Optional[Tuple[List[int], int]] = None
        self.gc_pauses_ns: List[Tuple[int, int]] = []  # (generation, ns)

    # -- spans -----------------------------------------------------------

    def begin(self) -> Tuple[List[int], int]:
        idx = len(self.records)
        if idx < self.cap:
            self.records.append(None)
        else:
            idx = -1
        frame = [idx, 0]
        self._stack.append(frame)
        return frame, self.clock()

    def end(self, name: str, opened: Tuple[List[int], int], mid: Any = None) -> int:
        frame, start = opened
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_ns[name] += duration - frame[1]
        self.total_ns[name] += duration
        self.calls[name] += 1
        parent = -1
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        if frame[0] >= 0:
            self.records[frame[0]] = (name, start, end, parent, mid)
        return duration

    def wrap(self, name: str, fn: Callable[..., Any], note: Optional[NoteFn] = None) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            opened = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(name, opened)
                raise
            tracer.end(name, opened, note(args, result) if note else None)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- garbage collection ---------------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_open = self.begin()
        elif self._gc_open is not None:
            duration = self.end("gc", self._gc_open)
            self._gc_open = None
            self.gc_pauses_ns.append((info["generation"], duration))

    def observe_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, rec in enumerate(self.records):
                if rec is None:
                    continue
                name, start, end, parent, mid = rec
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "mid": list(mid) if mid is not None else None,
                        }
                    )
                    + "\n"
                )


class Patches:
    """Install and remove span wrappers on module/class attributes."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._targets: List[Tuple[Any, str, str, Optional[NoteFn]]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def add(self, owner: Any, attr: str, name: str, note: Optional[NoteFn] = None) -> None:
        self._targets.append((owner, attr, name, note))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("patches already installed")
        for owner, attr, name, note in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original, note))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
