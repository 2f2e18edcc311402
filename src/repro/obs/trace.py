"""Structured tracing: ``span()`` context managers over one process tracer.

The API is built around one invariant: **when tracing is off, the cost of an
instrumented call site is a single module-global check** — :func:`span`
returns a shared no-op object without allocating anything
(``tests/test_obs.py`` checks it is one shared object).  When tracing is on,
spans form a parent/child tree per thread via a thread-local stack, carry
monotonic start/duration timings relative to the tracer's epoch, and are
exportable as JSONL (one line per span).

Worker re-parenting
-------------------
Map tasks may run in pool worker *processes*, where the parent's tracer does
not exist.  :func:`task_capture` installs a thread-local sink that collects
the task's spans with task-local ids; the capture's compact wire form rides
back on :class:`~repro.parallel.tasks.MapResult` and the grid's reduce phase
:func:`fold`\\ s it into the parent tracer — re-assigning ids and re-rooting
the task's top span under the enclosing round span, so a process-pool run
still yields one well-formed tree.  Cross-process clocks do not compare, so
folded spans are re-anchored: the task root is placed to *end* at fold time
and children keep their capture-relative offsets (durations are exact,
absolute starts of folded spans are approximate by transport delay).

Force-enabling: setting ``REPRO_TRACE`` in the environment enables tracing
at import time — ``1``/``true``/``memory`` keep spans in a bounded in-memory
ring (the CI instrumentation-path suite), anything else is a JSONL path.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "NULL_SPAN",
    "Tracer",
    "TaskCapture",
    "disable",
    "enable",
    "enabled",
    "export_jsonl",
    "fold",
    "span",
    "spans",
    "task_capture",
    "tracer",
]

#: The single fast gate: rebound whenever a tracer or capture (de)activates.
#: Instrumented call sites pay exactly this attribute check when tracing is
#: off.
ENABLED = False

#: Ring size when force-enabled in memory (``REPRO_TRACE=1``): large enough
#: for any test, bounded so a full force-enabled suite cannot grow without
#: limit.
MEMORY_RING_SPANS = 200_000

DEFAULT_MAX_SPANS = 1_000_000

_state_lock = threading.Lock()
_tracer: Optional["Tracer"] = None
_capture_count = 0
_local = threading.local()


def _refresh_enabled() -> None:
    global ENABLED
    ENABLED = _tracer is not None or _capture_count > 0


class _NullSpan:
    """Shared do-nothing span handed out whenever tracing is off."""

    __slots__ = ()
    span_id = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add_attrs(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any):
    """Open a span: ``with span("grid.round", round=3) as sp: ...``.

    Returns :data:`NULL_SPAN` without allocating when tracing is disabled —
    the whole disabled-path cost is the ``ENABLED`` check.
    """
    if not ENABLED:
        return NULL_SPAN
    return _Span(name, attrs)


class _Span:
    __slots__ = ("name", "attrs", "span_id", "parent_id", "_sink", "_start")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = 0
        self._sink = None
        self._start = 0.0

    def __enter__(self) -> "_Span":
        sink = getattr(_local, "capture", None)
        if sink is None:
            sink = _tracer
        if sink is None:
            # Tracing raced off, or this thread has no capture while only
            # captures are active elsewhere: record nothing.
            return self
        self._sink = sink
        self.span_id = sink.next_id()
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        # Parent only within the same sink: spans inside a task capture must
        # not point at tracer-side ids (the fold re-parents the capture root).
        if stack and stack[-1]._sink is sink:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        sink = self._sink
        if sink is None:
            return False
        duration = time.perf_counter() - self._start
        stack = getattr(_local, "stack", None)
        if stack:
            if stack[-1] is self:
                stack.pop()
            else:  # unbalanced exit (generator-held span); drop quietly
                try:
                    stack.remove(self)
                except ValueError:
                    pass
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        sink.add(self.span_id, self.parent_id, self.name,
                 self._start - sink.epoch, duration, self.attrs)
        return False

    def add_attrs(self, **attrs: Any) -> "_Span":
        self.attrs.update(attrs)
        return self


class Tracer:
    """The process-wide span sink: bounded ring, monotonic epoch, JSONL out."""

    def __init__(self, path: Optional[os.PathLike] = None,
                 max_spans: int = DEFAULT_MAX_SPANS):
        self.path: Optional[Path] = Path(path) if path is not None else None
        self.epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=max_spans)
        self.dropped = 0

    def next_id(self) -> int:
        return next(self._ids)  # atomic under the GIL

    def add(self, span_id: int, parent_id: int, name: str, start: float,
            duration: float, attrs: Dict[str, Any],
            origin: Optional[str] = None) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(
                (span_id, parent_id, name, start, duration, attrs, origin))

    def fold(self, wire_spans: Tuple, parent_id: int) -> None:
        """Fold a :meth:`TaskCapture.wire` blob in under ``parent_id``."""
        if not wire_spans:
            return
        root = next((item for item in wire_spans if item[1] == 0), None)
        now = time.perf_counter() - self.epoch
        # Anchor so the task's root span ends at fold time; capture-relative
        # offsets between the task's spans are preserved exactly.
        offset = now - ((root[3] + root[4]) if root is not None else 0.0)
        mapping = {item[0]: self.next_id() for item in wire_spans}
        records = []
        for span_id, task_parent, name, start, duration, attrs in wire_spans:
            records.append((
                mapping[span_id], mapping.get(task_parent, parent_id), name,
                start + offset, duration, dict(attrs), "worker"))
        with self._lock:
            overflow = len(self._spans) + len(records) - self._spans.maxlen
            if overflow > 0:
                self.dropped += overflow
            self._spans.extend(records)

    def records(self) -> List[Dict[str, Any]]:
        with self._lock:
            items = list(self._spans)
        out = []
        for span_id, parent_id, name, start, duration, attrs, origin in items:
            record = {"id": span_id, "parent": parent_id, "name": name,
                      "start": round(start, 9), "dur": round(duration, 9)}
            if attrs:
                record["attrs"] = dict(attrs)
            if origin:
                record["origin"] = origin
            out.append(record)
        return out

    def export_jsonl(self, path: Optional[os.PathLike] = None
                     ) -> Optional[Path]:
        target = Path(path) if path is not None else self.path
        if target is None:
            return None
        records = self.records()
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return target


class TaskCapture:
    """A task-scoped span sink with task-local ids (root's parent is 0)."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._spans: List[Tuple] = []

    def next_id(self) -> int:
        return next(self._ids)

    def add(self, span_id: int, parent_id: int, name: str, start: float,
            duration: float, attrs: Dict[str, Any]) -> None:
        self._spans.append((span_id, parent_id, name, start, duration, attrs))

    def wire(self) -> Tuple:
        """Compact picklable (and hashable) form for ``MapResult.spans``."""
        return tuple(
            (span_id, parent_id, name, round(start, 9), round(duration, 9),
             tuple(sorted(attrs.items())))
            for span_id, parent_id, name, start, duration, attrs
            in self._spans)


@contextmanager
def task_capture(active: bool = True) -> Iterator[Optional[TaskCapture]]:
    """Collect this thread's spans into a :class:`TaskCapture`.

    ``active=False`` yields ``None`` and changes nothing, so call sites can
    thread the "is the parent tracing?" flag through without branching.
    """
    global _capture_count
    if not active:
        yield None
        return
    capture = TaskCapture()
    previous = getattr(_local, "capture", None)
    _local.capture = capture
    with _state_lock:
        _capture_count += 1
        _refresh_enabled()
    try:
        yield capture
    finally:
        _local.capture = previous
        with _state_lock:
            _capture_count -= 1
            _refresh_enabled()


def enable(path: Optional[os.PathLike] = None,
           max_spans: int = DEFAULT_MAX_SPANS) -> Tracer:
    """Install a fresh process tracer (replacing any previous one)."""
    global _tracer
    with _state_lock:
        _tracer = Tracer(path=path, max_spans=max_spans)
        _refresh_enabled()
    return _tracer


def disable() -> None:
    global _tracer
    with _state_lock:
        _tracer = None
        _refresh_enabled()


def enabled() -> bool:
    """Is a process tracer active? (Drives the per-task ``trace`` flag.)"""
    return _tracer is not None


def tracer() -> Optional[Tracer]:
    return _tracer


def spans() -> List[Dict[str, Any]]:
    """All recorded spans as dict records (empty when no tracer)."""
    current = _tracer
    return current.records() if current is not None else []


def fold(wire_spans: Tuple, parent) -> None:
    """Fold worker task spans under ``parent`` (a live span, or id 0)."""
    current = _tracer
    if current is None or not wire_spans:
        return
    current.fold(wire_spans, getattr(parent, "span_id", 0))


def export_jsonl(path: Optional[os.PathLike] = None) -> Optional[Path]:
    """Write the current tracer's spans as JSONL; returns the path written."""
    current = _tracer
    if current is None:
        return None
    return current.export_jsonl(path)


def _enable_from_env() -> None:
    value = os.environ.get("REPRO_TRACE", "").strip()
    if not value or value.lower() in ("0", "false", "no", "off"):
        return
    if value.lower() in ("1", "true", "yes", "on", "memory"):
        enable(path=None, max_spans=MEMORY_RING_SPANS)
    else:
        enable(path=value)


_enable_from_env()
