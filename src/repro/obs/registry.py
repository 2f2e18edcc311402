"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

One named, labelled, process-wide facility:

* **Counters** only go up (``inc``), or fold external monotonic tallies with
  :meth:`Counter.raise_to`.
* **Gauges** hold a last-written value (``set``/``add``); snapshot merges
  take the **max**, which keeps merging associative and commutative.
* **Histograms** bucket observations into fixed upper bounds (seconds by
  default) and track ``sum``/``count``.

All updates are taken under a per-metric lock, so concurrently executing
threads (the thread executor, the serving commit loop vs readers) never lose
increments.  Updates made inside a :func:`capturing` scope are redirected
into a picklable :class:`RegistryDelta` instead of the process registry —
that is how map tasks running in pool worker *processes* ship their metric
work back on :class:`~repro.parallel.tasks.MapResult` for the parent to
:meth:`~MetricsRegistry.apply_wire` into its own registry.  The redirect is
thread-local, so under the thread executor each in-flight task observes only
its own work and nothing is double-counted.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain dicts keyed by metric
name; :func:`merge_snapshots` combines any number of them (counter and
histogram values sum, gauges take the max) and :func:`snapshot_as_json`
renders one into the JSON shape served by ``/metrics``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegistryDelta",
    "capturing",
    "counter",
    "gauge",
    "histogram",
    "merge_snapshots",
    "registry",
    "snapshot_as_json",
]

#: Default histogram upper bounds, in seconds — tuned for the repo's span of
#: interest (sub-millisecond kernel calls up to multi-second grid rounds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

_local = threading.local()


def _capture() -> Optional["RegistryDelta"]:
    return getattr(_local, "delta", None)


@contextmanager
def capturing() -> Iterator["RegistryDelta"]:
    """Redirect this thread's metric updates into a picklable delta.

    Scopes nest: the innermost capture wins, and the previous capture (or
    direct registry writes) resumes when the block exits.  The delta is what
    map tasks serialize onto :class:`~repro.parallel.tasks.MapResult`.
    """
    delta = RegistryDelta()
    previous = _capture()
    _local.delta = delta
    try:
        yield delta
    finally:
        _local.delta = previous


class _Metric:
    """Common shape of one named metric family (all labelled variants)."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._lock = threading.Lock()
        self._values: Dict[Tuple[str, ...], Any] = {}

    def _key(self, labels: Mapping[str, Any]) -> Tuple[str, ...]:
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        try:
            return tuple(str(labels[name]) for name in self.label_names)
        except KeyError as exc:
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}") from exc

    def clear(self) -> None:
        with self._lock:
            self._values.clear()

    def _snapshot_values(self) -> Dict[Tuple[str, ...], Any]:
        with self._lock:
            return dict(self._values)

    def spec(self) -> Tuple[str, str, Tuple[str, ...], Optional[Tuple[float, ...]]]:
        return (self.kind, self.help, self.label_names, None)


class Counter(_Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount == 0:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        delta = _capture()
        if delta is not None:
            delta.record(self, key, amount)
            return
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def raise_to(self, total: float, **labels: Any) -> None:
        """Fold an externally kept monotonic total into this counter.

        The counter rises to ``total`` if it is currently below it — the idiom
        for surfacing cheap local tallies (LRU memo hit counts, matcher cache
        stats) that are kept as plain ints on their own objects.  Never
        redirected into a capture: folding is a parent-side operation.
        """
        with self._lock:
            key = self._key(labels)
            if self._values.get(key, 0) < total:
                self._values[key] = total

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0)


class Gauge(_Metric):
    """A last-written value; merges across snapshots take the max."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        delta = _capture()
        if delta is not None:
            delta.record(self, key, value)
            return
        with self._lock:
            self._values[key] = value

    def add(self, amount: float, **labels: Any) -> None:
        key = self._key(labels)
        delta = _capture()
        if delta is not None:
            delta.record(self, key, amount)
            return
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0)


class Histogram(_Metric):
    """Fixed-bucket histogram; per key: (bucket counts, sum, count).

    Bucket counts are *non-cumulative* and one longer than ``buckets`` (the
    final slot is the implicit ``+Inf`` bucket); the exposition layer
    re-cumulates them into Prometheus ``le`` form.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, labels)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError(f"histogram {self.name!r} needs >= 1 bucket")
        self.buckets: Tuple[float, ...] = bounds

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        delta = _capture()
        if delta is not None:
            delta.record(self, key, value)
            return
        with self._lock:
            counts, total, count = self._values.get(
                key, ((0,) * (len(self.buckets) + 1), 0.0, 0))
            index = _bucket_index(self.buckets, value)
            counts = counts[:index] + (counts[index] + 1,) + counts[index + 1:]
            self._values[key] = (counts, total + value, count + 1)

    def value(self, **labels: Any) -> Tuple[Tuple[int, ...], float, int]:
        with self._lock:
            return self._values.get(
                self._key(labels), ((0,) * (len(self.buckets) + 1), 0.0, 0))

    def spec(self):
        return (self.kind, self.help, self.label_names, self.buckets)


def _bucket_index(buckets: Tuple[float, ...], value: float) -> int:
    for index, bound in enumerate(buckets):
        if value <= bound:
            return index
    return len(buckets)


class RegistryDelta:
    """Picklable metric updates captured off-registry (one task's worth).

    Self-describing: each entry carries the metric's spec so the parent can
    re-create the metric in *its* registry before folding the values in —
    the worker process and the parent never share metric objects.
    """

    def __init__(self):
        self._specs: Dict[str, Tuple[str, str, Tuple[str, ...],
                                     Optional[Tuple[float, ...]]]] = {}
        self._counters: Dict[Tuple[str, Tuple[str, ...]], float] = {}
        self._gauges: Dict[Tuple[str, Tuple[str, ...]], float] = {}
        self._observations: Dict[Tuple[str, Tuple[str, ...]], List[float]] = {}

    def record(self, metric: _Metric, key: Tuple[str, ...],
               value: float) -> None:
        self._specs.setdefault(metric.name, metric.spec())
        slot = (metric.name, key)
        if metric.kind == "counter":
            self._counters[slot] = self._counters.get(slot, 0) + value
        elif metric.kind == "gauge":
            self._gauges[slot] = value
        else:
            self._observations.setdefault(slot, []).append(value)

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._observations)

    def as_wire(self) -> Tuple:
        """Compact nested-tuple form carried on ``MapResult`` (hash-safe)."""
        if not self:
            return ()
        specs = tuple(sorted(
            (name, kind, help, labels, buckets)
            for name, (kind, help, labels, buckets) in self._specs.items()))
        counters = tuple(sorted(
            (name, key, value) for (name, key), value in self._counters.items()))
        gauges = tuple(sorted(
            (name, key, value) for (name, key), value in self._gauges.items()))
        observations = tuple(sorted(
            (name, key, tuple(values))
            for (name, key), values in self._observations.items()))
        return (specs, counters, gauges, observations)


class MetricsRegistry:
    """Named metrics with get-or-create semantics and locked snapshots."""

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, cls, name: str, help: str, labels: Sequence[str],
                  **extra: Any) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help=help, labels=labels, **extra)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        if tuple(labels) != metric.label_names:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{metric.label_names}, not {tuple(labels)}")
        return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        with self._lock:
            return list(self._metrics.values())

    def reset(self) -> None:
        """Zero every metric, keeping registrations (handles stay valid)."""
        for metric in self.metrics():
            metric.clear()

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A point-in-time copy: plain data, safe to format outside locks."""
        snap: Dict[str, Dict[str, Any]] = {}
        for metric in self.metrics():
            kind, help, labels, buckets = metric.spec()
            entry: Dict[str, Any] = {
                "kind": kind,
                "help": help,
                "labels": labels,
                "values": metric._snapshot_values(),
            }
            if buckets is not None:
                entry["buckets"] = buckets
            snap[metric.name] = entry
        return snap

    def apply_wire(self, wire: Tuple) -> None:
        """Fold a :meth:`RegistryDelta.as_wire` blob from a worker in."""
        if not wire:
            return
        specs, counters, gauges, observations = wire
        metrics: Dict[str, _Metric] = {}
        for name, kind, help, labels, buckets in specs:
            if kind == "counter":
                metrics[name] = self.counter(name, help, labels)
            elif kind == "gauge":
                metrics[name] = self.gauge(name, help, labels)
            else:
                metrics[name] = self.histogram(name, help, labels,
                                               buckets or DEFAULT_BUCKETS)
        for name, key, value in counters:
            metric = metrics[name]
            with metric._lock:
                metric._values[key] = metric._values.get(key, 0) + value
        for name, key, value in gauges:
            metric = metrics[name]
            with metric._lock:
                metric._values[key] = max(metric._values.get(key, value), value)
        for name, key, values in observations:
            metric = metrics[name]
            for value in values:
                with metric._lock:
                    counts, total, count = metric._values.get(
                        key, ((0,) * (len(metric.buckets) + 1), 0.0, 0))
                    index = _bucket_index(metric.buckets, value)
                    counts = counts[:index] + (counts[index] + 1,) \
                        + counts[index + 1:]
                    metric._values[key] = (counts, total + value, count + 1)


def merge_snapshots(*snapshots: Mapping[str, Mapping[str, Any]]
                    ) -> Dict[str, Dict[str, Any]]:
    """Combine snapshots: counters/histograms sum, gauges take the max.

    Associative and commutative in its merged fields, so worker snapshots can
    fold in any order — the property the hypothesis suite pins down.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    for snap in snapshots:
        for name, entry in snap.items():
            current = merged.get(name)
            if current is None:
                merged[name] = {**entry, "values": dict(entry["values"])}
                continue
            values = current["values"]
            for key, value in entry["values"].items():
                if key not in values:
                    values[key] = value
                elif current["kind"] == "counter":
                    values[key] = values[key] + value
                elif current["kind"] == "gauge":
                    values[key] = max(values[key], value)
                else:
                    counts, total, count = values[key]
                    other_counts, other_total, other_count = value
                    values[key] = (
                        tuple(a + b for a, b in zip(counts, other_counts)),
                        total + other_total, count + other_count)
    return merged


def snapshot_as_json(snapshot: Mapping[str, Mapping[str, Any]]
                     ) -> Dict[str, Any]:
    """Render a snapshot into the JSON document served by ``/metrics``."""
    document: Dict[str, Any] = {}
    for name in sorted(snapshot):
        entry = snapshot[name]
        values = []
        for key in sorted(entry["values"]):
            value = entry["values"][key]
            item: Dict[str, Any] = {
                "labels": dict(zip(entry["labels"], key))}
            if entry["kind"] == "histogram":
                counts, total, count = value
                item.update(buckets=list(counts), sum=total, count=count)
            else:
                item["value"] = value
            values.append(item)
        document[name] = {
            "kind": entry["kind"],
            "help": entry["help"],
            "values": values,
        }
        if "buckets" in entry:
            document[name]["le"] = list(entry["buckets"])
    return document


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry (worker processes each have their own)."""
    return _REGISTRY


def counter(name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
    return _REGISTRY.counter(name, help, labels)


def gauge(name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
    return _REGISTRY.gauge(name, help, labels)


def histogram(name: str, help: str = "", labels: Sequence[str] = (),
              buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
    return _REGISTRY.histogram(name, help, labels, buckets)
