"""Unified telemetry: metrics registry, structured tracing, exposition.

One coherent observability layer for the whole stack:

* :mod:`repro.obs.registry` — process-wide named counters / gauges /
  fixed-bucket histograms with labels, locked updates, snapshot / merge
  semantics, and picklable worker deltas;
* :mod:`repro.obs.trace` — ``span()`` context managers forming a
  parent/child tree with monotonic timings, JSONL export, and re-parenting
  of spans captured inside pool worker processes;
* :mod:`repro.obs.exposition` — Prometheus text-format rendering of
  registry snapshots (served by ``/metrics`` via content negotiation);
* :mod:`repro.obs.report` — trace summarization behind ``repro
  trace-report``.

Disabled tracing costs one module-global check per call site; registry
updates are always on but sit off the per-pair hot paths (per task, per
batch, per request).
"""

from .exposition import CONTENT_TYPE, render_prometheus
# NOTE: the global-registry accessor ``registry.registry()`` is *not*
# re-exported here — the name would shadow the ``repro.obs.registry``
# submodule attribute on the package, breaking ``from repro.obs import
# registry``.  Import it from the submodule.
from .registry import (Counter, Gauge, Histogram, MetricsRegistry,
                       RegistryDelta, capturing, counter, gauge, histogram,
                       merge_snapshots, snapshot_as_json)
from .trace import (NULL_SPAN, TaskCapture, Tracer, disable, enable, enabled,
                    export_jsonl, fold, span, spans, task_capture, tracer)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "RegistryDelta",
    "TaskCapture",
    "Tracer",
    "capturing",
    "counter",
    "disable",
    "enable",
    "enabled",
    "export_jsonl",
    "fold",
    "gauge",
    "histogram",
    "merge_snapshots",
    "render_prometheus",
    "snapshot_as_json",
    "span",
    "spans",
    "task_capture",
    "tracer",
]
