"""Trace analysis: load a JSONL trace, validate the tree, summarize it.

Backs the ``repro trace-report`` CLI and the re-parenting tests: a trace is
a list of span records (``id``/``parent``/``name``/``start``/``dur`` plus
optional ``attrs``/``origin``); :func:`tree_errors` checks structural
soundness (unique ids, resolvable parents, no cycles), :func:`summarize`
aggregates per-name totals with **self-time** (a span's duration minus its
direct children's durations — where time is actually spent, not just
enclosed) and per-name duration histograms, and :func:`format_report`
renders the tables the CLI prints.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Sequence

from ..exceptions import InputFormatError

__all__ = ["format_report", "load_trace", "summarize", "tree_errors"]

#: Per-phase duration buckets for the report's histogram column (seconds).
REPORT_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0)


def load_trace(path: os.PathLike) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file into span records (blank lines skipped);
    a file that is not one is an :class:`InputFormatError`."""
    records = []
    line_number = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputFormatError(
                        f"{path}:{line_number}: not valid JSON: {exc}") from None
                if not isinstance(record, dict):
                    raise InputFormatError(
                        f"{path}:{line_number}: not a span object")
                for field in ("id", "parent", "name", "start", "dur"):
                    if field not in record:
                        raise InputFormatError(
                            f"{path}:{line_number}: span missing {field!r}")
                records.append(record)
    except UnicodeDecodeError as exc:
        raise InputFormatError(
            f"{path}:{line_number + 1}: not UTF-8 text: {exc}") from None
    return records


def tree_errors(spans: Sequence[Mapping[str, Any]]) -> List[str]:
    """Structural problems in a span list (empty = well-formed forest)."""
    errors = []
    by_id: Dict[int, Mapping[str, Any]] = {}
    for record in spans:
        span_id = record["id"]
        if span_id == 0:
            errors.append("span id 0 is reserved for 'no parent'")
        if span_id in by_id:
            errors.append(f"duplicate span id {span_id}")
        by_id[span_id] = record
    for record in spans:
        parent = record["parent"]
        if parent != 0 and parent not in by_id:
            errors.append(
                f"span {record['id']} ({record['name']}) has unknown "
                f"parent {parent}")
    # Cycle check: walk each span to a root, bounded by the span count.
    for record in spans:
        seen = set()
        current = record["id"]
        while current != 0:
            if current in seen:
                errors.append(f"parent cycle through span {current}")
                break
            seen.add(current)
            node = by_id.get(current)
            if node is None:
                break
            current = node["parent"]
    return sorted(set(errors))


def roots(spans: Sequence[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    by_id = {record["id"] for record in spans}
    return [record for record in spans
            if record["parent"] == 0 or record["parent"] not in by_id]


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def summarize(spans: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Aggregate a trace: per-name totals, self-time, duration histograms."""
    children_time: Dict[int, float] = {}
    for record in spans:
        parent = record["parent"]
        if parent != 0:
            children_time[parent] = children_time.get(parent, 0.0) \
                + record["dur"]
    phases: Dict[str, Dict[str, Any]] = {}
    for record in spans:
        phase = phases.setdefault(record["name"], {
            "count": 0, "total_s": 0.0, "self_s": 0.0, "workers": 0,
            "durations": [], "histogram": [0] * (len(REPORT_BUCKETS) + 1),
        })
        duration = record["dur"]
        phase["count"] += 1
        phase["total_s"] += duration
        phase["self_s"] += max(0.0, duration
                               - children_time.get(record["id"], 0.0))
        phase["durations"].append(duration)
        if record.get("origin") == "worker":
            phase["workers"] += 1
        slot = len(REPORT_BUCKETS)
        for index, bound in enumerate(REPORT_BUCKETS):
            if duration <= bound:
                slot = index
                break
        phase["histogram"][slot] += 1
    for phase in phases.values():
        durations = sorted(phase.pop("durations"))
        phase["min_s"] = durations[0] if durations else 0.0
        phase["p50_s"] = _percentile(durations, 0.50)
        phase["p95_s"] = _percentile(durations, 0.95)
        phase["max_s"] = durations[-1] if durations else 0.0
    starts = [record["start"] for record in spans]
    ends = [record["start"] + record["dur"] for record in spans]
    return {
        "spans": len(spans),
        "roots": len(roots(spans)),
        "worker_spans": sum(
            1 for record in spans if record.get("origin") == "worker"),
        "wall_s": (max(ends) - min(starts)) if spans else 0.0,
        "errors": tree_errors(spans),
        "phases": phases,
    }


def _histogram_cells(histogram: List[int]) -> str:
    total = max(sum(histogram), 1)
    glyphs = " .:-=+*#"
    return "".join(
        glyphs[min(len(glyphs) - 1,
                   round(count / total * (len(glyphs) - 1)))]
        for count in histogram)


def format_report(summary: Mapping[str, Any], top: int = 15) -> str:
    """Render a summary as the text tables ``repro trace-report`` prints."""
    lines = [
        f"spans: {summary['spans']}  roots: {summary['roots']}  "
        f"worker spans: {summary['worker_spans']}  "
        f"wall: {summary['wall_s']:.3f}s",
    ]
    if summary["errors"]:
        lines.append(f"tree errors ({len(summary['errors'])}):")
        lines.extend(f"  - {error}" for error in summary["errors"])
    phases = summary["phases"]
    ranked = sorted(phases.items(),
                    key=lambda item: item[1]["self_s"], reverse=True)
    name_width = max([len("span")] + [len(name) for name, _ in ranked[:top]])
    bounds = "|".join(
        f"<={bound:g}" for bound in REPORT_BUCKETS) + "|inf"
    lines.append("")
    lines.append(f"top {min(top, len(ranked))} spans by self-time "
                 f"(histogram buckets, seconds: {bounds}):")
    header = (f"{'span':<{name_width}}  {'count':>7}  {'total_s':>9}  "
              f"{'self_s':>9}  {'p50_s':>9}  {'p95_s':>9}  histogram")
    lines.append(header)
    lines.append("-" * len(header))
    for name, phase in ranked[:top]:
        lines.append(
            f"{name:<{name_width}}  {phase['count']:>7}  "
            f"{phase['total_s']:>9.4f}  {phase['self_s']:>9.4f}  "
            f"{phase['p50_s']:>9.5f}  {phase['p95_s']:>9.5f}  "
            f"[{_histogram_cells(phase['histogram'])}]")
    if len(ranked) > top:
        lines.append(f"... and {len(ranked) - top} more span names")
    return "\n".join(lines)
