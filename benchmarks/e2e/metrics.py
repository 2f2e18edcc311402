"""From one run's raw measurements to the named metrics of BENCHMARK.json.

End-to-end metrics come from an untraced run and are client-side arithmetic
only.  Per-layer metrics come from a traced run; each is tagged with its
source in ``README.md``: S = a span the program emits, W = a span
``boundary.py`` put around a public entry point, R = a registry counter
(``obs.registry`` in this process, ``GET /metrics`` of the server),
C = client-side arithmetic.

Per-layer values add the match phase (mean over its traced iterations, which
do identical work) to the server's whole life in the run (cold start, every
commit, the recovery) — fixed work for a given workload and seed, so the
counts among them repeat exactly.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro.obs.report import summarize

import boundary

Metric = Tuple[float, str]


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile: an observed sample, never an interpolation."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(raw: dict) -> Dict[str, Metric]:
    commits = raw["commit_latencies"]
    reads = [t for log in raw["quiet"] for t in log.latencies]
    return {
        "setup_s": (statistics.median(raw["setup_samples"]), "s"),
        "match_wall_s": (statistics.median(raw["match_samples"]), "s"),
        "commits_per_s": (len(commits) / sum(commits), "1/s"),
        "commit_p50_ms": (statistics.median(commits) * 1e3, "ms"),
        "commit_p75_ms": (quantile(commits, 0.75) * 1e3, "ms"),
        "read_qps": (len(reads) / raw["read_window_s"], "1/s"),
        "read_p50_ms": (statistics.median(reads) * 1e3, "ms"),
        "read_p95_ms": (quantile(reads, 0.95) * 1e3, "ms"),
        "recover_s": (statistics.median(raw["recover_samples"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def _phases(groups: List[List[dict]]) -> Dict[str, dict]:
    """Per span name: count, total and self seconds, summed over ``groups``.

    Each group is one tracer's buffer; span ids restart per tracer, so the
    groups are summarized one by one and never concatenated.
    """
    merged: Dict[str, dict] = {}
    for spans in groups:
        for name, phase in summarize(spans)["phases"].items():
            into = merged.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for field in into:
                into[field] += phase[field]
    return merged


def reran_fraction(groups: List[List[dict]]) -> float:
    """Neighborhood runs per cover neighborhood, over the delta batches only
    (grid runs under ``stream.rematch``; the cold start reruns everything)."""
    tasks = cover = 0
    for spans in groups:
        rematch = {s["id"] for s in spans if s["name"] == "stream.rematch"}
        runs = {s["id"]: s for s in spans
                if s["name"] == "grid.run" and s["parent"] in rematch}
        cover += sum(s["attrs"]["neighborhoods"] for s in runs.values())
        tasks += sum(s["attrs"]["tasks"] for s in spans
                     if s["name"] == "grid.round" and s["parent"] in runs)
    return tasks / cover if cover else 0.0


def per_layer(raw: dict, workers: int) -> Dict[str, Metric]:
    iterations = max(1, len(raw["match_spans"]))
    match = _phases(raw["match_spans"])
    server = _phases(raw["server_spans"])
    server_records = [r for spans in raw["server_spans"] for r in spans]
    documents = [document for document, _ in raw["scrapes"]]
    samples = [flat for _, flat in raw["scrapes"]]

    def spans(name: str, field: str) -> float:
        """Match phase per iteration + server total, for one span name."""
        return match.get(name, {}).get(field, 0.0) / iterations \
            + server.get(name, {}).get(field, 0.0)

    def prefix(start: str, field: str) -> float:
        return sum(spans(name, field) for name in set(match) | set(server)
                   if name.startswith(start))

    def counter(name: str) -> float:
        """A registry counter: match phase per iteration + both server lives."""
        in_process = sum(c.get(name, 0.0) for c in raw["match_counters"])
        return in_process / iterations + sum(flat.get(name, 0.0) for flat in samples)

    def attr_sum(records: List[dict], name: str, attr: str) -> float:
        return float(sum(r.get("attrs", {}).get(attr, 0) for r in records
                         if r["name"] == name))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def service_mean(kind: str) -> float:
        """Mean in-service seconds of reads or commits over both server lives."""
        total = sum(d["latency"][kind]["sum_seconds"] for d in documents)
        count = sum(d["latency"][kind]["count"] for d in documents)
        return ratio(total, count)

    first_match = raw["match_spans"][0] if raw["match_spans"] else []
    ground_calls = spans("mln.ground", "count")
    task_busy = match.get("grid.task", {}).get("total_s", 0.0)
    round_wall = match.get("grid.round", {}).get("total_s", 0.0)
    quiet_reads = [t for log in raw["quiet"] for t in log.latencies]
    commits = raw["commit_latencies"]
    untraced = statistics.median(raw["match_samples"])
    root_self = match.get("e2e.match", {}).get("self_s", 0.0)
    root_total = match.get("e2e.match", {}).get("total_s", 0.0)

    return {
        "blocking.cover_s": (prefix("blocking.", "self_s"), "s"),
        "blocking.neighborhoods": (
            attr_sum(first_match, "blocking.total_cover", "neighborhoods"), "count"),
        "blocking.prefilter_hit_ratio": (
            ratio(counter("kernel_prefilter_pruned_total"),
                  counter("kernel_prefilter_checked_total")), "ratio"),
        "datamodel.snapshot_s": (spans("datamodel.snapshot", "total_s"), "s"),
        "datamodel.restrict_s": (spans("datamodel.restrict", "self_s"), "s"),
        "datamodel.restrict_calls": (spans("datamodel.restrict", "count"), "count"),
        "core.maximal_messages_s": (spans("core.maximal_messages", "self_s"), "s"),
        "core.maximal_messages_calls": (spans("core.maximal_messages", "count"), "count"),
        "parallel.round_self_s": (spans("grid.round", "self_s"), "s"),
        "parallel.task_self_s": (spans("grid.task", "self_s"), "s"),
        "parallel.tasks": (spans("grid.task", "count"), "count"),
        "parallel.rounds": (spans("grid.round", "count"), "count"),
        "parallel.worker_busy_share": (ratio(task_busy, workers * round_wall), "ratio"),
        "parallel.retries": (counter("supervision_retries_total"), "count"),
        "mln.ground_s": (spans("mln.ground", "self_s"), "s"),
        "mln.ground_calls": (ground_calls, "count"),
        "mln.network_cache_hit_ratio": (
            1.0 - ratio(ground_calls, counter(boundary.NETWORK_FOR_CALLS))
            if ground_calls else 0.0, "ratio"),
        "mln.infer_s": (spans("mln.infer", "self_s")
                        + spans("mln.greedy_pass", "self_s"), "s"),
        "mln.group_pass_s": (spans("mln.group_pass", "self_s"), "s"),
        "mln.infer_calls": (spans("mln.infer", "count"), "count"),
        "dedupalog.evaluate_s": (spans("dedupalog.evaluate", "self_s"), "s"),
        "dedupalog.evaluate_calls": (spans("dedupalog.evaluate", "count"), "count"),
        "streaming.mutate_s": (spans("stream.mutate", "total_s"), "s"),
        "streaming.cover_repair_s": (spans("stream.cover_repair", "total_s"), "s"),
        "streaming.rematch_s": (spans("stream.rematch", "total_s"), "s"),
        "streaming.retract_s": (spans("stream.retract", "total_s"), "s"),
        "streaming.reran_fraction": (
            reran_fraction(raw["server_spans"]), "ratio"),
        "streaming.cold_start_s": (spans("stream.cold_start", "total_s"), "s"),
        "durability.wal_append_s": (spans("wal.append", "total_s"), "s"),
        "durability.wal_bytes": (attr_sum(server_records, "wal.append", "bytes"), "count"),
        "durability.checkpoint_s": (spans("checkpoint.save", "total_s"), "s"),
        "durability.checkpoints": (spans("checkpoint.save", "count"), "count"),
        "durability.recover_load_s": (spans("durable.recover_total", "self_s"), "s"),
        "durability.recover_replay_s": (spans("durable.recover", "total_s"), "s"),
        "durability.replayed_batches": (
            attr_sum(server_records, "durable.recover", "replayed"), "count"),
        "serving.http_overhead_ms": (
            (statistics.mean(quiet_reads) - service_mean("read")) * 1e3, "ms"),
        "serving.read_service_us": (service_mean("read") * 1e6, "us"),
        "serving.read_beside_write_p50_ms": (
            statistics.median(raw["beside"].latencies) * 1e3, "ms"),
        "serving.commit_wait_ms": (
            (statistics.mean(commits) - service_mean("commit")) * 1e3, "ms"),
        "serving.epoch_publish_s": (spans("serving.epoch_publish", "total_s"), "s"),
        "serving.validate_s": (spans("serving.validate", "total_s"), "s"),
        "serving.shed_total": (
            float(sum(d["admission"]["shed_total"] + d["counters"]["deltas_shed"]
                      for d in documents)), "count"),
        "serving.drain_s": (raw["drain_s"], "s"),
        "obs.trace_overhead_share": (
            (statistics.median(raw["traced_match_samples"]) - untraced) / untraced,
            "ratio"),
        "obs.spans": (float(sum(len(s) for s in raw["match_spans"]) / iterations
                            + len(server_records)), "count"),
        "obs.attributed_share": (1.0 - ratio(root_self, root_total), "ratio"),
    }


def layer_of(span_name: str) -> str:
    """The layer (``src/repro`` package) a span's self-time belongs to."""
    head = span_name.split(".", 1)[0]
    return {"grid": "parallel", "supervision": "parallel", "stream": "streaming",
            "wal": "durability", "checkpoint": "durability",
            "durable": "durability", "serve": "serving",
            "e2e": "unattributed"}.get(head, head)


def layer_shares(groups: List[List[dict]]) -> Dict[str, float]:
    """Each layer's share of the summed span self-time of ``groups``."""
    totals: Dict[str, float] = {}
    for name, phase in _phases(groups).items():
        totals[layer_of(name)] = totals.get(layer_of(name), 0.0) + phase["self_s"]
    whole = sum(totals.values())
    return {layer: value / whole for layer, value in sorted(totals.items())} \
        if whole else {}
