"""The telemetry layer: registry semantics, tracing, exposition, reporting.

Three contracts anchor this suite:

* **Re-parenting** — a process-pool grid run must yield one well-formed span
  tree: worker spans captured in pool processes ride back on map results and
  fold in under the round spans with fresh ids (no duplicates, no orphans).
* **Merge algebra** — :func:`merge_snapshots` must be associative and
  commutative (counters/histograms sum, gauges max), because worker deltas
  and service registries fold in whatever order execution produces.
* **Exposition** — the Prometheus text rendering is a wire format consumed
  by real scrapers, so it is pinned by golden text, not substring checks.
"""

from __future__ import annotations

import json
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matchers import MLNMatcher, RulesMatcher
from repro.obs import registry as obs_registry
from repro.obs import trace as obs_trace
from repro.obs.exposition import CONTENT_TYPE, render_prometheus
from repro.obs.registry import (
    MetricsRegistry,
    capturing,
    merge_snapshots,
    snapshot_as_json,
)
from repro.obs.report import format_report, load_trace, summarize, tree_errors
from repro.parallel import GridExecutor
from repro.serving import MatchService, MatchServingHTTPServer
from repro.streaming import StreamSession
from util import build_shared_coauthor_store


@pytest.fixture()
def fresh_tracer():
    """Give the test a clean tracer slate; restore whatever was installed
    (the ``REPRO_TRACE=1`` force-enabled suite keeps a session tracer)."""
    previous = obs_trace.tracer()
    obs_trace.disable()
    yield
    if previous is not None:
        obs_trace.enable(previous.path)
    else:
        obs_trace.disable()


# ------------------------------------------------------------------ tracing
class TestSpans:
    def test_disabled_span_is_the_shared_null_span(self, fresh_tracer):
        handle = obs_trace.span("anything", items=3)
        assert handle is obs_trace.NULL_SPAN
        with handle as inner:
            assert inner.add_attrs(more=1) is obs_trace.NULL_SPAN
        assert obs_trace.spans() == []

    def test_nesting_builds_parent_child_tree(self, fresh_tracer):
        obs_trace.enable()
        with obs_trace.span("outer"):
            with obs_trace.span("inner"):
                pass
            with obs_trace.span("inner"):
                pass
        records = {record["name"]: record for record in obs_trace.spans()}
        outer = [r for r in obs_trace.spans() if r["name"] == "outer"][0]
        inners = [r for r in obs_trace.spans() if r["name"] == "inner"]
        assert outer["parent"] == 0
        assert [r["parent"] for r in inners] == [outer["id"], outer["id"]]
        assert tree_errors(obs_trace.spans()) == []
        assert records  # exercised the dict comprehension path too

    def test_exception_is_recorded_as_error_attr(self, fresh_tracer):
        obs_trace.enable()
        with pytest.raises(ValueError):
            with obs_trace.span("explodes"):
                raise ValueError("boom")
        (record,) = obs_trace.spans()
        assert record["attrs"]["error"] == "ValueError"

    def test_export_jsonl_roundtrips_through_load_trace(self, fresh_tracer,
                                                        tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace.enable(path)
        with obs_trace.span("a", phase="x"):
            with obs_trace.span("b"):
                pass
        written = obs_trace.export_jsonl()
        assert written == path
        loaded = load_trace(path)
        assert [r["name"] for r in loaded] == \
            [r["name"] for r in obs_trace.spans()]
        assert tree_errors(loaded) == []

    def test_framework_cover_emits_one_total_cover_span(self, fresh_tracer):
        """The end-to-end harness reads ``blocking.neighborhoods`` off this
        span's attribute: one span per build, counting the total cover."""
        from repro.blocking import CanopyBlocker
        from repro.core import EMFramework
        from repro.datasets import dblp_tiny
        obs_trace.enable()
        framework = EMFramework(RulesMatcher(), dblp_tiny().store,
                                blocker=CanopyBlocker(),
                                relation_names=["coauthor"])
        cover = framework.cover
        assert framework.cover is cover
        (record,) = [r for r in obs_trace.spans()
                     if r["name"] == "blocking.total_cover"]
        assert record["attrs"]["neighborhoods"] == len(cover) > 0

    def test_load_trace_rejects_malformed_lines(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": 1, "parent": 0, "name": "x"}\n')
        with pytest.raises(ValueError, match="missing 'start'"):
            load_trace(bad)
        bad.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_trace(bad)

    def test_task_capture_folds_under_the_given_parent(self, fresh_tracer):
        obs_trace.enable()
        # Simulate a pool worker: capture wins over the live tracer on this
        # thread, ids are task-local, the root's parent is 0.
        with obs_trace.task_capture(True) as capture:
            with obs_trace.span("task.root"):
                with obs_trace.span("task.child"):
                    pass
        wire = capture.wire()
        assert [item[:2] for item in wire] == [(2, 1), (1, 0)]
        with obs_trace.span("round") as round_span:
            obs_trace.fold(wire, round_span)
        records = {record["name"]: record for record in obs_trace.spans()}
        assert records["task.root"]["parent"] == records["round"]["id"]
        assert records["task.child"]["parent"] == records["task.root"]["id"]
        assert records["task.root"]["origin"] == "worker"
        assert tree_errors(obs_trace.spans()) == []

    def test_task_capture_inactive_yields_none(self, fresh_tracer):
        with obs_trace.task_capture(False) as capture:
            assert capture is None


class TestProcessPoolReparenting:
    def test_process_grid_run_yields_one_well_formed_tree(
            self, fresh_tracer, hepth_dataset, hepth_cover):
        obs_trace.enable()
        grid = GridExecutor(scheme="smp", executor="processes", workers=2).run(
            MLNMatcher(), hepth_dataset.store, hepth_cover)
        records = obs_trace.spans()
        obs_trace.disable()

        assert tree_errors(records) == []
        roots = [r for r in records if r["parent"] == 0]
        assert [r["name"] for r in roots] == ["grid.run"]
        worker = [r for r in records if r.get("origin") == "worker"]
        assert worker, "no spans came back from the pool workers"
        # Every worker span hangs (transitively) under a round span.
        by_id = {r["id"]: r for r in records}
        for record in worker:
            node = record
            while node["parent"] != 0 and node["name"] != "grid.round":
                node = by_id[node["parent"]]
            assert node["name"] == "grid.round"
        # Instrumentation must not change results.
        serial = GridExecutor(scheme="smp", executor="serial").run(
            MLNMatcher(), hepth_dataset.store, hepth_cover)
        assert grid.matches == serial.matches

    def test_worker_metric_deltas_fold_into_parent_registry(
            self, fresh_tracer, hepth_dataset, hepth_cover):
        # The mln_ground* pair is only ever bumped inside a pool worker's
        # Grounder.ground call, so it reaches the parent on MapResult.metrics.
        names = ("grid_tasks_total", "mln_groundings_total",
                 "mln_ground_bindings_total")
        before = [obs_registry.counter(name).value() for name in names]
        GridExecutor(scheme="smp", executor="processes", workers=2).run(
            MLNMatcher(), hepth_dataset.store, hepth_cover)
        after = [obs_registry.counter(name).value() for name in names]
        assert all(new > old for new, old in zip(after, before))

    def test_rules_evaluator_counts_ride_back_from_pool_workers(
            self, fresh_tracer, hepth_dataset, hepth_cover):
        # Bumped once per DedupalogEngine.evaluate, which under a process
        # pool only ever runs in a worker: useful (classified) vs attempted
        # (support checks) is then readable from the parent's /metrics.
        names = ("dedupalog_candidates_total", "dedupalog_support_checks_total")
        before = [obs_registry.counter(name).value() for name in names]
        GridExecutor(scheme="smp", executor="processes", workers=2).run(
            RulesMatcher(), hepth_dataset.store, hepth_cover)
        after = [obs_registry.counter(name).value() for name in names]
        assert all(new > old for new, old in zip(after, before))


# ----------------------------------------------------------------- registry
class TestRegistry:
    def test_counter_semantics(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "Jobs", labels=("kind",))
        counter.inc(2, kind="a")
        counter.inc(kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3
        assert counter.value(kind="b") == 1
        assert counter.value(kind="never") == 0
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1, kind="a")

    def test_raise_to_folds_external_monotonic_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total")
        counter.raise_to(10)
        counter.raise_to(4)   # never goes down
        assert counter.value() == 10
        counter.raise_to(12)
        assert counter.value() == 12
        with capturing():     # folding is parent-side: never redirected
            counter.raise_to(20)
        assert counter.value() == 20

    def test_label_validation(self):
        registry = MetricsRegistry()
        counter = registry.counter("labelled_total", labels=("op",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc()
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(op="read", extra="nope")
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(wrong="read")

    def test_registration_conflicts_are_errors(self):
        registry = MetricsRegistry()
        registry.counter("taken", "first")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("taken")
        registry.counter("labelled", labels=("a",))
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("labelled", labels=())
        # Get-or-create: same kind and labels hands back the same object.
        assert registry.counter("taken") is registry.get("taken")

    def test_histogram_buckets_and_values(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", buckets=(1.0, 0.1))
        assert histogram.buckets == (0.1, 1.0)  # sorted at construction
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(7.0)
        counts, total, count = histogram.value()
        assert counts == (1, 1, 1)
        assert total == pytest.approx(7.55)
        assert count == 3
        with pytest.raises(ValueError, match="needs >= 1 bucket"):
            registry.histogram("empty", buckets=())

    def test_capturing_redirects_and_apply_wire_folds_back(self):
        worker = MetricsRegistry()
        counter = worker.counter("work_total", "Work", labels=("op",))
        gauge = worker.gauge("depth")
        histogram = worker.histogram("took_seconds", buckets=(0.1, 1.0))
        with capturing() as delta:
            counter.inc(3, op="map")
            gauge.set(7)
            histogram.observe(0.0625)
            histogram.observe(5.0)
        # Everything went into the delta, not the worker-side registry.
        assert counter.value(op="map") == 0
        assert histogram.value() == ((0, 0, 0), 0.0, 0)

        parent = MetricsRegistry()
        parent.apply_wire(delta.as_wire())
        assert parent.get("work_total").value(op="map") == 3
        assert parent.get("depth").value() == 7
        counts, total, count = parent.get("took_seconds").value()
        assert counts == (1, 0, 1)
        assert total == pytest.approx(5.0625)
        assert count == 2
        # Applying the same wire again keeps summing (counters, histograms).
        parent.apply_wire(delta.as_wire())
        assert parent.get("work_total").value(op="map") == 6

    def test_capturing_scopes_nest(self):
        registry = MetricsRegistry()
        counter = registry.counter("nested_total")
        with capturing() as outer:
            counter.inc()
            with capturing() as inner:
                counter.inc(5)
            counter.inc()
        assert not inner._counters == {} and inner  # inner got its own 5
        parent = MetricsRegistry()
        parent.apply_wire(outer.as_wire())
        assert parent.get("nested_total").value() == 2

    def test_empty_delta_wire_is_falsy_and_a_noop(self):
        with capturing() as delta:
            pass
        assert not delta
        assert delta.as_wire() == ()
        registry = MetricsRegistry()
        registry.apply_wire(delta.as_wire())
        assert registry.metrics() == []

    def test_reset_zeroes_but_keeps_handles(self):
        registry = MetricsRegistry()
        counter = registry.counter("resettable_total")
        counter.inc(9)
        registry.reset()
        assert counter.value() == 0
        counter.inc()  # the old handle still feeds the registry
        assert registry.get("resettable_total").value() == 1


# -------------------------------------------------- merge algebra (property)
_LABEL_KEYS = st.sampled_from([("read",), ("write",), ("sync",)])
_COUNT = st.integers(min_value=0, max_value=10**6)


@st.composite
def _snapshots(draw):
    """A registry snapshot over a fixed metric universe with random values.

    Integer-valued so associativity is exact (float addition is not)."""
    snap = {}
    if draw(st.booleans()):
        snap["ops_total"] = {
            "kind": "counter", "help": "Ops", "labels": ("op",),
            "values": draw(st.dictionaries(_LABEL_KEYS, _COUNT, max_size=3)),
        }
    if draw(st.booleans()):
        snap["depth"] = {
            "kind": "gauge", "help": "Depth", "labels": (),
            "values": draw(st.dictionaries(st.just(()), _COUNT, max_size=1)),
        }
    if draw(st.booleans()):
        histogram_value = st.tuples(
            st.tuples(_COUNT, _COUNT, _COUNT), _COUNT, _COUNT)
        snap["took_seconds"] = {
            "kind": "histogram", "help": "Took", "labels": ("op",),
            "buckets": (0.1, 1.0),
            "values": draw(st.dictionaries(_LABEL_KEYS, histogram_value,
                                           max_size=3)),
        }
    return snap


class TestMergeSnapshots:
    @settings(max_examples=200, deadline=None)
    @given(_snapshots(), _snapshots(), _snapshots())
    def test_merge_is_associative(self, a, b, c):
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert left == right

    @settings(max_examples=200, deadline=None)
    @given(_snapshots(), _snapshots())
    def test_merge_is_commutative(self, a, b):
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    @settings(max_examples=100, deadline=None)
    @given(_snapshots())
    def test_empty_snapshot_is_the_identity(self, snap):
        assert merge_snapshots(snap, {}) == merge_snapshots({}, snap)
        merged = merge_snapshots(snap, {})
        assert merged == merge_snapshots(snap)

    def test_merge_semantics_by_kind(self):
        a = {
            "ops_total": {"kind": "counter", "help": "", "labels": (),
                          "values": {(): 3}},
            "depth": {"kind": "gauge", "help": "", "labels": (),
                      "values": {(): 9}},
            "took_seconds": {"kind": "histogram", "help": "", "labels": (),
                             "buckets": (0.1,),
                             "values": {(): ((1, 0), 0.05, 1)}},
        }
        b = {
            "ops_total": {"kind": "counter", "help": "", "labels": (),
                          "values": {(): 4}},
            "depth": {"kind": "gauge", "help": "", "labels": (),
                      "values": {(): 2}},
            "took_seconds": {"kind": "histogram", "help": "", "labels": (),
                             "buckets": (0.1,),
                             "values": {(): ((0, 2), 9.0, 2)}},
        }
        merged = merge_snapshots(a, b)
        assert merged["ops_total"]["values"][()] == 7       # counters sum
        assert merged["depth"]["values"][()] == 9           # gauges max
        assert merged["took_seconds"]["values"][()] == ((1, 2), 9.05, 3)


# --------------------------------------------------------------- exposition
class TestPrometheusText:
    def test_golden_rendering(self):
        registry = MetricsRegistry()
        requests = registry.counter("reqs_total", "Requests served",
                                    labels=("route",))
        requests.inc(3, route="/same")
        requests.inc(1, route='he said "hi"\n')
        registry.counter("nohelp_total").inc(2)
        registry.gauge("queue_depth", "Pending batches").set(2.5)
        latency = registry.histogram("lat_seconds", "Latency",
                                     buckets=(0.1, 1.0))
        latency.observe(0.0625)
        latency.observe(0.5)
        latency.observe(7.0)
        assert render_prometheus(registry.snapshot()) == (
            '# HELP lat_seconds Latency\n'
            '# TYPE lat_seconds histogram\n'
            'lat_seconds_bucket{le="0.1"} 1\n'
            'lat_seconds_bucket{le="1"} 2\n'
            'lat_seconds_bucket{le="+Inf"} 3\n'
            'lat_seconds_sum 7.5625\n'
            'lat_seconds_count 3\n'
            '# TYPE nohelp_total counter\n'
            'nohelp_total 2\n'
            '# HELP queue_depth Pending batches\n'
            '# TYPE queue_depth gauge\n'
            'queue_depth 2.5\n'
            '# HELP reqs_total Requests served\n'
            '# TYPE reqs_total counter\n'
            'reqs_total{route="/same"} 3\n'
            'reqs_total{route="he said \\"hi\\"\\n"} 1\n'
        )

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == ""

    def test_multiple_snapshots_merge_before_rendering(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("shared_total", "Shared").inc(2)
        second.counter("shared_total", "Shared").inc(5)
        assert "shared_total 7\n" in render_prometheus(
            first.snapshot(), second.snapshot())

    def test_snapshot_as_json_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "C").inc(4)
        registry.histogram("h_seconds", "H", buckets=(0.1,)).observe(0.05)
        document = snapshot_as_json(registry.snapshot())
        assert document["c_total"]["values"] == [{"labels": {}, "value": 4}]
        assert document["h_seconds"]["le"] == [0.1]
        assert document["h_seconds"]["values"][0]["buckets"] == [1, 0]
        json.dumps(document)  # must be JSON-serializable as-is


# ------------------------------------------------------------------- report
class TestReport:
    def test_tree_errors_detects_every_defect_class(self):
        spans = [
            {"id": 0, "parent": 0, "name": "zero", "start": 0.0, "dur": 1.0},
            {"id": 1, "parent": 9, "name": "orphan", "start": 0.0, "dur": 1.0},
            {"id": 2, "parent": 3, "name": "a", "start": 0.0, "dur": 1.0},
            {"id": 3, "parent": 2, "name": "b", "start": 0.0, "dur": 1.0},
            {"id": 4, "parent": 0, "name": "dup", "start": 0.0, "dur": 1.0},
            {"id": 4, "parent": 0, "name": "dup", "start": 0.0, "dur": 1.0},
        ]
        errors = tree_errors(spans)
        assert any("id 0 is reserved" in error for error in errors)
        assert any("unknown parent 9" in error for error in errors)
        assert any("duplicate span id 4" in error for error in errors)
        assert any("cycle" in error for error in errors)

    def test_summarize_self_time_wall_and_workers(self):
        spans = [
            {"id": 1, "parent": 0, "name": "run", "start": 0.0, "dur": 10.0},
            {"id": 2, "parent": 1, "name": "round", "start": 1.0, "dur": 4.0},
            {"id": 3, "parent": 1, "name": "round", "start": 5.0, "dur": 3.0},
            {"id": 4, "parent": 2, "name": "task", "start": 1.5, "dur": 2.0,
             "origin": "worker"},
        ]
        summary = summarize(spans)
        assert summary["errors"] == []
        assert (summary["spans"], summary["roots"]) == (4, 1)
        assert summary["worker_spans"] == 1
        assert summary["wall_s"] == pytest.approx(10.0)
        assert summary["phases"]["run"]["self_s"] == pytest.approx(3.0)
        rounds = summary["phases"]["round"]
        assert rounds["count"] == 2
        assert rounds["self_s"] == pytest.approx(5.0)  # (4-2) + 3
        assert rounds["p50_s"] in (3.0, 4.0)
        report = format_report(summary)
        assert "spans: 4" in report
        assert "run" in report and "round" in report

    def test_format_report_clamps_to_top(self):
        spans = [{"id": i, "parent": 0, "name": f"phase{i}",
                  "start": 0.0, "dur": 0.1} for i in range(1, 6)]
        report = format_report(summarize(spans), top=2)
        assert "... and 3 more span names" in report


# ---------------------------------------------------------------------- CLI
class TestTraceReportCLI:
    def test_trace_report_renders_a_trace_file(self, fresh_tracer, tmp_path,
                                               capsys):
        from repro import cli
        path = tmp_path / "trace.jsonl"
        obs_trace.enable(path)
        with obs_trace.span("phase.one"):
            with obs_trace.span("phase.two"):
                pass
        obs_trace.export_jsonl()
        obs_trace.disable()
        assert cli.main(["trace-report", str(path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "phase.one" in out and "phase.two" in out
        assert "spans: 2" in out

    def test_trace_report_rejects_missing_file_and_bad_top(self, tmp_path):
        from repro import cli
        with pytest.raises(SystemExit, match="not found"):
            cli.main(["trace-report", str(tmp_path / "nope.jsonl")])
        real = tmp_path / "trace.jsonl"
        real.write_text('{"id": 1, "parent": 0, "name": "x", '
                        '"start": 0, "dur": 1}\n')
        with pytest.raises(SystemExit, match="--top"):
            cli.main(["trace-report", str(real), "--top", "0"])


# ------------------------------------------------------------------ serving
@pytest.fixture()
def obs_service():
    service = MatchService(session=StreamSession(
        MLNMatcher(), build_shared_coauthor_store())).start()
    yield service
    service.drain()


class TestServingMetrics:
    def test_metrics_document_has_uptime_age_and_latency(self, obs_service):
        obs_service.resolve("c1")
        document = obs_service.metrics()
        assert document["uptime_seconds"] >= 0.0
        assert document["epoch_age_seconds"] >= 0.0
        read = document["latency"]["read"]
        assert read["count"] >= 1
        assert read["mean_seconds"] == pytest.approx(
            read["sum_seconds"] / read["count"])
        assert document["counters"]["reads_total"] >= 1
        json.dumps(document)

    def test_prometheus_metrics_exposes_service_families(self, obs_service):
        obs_service.resolve("c1")
        text = obs_service.prometheus_metrics()
        assert "# TYPE service_reads_total counter" in text
        assert "service_reads_total 1" in text
        assert "# TYPE service_read_seconds histogram" in text
        assert "service_read_seconds_count 1" in text
        assert "# TYPE service_uptime_seconds gauge" in text
        assert "# TYPE service_epoch gauge" in text
        assert "service_epoch 0\n" in text

    def test_two_services_keep_separate_registries(self, obs_service):
        other = MatchService(session=StreamSession(
            MLNMatcher(), build_shared_coauthor_store())).start()
        try:
            obs_service.resolve("c1")
            assert other.metrics()["counters"]["reads_total"] == 0
        finally:
            other.drain()

    def test_http_metrics_content_negotiation(self, obs_service):
        with MatchServingHTTPServer(obs_service) as server:
            def fetch(accept=None):
                headers = {} if accept is None else {"Accept": accept}
                request = urllib.request.Request(server.url + "/metrics",
                                                 headers=headers)
                with urllib.request.urlopen(request, timeout=30) as response:
                    return (response.headers["Content-Type"],
                            response.read().decode("utf-8"))

            content_type, body = fetch()  # default stays JSON
            assert content_type == "application/json"
            assert "uptime_seconds" in json.loads(body)

            content_type, body = fetch("text/plain")
            assert content_type == CONTENT_TYPE
            assert "# TYPE service_reads_total counter" in body

            content_type, body = fetch("application/openmetrics-text")
            assert content_type == CONTENT_TYPE

            content_type, _ = fetch("application/json, text/plain;q=0.5")
            assert content_type == "application/json"
