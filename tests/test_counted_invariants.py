"""Counted invariants: the per-layer contracts as counts, which do not flake.

Each invariant here is a deterministic count read off one small workload:
dblp@0.25 streamed in as ``synthesize_stream(batches=8,
holdout_fraction=0.2, seed=7)``, with ``MLNMatcher`` and ``CanopyBlocker``.
Each one replaces a timing gate that used to sit on a per-layer bench:

===============================  ==========================================
timing gate                      counted invariant
===============================  ==========================================
supervision overhead <= 5%       pool submissions per round <= 4 x workers;
                                 supervised: one submission per attempt
WAL overhead <= 25%              one WAL append and one fsync per commit,
                                 <= 160 WAL bytes per op; checkpoints on
                                 the cadence only
tracing overhead ceiling         spans per commit follow a fixed formula;
                                 an untraced run records no span
streaming re-run fraction        mean re-run fraction <= 0.25
compact task payloads >= 3x      a process round's payloads pickle to <= 1/3
                                 of its neighborhoods' dict sub-stores
view restriction per batch run   a second run on one framework builds no
                                 neighborhood view
restrict cost of a commit        a serial commit constructs no EntityStore
cover repair cost of a commit    a commit constructs a Neighborhood only
                                 for one new to the cover
recovery load time               a resume from a checkpoint with canopies
                                 scores no canopy and profiles no entity
                                 before its first delta; the cover after
                                 it equals a cold build
reference run (``verify()``)     no dict sub-store copy, and no more
                                 bindings than one grounding of the
                                 instance
matcher memory over a stream     no MLNMatcher cache entry of a collected
                                 store survives the next cache call
MLN grounding share of a match   a batch grid run, and a framework run on
                                 a dict store, enumerate no more bindings
                                 than one grounding of the whole instance
MLN grounding share of a commit  a commit buckets facts only for members
                                 of the neighborhoods it re-runs
===============================  ==========================================

Every invariant is checked twice: on the code as it is, where it holds, and
on a *broken variant* (a monkeypatched regression of the kind the gate was
there to catch), where the same check must fail.  Timed numbers come only
from the end-to-end benchmark (``BENCHMARK.json``).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import gc
import os
import pickle
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.blocking import CanopyBlocker, Neighborhood, build_total_cover
from repro.core import EMFramework
from repro.datamodel import CompactStore, EntityStore
from repro.datamodel.compact import StoreView
from repro.datasets import dblp_like
from repro.durability import DeltaWAL, DurableStreamSession
from repro.exceptions import UnknownEntityError
from repro.matchers import MLNMatcher
from repro.mln import MarkovLogicNetwork, StoreFacts, paper_author_rules
from repro.mln import database as mln_database
from repro.obs import registry as obs_registry
from repro.obs import trace as obs_trace
from repro.parallel import grid as grid_module
from repro.parallel import shared as parallel_shared
from repro.parallel.executor import ProcessExecutor, _PoolExecutor, _run_chunk
from repro.parallel.grid import GridExecutor
from repro.parallel.resilience import FaultPolicy
from repro.parallel.tasks import MapTask
from repro.similarity.profiles import EntityProfile, ProfiledNameScorer
from repro.streaming import StreamSession, synthesize_stream
from repro.streaming import runner as runner_module
from repro.streaming.maintainer import IncrementalCoverMaintainer
from repro.streaming.overlay import OverlayView, StoreOverlay
from tests.faultinject import ThreadPool

WORKERS = 2
#: Chunks a pool round may ship (``_PoolExecutor._collect``'s deal).
MAX_CHUNKS_PER_ROUND = 4 * WORKERS
#: WAL record bytes per delta op; the workload reads 101-113.
MAX_WAL_BYTES_PER_OP = 160
#: Mean fraction of neighborhoods a batch re-runs; the workload reads 0.16.
MAX_MEAN_RERAN_FRACTION = 0.25
#: Pickled bytes of the first round's neighborhoods as dict sub-stores over
#: those its process payloads ship; the workload reads 9.7.
MIN_PAYLOAD_REDUCTION = 3.0
#: Spans every durable commit opens once: durable.apply, wal.append,
#: stream.batch, stream.mutate, stream.cover_repair, stream.retract,
#: stream.rematch and grid.run.
SPANS_PER_COMMIT = 8
#: Batches the broken variants replay: enough for each check to trip.
BROKEN_BATCHES = 3

_COUNTERS = ("wal_appends_total", "wal_appended_bytes_total",
             "checkpoints_total", "grid_rounds_total", "grid_tasks_total",
             "mln_inference_iterations_total")


@pytest.fixture(scope="module")
def scenario():
    return synthesize_stream(dblp_like(scale=0.25), batches=8,
                             holdout_fraction=0.2, seed=7)


@pytest.fixture(scope="module")
def cover(scenario):
    return build_total_cover(CanopyBlocker(), scenario.final.store,
                             relation_names=["coauthor"])


@contextmanager
def tracing(on: bool):
    """Run the block with a fresh tracer (or none); restore the one before."""
    previous = obs_trace.tracer()
    if on:
        obs_trace.enable()
    else:
        obs_trace.disable()
    try:
        yield
    finally:
        if previous is not None:
            obs_trace.enable(previous.path)
        else:
            obs_trace.disable()


# ------------------------------------------------------------- pool rounds
@pytest.fixture()
def submissions(monkeypatch):
    """Futures submitted to any thread or process pool of this process."""
    count = [0]
    for pool_class in (concurrent.futures.ThreadPoolExecutor,
                       concurrent.futures.ProcessPoolExecutor):
        def counted(self, *args, _submit=pool_class.submit, **kwargs):
            count[0] += 1
            return _submit(self, *args, **kwargs)
        monkeypatch.setattr(pool_class, "submit", counted)
    return count


def pool_rounds(scenario, cover, kind, submissions, fault_policy=None):
    """Run an SMP grid on a pool of ``kind``; return ``(submissions, tasks)``
    per round and the supervision reports."""
    executor = ThreadPool(WORKERS) if kind == "threads" \
        else ProcessExecutor(WORKERS)
    grid = GridExecutor(scheme="smp", executor=executor,
                        fault_policy=fault_policy)
    rounds = []
    map_tasks = grid.executor.map_tasks

    def counted(tasks):
        before = submissions[0]
        results = map_tasks(tasks)
        rounds.append((submissions[0] - before, len(tasks)))
        return results

    grid.executor.map_tasks = counted
    result = grid.run(MLNMatcher(), scenario.final.store, cover)
    return rounds, result.round_reports


def assert_rounds_ship_in_chunks(rounds):
    for index, (submitted, tasks) in enumerate(rounds):
        assert submitted <= MAX_CHUNKS_PER_ROUND, (
            f"round {index}: {submitted} pool submissions for {tasks} tasks, "
            f"more than {MAX_CHUNKS_PER_ROUND} chunks")


def assert_one_submission_per_attempt(rounds, reports):
    submitted = [count for count, _ in rounds]
    attempts = [report.attempts for report in reports]
    assert submitted == attempts, (
        f"pool submissions per round {submitted} != attempts {attempts}")
    assert attempts == [tasks for _, tasks in rounds], \
        "a clean supervised run makes one attempt per task"


@pytest.mark.parametrize("kind", ["threads", "processes"])
def test_a_pool_round_ships_in_chunks(scenario, cover, submissions, kind):
    rounds, _ = pool_rounds(scenario, cover, kind, submissions)
    assert len(rounds) > 1 and rounds[0][1] > MAX_CHUNKS_PER_ROUND
    assert_rounds_ship_in_chunks(rounds)


@pytest.mark.parametrize("kind", ["threads", "processes"])
def test_a_supervised_round_submits_once_per_attempt(scenario, cover,
                                                     submissions, kind):
    rounds, reports = pool_rounds(scenario, cover, kind, submissions,
                                  FaultPolicy())
    assert len(reports) == len(rounds) > 1
    assert_one_submission_per_attempt(rounds, reports)


def test_chunk_count_catches_one_future_per_task(scenario, cover, submissions,
                                                 monkeypatch):
    def one_future_per_task(self, pool, tasks):
        futures = [pool.submit(_run_chunk, [task]) for task in tasks]
        return {name: value for future in futures
                for name, value in future.result()}

    monkeypatch.setattr(_PoolExecutor, "_collect", one_future_per_task)
    rounds, _ = pool_rounds(scenario, cover, "threads", submissions)
    with pytest.raises(AssertionError, match="more than 8 chunks"):
        assert_rounds_ship_in_chunks(rounds)


def test_attempt_count_catches_a_doubled_submission(scenario, cover,
                                                    submissions, monkeypatch):
    submit_task = _PoolExecutor.submit_task

    def submit_twice(self, name, fn):
        submit_task(self, name, fn)
        return submit_task(self, name, fn)

    monkeypatch.setattr(_PoolExecutor, "submit_task", submit_twice)
    rounds, reports = pool_rounds(scenario, cover, "threads", submissions,
                                  FaultPolicy())
    with pytest.raises(AssertionError, match="!= attempts"):
        assert_one_submission_per_attempt(rounds, reports)


# ---------------------------------------------------------- durable commits
def replay(scenario, directory, checkpoint_every, traced, batches=None):
    """Replay the stream through a durable session on the serial executor.

    Returns ``(checkpoints at start, rows)``, one row of counts per commit:
    its ops, ``os.fsync`` calls, spans recorded, re-run fraction and the
    growth of each registry counter in ``_COUNTERS``.
    """
    registry = obs_registry.registry()
    fsyncs = [0]
    recorded = [0]
    real_fsync = os.fsync

    def counted_fsync(fd):
        fsyncs[0] += 1
        real_fsync(fd)

    def counting(add):
        def counted(self, *args, **kwargs):
            recorded[0] += 1
            return add(self, *args, **kwargs)
        return counted

    def counts():
        return {name: registry.get(name).value() for name in _COUNTERS}

    with tracing(traced), pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fsync", counted_fsync)
        # Every span lands in one of these two sinks (task spans are
        # captured, then folded into the tracer without another ``add``).
        patch.setattr(obs_trace.Tracer, "add", counting(obs_trace.Tracer.add))
        patch.setattr(obs_trace.TaskCapture, "add",
                      counting(obs_trace.TaskCapture.add))
        session = DurableStreamSession(
            StreamSession(MLNMatcher(), scenario.base.store.copy(),
                          blocker=CanopyBlocker(),
                          relation_names=["coauthor"]),
            directory, checkpoint_every=checkpoint_every)
        before = counts()
        session.start()
        start_checkpoints = counts()["checkpoints_total"] \
            - before["checkpoints_total"]
        rows = []
        for batch in list(scenario.log)[:batches]:
            before, fsyncs[0], recorded[0] = counts(), 0, 0
            result = session.apply(batch)
            after = counts()
            row = {name: after[name] - before[name] for name in _COUNTERS}
            row.update(ops=len(batch), fsyncs=fsyncs[0], spans=recorded[0],
                       reran_fraction=result.reran_fraction)
            rows.append(row)
        session.close(checkpoint=False)
    return start_checkpoints, rows


@pytest.fixture(scope="module")
def untraced_replay(scenario, tmp_path_factory):
    """The replay without checkpoints or tracing."""
    return replay(scenario, tmp_path_factory.mktemp("wal"),
                  checkpoint_every=0, traced=False)


@pytest.fixture(scope="module")
def traced_replay(scenario, tmp_path_factory):
    """The replay checkpointing every 3 batches, traced."""
    return replay(scenario, tmp_path_factory.mktemp("traced"),
                  checkpoint_every=3, traced=True)


def assert_one_durable_append_per_commit(rows):
    for index, row in enumerate(rows, start=1):
        assert (row["wal_appends_total"], row["fsyncs"]) == (1, 1), (
            f"batch {index}: {row['wal_appends_total']} WAL appends and "
            f"{row['fsyncs']} fsyncs, not one each")
        per_op = row["wal_appended_bytes_total"] / row["ops"]
        assert per_op <= MAX_WAL_BYTES_PER_OP, (
            f"batch {index}: {per_op:.0f} WAL bytes per op")


def assert_checkpoints_on_cadence(start_checkpoints, rows, every):
    taken = start_checkpoints + sum(row["checkpoints_total"] for row in rows)
    assert taken == 1 + len(rows) // every, (
        f"{taken} checkpoints over the start and {len(rows)} batches, "
        f"checkpointing every {every}")


def assert_spans_per_commit(rows):
    for index, row in enumerate(rows, start=1):
        expected = (SPANS_PER_COMMIT + row["grid_rounds_total"]
                    + 2 * row["grid_tasks_total"]
                    + 2 * row["mln_inference_iterations_total"]
                    + row["checkpoints_total"])
        assert row["spans"] == expected, (
            f"batch {index}: {row['spans']} spans, the formula gives "
            f"{expected}")


def assert_no_span_recorded(rows):
    recorded = [row["spans"] for row in rows]
    assert not any(recorded), f"an untraced run recorded spans: {recorded}"


def assert_reran_fraction_bounded(rows):
    mean = sum(row["reran_fraction"] for row in rows) / len(rows)
    assert mean <= MAX_MEAN_RERAN_FRACTION, (
        f"batches re-ran {mean:.2f} of the neighborhoods on average")


def test_each_commit_appends_and_fsyncs_once(untraced_replay):
    _, rows = untraced_replay
    assert len(rows) == 8
    assert_one_durable_append_per_commit(rows)


def test_append_count_catches_a_batch_written_twice(scenario, tmp_path,
                                                    monkeypatch):
    append = DeltaWAL.append

    def append_twice(self, batch_id, batch):
        previous = self.last_batch_id
        append(self, batch_id, batch)
        self._last_batch_id = previous
        append(self, batch_id, batch)

    monkeypatch.setattr(DeltaWAL, "append", append_twice)
    _, rows = replay(scenario, tmp_path, checkpoint_every=0, traced=False,
                     batches=BROKEN_BATCHES)
    with pytest.raises(AssertionError, match="2 WAL appends and 2 fsyncs"):
        assert_one_durable_append_per_commit(rows)


def test_checkpoints_follow_the_cadence(traced_replay):
    start_checkpoints, rows = traced_replay
    assert start_checkpoints == 1
    assert_checkpoints_on_cadence(start_checkpoints, rows, every=3)


def test_checkpoint_count_catches_a_checkpoint_per_batch(scenario, tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(DurableStreamSession, "_checkpoint_on_cadence",
                        DurableStreamSession.checkpoint)
    start_checkpoints, rows = replay(scenario, tmp_path, checkpoint_every=3,
                                     traced=False, batches=BROKEN_BATCHES)
    with pytest.raises(AssertionError, match="4 checkpoints"):
        assert_checkpoints_on_cadence(start_checkpoints, rows, every=3)


def test_spans_per_commit_follow_the_formula(traced_replay):
    _, rows = traced_replay
    assert any(row["checkpoints_total"] for row in rows)
    assert_spans_per_commit(rows)


def test_span_formula_catches_an_extra_span_per_task(scenario, tmp_path,
                                                     monkeypatch):
    run_in_place = grid_module.run_in_place

    def with_extra_span(*args, **kwargs):
        with obs_trace.span("grid.task.extra"):
            return run_in_place(*args, **kwargs)

    monkeypatch.setattr(grid_module, "run_in_place", with_extra_span)
    _, rows = replay(scenario, tmp_path, checkpoint_every=3, traced=True,
                     batches=BROKEN_BATCHES)
    with pytest.raises(AssertionError, match="the formula gives"):
        assert_spans_per_commit(rows)


def test_an_untraced_run_records_no_span(untraced_replay):
    _, rows = untraced_replay
    assert_no_span_recorded(rows)


def test_span_count_catches_tasks_capturing_while_untraced(scenario, tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(obs_trace, "enabled", lambda: True)
    _, rows = replay(scenario, tmp_path, checkpoint_every=0, traced=False,
                     batches=BROKEN_BATCHES)
    with pytest.raises(AssertionError, match="recorded spans"):
        assert_no_span_recorded(rows)


# ---------------------------------------------------------------- streaming
def test_batches_rerun_a_bounded_fraction(untraced_replay):
    _, rows = untraced_replay
    assert_reran_fraction_bounded(rows)


def test_rerun_fraction_catches_every_neighborhood_dirty(scenario, tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(StreamSession, "_dirty_neighborhoods",
                        lambda self, cover, impact: set(cover.names()))
    _, rows = replay(scenario, tmp_path, checkpoint_every=0, traced=False,
                     batches=BROKEN_BATCHES)
    with pytest.raises(AssertionError, match="on average"):
        assert_reran_fraction_bounded(rows)


# ---------------------------------------------------------- task payloads
class _WirePool(concurrent.futures.Executor):
    """Pickles each submission as a process pool ships it, records the
    bytes, and runs it in this process."""

    def __init__(self, shipped):
        self.shipped = shipped

    def submit(self, fn, *args, **kwargs):
        self.shipped.append(len(pickle.dumps((fn, args, kwargs))))
        future = concurrent.futures.Future()
        future.set_result(fn(*args, **kwargs))
        return future


class _PayloadMeter(ProcessExecutor):
    """Process executor over a :class:`_WirePool`: it records the bytes
    each round ships and starts no worker (the broadcast is installed in
    this process too)."""

    def __init__(self):
        super().__init__(WORKERS)
        self.shipped = []
        self.round_bytes = []

    def _make_pool(self):
        return _WirePool(self.shipped)

    def map_tasks(self, tasks):
        start = len(self.shipped)
        results = super().map_tasks(tasks)
        self.round_bytes.append(sum(self.shipped[start:]))
        return results


def payload_reduction(store, cover):
    """Pickled bytes of the first round's neighborhoods as dict sub-stores,
    over those of the payloads a process round ships for them."""
    snapshot = CompactStore.from_store(store)
    meter = _PayloadMeter()
    GridExecutor(scheme="smp", executor=meter).run(MLNMatcher(), snapshot, cover)
    sub_stores = sum(
        len(pickle.dumps(snapshot.restrict(neighborhood.entity_ids).to_entity_store()))
        for neighborhood in cover)
    return sub_stores / meter.round_bytes[0]


def assert_payload_reduced(reduction):
    assert reduction >= MIN_PAYLOAD_REDUCTION, (
        f"process payloads are only {reduction:.1f}x smaller than the "
        f"neighborhoods' sub-stores")


def test_compact_tasks_ship_a_fraction_of_the_bytes(scenario, cover):
    assert_payload_reduced(payload_reduction(scenario.final.store, cover))


@dataclasses.dataclass(frozen=True)
class _StoreCarryingTask(MapTask):
    """A payload that also carries its neighborhood's dict sub-store."""

    def __post_init__(self):
        snapshot = parallel_shared.get_shared(self.snapshot)
        object.__setattr__(self, "store", snapshot.restrict_indices(
            self.members).to_entity_store())


def test_payload_ratio_catches_compact_tasks_shipped_as_map_tasks(
        scenario, cover, monkeypatch):
    # The map task that shipped each neighborhood's sub-store: 1.3 here.
    monkeypatch.setattr(grid_module, "MapTask", _StoreCarryingTask)
    with pytest.raises(AssertionError, match="smaller than the neighborhoods"):
        assert_payload_reduced(payload_reduction(scenario.final.store, cover))


# ---------------------------------------------------------------- view cache
def views_built_by_a_second_run(store, cover):
    """Neighborhood views a second serial SMP run on one framework builds."""
    framework = EMFramework(MLNMatcher(), store, cover=cover)
    framework.run_grid("smp")
    with counting(StoreView, "__init__") as built:
        framework.run_grid("smp")
    return built[0]


def assert_no_view_rebuilt(built):
    assert built == 0, f"a second run on the framework built {built} views"


def test_a_second_run_builds_no_view(scenario, cover):
    # The framework's views outlive the run, so matcher caches keyed on
    # them carry over; views built per run: 292 on this workload.
    assert_no_view_rebuilt(views_built_by_a_second_run(
        scenario.final.store, cover))


def test_view_count_catches_views_built_per_run(scenario, cover, monkeypatch):
    run = GridExecutor.run

    def without_cache(self, *args, store_cache=None, **kwargs):
        return run(self, *args, **kwargs)

    monkeypatch.setattr(GridExecutor, "run", without_cache)
    with pytest.raises(AssertionError, match="built"):
        assert_no_view_rebuilt(views_built_by_a_second_run(
            scenario.final.store, cover))


# ------------------------------------------------------------ MLN grounding
def bindings_of(run) -> int:
    """``mln_ground_bindings_total`` enumerated by ``run()``."""
    counter = obs_registry.counter("mln_ground_bindings_total")
    before = counter.value()
    run()
    return int(counter.value() - before)


def grid_and_whole_bindings(store, cover):
    """Bindings a serial SMP grid run on the compact snapshot enumerates, and
    those of one grounding of the whole snapshot."""
    snapshot = CompactStore.from_store(store)
    grid = bindings_of(lambda: GridExecutor(scheme="smp", executor="serial").run(
        MLNMatcher(), snapshot, cover))
    whole = bindings_of(lambda: MarkovLogicNetwork(paper_author_rules()).ground(snapshot))
    return grid, whole


def assert_each_binding_enumerated_once(grid, whole):
    assert 0 < grid <= whole, (
        f"the grid run enumerated {grid} bindings, one grounding of the "
        f"instance {whole}")


def test_a_grid_run_grounds_no_more_than_the_instance(scenario, cover):
    # This workload reads 2 779 and 2 779: every candidate pair lies in some
    # neighborhood, and each is enumerated once.  Grounding every view on
    # its own enumerated 7 630.
    assert_each_binding_enumerated_once(
        *grid_and_whole_bindings(scenario.final.store, cover))


def test_binding_count_catches_per_view_grounding(scenario, cover, monkeypatch):
    # A view that is its own base is grounded on its own, once per view.
    monkeypatch.setattr(StoreView, "restriction", lambda self: (self, None))
    with pytest.raises(AssertionError, match="enumerated"):
        assert_each_binding_enumerated_once(
            *grid_and_whole_bindings(scenario.final.store, cover))


def framework_and_whole_bindings(store, cover):
    """Bindings ``EMFramework(MLNMatcher(), store).run("smp")`` enumerates on
    the caller's dict store, and those of one grounding of the instance."""
    framework = bindings_of(
        lambda: EMFramework(MLNMatcher(), store, cover=cover).run("smp"))
    whole = bindings_of(lambda: MarkovLogicNetwork(paper_author_rules()).ground(
        CompactStore.from_store(store)))
    return framework, whole


def test_a_framework_run_on_a_dict_store_grounds_no_more_than_the_instance(
        scenario, cover):
    # The framework snapshots the dict store once, and every neighborhood is
    # a view of that snapshot: 2 779 and 2 779 on this workload.
    assert_each_binding_enumerated_once(
        *framework_and_whole_bindings(scenario.final.store, cover))


def test_binding_count_catches_a_dict_copy_per_neighborhood(scenario, cover,
                                                            monkeypatch):
    # Running on the caller's dict store restricts every neighborhood to a
    # fresh EntityStore, grounded whole on its own: 9 330 bindings.
    monkeypatch.setattr(EMFramework, "snapshot",
                        property(lambda framework: framework.store))
    with pytest.raises(AssertionError, match="enumerated"):
        assert_each_binding_enumerated_once(
            *framework_and_whole_bindings(scenario.final.store, cover))


# ------------------------------------------------------------ commit cost
@contextmanager
def counting(owner, attribute):
    """Count calls of ``owner.attribute`` in the block (``count[0]``)."""
    count = [0]
    real = getattr(owner, attribute)

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, attribute, counted)
        yield count


def commit_rows(scenario, batches=None):
    """Replay the stream through a serial, non-durable session; one row per
    commit: EntityStores constructed by the whole ``apply``, Neighborhoods
    constructed by the cover repair, the cover's neighborhoods that are new
    to it — by name and members — against the previous batch's, the
    entities whose MLN facts were bucketed and the members of every store
    the matcher ran on."""
    session = StreamSession(MLNMatcher(), scenario.base.store.copy(),
                            blocker=CanopyBlocker(), relation_names=["coauthor"])
    session.start()
    rows = []
    update, bucket, match = \
        IncrementalCoverMaintainer.update, mln_database._bucket, MLNMatcher.match
    with counting(EntityStore, "__init__") as stores, \
            counting(Neighborhood, "__init__") as neighborhoods, \
            pytest.MonkeyPatch.context() as patch:
        def counted_update(self, store, impact):
            before = neighborhoods[0]
            cover = update(self, store, impact)
            rows[-1]["constructed"] = neighborhoods[0] - before
            return cover

        def recorded_bucket(store, relations, partners, entity_id):
            rows[-1]["bucketed"].add(entity_id)
            return bucket(store, relations, partners, entity_id)

        def recorded_match(self, store, *args, **kwargs):
            rows[-1]["matched"].update(store.entity_ids())
            return match(self, store, *args, **kwargs)

        patch.setattr(IncrementalCoverMaintainer, "update", counted_update)
        patch.setattr(mln_database, "_bucket", recorded_bucket)
        patch.setattr(MLNMatcher, "match", recorded_match)
        for batch in list(scenario.log)[:batches]:
            previous = {(n.name, n.entity_ids) for n in session.cover}
            rows.append({"bucketed": set(), "matched": set()})
            stores[0] = 0
            session.apply(batch)
            rows[-1].update(stores=stores[0], size=len(session.cover), new=len(
                {(n.name, n.entity_ids) for n in session.cover} - previous))
    return rows


@pytest.fixture(scope="module")
def commits(scenario):
    return commit_rows(scenario)


def assert_no_store_materialised(rows):
    built = [row["stores"] for row in rows]
    assert not any(built), f"commits constructed EntityStores: {built}"


def assert_neighborhoods_built_only_when_new(rows):
    for index, row in enumerate(rows, start=1):
        assert row["constructed"] <= min(row["new"], row["size"]), (
            f"batch {index}: {row['constructed']} Neighborhoods constructed "
            f"for {row['new']} new to a cover of {row['size']}")


def test_a_serial_commit_constructs_no_entity_store(commits):
    assert len(commits) == 8
    assert_no_store_materialised(commits)


def test_store_count_catches_a_materialising_restrict(scenario, monkeypatch):
    monkeypatch.setattr(StoreOverlay, "restrict", lambda self, entity_ids:
                        OverlayView(self, frozenset(entity_ids)).to_entity_store())
    with pytest.raises(AssertionError, match="constructed EntityStores"):
        assert_no_store_materialised(commit_rows(scenario, BROKEN_BATCHES))


def test_cover_repair_constructs_only_new_neighborhoods(commits):
    # Neighborhood names are positions in the sweep order (the cold
    # contract), so every canopy after a changed one is new by name.  This
    # workload, per batch: 178-251 constructed for covers of 249-292.  The
    # rebuilding update this replaced constructed 346-398: an intermediate
    # canopy cover, then every neighborhood of the total cover again.
    assert_neighborhoods_built_only_when_new(commits)
    assert sum(row["constructed"] for row in commits) \
        < sum(row["size"] for row in commits)


def test_neighborhood_count_catches_a_full_build_per_batch(scenario,
                                                           monkeypatch):
    monkeypatch.setattr(IncrementalCoverMaintainer, "update",
                        lambda self, store, impact: self.build(store))
    with pytest.raises(AssertionError, match="Neighborhoods constructed"):
        assert_neighborhoods_built_only_when_new(
            commit_rows(scenario, BROKEN_BATCHES))


def assert_facts_bucketed_only_for_rerun_members(rows):
    for index, row in enumerate(rows, start=1):
        stray = row["bucketed"] - row["matched"]
        assert not stray, (
            f"batch {index} bucketed the facts of {len(stray)} entities "
            f"outside the {len(row['matched'])} members of the neighborhoods "
            f"it re-ran")


def test_a_commit_buckets_facts_only_for_rerun_members(commits):
    # This workload, per batch: 32-101 entities bucketed, of 53-142 re-run
    # members, in an instance of 299-361.
    assert_facts_bucketed_only_for_rerun_members(commits)
    assert all(row["bucketed"] for row in commits)


def test_bucket_count_catches_a_whole_base_per_generation(scenario, monkeypatch):
    init = StoreFacts.__init__

    def eager(self, store, relation_names):
        init(self, store, relation_names)
        for entity_id in store.entity_ids():
            self.buckets[entity_id]

    monkeypatch.setattr(StoreFacts, "__init__", eager)
    with pytest.raises(AssertionError, match="outside the"):
        assert_facts_bucketed_only_for_rerun_members(
            commit_rows(scenario, BROKEN_BATCHES))


# ---------------------------------------------------------------- recovery
def checkpointed(scenario, directory):
    """Stream the first batches through a durable MLN session that closes
    on a checkpoint, so ``directory`` recovers with an empty WAL tail."""
    session = DurableStreamSession(
        StreamSession(MLNMatcher(), scenario.base.store.copy(),
                      blocker=CanopyBlocker(), relation_names=["coauthor"]),
        directory, checkpoint_every=0)
    session.start()
    for batch in list(scenario.log)[:BROKEN_BATCHES]:
        session.apply(batch)
    session.close()


def canopies_scored_by_recovery(scenario, directory):
    """Canopies scored while recovering from a checkpoint with an empty WAL
    tail (the checkpoint is the last thing the session wrote)."""
    checkpointed(scenario, directory)
    with counting(ProfiledNameScorer, "canopy_scores") as scored:
        recovered = DurableStreamSession.recover(directory)
    assert recovered.batches_applied == BROKEN_BATCHES
    recovered.close(checkpoint=False)
    return scored[0]


def assert_no_canopy_scored(scored):
    assert scored == 0, f"recovery scored {scored} canopies"


def test_recovery_from_checkpointed_canopies_scores_none(scenario, tmp_path):
    assert_no_canopy_scored(canopies_scored_by_recovery(scenario, tmp_path))


def test_canopy_count_catches_a_checkpoint_without_canopies(scenario, tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr(IncrementalCoverMaintainer, "canopy_state",
                        lambda self: None)
    with pytest.raises(AssertionError, match="scored"):
        assert_no_canopy_scored(canopies_scored_by_recovery(scenario, tmp_path))


def resumed_profiles_and_covers(scenario, directory):
    """Profiles built by recovering a checkpoint with canopies, then the
    resumed session's cover after its first delta and a cold cover build on
    the instance it reached (by name and members)."""
    checkpointed(scenario, directory)
    with counting(EntityProfile, "__init__") as built:
        recovered = DurableStreamSession.recover(directory)
    profiled = built[0]
    recovered.apply(list(scenario.log)[BROKEN_BATCHES])
    cold = build_total_cover(CanopyBlocker(), recovered.final_store(),
                             relation_names=["coauthor"])
    covers = [[(n.name, n.entity_ids) for n in cover]
              for cover in (recovered.session.cover, cold)]
    recovered.close(checkpoint=False)
    return profiled, covers


def assert_profiles_wait_for_a_delta(profiled, covers):
    assert profiled == 0, f"recovery built {profiled} entity profiles"
    resumed, cold = covers
    assert resumed == cold, "the resumed cover differs from a cold build"


def test_a_resume_profiles_nothing_before_its_first_delta(scenario, tmp_path):
    # This workload: 0 profiles on recovery (a cold start builds 141), and
    # the batch after the checkpoint removes entities.
    assert_profiles_wait_for_a_delta(
        *resumed_profiles_and_covers(scenario, tmp_path))


def test_resumed_cover_catches_an_index_of_the_mutated_overlay(
        scenario, tmp_path, monkeypatch):
    # Profiling the overlay as the update sees it, after the batch landed,
    # loses the entities the batch removed: their canopies are never patched.
    update = IncrementalCoverMaintainer.update

    def index_the_overlay(self, store, impact):
        if self._unindexed is not None:
            self._unindexed = [entity for entity in store.entities()
                               if self._relevant(entity)]
        return update(self, store, impact)

    monkeypatch.setattr(IncrementalCoverMaintainer, "update", index_the_overlay)
    with pytest.raises((AssertionError, UnknownEntityError),
                       match="differs|unknown entity"):
        assert_profiles_wait_for_a_delta(
            *resumed_profiles_and_covers(scenario, tmp_path))


# ------------------------------------------------------ the reference run
def verify_of_a_recovered_session(scenario, directory):
    """``verify()`` of a recovered MLN session, the ``EntityStore.restrict``
    copies and bindings it makes, and the bindings of one grounding of the
    instance it checks."""
    checkpointed(scenario, directory)
    recovered = DurableStreamSession.recover(directory)
    verified = []
    with counting(EntityStore, "restrict") as copies:
        bindings = bindings_of(lambda: verified.append(recovered.verify()))
    whole = bindings_of(lambda: MarkovLogicNetwork(paper_author_rules()).ground(
        CompactStore.from_store(recovered.final_store())))
    recovered.close(checkpoint=False)
    return verified == [True], copies[0], bindings, whole


def assert_verify_reads_one_snapshot(verified, copies, bindings, whole):
    assert verified, "the recovered session does not equal its cold run"
    assert copies == 0, f"verify() made {copies} dict sub-stores"
    assert_each_binding_enumerated_once(bindings, whole)


def test_verify_reads_one_snapshot(scenario, tmp_path):
    # This workload: no copy, and 2 096 bindings against 2 130 for one
    # grounding.  A dict sub-store per neighborhood makes 262 copies and
    # enumerates 6 958.
    assert_verify_reads_one_snapshot(
        *verify_of_a_recovered_session(scenario, tmp_path))


def test_verify_count_catches_a_dict_sub_store_per_neighborhood(
        scenario, tmp_path, monkeypatch):
    monkeypatch.setattr(runner_module, "CompactStore", SimpleNamespace(
        from_store=lambda overlay: overlay.to_entity_store()))
    with pytest.raises(AssertionError, match="dict sub-stores"):
        assert_verify_reads_one_snapshot(
            *verify_of_a_recovered_session(scenario, tmp_path))


# ------------------------------------------------------------ matcher caches
def dead_cache_entries(scenario, batches=None):
    """Entries of collected stores left in a stream's ``MLNMatcher`` caches
    after its batches and one more cache call."""
    matcher = MLNMatcher()
    session = StreamSession(matcher, scenario.base.store.copy(),
                            blocker=CanopyBlocker(), relation_names=["coauthor"])
    session.start()
    for batch in list(scenario.log)[:batches]:
        session.apply(batch)
    gc.collect()
    probe = EntityStore()
    matcher.match(probe)
    return {name: sum(ref() is None for ref in cache)
            for name, cache in (("network", matcher._network_cache),
                                ("result", matcher._result_cache))}


def assert_no_dead_entry(dead):
    assert not any(dead.values()), f"cache entries of collected stores: {dead}"


def test_matcher_caches_hold_no_collected_store(scenario):
    # An LRU-only cache keeps 252 entries of collected views in each cache
    # over this workload's 8 batches.
    assert_no_dead_entry(dead_cache_entries(scenario))


def test_dead_entry_count_catches_an_lru_only_cache(scenario, monkeypatch):
    monkeypatch.setattr(MLNMatcher, "_drop_dead", lambda self: None)
    with pytest.raises(AssertionError, match="collected stores"):
        assert_no_dead_entry(dead_cache_entries(scenario, BROKEN_BATCHES))
