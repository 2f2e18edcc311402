"""Serving-layer units: epochs, admission, breaker, service, epoch-swap races.

The load-bearing tests are the epoch-swap consistency checks at the bottom:
threaded readers hammer the service while the commit loop publishes new
epochs, and every single response must be *internally* consistent with the
reference state of the exact batch the reader pinned — pinned epoch ``k``
answers entirely from batch ``k``'s match set, never a mix.
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datamodel import EntityPair, EntityStore, make_author
from repro.exceptions import (
    DeadlineExceededError,
    DeltaError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    UnknownEntityError,
)
from repro.matchers import MLNMatcher
from repro.serving import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionGate,
    CircuitBreaker,
    Deadline,
    Epoch,
    MatchService,
    ServiceConfig,
)
from repro.streaming import (
    AddEntity,
    ChangeBatch,
    RemoveEntity,
    StreamSession,
    UpsertSimilarity,
)
from test_streaming_property import _base_instance, _random_stream
from util import build_shared_coauthor_store


class FakeClock:
    """A manually-advanced monotonic clock for gate/breaker determinism."""

    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def pair(a: str, b: str) -> EntityPair:
    return EntityPair.of(a, b)


# ------------------------------------------------------------------- epochs
class TestEpoch:
    def test_resolve_cluster_same_over_transitive_matches(self):
        epoch = Epoch(3, frozenset({pair("b", "a"), pair("b", "c"),
                                    pair("x", "y")}),
                      ["a", "b", "c", "x", "y", "lone"])
        assert epoch.epoch_id == 3
        for member in ("a", "b", "c"):
            assert epoch.resolve(member) == "a"
        assert epoch.cluster("c") == ("a", "b", "c")
        assert epoch.resolve("x") == "x"
        assert epoch.cluster("y") == ("x", "y")
        assert epoch.same("a", "c")
        assert epoch.same("b", "b")
        assert not epoch.same("a", "x")
        assert epoch.cluster_count() == 2

    def test_unmatched_entity_is_its_own_singleton(self):
        epoch = Epoch(0, frozenset(), ["solo"])
        assert epoch.resolve("solo") == "solo"
        assert epoch.cluster("solo") == ("solo",)
        assert epoch.same("solo", "solo")
        assert "solo" in epoch

    def test_unknown_entity_raises_typed_error(self):
        epoch = Epoch(0, frozenset({pair("a", "b")}), ["a", "b"])
        with pytest.raises(UnknownEntityError):
            epoch.resolve("ghost")
        with pytest.raises(UnknownEntityError):
            epoch.cluster("ghost")
        with pytest.raises(UnknownEntityError):
            epoch.same("a", "ghost")
        assert "ghost" not in epoch

    def test_canonical_is_lexicographic_minimum(self):
        epoch = Epoch(1, frozenset({pair("z9", "m5"), pair("m5", "a1")}),
                      ["z9", "m5", "a1"])
        assert epoch.resolve("z9") == "a1"
        assert epoch.cluster("m5") == ("a1", "m5", "z9")


# ---------------------------------------------------------------- admission
class TestDeadline:
    def test_remaining_and_check(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired()
        deadline.check()
        clock.advance(2.5)
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError, match="read"):
            deadline.check("read")


class TestAdmissionGate:
    def test_validates_construction(self):
        with pytest.raises(ValueError):
            AdmissionGate(0, 1)
        with pytest.raises(ValueError):
            AdmissionGate(1, -1)

    def test_acquire_release_counts(self):
        gate = AdmissionGate(2, 0)
        gate.acquire()
        with gate:
            stats = gate.stats()
            assert stats["inflight"] == 2
            assert stats["admitted_total"] == 2
        gate.release()
        assert gate.stats()["inflight"] == 0

    def test_sheds_immediately_when_wait_queue_full(self):
        gate = AdmissionGate(1, 0, retry_after=0.25)
        gate.acquire()
        with pytest.raises(ServiceOverloadedError) as excinfo:
            gate.acquire()
        assert excinfo.value.retry_after == 0.25
        assert gate.stats()["shed_total"] == 1

    def test_queued_request_proceeds_after_release(self):
        gate = AdmissionGate(1, 1)
        gate.acquire()
        admitted = threading.Event()

        def waiter():
            gate.acquire()
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        for _ in range(100):
            if gate.stats()["waiting"] == 1:
                break
            threading.Event().wait(0.005)
        assert not admitted.is_set()
        gate.release()
        thread.join(timeout=5)
        assert admitted.is_set()
        gate.release()

    def test_queued_request_expires_at_its_deadline(self):
        gate = AdmissionGate(1, 1)
        gate.acquire()
        with pytest.raises(DeadlineExceededError, match="queued"):
            gate.acquire(Deadline(0.02))
        assert gate.stats()["deadline_total"] == 1
        gate.release()


# ------------------------------------------------------------------ breaker
class TestCircuitBreaker:
    def test_validates_construction(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0)

    def test_stays_closed_below_threshold_and_success_resets(self):
        breaker = CircuitBreaker(threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allows_writes()

    def test_trips_at_threshold_and_cools_down(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, cooldown=5.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1
        assert not breaker.allows_writes()
        assert not breaker.admit()
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(5.0)
        assert breaker.allows_writes()

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.admit()
        assert breaker.state == HALF_OPEN
        assert not breaker.admit()  # probe slot is taken
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.recoveries == 1

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=2.0, clock=clock)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.admit()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.admit()
        assert breaker.retry_after() == pytest.approx(2.0)

    def test_released_probe_keeps_the_breaker_probing(self):
        # A probe whose batch was malformed says nothing about the
        # substrate: the breaker must NOT close, but the next write should
        # get a probe slot immediately.
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.admit()
        breaker.release_probe()
        assert breaker.state == OPEN
        assert breaker.admit()  # no extra cooldown wait


# ------------------------------------------------------------------ service
class TestServiceConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_inflight": 0},
        {"max_waiting": -1},
        {"delta_queue_limit": 0},
        {"default_deadline": 0.0},
        {"retry_after": -1.0},
        {"breaker_threshold": 0},
        {"breaker_cooldown": 0.0},
    ])
    def test_invalid_configs_rejected_at_construction(self, kwargs):
        with pytest.raises(ServiceError):
            ServiceConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.max_inflight == 32


@pytest.fixture()
def coauthor_service():
    session = StreamSession(MLNMatcher(), build_shared_coauthor_store())
    service = MatchService(session=session).start()
    yield service
    service.drain()


class TestMatchService:
    def test_requires_exactly_one_session_source(self):
        session = StreamSession(MLNMatcher(), build_shared_coauthor_store())
        with pytest.raises(ServiceError, match="exactly one"):
            MatchService()
        with pytest.raises(ServiceError, match="exactly one"):
            MatchService(session=session, session_factory=lambda: session)

    def test_start_publishes_cold_epoch(self, coauthor_service):
        epoch = coauthor_service.current_epoch()
        assert epoch.epoch_id == 0
        assert pair("c1", "c2") in epoch.matches
        assert coauthor_service.ready
        assert coauthor_service.resolve("c2") == {
            "entity": "c2", "canonical": "c1", "epoch": 0}
        assert coauthor_service.cluster("c1")["members"] == ["c1", "c2"]
        assert coauthor_service.same("c1", "d1")["same"] is False

    def test_reads_refused_before_any_epoch(self):
        service = MatchService(session_factory=lambda: None)
        with pytest.raises(ServiceUnavailableError, match="no epoch"):
            service.resolve("c1")
        with pytest.raises(ServiceUnavailableError, match="not accepting"):
            service.submit_deltas(ChangeBatch([RemoveEntity("c1")]))

    def test_commit_publishes_new_epoch(self, coauthor_service):
        service = coauthor_service
        result = service.apply_deltas(ChangeBatch([
            AddEntity(make_author("c9", "Carl", "Neumann")),
            UpsertSimilarity(pair("c1", "c9"), 0.97, 3),
        ]), timeout=30)
        assert result.batch_index == 1
        assert service.current_epoch().epoch_id == 1
        assert service.resolve("c9")["epoch"] == 1
        counters = service.metrics()["counters"]
        assert counters["commits_total"] == 1
        assert counters["epochs_published"] == 2

    def test_invalid_batch_rejected_without_mutation(self, coauthor_service):
        service = coauthor_service
        before = service.session.standing_state()
        ticket = service.submit_deltas(ChangeBatch([
            UpsertSimilarity(pair("c1", "c2"), 0.95, 3),  # valid...
            RemoveEntity("ghost"),                        # ...but this isn't
        ]))
        with pytest.raises(DeltaError, match="ghost"):
            ticket.wait(30)
        assert service.session.standing_state() == before
        assert service.current_epoch().epoch_id == 0
        counters = service.metrics()["counters"]
        assert counters["deltas_invalid"] == 1
        assert counters["commit_failures"] == 0
        assert service.breaker.state == CLOSED  # client faults never trip it

    def test_drained_service_refuses_everything(self, coauthor_service):
        coauthor_service.drain()
        assert coauthor_service.state == "stopped"
        with pytest.raises(ServiceUnavailableError):
            coauthor_service.resolve("c1")
        with pytest.raises(ServiceUnavailableError):
            coauthor_service.submit_deltas(
                ChangeBatch([RemoveEntity("c1")]))
        coauthor_service.drain()  # idempotent

    def test_metrics_and_health_documents(self, coauthor_service):
        metrics = coauthor_service.metrics()
        assert metrics["state"] == "ready"
        assert metrics["mode"] == "read-write"
        assert metrics["epoch"] == 0
        assert metrics["delta_queue_limit"] == 16
        assert metrics["supervision"]["batches_recorded"] >= 1
        health = coauthor_service.health()
        assert health == {"status": "ok", "state": "ready",
                          "mode": "read-write", "breaker": "closed",
                          "epoch": 0}


# ----------------------------------------------------- epoch-swap consistency
def _reference_states(store: EntityStore, log) -> dict:
    """Ground truth per epoch id: replay the same stream on a fresh session."""
    session = StreamSession(MLNMatcher(), store.copy())
    cold = session.start()
    states = {0: (cold.matches, session.overlay.entity_ids())}
    for batch in log:
        result = session.apply(batch)
        states[result.batch_index] = (result.matches,
                                      session.overlay.entity_ids())
    return states


def _hammer_while_committing(store: EntityStore, log,
                             readers: int = 4) -> None:
    """Threaded readers must only ever observe exact per-batch states."""
    service = MatchService(
        session=StreamSession(MLNMatcher(), store.copy())).start()
    reference = _reference_states(store, log)
    stop = threading.Event()
    errors: list = []

    def reader():
        while not stop.is_set():
            try:
                epoch_id, matches, entity_ids = service.read(
                    lambda e: (e.epoch_id, e.matches, e.entity_ids))
            except ServiceUnavailableError:
                continue
            expected = reference.get(epoch_id)
            if expected is None:
                errors.append(f"unknown epoch {epoch_id}")
            elif (matches, entity_ids) != expected:
                errors.append(f"epoch {epoch_id} torn: saw {sorted(matches)}, "
                              f"expected {sorted(expected[0])}")

    threads = [threading.Thread(target=reader) for _ in range(readers)]
    for thread in threads:
        thread.start()
    try:
        for batch in log:
            service.apply_deltas(batch, timeout=60)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        service.drain()
    assert not errors, errors[:3]
    assert service.current_epoch().epoch_id == len(log)


def test_threaded_readers_never_observe_torn_epochs():
    store = build_shared_coauthor_store()
    log = [
        ChangeBatch([AddEntity(make_author("e1", "Eva", "Moser")),
                     UpsertSimilarity(pair("c1", "e1"), 0.97, 3)]),
        ChangeBatch([UpsertSimilarity(pair("d1", "e1"), 0.91, 2)]),
        ChangeBatch([RemoveEntity("e1")]),
        ChangeBatch([AddEntity(make_author("e2", "Eva", "Moser"))]),
    ]
    _hammer_while_committing(store, log)


def test_single_read_pins_one_epoch_for_all_lookups():
    """resolve + cluster + same inside one read agree with one batch."""
    store = build_shared_coauthor_store()
    service = MatchService(session=StreamSession(MLNMatcher(),
                                                 store.copy())).start()
    stop = threading.Event()
    errors: list = []

    def run(epoch):
        canonical = epoch.resolve("c2")
        members = epoch.cluster("c2")
        together = epoch.same("c1", "c2")
        if (canonical in members) != True:  # noqa: E712 - explicit truth
            errors.append("canonical outside its own cluster")
        if together != ("c1" in members):
            errors.append(f"same() disagrees with cluster() at epoch "
                          f"{epoch.epoch_id}")
        return epoch.epoch_id

    def reader():
        while not stop.is_set():
            service.read(run)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    try:
        # Alternate matching c1-c2 apart and back together: the two lookups
        # disagree transiently unless reads are snapshot-consistent.
        for index in range(4):
            score = 0.97 if index % 2 else 0.1
            level = 3 if index % 2 else 1
            service.apply_deltas(ChangeBatch([
                UpsertSimilarity(pair("c1", "c2"), score, level)]),
                timeout=60)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        service.drain()
    assert not errors, errors[:3]


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       batches=st.integers(min_value=1, max_value=3))
def test_epoch_consistency_over_random_delta_streams(seed, batches):
    rng = random.Random(seed)
    store = _base_instance(3, rng)
    log = _random_stream(store, rng, batches=batches, ops_per_batch=4,
                         with_evidence=True)
    _hammer_while_committing(store, list(log), readers=3)
