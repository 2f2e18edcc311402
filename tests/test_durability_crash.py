"""Fault-injection crash matrix: recovery is byte-identical at every seam.

The durability claim is universally quantified over *where* the process
dies: for every registered crash point (mid-WAL-append, between checkpoint
publish and WAL truncation, around an overlay rebase, ...), killing a
durable session there and calling :meth:`DurableStreamSession.recover` must
yield a session whose standing state — after applying whatever batches had
not yet been acknowledged — is byte-identical to an uninterrupted run of
the same stream.  A fixed-seed matrix covers dict/compact session bases
(recovery rebuilds a dict base from either) × serial/process executors ×
every crash point; a hypothesis property drives
random instances, random streams, random crash points and random crash
occurrences at the same invariant.
"""

from __future__ import annotations

import contextlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datamodel import CompactStore
from repro.durability import CRASH_POINTS, DurableStreamSession
from repro.exceptions import RecoveryError
from repro.matchers import MLNMatcher
from repro.streaming import StreamSession
from tests.faultinject import SimulatedCrash, crash_at
from tests.test_durability import _checkpoint_ids
from tests.test_streaming_property import _base_instance, _random_stream

#: Small fixed-seed scenario; rebase_threshold=1 and checkpoint_every=1
#: guarantee every registered seam actually fires during the replay.
_SEED = 17
_AUTHORS = 3
_BATCHES = 3
_OPS_PER_BATCH = 5

_reference_cache = {}
_scenario_cache = {}


def _scenario():
    """(store, log) of the fixed matrix scenario (built once)."""
    if "fixed" not in _scenario_cache:
        rng = random.Random(_SEED)
        store = _base_instance(_AUTHORS, rng)
        log = _random_stream(store, rng, batches=_BATCHES,
                             ops_per_batch=_OPS_PER_BATCH, with_evidence=True)
        _scenario_cache["fixed"] = (store, log)
    return _scenario_cache["fixed"]


def _session_store(backend):
    store, _ = _scenario()
    store = store.copy()
    return CompactStore.from_store(store) if backend == "compact" else store


def _session_kwargs(executor):
    kwargs = {"rebase_threshold": 1}
    if executor != "serial":
        kwargs.update(executor=executor, workers=2)
    return kwargs


def _reference_state(backend, executor):
    """Standing state of an uninterrupted run (cached per combination)."""
    key = (backend, executor)
    if key not in _reference_cache:
        _, log = _scenario()
        session = StreamSession(MLNMatcher(), _session_store(backend),
                                **_session_kwargs(executor))
        session.start()
        session.replay(log)
        _reference_cache[key] = session.standing_state()
    return _reference_cache[key]


def _run_crash_case(tmp_path, backend, executor, point, skip=0):
    """Crash a durable session at ``point``, recover, finish the stream.

    Returns (recovered standing state, whether the run crashed, whether the
    seam fired)."""
    store, log = _scenario()
    session = StreamSession(MLNMatcher(), _session_store(backend),
                            **_session_kwargs(executor))
    durable = DurableStreamSession(session, tmp_path, checkpoint_every=1,
                                   fsync=False)
    durable.start()  # crash-free provisioning: the base checkpoint exists

    crashed = False
    with crash_at(point, skip=skip) as plan:
        try:
            for batch in log:
                durable.apply(batch)
        except SimulatedCrash:
            crashed = True
    durable.wal.close()
    if not crashed:
        # The seam was never reached (possible only for skipped hits):
        # treat as an uninterrupted run and still demand recoverability.
        durable.close()

    recovered = DurableStreamSession.recover(
        tmp_path, fsync=False,
        **({} if executor == "serial"
           else {"executor": executor, "workers": 2}))
    # Whatever was acknowledged survived; apply the rest of the stream.
    remaining = log.batches[recovered.batches_applied:]
    for batch in remaining:
        recovered.apply(batch)
    state = recovered.session.standing_state()
    recovered.close(checkpoint=False)
    return state, crashed, plan.fired


@pytest.mark.parametrize("executor", ["serial", "processes"])
@pytest.mark.parametrize("backend", ["dict", "compact"])
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_matrix_recovery_is_byte_identical(tmp_path, point, backend,
                                                 executor):
    state, crashed, fired = _run_crash_case(tmp_path, backend, executor, point)
    # checkpoint_every=1 + rebase_threshold=1 make every seam reachable, so
    # each matrix cell genuinely exercised its crash point.
    assert fired and crashed
    assert state == _reference_state(backend, executor)


def test_crash_on_later_occurrence_recovers(tmp_path):
    # The same seam hit mid-stream (not on the first batch).
    state, crashed, fired = _run_crash_case(
        tmp_path, "dict", "serial", "wal.append.torn", skip=1)
    assert fired and crashed
    assert state == _reference_state("dict", "serial")


def test_double_crash_then_recover(tmp_path):
    """Crash, recover, crash again at a different seam, recover again."""
    store, log = _scenario()
    session = StreamSession(MLNMatcher(), _session_store("dict"),
                            rebase_threshold=1)
    durable = DurableStreamSession(session, tmp_path, checkpoint_every=1,
                                   fsync=False)
    durable.start()
    with crash_at("wal.append.unsynced") as plan:
        with pytest.raises(SimulatedCrash):
            for batch in log:
                durable.apply(batch)
    assert plan.fired
    durable.wal.close()

    recovered = DurableStreamSession.recover(tmp_path, checkpoint_every=1,
                                             fsync=False)
    remaining = log.batches[recovered.batches_applied:]
    with crash_at("checkpoint.temp_written") as plan:
        with pytest.raises(SimulatedCrash):
            for batch in remaining:
                recovered.apply(batch)
    assert plan.fired
    recovered.wal.close()

    final = DurableStreamSession.recover(tmp_path, fsync=False)
    for batch in log.batches[final.batches_applied:]:
        final.apply(batch)
    assert final.session.standing_state() == _reference_state("dict", "serial")
    final.close(checkpoint=False)


def test_crash_during_recovery_checkpoint_is_recoverable(tmp_path):
    """Even the checkpoint *recovery itself* publishes can crash."""
    store, log = _scenario()
    session = StreamSession(MLNMatcher(), _session_store("dict"),
                            rebase_threshold=1)
    # checkpoint_every=0: the whole stream lives in the WAL tail.  Recovering
    # with a cadence the tail crosses makes recovery publish a checkpoint.
    durable = DurableStreamSession(session, tmp_path, checkpoint_every=0,
                                   fsync=False)
    durable.start()
    durable.replay(log)
    durable.wal.close()

    with crash_at("checkpoint.published") as plan:
        with pytest.raises(SimulatedCrash):
            DurableStreamSession.recover(tmp_path, fsync=False,
                                         checkpoint_every=len(log))
    assert plan.fired

    recovered = DurableStreamSession.recover(tmp_path, fsync=False)
    assert recovered.session.standing_state() == \
        _reference_state("dict", "serial")
    recovered.close(checkpoint=False)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10_000),
       point=st.sampled_from(CRASH_POINTS),
       skip=st.integers(min_value=0, max_value=2),
       data=st.data())
def test_random_streams_random_crash_points_recover(tmp_path_factory, seed,
                                                    point, skip, data):
    """Hypothesis: for random streams and *every* crash point, recover()
    yields a session whose subsequent matches are byte-identical to an
    uninterrupted run."""
    directory = tmp_path_factory.mktemp("durable")
    rng = random.Random(seed)
    store = _base_instance(2, rng)
    log = _random_stream(store, rng, batches=2, ops_per_batch=4,
                         with_evidence=True)

    reference = StreamSession(MLNMatcher(), store.copy(), rebase_threshold=1)
    reference.start()
    reference.replay(log)

    session = StreamSession(MLNMatcher(), store.copy(), rebase_threshold=1)
    durable = DurableStreamSession(session, directory, checkpoint_every=1,
                                   fsync=False)
    durable.start()
    crashed = False
    with crash_at(point, skip=skip):
        try:
            for batch in log:
                durable.apply(batch)
        except SimulatedCrash:
            crashed = True
    durable.wal.close()
    if not crashed:
        durable.close()

    recovered = DurableStreamSession.recover(directory, fsync=False)
    for batch in log.batches[recovered.batches_applied:]:
        recovered.apply(batch)
    assert recovered.session.standing_state() == reference.standing_state()
    recovered.close(checkpoint=False)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10_000),
       cadence=st.integers(min_value=0, max_value=3),
       point=st.sampled_from((None,) + tuple(CRASH_POINTS)),
       skip=st.integers(min_value=0, max_value=2),
       data=st.data())
def test_recovery_resumes_exactly_where_the_session_died(
        tmp_path_factory, seed, cadence, point, skip, data):
    """Hypothesis: crash after a random batch (or at a random seam), recover
    with the same cadence, finish the stream: the standing state, the
    canopy cache and the checkpoint ids on disk all equal the uninterrupted
    run's."""
    rng = random.Random(seed)
    store = _base_instance(2, rng)
    log = _random_stream(store, rng, batches=4, ops_per_batch=4,
                         with_evidence=True)
    stop = data.draw(st.integers(min_value=0, max_value=len(log)))

    def durable_session(directory):
        session = StreamSession(MLNMatcher(), store.copy(),
                                rebase_threshold=1)
        durable = DurableStreamSession(session, directory,
                                       checkpoint_every=cadence, fsync=False)
        durable.start()
        return durable

    reference_dir = tmp_path_factory.mktemp("uninterrupted")
    reference = durable_session(reference_dir)
    reference.replay(log)

    directory = tmp_path_factory.mktemp("crashed")
    durable = durable_session(directory)
    with crash_at(point, skip=skip) if point else contextlib.nullcontext():
        try:
            for batch in log.batches[:stop]:
                durable.apply(batch)
        except SimulatedCrash:
            pass
    durable.wal.close()  # the process dies: no closing checkpoint

    recovered = DurableStreamSession.recover(directory, fsync=False,
                                             checkpoint_every=cadence)
    for batch in log.batches[recovered.batches_applied:]:
        recovered.apply(batch)
    assert recovered.session.standing_state() == \
        reference.session.standing_state()
    assert recovered.session.maintainer.canopy_state() == \
        reference.session.maintainer.canopy_state()
    assert _checkpoint_ids(directory) == _checkpoint_ids(reference_dir)
    recovered.close(checkpoint=False)
    reference.close(checkpoint=False)
