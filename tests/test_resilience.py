"""Chaos tests for fault-tolerant grid execution (repro.parallel.resilience).

The resilience claim is universally quantified over *what* goes wrong: for
every injected fault schedule — fail-once, fail-N within the retry budget,
hangs past the task deadline, wrong-result-then-correct, simulated and real
pool death, stragglers — a supervised grid run must produce a match set
byte-identical to an uninjected serial run, and a schedule that exceeds the
whole budget (retries *and* the degraded inline path) must surface a typed
:class:`~repro.exceptions.TaskFailedError` carrying the full attempt
history.  A fixed matrix covers dict/compact store backends × a thread pool
(the cheap fixture) / process executors; a hypothesis property drives random
schedules at the same invariant; further tests compose the supervisor with
the streaming and durability layers.
"""

from __future__ import annotations

import functools
import os
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EMFramework
from repro.datamodel import CompactStore
from repro.exceptions import ExperimentError, TaskFailedError
from repro.matchers import MLNMatcher
from repro.mln import paper_author_rules
from repro.parallel import (
    FaultPolicy,
    GridExecutor,
    ProcessExecutor,
    ResilientExecutor,
    RoundReport,
    SerialExecutor,
    validate_map_result,
)
from tests.faultinject import FaultInjected, FaultSpec, FaultyExecutor, ThreadPool
from tests.util import build_chain_store, build_two_hop_store, chain_cover, \
    chain_pair, two_hop_rules

#: Fast backoff so retry-heavy tests stay quick.
FAST = dict(backoff_base=0.001, backoff_max=0.01)


def _echo(value):
    """Module-level so ProcessExecutor can pickle it."""
    return value


class TestFaultPolicy:
    def test_defaults_are_valid(self):
        policy = FaultPolicy()
        assert policy.retries == 2
        assert policy.task_timeout is None
        assert not policy.speculate

    @pytest.mark.parametrize("kwargs", [
        {"task_timeout": 0.0},
        {"task_timeout": -1.0},
        {"retries": -1},
        {"backoff_base": -0.1},
        {"backoff_factor": 0.5},
        {"backoff_base": 1.0, "backoff_max": 0.5},
        {"backoff_max": 0.01},
        {"backoff_factor": 0.0},
        {"retries": -1, "speculate": True},
        {"max_pool_rebuilds": -1, "degrade_serially": False},
        {"max_pool_rebuilds": -1},
    ])
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            FaultPolicy(**kwargs)

    def test_nesting_refused(self):
        with pytest.raises(ExperimentError):
            ResilientExecutor(ResilientExecutor(SerialExecutor()))


class TestSupervisedExecution:
    """Unit-level behaviour of ResilientExecutor over plain callables."""

    def test_clean_run_serial_inner(self):
        executor = ResilientExecutor(SerialExecutor())
        results = executor.map_tasks(
            [(f"t{i}", functools.partial(_echo, i)) for i in range(5)])
        assert results == {f"t{i}": i for i in range(5)}
        report = executor.pop_report()
        assert (report.tasks, report.attempts, report.retries) == (5, 5, 0)
        assert executor.pop_report() is None  # consumed

    def test_clean_run_threaded_inner(self):
        executor = ResilientExecutor(ThreadPool(2))
        results = executor.map_tasks(
            [(f"t{i}", functools.partial(_echo, i)) for i in range(8)])
        assert results == {f"t{i}": i for i in range(8)}
        assert executor.pop_report().attempts == 8

    @pytest.mark.parametrize("inner", ["serial", "threads"])
    def test_fail_once_is_retried(self, inner):
        base = SerialExecutor() if inner == "serial" else ThreadPool(2)
        faulty = FaultyExecutor(base, {"a": FaultSpec("fail", times=1)})
        executor = ResilientExecutor(faulty, FaultPolicy(retries=2, **FAST))
        results = executor.map_tasks([("a", functools.partial(_echo, "A")),
                                      ("b", functools.partial(_echo, "B"))])
        assert results == {"a": "A", "b": "B"}
        report = executor.pop_report()
        assert report.failures == 1 and report.retries == 1
        assert faulty.attempts["a"] == 2

    def test_fail_n_within_budget(self):
        faulty = FaultyExecutor(ThreadPool(2),
                                {"a": FaultSpec("fail", times=3)})
        executor = ResilientExecutor(faulty, FaultPolicy(retries=3, **FAST))
        assert executor.map_tasks(
            [("a", functools.partial(_echo, 1))]) == {"a": 1}
        assert executor.pop_report().retries == 3

    def test_budget_exhausted_rescued_by_degraded_inline_run(self):
        # 3 pool attempts fail (retries=2), the 4th — inline — is clean.
        faulty = FaultyExecutor(ThreadPool(2),
                                {"a": FaultSpec("fail", times=3)})
        executor = ResilientExecutor(faulty, FaultPolicy(retries=2, **FAST))
        assert executor.map_tasks(
            [("a", functools.partial(_echo, 1))]) == {"a": 1}
        report = executor.pop_report()
        assert report.degraded == 1
        assert faulty.attempts["a"] == 4  # run_inline is faulted too

    def test_poison_task_raises_with_full_history(self):
        faulty = FaultyExecutor(ThreadPool(2),
                                {"a": FaultSpec("fail", times=99)})
        executor = ResilientExecutor(faulty, FaultPolicy(retries=2, **FAST))
        with pytest.raises(TaskFailedError) as excinfo:
            executor.map_tasks([("a", functools.partial(_echo, 1))])
        error = excinfo.value
        assert error.task_name == "a"
        # 3 pool attempts + 1 degraded, each with its outcome and error.
        assert [record.kind for record in error.attempts] == \
            ["pool", "pool", "pool", "degraded"]
        assert all(record.outcome == "error" for record in error.attempts)
        assert "FaultInjected" in error.attempts[-1].error
        assert "failed after 4 attempt(s)" in str(error)

    def test_degradation_can_be_disabled(self):
        faulty = FaultyExecutor(ThreadPool(2),
                                {"a": FaultSpec("fail", times=99)})
        executor = ResilientExecutor(
            faulty, FaultPolicy(retries=1, degrade_serially=False, **FAST))
        with pytest.raises(TaskFailedError) as excinfo:
            executor.map_tasks([("a", functools.partial(_echo, 1))])
        assert [record.kind for record in excinfo.value.attempts] == \
            ["pool", "pool"]

    def test_hang_past_deadline_is_abandoned_and_retried(self):
        faulty = FaultyExecutor(
            ThreadPool(2), {"slow": FaultSpec("hang", times=1, delay=5.0)})
        executor = ResilientExecutor(
            faulty, FaultPolicy(task_timeout=0.1, retries=2, **FAST))
        with executor:
            results = executor.map_tasks(
                [("slow", functools.partial(_echo, "s")),
                 ("fast", functools.partial(_echo, "f"))])
        assert results == {"slow": "s", "fast": "f"}
        report = executor.pop_report()
        assert report.timeouts == 1

    def test_speculation_beats_straggler(self):
        faulty = FaultyExecutor(
            ThreadPool(4), {"n7": FaultSpec("hang", times=1, delay=5.0)})
        executor = ResilientExecutor(faulty, FaultPolicy(speculate=True))
        import time
        with executor:
            started = time.monotonic()
            results = executor.map_tasks(
                [(f"n{i}", functools.partial(_echo, i)) for i in range(8)])
            elapsed = time.monotonic() - started
        assert results == {f"n{i}": i for i in range(8)}
        report = executor.pop_report()
        assert report.speculative_launches >= 1
        assert report.speculative_wins >= 1
        assert elapsed < 4.0  # did not wait out the 5s hang

    def test_wrong_result_rejected_by_validator(self):
        faulty = FaultyExecutor(ThreadPool(2),
                                {"a": FaultSpec("wrong-result", times=1)})
        executor = ResilientExecutor(
            faulty, FaultPolicy(retries=2, **FAST),
            validator=lambda name, result: result == name.upper())
        results = executor.map_tasks([("a", functools.partial(_echo, "A"))])
        assert results == {"a": "A"}
        report = executor.pop_report()
        assert report.invalid_results == 1 and report.retries == 1

    def test_simulated_pool_death_rebuilds_and_is_uncharged(self):
        faulty = FaultyExecutor(ThreadPool(2),
                                {"a": FaultSpec("pool-death", times=1)})
        # retries=0: recovery must not charge the task's budget.
        executor = ResilientExecutor(faulty, FaultPolicy(retries=0, **FAST))
        results = executor.map_tasks([("a", functools.partial(_echo, 1)),
                                      ("b", functools.partial(_echo, 2))])
        assert results == {"a": 1, "b": 2}
        report = executor.pop_report()
        assert report.pool_rebuilds == 1
        assert report.failures == 0

    def test_pool_rebuild_cap(self):
        faulty = FaultyExecutor(ThreadPool(2),
                                {"a": FaultSpec("pool-death", times=99)})
        executor = ResilientExecutor(
            faulty, FaultPolicy(retries=0, max_pool_rebuilds=2, **FAST))
        with pytest.raises(ExperimentError, match="died 3 times"):
            executor.map_tasks([("a", functools.partial(_echo, 1))])

    def test_real_process_pool_death_with_share_replay(self, tmp_path):
        flag = tmp_path / "died-once"
        faulty = FaultyExecutor(ProcessExecutor(2), {})
        executor = ResilientExecutor(faulty, FaultPolicy(retries=1, **FAST))
        executor.share("base", 1000)
        try:
            with executor:
                tasks = [(f"t{i}", functools.partial(_shared_add, i))
                         for i in range(4)]
                tasks.append(("killer",
                              functools.partial(_exit_once, str(flag))))
                results = executor.map_tasks(tasks)
        finally:
            executor.unshare("base")
        assert results["killer"] == "survived"
        # Tasks run after the rebuild still see the broadcast payload: the
        # rebuilt pool re-ships what the executor recorded.
        assert all(results[f"t{i}"] == 1000 + i for i in range(4))
        assert executor.pop_report().pool_rebuilds >= 1

    def test_backoff_is_deterministic_and_seeded(self):
        a = ResilientExecutor(SerialExecutor(), FaultPolicy(jitter_seed=1))
        b = ResilientExecutor(SerialExecutor(), FaultPolicy(jitter_seed=1))
        c = ResilientExecutor(SerialExecutor(), FaultPolicy(jitter_seed=2))
        assert a._backoff_delay("t", 1) == b._backoff_delay("t", 1)
        assert a._backoff_delay("t", 1) != c._backoff_delay("t", 1)
        # exponential, capped
        policy = FaultPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.3)
        executor = ResilientExecutor(SerialExecutor(), policy)
        assert executor._backoff_delay("t", 5) <= 0.3 * 2.0

    def test_duplicate_task_names_rejected(self):
        executor = ResilientExecutor(SerialExecutor())
        with pytest.raises(ExperimentError, match="duplicate"):
            executor.map_tasks([("a", functools.partial(_echo, 1)),
                                ("a", functools.partial(_echo, 2))])
        executor = ResilientExecutor(ThreadPool(2))
        with pytest.raises(ExperimentError, match="duplicate"):
            executor.map_tasks([("a", functools.partial(_echo, 1)),
                                ("a", functools.partial(_echo, 2))])

    def test_kind_reflects_inner(self):
        assert ResilientExecutor(SerialExecutor()).kind == "resilient+serial"
        assert ResilientExecutor(ThreadPool(1)).kind == "resilient+threads"


def _shared_add(i):
    from repro.parallel.shared import get_shared
    return get_shared("base") + i


def _exit_once(flag_path):
    """Kill the hosting worker process the first time, succeed after."""
    if not os.path.exists(flag_path):
        open(flag_path, "w").close()
        os._exit(3)
    return "survived"


# ---------------------------------------------------------------------------
# The chaos matrix: injected fault schedules × backends × executors must
# leave grid match sets byte-identical to the uninjected serial reference.
# ---------------------------------------------------------------------------

def _ring_fixture():
    store = build_chain_store(4, level=2)
    cover = chain_cover(4, window=3)
    return store, cover


def _ring_reference():
    store, cover = _ring_fixture()
    matcher = MLNMatcher(rules=paper_author_rules())
    return GridExecutor(scheme="mmp").run(matcher, store, cover).matches


#: name → FaultSpec schedules of the fixed matrix.  Every neighborhood of
#: the ring cover is ring-0..ring-3; schedules hit a subset of them.
_SCHEDULES = {
    "fail-once": {"ring-1": FaultSpec("fail", times=1)},
    "fail-n": {"ring-0": FaultSpec("fail", times=2),
               "ring-2": FaultSpec("fail", times=1)},
    "hang": {"ring-3": FaultSpec("hang", times=1, delay=1.0)},
    "wrong-result": {"ring-1": FaultSpec("wrong-result", times=1),
                     "ring-2": FaultSpec("wrong-result", times=2)},
    "pool-death": {"ring-0": FaultSpec("pool-death", times=1)},
    "everything": {"*": FaultSpec("fail", times=1)},
}


def _policy_for(schedule_name):
    kwargs = dict(retries=2, **FAST)
    if schedule_name == "hang":
        kwargs["task_timeout"] = 0.2
    return FaultPolicy(**kwargs)


class TestChaosMatrix:
    reference = None

    @classmethod
    def setup_class(cls):
        cls.reference = _ring_reference()
        assert cls.reference == {chain_pair(i) for i in range(4)}

    @pytest.mark.parametrize("schedule_name", sorted(_SCHEDULES))
    @pytest.mark.parametrize("backend", ["dict", "compact"])
    def test_threads_match_serial_reference(self, backend, schedule_name):
        self._run(ThreadPool(2), backend, schedule_name)

    # The process cells are trimmed to the schedules that exercise
    # process-specific machinery (pickled faulted payloads, a broken pool):
    # the full schedule sweep above already covers the supervisor logic.
    @pytest.mark.parametrize("schedule_name", ["fail-once", "pool-death"])
    @pytest.mark.parametrize("backend", ["dict", "compact"])
    def test_processes_match_serial_reference(self, backend, schedule_name):
        self._run(ProcessExecutor(2), backend, schedule_name)

    def _run(self, inner, backend, schedule_name):
        store, cover = _ring_fixture()
        if backend == "compact":
            store = CompactStore.from_store(store)
        faulty = FaultyExecutor(inner, dict(_SCHEDULES[schedule_name]))
        grid = GridExecutor(scheme="mmp", executor=faulty,
                            fault_policy=_policy_for(schedule_name))
        result = grid.run(MLNMatcher(rules=paper_author_rules()), store, cover)
        assert result.matches == self.reference
        assert result.executor.startswith("resilient+")
        assert result.round_reports, "supervised rounds must report"
        total = RoundReport.aggregate(result.round_reports)
        if schedule_name != "hang":
            assert total.retries + total.pool_rebuilds >= 1
        injected = sum(spec.times for spec in _SCHEDULES[schedule_name].values())
        assert total.attempts >= total.tasks + (0 if schedule_name == "hang"
                                                else min(injected, 1))

    @pytest.mark.parametrize("backend", ["dict", "compact"])
    def test_degraded_inline_run_on_a_process_pool(self, backend):
        # Both pool attempts of ring-0 fail, so the supervisor re-runs it in
        # this process, which must resolve the broadcast snapshot too.
        store, cover = _ring_fixture()
        if backend == "compact":
            store = CompactStore.from_store(store)
        faulty = FaultyExecutor(ProcessExecutor(2),
                                {"ring-0": FaultSpec("fail", times=2)})
        grid = GridExecutor(scheme="mmp", executor=faulty,
                            fault_policy=FaultPolicy(retries=1, **FAST))
        result = grid.run(MLNMatcher(rules=paper_author_rules()), store, cover)
        assert result.matches == self.reference
        assert RoundReport.aggregate(result.round_reports).degraded == 1

    def test_round_reports_absent_without_policy(self):
        store, cover = _ring_fixture()
        result = GridExecutor(scheme="mmp").run(
            MLNMatcher(rules=paper_author_rules()), store, cover)
        assert result.round_reports == []

    def test_poison_neighborhood_surfaces_task_failed_error(self):
        store, cover = _ring_fixture()
        faulty = FaultyExecutor(ThreadPool(2),
                                {"ring-2": FaultSpec("fail", times=99)})
        grid = GridExecutor(scheme="mmp", executor=faulty,
                            fault_policy=FaultPolicy(retries=1, **FAST))
        with pytest.raises(TaskFailedError) as excinfo:
            grid.run(MLNMatcher(rules=paper_author_rules()), store, cover)
        assert excinfo.value.task_name == "ring-2"
        assert len(excinfo.value.attempts) == 3  # 2 pool + 1 degraded

    def test_grid_validator_rejects_misrouted_results(self):
        # wrong-result corrupts MapResult.name; without retries left and with
        # the degraded run also corrupted, the grid must fail rather than
        # commit a bogus result.
        store, cover = _ring_fixture()
        faulty = FaultyExecutor(ThreadPool(2),
                                {"ring-1": FaultSpec("wrong-result", times=99)})
        grid = GridExecutor(scheme="mmp", executor=faulty,
                            fault_policy=FaultPolicy(retries=0, **FAST))
        with pytest.raises(TaskFailedError) as excinfo:
            grid.run(MLNMatcher(rules=paper_author_rules()), store, cover)
        assert all(record.outcome == "invalid"
                   for record in excinfo.value.attempts)

    def test_framework_fault_policy_plumbs_through(self):
        store, cover = build_two_hop_store()
        framework = EMFramework(MLNMatcher(rules=two_hop_rules()), store,
                                cover=cover, fault_policy=FaultPolicy(**FAST))
        reference = EMFramework(MLNMatcher(rules=two_hop_rules()), store,
                                cover=cover).run("smp")
        result = framework.run_grid("smp", executor=ThreadPool(2))
        assert result.matches == reference.matches
        assert result.executor == "resilient+threads"
        assert result.round_reports


# ---------------------------------------------------------------------------
# Property: ANY random fault schedule within budget preserves the match set.
# ---------------------------------------------------------------------------

_RING_NAMES = [f"ring-{i}" for i in range(4)]

_spec_strategy = st.builds(
    FaultSpec,
    kind=st.sampled_from(["fail", "wrong-result", "pool-death"]),
    times=st.integers(min_value=1, max_value=3),
)

_schedule_strategy = st.dictionaries(
    st.sampled_from(_RING_NAMES), _spec_strategy, max_size=4)


class TestRandomSchedules:
    reference = None

    @classmethod
    def setup_class(cls):
        cls.reference = _ring_reference()

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=_schedule_strategy)
    def test_any_schedule_within_budget_is_transparent(self, schedule):
        store, cover = _ring_fixture()
        faulty = FaultyExecutor(ThreadPool(2), schedule)
        # retries=3 covers times<=3; pool deaths are uncharged but bounded,
        # so give the round plenty of rebuild headroom.
        policy = FaultPolicy(retries=3, max_pool_rebuilds=50, **FAST)
        grid = GridExecutor(scheme="mmp", executor=faulty, fault_policy=policy)
        result = grid.run(MLNMatcher(rules=paper_author_rules()), store, cover)
        assert result.matches == self.reference


# ---------------------------------------------------------------------------
# Composition with the streaming and durability layers.
# ---------------------------------------------------------------------------

class TestStreamingComposition:
    def test_stream_session_survives_injected_faults(self):
        import random

        from repro.streaming import StreamSession
        from tests.test_streaming_property import _base_instance, _random_stream

        rng = random.Random(23)
        store = _base_instance(3, rng)
        log = _random_stream(store, rng, batches=3, ops_per_batch=5,
                             with_evidence=True)

        clean = StreamSession(MLNMatcher(), store.copy())
        clean.start()

        faulty = FaultyExecutor(ThreadPool(2),
                                {"*": FaultSpec("fail", times=1)})
        supervised = StreamSession(MLNMatcher(), store.copy(),
                                   executor=faulty,
                                   fault_policy=FaultPolicy(retries=2, **FAST))
        supervised.start()
        assert supervised.matches == clean.matches

        for batch in log:
            clean.apply(batch)
            supervised.apply(batch)
            assert supervised.matches == clean.matches
        assert supervised.verify()

    def test_durable_session_failed_batch_recovers(self, tmp_path):
        """TaskFailedError mid-batch composes with WAL-ahead recovery.

        The batch is logged before it is applied, so a poison task aborting
        the apply leaves the WAL ahead of the in-memory state — exactly a
        crash.  recover() with a healthy executor must replay that batch
        and land byte-identical to an uninterrupted run.
        """
        import random

        from repro.durability import DurableStreamSession
        from repro.streaming import StreamSession
        from tests.test_streaming_property import _base_instance, _random_stream

        rng = random.Random(29)
        store = _base_instance(3, rng)
        log = list(_random_stream(store, rng, batches=2, ops_per_batch=5,
                                  with_evidence=True))

        reference = StreamSession(MLNMatcher(), store.copy())
        reference.start()
        for batch in log:
            reference.apply(batch)

        faulty = FaultyExecutor(ThreadPool(2), {})
        session = StreamSession(MLNMatcher(), store.copy(), executor=faulty,
                                fault_policy=FaultPolicy(
                                    retries=0, degrade_serially=False, **FAST))
        durable = DurableStreamSession(session, tmp_path)
        durable.start()
        durable.apply(log[0])
        # Arm a poison fault: every attempt of every task now fails, so the
        # second batch dies after being committed to the WAL.
        faulty.schedule["*"] = FaultSpec("fail", times=999)
        with pytest.raises(TaskFailedError):
            durable.apply(log[1])
        durable.wal.close()

        recovered = DurableStreamSession.recover(tmp_path)
        assert recovered.batches_applied == len(log)
        assert recovered.matches == reference.matches
        recovered.close(checkpoint=False)


class TestGracefulShutdown:
    def _durable(self, tmp_path, **kwargs):
        import random

        from repro.durability import DurableStreamSession
        from repro.streaming import StreamSession
        from tests.test_streaming_property import _base_instance, _random_stream

        rng = random.Random(31)
        store = _base_instance(3, rng)
        log = list(_random_stream(store, rng, batches=2, ops_per_batch=4,
                                  with_evidence=True))
        session = StreamSession(MLNMatcher(), store.copy())
        durable = DurableStreamSession(session, tmp_path,
                                       checkpoint_every=0, **kwargs)
        durable.start()
        return durable, log

    def test_idle_sigterm_checkpoints_and_exits_cleanly(self, tmp_path):
        durable, log = self._durable(tmp_path, checkpoint_on_signal=True)
        durable.apply(log[0])
        before = durable.checkpoints.load_latest()[0]
        with pytest.raises(SystemExit) as excinfo:
            os.kill(os.getpid(), signal.SIGTERM)
        assert excinfo.value.code == 0
        # The final checkpoint covers the applied batch, and the previous
        # handlers are back in place.
        assert durable.checkpoints.load_latest()[0] == 1 > before
        assert signal.getsignal(signal.SIGTERM) is not durable._on_signal

    def test_signal_mid_apply_finishes_the_batch_first(self, tmp_path):
        durable, log = self._durable(tmp_path, checkpoint_on_signal=True)
        try:
            # Simulate a signal landing while a batch is applying: the
            # handler only sets the flag...
            durable._applying = True
            durable._on_signal(signal.SIGTERM, None)
            assert durable._shutdown_requested
            durable._applying = False
            # ...and the next apply finishes its batch, checkpoints, exits.
            with pytest.raises(SystemExit) as excinfo:
                durable.apply(log[0])
            assert excinfo.value.code == 0
            assert durable.batches_applied == 1
            assert durable.checkpoints.load_latest()[0] == 1
        finally:
            durable.uninstall_signal_handlers()

    def test_handlers_restored_on_close(self, tmp_path):
        previous = signal.getsignal(signal.SIGINT)
        durable, _ = self._durable(tmp_path, checkpoint_on_signal=True)
        assert signal.getsignal(signal.SIGINT) is not previous
        durable.close()
        assert signal.getsignal(signal.SIGINT) is previous

    def test_checkpoint_on_signal_requires_durable_dir(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit, match="requires --durable-dir"):
            main(["stream", "--dataset", str(tmp_path / "base.json"),
                  "--deltas", str(tmp_path / "trace.json"),
                  "--checkpoint-on-signal"])
