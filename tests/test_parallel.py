"""Tests for the parallel grid executor, partitioner and local executors."""

import concurrent.futures
import time
from functools import partial

import pytest

from repro.core import EMFramework, FullRun
from repro.exceptions import ExperimentError, MatcherError
from repro.matchers import MLNMatcher, RulesMatcher
from repro.mln import paper_author_rules
from repro.parallel import (
    EXECUTOR_KINDS,
    GridExecutor,
    ProcessExecutor,
    SerialExecutor,
    lpt_partition,
    make_executor,
    makespan,
    random_partition,
    total_work,
)
from tests.faultinject import ThreadPool
from tests.reference.schemes import SCHEMES as ORACLES, SimpleMessagePassing
from tests.util import (
    build_chain_store,
    build_path_store,
    build_two_hop_store,
    chain_cover,
    chain_pair,
    pair,
    two_hop_rules,
)


class TestPartitioner:
    TASKS = [("n1", 4.0), ("n2", 3.0), ("n3", 2.0), ("n4", 1.0)]

    def test_random_partition_assigns_every_task(self):
        assignment = random_partition(self.TASKS, workers=3, seed=1)
        assert sum(len(worker) for worker in assignment) == len(self.TASKS)
        assert len(assignment) == 3

    def test_random_partition_deterministic_given_seed(self):
        assert random_partition(self.TASKS, 3, seed=5) == random_partition(self.TASKS, 3, seed=5)

    def test_lpt_partition_balances(self):
        lpt = lpt_partition(self.TASKS, workers=2)
        assert makespan(lpt) == pytest.approx(5.0)

    def test_makespan_single_worker_is_total_work(self):
        single = random_partition(self.TASKS, workers=1)
        assert makespan(single) == pytest.approx(total_work(self.TASKS)) == pytest.approx(10.0)

    def test_makespan_bounds(self):
        assignment = random_partition(self.TASKS, workers=2, seed=0)
        assert total_work(self.TASKS) / 2 <= makespan(assignment) <= total_work(self.TASKS)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            random_partition(self.TASKS, 0)
        with pytest.raises(ValueError):
            lpt_partition(self.TASKS, 0)


class TestGridExecutor:
    def test_grid_smp_matches_sequential_smp(self):
        store, cover = build_two_hop_store()
        grid = GridExecutor(scheme="smp").run(MLNMatcher(rules=two_hop_rules()), store, cover)
        sequential = SimpleMessagePassing().run(MLNMatcher(rules=two_hop_rules()), store, cover)
        assert grid.matches == sequential.matches
        assert grid.round_count >= 2  # the dependent pair needs a second round

    def test_grid_runs_to_its_fixpoint_on_a_long_path(self):
        """The first round matches two pairs, each later one a single pair:
        the grid stops when no neighborhood is active, not after a fixed
        round budget."""
        store, cover = build_path_store(70)
        grid = GridExecutor(scheme="smp").run(MLNMatcher(rules=two_hop_rules()), store, cover)
        sequential = SimpleMessagePassing().run(MLNMatcher(rules=two_hop_rules()), store, cover)
        assert len(sequential.matches) == 70
        assert grid.matches == sequential.matches
        assert grid.round_count == 69

    def test_grid_nomp_single_round(self):
        store, cover = build_two_hop_store()
        grid = GridExecutor(scheme="no-mp").run(MLNMatcher(rules=two_hop_rules()), store, cover)
        assert grid.round_count == 1

    def test_grid_mmp_resolves_ring(self):
        store = build_chain_store(4, level=2)
        cover = chain_cover(4, window=3)
        grid = GridExecutor(scheme="mmp").run(MLNMatcher(rules=paper_author_rules()), store, cover)
        assert grid.matches == {chain_pair(i) for i in range(4)}

    def test_grid_results_are_sound(self):
        store, cover = build_two_hop_store()
        matcher = MLNMatcher(rules=two_hop_rules())
        grid = GridExecutor(scheme="smp").run(matcher, store, cover)
        full = FullRun().run(matcher, store)
        assert grid.matches <= full.matches

    def test_simulated_wall_clock_monotone_in_workers(self):
        store, cover = build_two_hop_store()
        grid = GridExecutor(scheme="smp").run(MLNMatcher(rules=two_hop_rules()), store, cover)
        one = grid.simulated_wall_clock(1)
        many = grid.simulated_wall_clock(8)
        assert many <= one + 1e-9
        assert grid.speedup(8) >= 1.0

    def test_per_round_overhead_added(self):
        store, cover = build_two_hop_store()
        grid = GridExecutor(scheme="smp").run(MLNMatcher(rules=two_hop_rules()), store, cover)
        base = grid.simulated_wall_clock(4)
        padded = grid.simulated_wall_clock(4, per_round_overhead=10.0)
        assert padded == pytest.approx(base + 10.0 * grid.round_count)

    def test_lpt_strategy_never_slower_than_random(self):
        store, cover = build_two_hop_store()
        grid = GridExecutor(scheme="smp").run(MLNMatcher(rules=two_hop_rules()), store, cover)
        assert grid.simulated_wall_clock(4, strategy="lpt") <= \
            grid.simulated_wall_clock(4, strategy="random") + 1e-9

    def test_unknown_strategy(self):
        store, cover = build_two_hop_store()
        grid = GridExecutor(scheme="no-mp").run(MLNMatcher(rules=two_hop_rules()), store, cover)
        with pytest.raises(ExperimentError):
            grid.simulated_wall_clock(4, strategy="magic")

    def test_to_scheme_result(self):
        store, cover = build_two_hop_store()
        grid = GridExecutor(scheme="smp").run(MLNMatcher(rules=two_hop_rules()), store, cover)
        result = grid.to_scheme_result()
        assert result.scheme == "smp"
        assert result.matches == grid.matches
        assert result.neighborhoods == len(cover)
        assert result.messages_passed == len(grid.matches)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ExperimentError):
            GridExecutor(scheme="bogus")

    def test_mmp_requires_type2(self):
        store, cover = build_two_hop_store()
        with pytest.raises(MatcherError):
            GridExecutor(scheme="mmp").run(RulesMatcher(), store, cover)


def _square(value):
    """Module-level so ProcessExecutor can pickle it to workers."""
    return value * value


def _raise_boom():
    raise RuntimeError("boom")


def _touch(path):
    """Leave a trace of having run that a process-pool test can count."""
    time.sleep(0.02)
    path.touch()
    return path.name


class _SpyPool(concurrent.futures.ThreadPoolExecutor):
    """A thread pool that counts its ``submit`` calls."""

    submits = 0

    def submit(self, fn, *args, **kwargs):
        self.submits += 1
        return super().submit(fn, *args, **kwargs)


class _SpyExecutor(ThreadPool):
    """A thread pool executor whose pools count submissions."""

    pools = 0

    def _make_pool(self):
        self.pools += 1
        return _SpyPool(max_workers=self.workers)


class TestLocalExecutors:
    def test_serial_executor(self):
        results = SerialExecutor().map_tasks([("a", lambda: 1), ("b", lambda: 2)])
        assert results == {"a": 1, "b": 2}

    def test_threaded_executor(self):
        results = ThreadPool(workers=2).map_tasks(
            [(str(i), (lambda i=i: i * i)) for i in range(5)])
        assert results == {str(i): i * i for i in range(5)}

    def test_process_executor(self):
        with ProcessExecutor(workers=2) as executor:
            results = executor.map_tasks(
                [(str(i), partial(_square, i)) for i in range(5)])
        assert results == {str(i): i * i for i in range(5)}

    def test_threaded_executor_propagates_errors(self):
        with pytest.raises(RuntimeError):
            ThreadPool(workers=2).map_tasks([("x", _raise_boom)])

    def test_process_executor_propagates_errors(self):
        with ProcessExecutor(workers=2) as executor:
            with pytest.raises(RuntimeError):
                executor.map_tasks([("x", _raise_boom)])

    def test_threaded_executor_cancels_outstanding_on_first_failure(self):
        started = []

        def tail(i):
            started.append(i)
            time.sleep(0.02)
            return i

        tasks = [("boom", _raise_boom)] + [
            (f"t{i}", partial(tail, i)) for i in range(50)]
        with pytest.raises(RuntimeError, match="boom"):
            ThreadPool(workers=2).map_tasks(tasks)
        # The failure surfaces while most of the queue is still pending; the
        # pending tasks are cancelled rather than drained.
        assert len(started) < 50

    def test_pool_reuse_via_context_manager(self):
        with ThreadPool(workers=2) as executor:
            first = executor.map_tasks([("a", lambda: 1)])
            second = executor.map_tasks([("b", lambda: 2)])
        assert (first, second) == ({"a": 1}, {"b": 2})
        # After close, map_tasks still works with a one-shot pool.
        assert executor.map_tasks([("c", lambda: 3)]) == {"c": 3}

    def test_make_executor(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("processes", 2), ProcessExecutor)
        assert make_executor("processes", 3).workers == 3
        assert EXECUTOR_KINDS == ("serial", "processes")
        for kind in ("hadoop", "threads"):
            with pytest.raises(ExperimentError):
                make_executor(kind)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ThreadPool(workers=0)
        with pytest.raises(ValueError):
            ProcessExecutor(workers=0)

    def test_make_executor_rejects_non_positive_workers(self):
        # The spec-string entry point raises the library's typed error, not
        # the pool constructor's ValueError.
        for workers in (0, -3):
            with pytest.raises(ExperimentError, match="workers"):
                make_executor("processes", workers)

    def test_default_workers_derive_from_cpu_count(self):
        import os
        expected = os.cpu_count() or 1
        assert ProcessExecutor().workers == expected
        assert make_executor("processes").workers == expected

    def test_first_failure_discards_partial_results(self):
        # Tasks that completed before the failure surfaced must not leak out:
        # the round is all-or-nothing.
        done = []

        def ok(i):
            done.append(i)
            return i

        with ThreadPool(workers=2) as executor:
            with pytest.raises(RuntimeError, match="boom"):
                executor.map_tasks([("t0", partial(ok, 0)),
                                    ("t1", partial(ok, 1)),
                                    ("boom", _raise_boom)])
            assert done  # some tasks really did complete...
            # ...and the pool is still usable for the next round.
            assert executor.map_tasks([("a", lambda: 1)]) == {"a": 1}

    def test_process_pool_survives_failed_round(self):
        with ProcessExecutor(workers=2) as executor:
            pool = executor._pool
            with pytest.raises(RuntimeError):
                executor.map_tasks([("x", _raise_boom)])
            assert executor._pool is pool  # same pool, reused
            assert executor.map_tasks([("s", partial(_square, 3))]) == {"s": 9}

    def test_process_executor_cancels_outstanding_on_first_failure(self, tmp_path):
        tasks = [("boom", _raise_boom)] + [
            (f"t{i}", partial(_touch, tmp_path / f"t{i}")) for i in range(49)]
        with ProcessExecutor(workers=2) as executor:
            pool = executor._pool
            with pytest.raises(RuntimeError, match="boom"):
                executor.map_tasks(tasks)
            assert executor._pool is pool
            assert executor.map_tasks([("s", partial(_square, 3))]) == {"s": 9}
        # Shut down: every chunk that started has finished.  The failing
        # task's chunk-mates after it never ran.
        assert len(list(tmp_path.iterdir())) < 49

    def test_pool_round_is_chunked(self):
        tasks = [(f"t{i}", partial(_square, i)) for i in range(1000)]
        with _SpyExecutor(workers=3) as executor:
            results = executor.map_tasks(tasks)
            assert executor._pool.submits <= 4 * executor.workers
        assert results == SerialExecutor().map_tasks(tasks)

    def test_empty_round_touches_no_pool(self):
        executor = _SpyExecutor(workers=2)
        assert executor.map_tasks([]) == {}
        assert executor.pools == 0  # no one-shot pool opened
        with executor:
            assert executor.map_tasks([]) == {}
            assert executor._pool.submits == 0

    def test_nested_context_manager_is_reentrant(self):
        executor = ThreadPool(workers=2)
        with executor:
            pool = executor._pool
            with executor:  # inner enter must not replace or close the pool
                assert executor._pool is pool
            assert executor._pool is pool  # inner exit keeps it open
        assert executor._pool is None  # outer exit releases it

    def test_serial_executor_stops_at_first_failure_in_submission_order(self):
        ran = []

        def record(i):
            ran.append(i)
            return i

        tasks = [("t0", partial(record, 0)), ("boom", _raise_boom),
                 ("t2", partial(record, 2))]
        with pytest.raises(RuntimeError, match="boom"):
            SerialExecutor().map_tasks(tasks)
        assert ran == [0]  # nothing after the failing task ran


class TestExecutorParity:
    """Acceptance: every executor reproduces the sequential schemes exactly."""

    @pytest.fixture(scope="class")
    def framework(self, hepth_dataset, hepth_cover):
        return EMFramework(MLNMatcher(), hepth_dataset.store, cover=hepth_cover)

    @pytest.fixture(scope="class")
    def references(self, hepth_dataset, hepth_cover):
        return {scheme: oracle().run(MLNMatcher(), hepth_dataset.store, hepth_cover)
                for scheme, oracle in ORACLES.items()}

    # Both executor kinds, and the thread pool the supervision tests use
    # (in-process tasks on views, run concurrently).
    @pytest.mark.parametrize("kind", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("scheme", ["no-mp", "smp", "mmp"])
    def test_grid_matches_sequential_scheme(self, kind, scheme, hepth_dataset,
                                            hepth_cover, references):
        executor = ThreadPool(2) if kind == "threads" else kind
        grid = GridExecutor(scheme=scheme, executor=executor, workers=2).run(
            MLNMatcher(), hepth_dataset.store, hepth_cover)
        assert grid.matches == references[scheme].matches
        assert grid.executor == kind

    def test_executor_instance_is_not_closed_by_the_grid(self, hepth_dataset,
                                                         hepth_cover, references):
        with ThreadPool(workers=2) as executor:
            for _ in range(2):  # pool survives across runs
                grid = GridExecutor(scheme="smp", executor=executor).run(
                    MLNMatcher(), hepth_dataset.store, hepth_cover)
                assert grid.matches == references["smp"].matches
            assert executor._pool is not None

    def test_run_grid_entry_point(self, framework, references):
        grid = framework.run_grid("smp", executor="processes", workers=2)
        assert grid.matches == references["smp"].matches
        assert grid.to_scheme_result().scheme == "smp"
