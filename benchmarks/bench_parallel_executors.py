"""Executor comparison: measured wall-clock of the grid's map phase.

Table 1 of the paper reports *grid* wall-clock; this bench complements the
simulated 1-vs-30-machine comparison (``bench_table1_grid.py``) with the
*measured* wall-clock of running the same rounds through each local map-phase
engine: serial, thread pool, process pool.

The interesting shape is honesty, not a guaranteed speedup: the MLN matcher
is pure Python, so threads serialise on the GIL and processes pay one
pickled round trip per chunk of tasks (at most ``4 × workers`` chunks a
round); whether processes win depends on how neighborhood compute compares
to shipping cost on this machine.  What *is*
guaranteed — and asserted — is that every executor produces the identical
match set (the map reads an immutable snapshot, the reduce merges in
deterministic order).

Scale via ``REPRO_BENCH_HEPTH_SCALE`` and worker count via
``REPRO_BENCH_WORKERS`` (default 4, capped to the CPU count).
"""

from __future__ import annotations

import os

from common import print_figure
from repro.matchers import MLNMatcher
from repro.parallel import GridExecutor, ProcessExecutor, SerialExecutor, ThreadedExecutor

WORKERS = min(int(os.environ.get("REPRO_BENCH_WORKERS", 4)), os.cpu_count() or 1)
SCHEME = "smp"


def test_parallel_executor_wall_clock(benchmark, hepth_data, hepth_cover):
    executors = [SerialExecutor(),
                 ThreadedExecutor(workers=WORKERS),
                 ProcessExecutor(workers=WORKERS)]

    def run_all():
        runs = {}
        for executor in executors:
            with executor:
                runs[executor.kind] = GridExecutor(
                    scheme=SCHEME, executor=executor).run(
                        MLNMatcher(), hepth_data.store, hepth_cover)
        return runs

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)

    serial = runs["serial"]
    rows = [{
        "executor": kind,
        "wall_clock_s": round(run.elapsed_seconds, 3),
        "map_compute_s": round(run.total_compute_seconds(), 3),
        "rounds": run.round_count,
        "neighborhood_runs": run.neighborhood_runs,
        "matches": len(run.matches),
        "speedup_vs_serial": round(serial.elapsed_seconds / run.elapsed_seconds
                                   if run.elapsed_seconds else 1.0, 2),
    } for kind, run in runs.items()]
    print_figure(
        f"Measured map-phase wall-clock by executor "
        f"({WORKERS} workers, {SCHEME.upper()} on HEPTH-like)", rows)

    # The correctness half of the tentpole: identical matches everywhere.
    for kind, run in runs.items():
        assert run.matches == serial.matches, kind
        assert run.neighborhood_runs == serial.neighborhood_runs, kind
