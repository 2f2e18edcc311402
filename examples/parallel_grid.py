"""Parallelising the framework on a real and a (simulated) grid of machines.

Section 6.3 of the paper parallelises message passing in MapReduce rounds:
every active neighborhood runs in parallel, new evidence is collected, and the
next round's active set is derived from it.  This example runs the round-based
grid executor on a DBLP-BIG-like workload twice over:

1. *really* in parallel, dispatching each round's map phase through the
   serial and process executors and comparing measured wall-clock (the match
   sets are identical by construction — the reduce phase merges
   deterministically);
2. *simulated*, using the recorded per-neighborhood compute times to answer
   deployment questions without re-running anything: how long would the job
   take on 1, 5, 10, 30 machines, and how much of the ideal speedup is lost
   to random-assignment skew versus a smarter (LPT) assignment?

Run with::

    python examples/parallel_grid.py
"""

from __future__ import annotations

import os

from repro import CanopyBlocker, GridExecutor, MLNMatcher, build_total_cover, dblp_big_like
from repro.evaluation import format_table
from repro.parallel import ProcessExecutor, SerialExecutor


def main() -> None:
    dataset = dblp_big_like(scale=0.6)
    store = dataset.store
    print(f"dataset: {dataset.name} {dataset.stats()}")
    cover = build_total_cover(CanopyBlocker(), store, relation_names=["coauthor"])
    print(f"cover: {cover.stats()}")

    # 1. Real parallel map phase: same rounds, same matches, different engines.
    workers = min(4, os.cpu_count() or 1)
    executors = [SerialExecutor(), ProcessExecutor(workers=workers)]
    runs = {}
    rows = []
    for executor in executors:
        with executor:
            grid_run = GridExecutor(scheme="smp", executor=executor).run(
                MLNMatcher(), store, cover)
        runs[executor.kind] = grid_run
        rows.append({
            "executor": executor.kind,
            "wall_clock_s": round(grid_run.elapsed_seconds, 2),
            "rounds": grid_run.round_count,
            "matches": len(grid_run.matches),
        })
    assert all(run.matches == runs["serial"].matches for run in runs.values())
    print()
    print(format_table(rows, title=f"Measured wall-clock by executor "
                                   f"({workers} workers, SMP scheme)"))
    print("\nThe match sets are identical across executors; wall-clock depends"
          "\non how well this matcher parallelises on this machine (processes"
          "\nget the snapshot once per worker and pay one pickled round trip"
          "\nper chunk of tasks).")

    # 2. Simulated grid: deployment questions from the recorded durations.
    grid_run = runs["serial"]
    print(f"\ngrid run: {grid_run.round_count} rounds, "
          f"{grid_run.neighborhood_runs} neighborhood runs, "
          f"{len(grid_run.matches)} matches, "
          f"{grid_run.total_compute_seconds():.1f}s total compute")

    rows = []
    for machines in (1, 5, 10, 30):
        random_clock = grid_run.simulated_wall_clock(machines, per_round_overhead=0.05)
        lpt_clock = grid_run.simulated_wall_clock(machines, per_round_overhead=0.05,
                                                  strategy="lpt")
        rows.append({
            "machines": machines,
            "random_assignment_s": round(random_clock, 2),
            "lpt_assignment_s": round(lpt_clock, 2),
            "speedup_vs_1": round(grid_run.speedup(machines, per_round_overhead=0.05), 1),
        })
    print()
    print(format_table(rows, title="Simulated wall-clock by grid size (SMP scheme)"))
    print("\nAs in the paper's Table 1, the speedup stays well below the machine"
          "\ncount: per-round overhead and the skew of random neighborhood"
          "\nassignment dominate once rounds become short.")


if __name__ == "__main__":
    main()
