"""Partitioning neighborhoods across grid workers.

The paper's parallel implementation randomly assigns active neighborhoods to
grid machines in each round.  Random assignment is simple but statistically
skewed: some machine receives more (or larger) neighborhoods than average, and
the round only finishes when the slowest machine does.  This skew is one of
the two reasons the observed speedup on 30 machines is ~11x rather than 30x
(Table 1), so the partitioner models it explicitly and also provides a
longest-processing-time (LPT) heuristic for comparison.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

Task = Tuple[str, float]  # (neighborhood name, duration in seconds)


def random_partition(tasks: Sequence[Task], workers: int,
                     seed: int = 0) -> List[List[Task]]:
    """Assign each task to a uniformly random worker (the paper's strategy)."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    rng = random.Random(seed)
    assignment: List[List[Task]] = [[] for _ in range(workers)]
    for task in tasks:
        assignment[rng.randrange(workers)].append(task)
    return assignment


def lpt_partition(tasks: Sequence[Task], workers: int) -> List[List[Task]]:
    """Longest-processing-time-first greedy partition (a 4/3-approximation).

    Provided as the "better scheduling" alternative the paper alludes to when
    mentioning ongoing research on MapReduce skew reduction.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    assignment: List[List[Task]] = [[] for _ in range(workers)]
    loads = [0.0] * workers
    for task in sorted(tasks, key=lambda t: -t[1]):
        lightest = min(range(workers), key=lambda w: loads[w])
        assignment[lightest].append(task)
        loads[lightest] += task[1]
    return assignment


def makespan(assignment: Sequence[Sequence[Task]]) -> float:
    """Wall-clock time of one round: the load of the most loaded worker."""
    if not assignment:
        return 0.0
    return max(sum(duration for _, duration in worker_tasks)
               for worker_tasks in assignment)


def total_work(tasks: Sequence[Task]) -> float:
    """Total compute seconds across all tasks (single-machine time)."""
    return sum(duration for _, duration in tasks)
