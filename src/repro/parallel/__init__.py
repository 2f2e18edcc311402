"""Parallel (grid) execution of the framework (Section 6.3)."""

from .executor import (
    EXECUTOR_KINDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from .grid import GridExecutor, GridRunResult
from .partitioner import lpt_partition, makespan, random_partition, total_work
from .resilience import (
    AttemptRecord,
    FaultPolicy,
    ResilientExecutor,
    RoundReport,
    SupervisionHistory,
)
from .tasks import (
    MapResult,
    MapTask,
    execute_map_task,
    validate_map_result,
)

__all__ = [
    "EXECUTOR_KINDS",
    "AttemptRecord",
    "Executor",
    "FaultPolicy",
    "GridExecutor",
    "GridRunResult",
    "MapResult",
    "MapTask",
    "ProcessExecutor",
    "ResilientExecutor",
    "RoundReport",
    "SerialExecutor",
    "SupervisionHistory",
    "execute_map_task",
    "lpt_partition",
    "make_executor",
    "makespan",
    "random_partition",
    "total_work",
    "validate_map_result",
]
