"""Exception hierarchy for the ``repro`` library.

Every error raised deliberately by the library derives from
:class:`ReproError` so that callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class DataModelError(ReproError):
    """Raised for inconsistencies in the entity/relation data model."""


class UnknownEntityError(DataModelError):
    """Raised when an entity id is referenced but not registered in a store."""

    def __init__(self, entity_id: str):
        super().__init__(f"unknown entity id: {entity_id!r}")
        self.entity_id = entity_id


class UnknownRelationError(DataModelError):
    """Raised when a relation name is referenced but not declared."""

    def __init__(self, relation_name: str):
        super().__init__(f"unknown relation: {relation_name!r}")
        self.relation_name = relation_name


class InvalidPairError(DataModelError):
    """Raised when an entity pair is constructed from identical entities."""


class CoverError(ReproError):
    """Raised for invalid covers (e.g. a cover that does not span all entities)."""


class MatcherError(ReproError):
    """Raised when a matcher is mis-configured or violates its contract."""


class InferenceError(MatcherError):
    """Raised when probabilistic inference fails to produce a valid state."""


class RuleParseError(ReproError):
    """Raised when a dedupalog rule string cannot be parsed."""


class ExperimentError(ReproError):
    """Raised by the evaluation/experiment harness for invalid configurations."""


class TaskFailedError(ExperimentError):
    """Raised when a grid task exhausts its whole fault-tolerance budget.

    The resilient executor (:mod:`repro.parallel.resilience`) only surfaces
    this after every escape hatch failed: all pool attempts within the retry
    budget, plus — when degradation is enabled — a final inline re-run on the
    caller.  ``attempts`` carries the full per-attempt history (outcome,
    error, duration) so operators can distinguish a poison task from an
    unlucky environment.
    """

    def __init__(self, task_name: str, attempts=()):
        self.task_name = task_name
        self.attempts = tuple(attempts)
        last_error = None
        for record in reversed(self.attempts):
            last_error = getattr(record, "error", None)
            if last_error:
                break
        message = (f"task {task_name!r} failed after "
                   f"{len(self.attempts)} attempt(s)")
        if last_error:
            message += f"; last error: {last_error}"
        super().__init__(message)


class InputFormatError(ReproError, ValueError):
    """Raised when an input file is not what its reader expects: a dataset
    file that is not a dataset, a trace file that is not JSONL spans.

    Also a :class:`ValueError`, which these readers raised before.
    """


class DeltaError(ReproError):
    """Raised by the streaming layer for malformed or inapplicable deltas."""


class ServiceError(ReproError):
    """Base class of the match-serving layer's operational failures.

    Every subclass maps to one HTTP status in the serving layer and all of
    them share one distinct CLI exit code, so operators can tell a service
    refusal (overload, deadline, degraded mode) from a crash.
    """


class ServiceOverloadedError(ServiceError):
    """The service shed the request: a bounded queue or gate was full.

    Maps to HTTP 429; ``retry_after`` is the server's backoff hint in
    seconds (the ``Retry-After`` header).
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(ServiceError):
    """The request missed its deadline while queued or executing (HTTP 504)."""


class ServiceUnavailableError(ServiceError):
    """The service cannot take the request in its current lifecycle state
    (starting/recovering, draining, or stopped).  Maps to HTTP 503."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceReadOnlyError(ServiceUnavailableError):
    """Writes are refused: the commit circuit breaker is open.

    The service degraded to read-only after repeated commit failures instead
    of dying; reads keep being served from the last published epoch.
    ``retry_after`` is the remaining breaker cooldown.
    """


class DurabilityError(ReproError):
    """Raised by the durability layer for invalid WAL/checkpoint operations."""


class RecoveryError(DurabilityError):
    """Raised when crash recovery cannot reconstruct a consistent session.

    Recovery never guesses: a WAL or checkpoint whose damage cannot be
    proven to be an uncommitted tail (torn final record) fails loudly with
    this error instead of returning a possibly-wrong match set.
    """
