"""The delta model: instance mutations, change batches and delta logs.

Continuously-arriving data reaches the standing matcher as a stream of
*deltas* — add/update/remove an entity, add/remove a relation tuple, upsert/
remove a similarity edge, assert/retract external match evidence.  Deltas are
grouped into :class:`ChangeBatch` units (one batch = one maintenance round of
the standing match set) and a :class:`DeltaLog` is an ordered sequence of
batches that can be saved to / replayed from a JSON file by the ``stream``
CLI subcommand.

Every delta is a small frozen dataclass; :func:`op_to_dict` /
:func:`op_from_dict` define the stable JSON wire format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Union

from ..atomicio import atomic_write_json
from ..datamodel import Entity, EntityPair
from ..exceptions import DeltaError

PathLike = Union[str, Path]

_TRACE_FORMAT_VERSION = 1


# --------------------------------------------------------------------- deltas
@dataclass(frozen=True)
class AddEntity:
    """Register a new entity (error if the id already exists)."""

    entity: Entity
    op = "add_entity"


@dataclass(frozen=True)
class UpdateEntity:
    """Replace the attributes of an existing entity (same id and type)."""

    entity: Entity
    op = "update_entity"


@dataclass(frozen=True)
class RemoveEntity:
    """Remove an entity; incident tuples, similarity edges and evidence
    cascade away with it."""

    entity_id: str
    op = "remove_entity"


@dataclass(frozen=True)
class AddTuple:
    """Add one tuple to a named relation (idempotent)."""

    relation: str
    members: Tuple[str, ...]
    op = "add_tuple"


@dataclass(frozen=True)
class RemoveTuple:
    """Remove one tuple from a named relation (no-op when absent)."""

    relation: str
    members: Tuple[str, ...]
    op = "remove_tuple"


@dataclass(frozen=True)
class UpsertSimilarity:
    """Add or update the similarity edge of a pair.

    Out-of-range values are refused here, at parse time, so they can never
    reach a write-ahead log that every later recovery would replay.
    """

    pair: EntityPair
    score: float
    level: int
    op = "upsert_similarity"

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:    # NaN fails this too
            raise DeltaError(f"similarity score must be in [0, 1], "
                             f"got {self.score!r}")
        if self.level not in (1, 2, 3):
            raise DeltaError(f"similarity level must be 1, 2 or 3, "
                             f"got {self.level!r}")


@dataclass(frozen=True)
class RemoveSimilarity:
    """Remove the similarity edge of a pair (no-op when absent)."""

    pair: EntityPair
    op = "remove_similarity"


@dataclass(frozen=True)
class AddEvidence:
    """Assert standing external evidence for a pair.

    ``polarity`` is ``"positive"`` (known match) or ``"negative"`` (known
    non-match).
    """

    pair: EntityPair
    polarity: str
    op = "add_evidence"

    def __post_init__(self) -> None:
        if self.polarity not in ("positive", "negative"):
            raise DeltaError(f"evidence polarity must be positive/negative, "
                             f"got {self.polarity!r}")


@dataclass(frozen=True)
class RemoveEvidence:
    """Retract standing external evidence for a pair (no-op when absent)."""

    pair: EntityPair
    polarity: str
    op = "remove_evidence"

    def __post_init__(self) -> None:
        if self.polarity not in ("positive", "negative"):
            raise DeltaError(f"evidence polarity must be positive/negative, "
                             f"got {self.polarity!r}")


Delta = Union[AddEntity, UpdateEntity, RemoveEntity, AddTuple, RemoveTuple,
              UpsertSimilarity, RemoveSimilarity, AddEvidence, RemoveEvidence]


# -------------------------------------------------------------------- batches
@dataclass
class ChangeBatch:
    """An ordered group of deltas applied (and re-matched) as one unit."""

    ops: List[Delta] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Delta]:
        return iter(self.ops)

    def append(self, delta: Delta) -> None:
        self.ops.append(delta)

    def is_empty(self) -> bool:
        return not self.ops


@dataclass
class DeltaLog:
    """An ordered sequence of change batches — a replayable delta trace."""

    batches: List[ChangeBatch] = field(default_factory=list)
    name: str = "delta-log"

    def __len__(self) -> int:
        return len(self.batches)

    def __iter__(self) -> Iterator[ChangeBatch]:
        return iter(self.batches)

    def append(self, batch: ChangeBatch) -> None:
        self.batches.append(batch)

    def op_count(self) -> int:
        return sum(len(batch) for batch in self.batches)


# ------------------------------------------------------------ JSON round-trip
def op_to_dict(delta: Delta) -> Dict:
    """Serialise one delta to its JSON wire form."""
    if isinstance(delta, (AddEntity, UpdateEntity)):
        return {"op": delta.op, "id": delta.entity.entity_id,
                "type": delta.entity.entity_type,
                "attributes": dict(delta.entity.attributes)}
    if isinstance(delta, RemoveEntity):
        return {"op": delta.op, "id": delta.entity_id}
    if isinstance(delta, (AddTuple, RemoveTuple)):
        return {"op": delta.op, "relation": delta.relation,
                "members": list(delta.members)}
    if isinstance(delta, UpsertSimilarity):
        return {"op": delta.op, "first": delta.pair.first,
                "second": delta.pair.second, "score": delta.score,
                "level": delta.level}
    if isinstance(delta, RemoveSimilarity):
        return {"op": delta.op, "first": delta.pair.first,
                "second": delta.pair.second}
    if isinstance(delta, (AddEvidence, RemoveEvidence)):
        return {"op": delta.op, "first": delta.pair.first,
                "second": delta.pair.second, "polarity": delta.polarity}
    raise DeltaError(f"unknown delta type: {type(delta).__name__}")


def op_from_dict(record: Dict) -> Delta:
    """Rebuild one delta from its JSON wire form."""
    try:
        op = record["op"]
        if op in ("add_entity", "update_entity"):
            entity = Entity(record["id"], record["type"],
                            dict(record.get("attributes", {})))
            return AddEntity(entity) if op == "add_entity" else UpdateEntity(entity)
        if op == "remove_entity":
            return RemoveEntity(record["id"])
        if op in ("add_tuple", "remove_tuple"):
            cls = AddTuple if op == "add_tuple" else RemoveTuple
            return cls(record["relation"], tuple(record["members"]))
        if op == "upsert_similarity":
            return UpsertSimilarity(EntityPair.of(record["first"], record["second"]),
                                    float(record["score"]), int(record["level"]))
        if op == "remove_similarity":
            return RemoveSimilarity(EntityPair.of(record["first"], record["second"]))
        if op in ("add_evidence", "remove_evidence"):
            cls = AddEvidence if op == "add_evidence" else RemoveEvidence
            return cls(EntityPair.of(record["first"], record["second"]),
                       record["polarity"])
    except KeyError as missing:
        raise DeltaError(f"delta record missing field {missing}") from None
    except (TypeError, ValueError) as error:
        raise DeltaError(f"malformed delta record: {error}") from None
    raise DeltaError(f"unknown delta op {op!r}")


def log_to_dict(log: DeltaLog) -> Dict:
    return {
        "format_version": _TRACE_FORMAT_VERSION,
        "name": log.name,
        "batches": [[op_to_dict(delta) for delta in batch] for batch in log],
    }


def log_from_dict(payload: Dict) -> DeltaLog:
    batches = payload.get("batches") if isinstance(payload, dict) else None
    if not isinstance(batches, list) \
            or not all(isinstance(batch, list) for batch in batches):
        raise DeltaError("not a delta trace: no list of op lists in 'batches'")
    version = payload.get("format_version")
    if version != _TRACE_FORMAT_VERSION:
        raise DeltaError(f"unsupported delta trace format version: {version!r}")
    return DeltaLog(
        batches=[ChangeBatch([op_from_dict(record) for record in batch])
                 for batch in batches],
        name=payload.get("name", "delta-log"),
    )


def save_delta_log(log: DeltaLog, path: PathLike) -> Path:
    """Write a delta trace to a JSON file atomically; returns the path written."""
    return atomic_write_json(path, log_to_dict(log), indent=1)


def load_delta_log(path: PathLike) -> DeltaLog:
    """Read a delta trace previously written by :func:`save_delta_log`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:  # not JSON, or not UTF-8
            raise DeltaError(f"not a JSON delta trace: {error}") from None
    return log_from_dict(payload)
