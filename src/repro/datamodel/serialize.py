"""JSON serialisation of an :class:`EntityStore` instance.

One canonical layout (entities / relations / similarity edges, all sorted)
shared by the dataset loader and the durability layer's checkpoints, so a
store always round-trips bit-for-bit regardless of which component wrote it.
"""

from __future__ import annotations

from typing import Dict

from .entity import Entity
from .pair import EntityPair
from .relation import Relation
from .store import EntityStore


def store_to_dict(store) -> Dict:
    """Serialise the full instance (any store exposing the read interface)."""
    return {
        "entities": [
            {
                "id": entity.entity_id,
                "type": entity.entity_type,
                "attributes": dict(entity.attributes),
            }
            for entity in sorted(store, key=lambda e: e.entity_id)
        ],
        "relations": [
            {
                "name": relation.name,
                "arity": relation.arity,
                "symmetric": relation.symmetric,
                "tuples": sorted(list(tup) for tup in relation),
            }
            for relation in store.relations()
        ],
        "similar": [
            {
                "first": edge.pair.first,
                "second": edge.pair.second,
                "score": edge.score,
                "level": edge.level,
            }
            for edge in sorted(store.similarity_edges(),
                               key=lambda e: (e.pair.first, e.pair.second))
        ],
    }


def store_from_dict(payload: Dict) -> EntityStore:
    """Rebuild a dict store from the layout of :func:`store_to_dict`."""
    store = EntityStore()
    for record in payload["entities"]:
        store.add_entity(Entity(record["id"], record["type"], record["attributes"]))
    for record in payload["relations"]:
        relation = Relation(record["name"], record["arity"], record["symmetric"])
        for tup in record["tuples"]:
            relation.add(*tup)
        store.add_relation(relation)
    for record in payload["similar"]:
        store.add_similarity(EntityPair.of(record["first"], record["second"]),
                             record["score"], record["level"])
    return store
