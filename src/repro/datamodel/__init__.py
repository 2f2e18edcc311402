"""Entity/relation data model shared by every component of the library."""

from .compact import (CompactRelation, CompactStore, EntityInterner, InducedRelation,
                      StoreView)
from .entity import AUTHOR_TYPE, PAPER_TYPE, Entity, entities_by_type, make_author, make_paper
from .evidence import Evidence
from .match_set import DisjointSets, MatchSet
from .pair import EntityPair, all_pairs, pairs_from, pairs_involving
from .relation import (
    AUTHORED,
    CITES,
    COAUTHOR,
    SIMILAR,
    Relation,
    coauthor_from_authored,
)
from .serialize import store_from_dict, store_to_dict
from .store import EntityStore, SimilarityEdge

__all__ = [
    "AUTHOR_TYPE",
    "PAPER_TYPE",
    "AUTHORED",
    "CITES",
    "COAUTHOR",
    "SIMILAR",
    "CompactRelation",
    "CompactStore",
    "DisjointSets",
    "Entity",
    "EntityInterner",
    "EntityPair",
    "EntityStore",
    "Evidence",
    "InducedRelation",
    "MatchSet",
    "Relation",
    "SimilarityEdge",
    "StoreView",
    "all_pairs",
    "coauthor_from_authored",
    "entities_by_type",
    "make_author",
    "make_paper",
    "pairs_from",
    "pairs_involving",
    "store_from_dict",
    "store_to_dict",
]
