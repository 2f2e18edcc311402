"""Blocking and covering: neighborhoods, covers, total covers (Section 4)."""

from .base import Blocker, KeyFunction
from .boundary import (
    build_total_cover,
    expand_members,
    expand_to_total_cover,
    neighborhood_boundary,
    relations_boundary,
    validate_total,
)
from .canopy import CanopyBlocker, author_name_cheap_similarity
from .cover import Cover, Neighborhood
from .sorted_neighborhood import SortedNeighborhoodBlocker, full_name_sort_key
from .standard import (
    MultiPassBlocker,
    StandardBlocker,
    last_name_initial_key,
    last_name_soundex_key,
)
from .token_blocking import TokenBlocker

__all__ = [
    "Blocker",
    "CanopyBlocker",
    "Cover",
    "KeyFunction",
    "MultiPassBlocker",
    "Neighborhood",
    "SortedNeighborhoodBlocker",
    "StandardBlocker",
    "TokenBlocker",
    "author_name_cheap_similarity",
    "build_total_cover",
    "expand_members",
    "expand_to_total_cover",
    "full_name_sort_key",
    "last_name_initial_key",
    "last_name_soundex_key",
    "neighborhood_boundary",
    "relations_boundary",
    "validate_total",
]
