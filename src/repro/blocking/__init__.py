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
from .standard import (
    MultiPassBlocker,
    StandardBlocker,
    last_name_initial_key,
    last_name_soundex_key,
)

__all__ = [
    "Blocker",
    "CanopyBlocker",
    "Cover",
    "KeyFunction",
    "MultiPassBlocker",
    "Neighborhood",
    "StandardBlocker",
    "author_name_cheap_similarity",
    "build_total_cover",
    "expand_members",
    "expand_to_total_cover",
    "last_name_initial_key",
    "last_name_soundex_key",
    "neighborhood_boundary",
    "relations_boundary",
    "validate_total",
]
