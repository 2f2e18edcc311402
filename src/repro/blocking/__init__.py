"""Blocking and covering: neighborhoods, covers, total covers (Section 4)."""

from .base import Blocker
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

__all__ = [
    "Blocker",
    "CanopyBlocker",
    "Cover",
    "Neighborhood",
    "author_name_cheap_similarity",
    "build_total_cover",
    "expand_members",
    "expand_to_total_cover",
    "neighborhood_boundary",
    "relations_boundary",
    "validate_total",
]
