"""Blocker interface.

A *blocker* turns an :class:`~repro.datamodel.store.EntityStore` into a
:class:`~repro.blocking.cover.Cover`.  Concrete blockers are Canopy
clustering (the one used in the paper) and standard key-based blocking.
Blockers only group entities; turning the cover into a *total* cover is the
job of
:func:`repro.blocking.boundary.expand_to_total_cover`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from ..datamodel import Entity, EntityStore
from .cover import Cover, Neighborhood

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from ..similarity.profiles import EntityProfileIndex


class Blocker(abc.ABC):
    """Abstract base class of all cover builders."""

    @abc.abstractmethod
    def build_cover(self, store: EntityStore,
                    profiles: Optional["EntityProfileIndex"] = None) -> Cover:
        """Build a cover of the entities in ``store``.

        ``profiles`` may supply a prebuilt
        :class:`~repro.similarity.profiles.EntityProfileIndex` so repeated
        builds (or multi-pass pipelines) share tokenizations and cached
        blocking keys; blockers must produce the same cover with or without
        it.
        """

    @staticmethod
    def _make_neighborhoods(groups: Iterable[Iterable[str]], prefix: str) -> Cover:
        """Helper turning groups of entity ids into a named cover.

        Singleton groups are kept: every entity must appear in some
        neighborhood for the result to be a cover (the framework later skips
        neighborhoods that cannot produce pairs).
        """
        neighborhoods: List[Neighborhood] = []
        for index, group in enumerate(groups):
            ids = frozenset(group)
            if not ids:
                continue
            neighborhoods.append(Neighborhood(f"{prefix}{index}", ids))
        return Cover(neighborhoods)


#: A blocking key function maps an entity to one key.
KeyFunction = Callable[[Entity], str]
