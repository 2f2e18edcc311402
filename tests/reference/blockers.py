"""Four classic blockers no entry point uses: key-based, multi-pass,
sorted-neighborhood and token blocking.

No CLI flag, workload, paper figure or example builds a cover with any of
them — every entry point blocks with :class:`repro.blocking.CanopyBlocker` —
so they live here, out of ``src/``, beside the other references; the blocker
tests still pin their covers, and they plug into :class:`MultiPassBlocker`
like any :class:`~repro.blocking.Blocker`.

* Standard blocking: entities are grouped by the value of a blocking key
  (the Soundex code of the last name, or its first letter) — the "simple,
  heuristic grouping criteria" of the paper's Appendix D.
* Multi-pass blocking: the union of several blockers' covers, so that every
  true match is more likely to share at least one block.
* Sorted-neighborhood: entities are sorted by a key (typically
  ``lname + fname``) and a fixed-size window is slid over the sorted order;
  each window position becomes a neighborhood.  Bounded neighborhood sizes,
  at the cost of missing matches whose keys sort far apart.
* Token blocking: every entity is placed in one block per token of its text
  attributes; tokens in too many entities are dropped.  High-recall covers
  with many overlapping neighborhoods.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.blocking import Blocker, Cover, Neighborhood
from repro.datamodel import Entity, EntityStore
from repro.similarity import EntityProfileIndex
from repro.similarity.ngram import word_tokens
from repro.similarity.phonetic import soundex

#: A blocking key function maps an entity to one key.
KeyFunction = Callable[[Entity], str]

# Per profile index: the blocking keys and word tokens derived so far, so the
# passes of one multi-pass build derive each once per entity.
_memos: "weakref.WeakKeyDictionary[EntityProfileIndex, Tuple[Dict, Dict]]" = \
    weakref.WeakKeyDictionary()


def _memo(profiles: EntityProfileIndex) -> Tuple[Dict, Dict]:
    memo = _memos.get(profiles)
    if memo is None:
        memo = _memos[profiles] = ({}, {})
    return memo


def cached_key(profiles: EntityProfileIndex, key: Callable[[Entity], object],
               entity: Entity) -> object:
    """Memoized blocking-key value, keyed by (key function, entity).

    The entity itself is the memo key (its equality includes the
    attributes), so an index reused across stores that recycle entity ids
    can never serve a stale key.
    """
    keys = _memo(profiles)[0]
    try:
        return keys[key, entity]
    except KeyError:
        value = keys[key, entity] = key(entity)
        return value


def word_tokens_of(profiles: EntityProfileIndex, entity: Entity,
                   attributes: Sequence[str]) -> Set[str]:
    """Memoized union of :func:`word_tokens` over the given attributes."""
    tokens_of = _memo(profiles)[1]
    memo_key = (entity, tuple(attributes))
    try:
        return tokens_of[memo_key]
    except KeyError:
        tokens: Set[str] = set()
        for attribute in attributes:
            tokens.update(word_tokens(str(entity.get(attribute, ""))))
        tokens_of[memo_key] = tokens
        return tokens


def last_name_initial_key(entity: Entity) -> str:
    """Blocking key: first letter of the (lower-cased) last name."""
    last = str(entity.get("lname", "")).strip().lower()
    return last[:1] if last else "?"


def last_name_soundex_key(entity: Entity) -> str:
    """Blocking key: Soundex code of the last name."""
    return soundex(str(entity.get("lname", "")))


class StandardBlocker(Blocker):
    """Group entities by one blocking key value per entity."""

    def __init__(self, key: KeyFunction = last_name_soundex_key,
                 entity_type: Optional[str] = "author",
                 max_block_size: Optional[int] = None):
        self.key = key
        self.entity_type = entity_type
        self.max_block_size = max_block_size

    def build_cover(self, store: EntityStore, profiles=None) -> Cover:
        if self.entity_type is not None:
            entities = store.entities_of_type(self.entity_type)
        else:
            entities = store.entities()
        derive = self.key if profiles is None else \
            (lambda entity: cached_key(profiles, self.key, entity))
        blocks: Dict[str, List[str]] = {}
        for entity in sorted(entities, key=lambda e: e.entity_id):
            blocks.setdefault(derive(entity), []).append(entity.entity_id)
        groups: List[List[str]] = []
        for key in sorted(blocks):
            members = blocks[key]
            if self.max_block_size is None or len(members) <= self.max_block_size:
                groups.append(members)
            else:
                # Oversized blocks are split; splitting can lose cross-chunk
                # pairs, the classic blocking/recall trade-off.
                for start in range(0, len(members), self.max_block_size):
                    groups.append(members[start:start + self.max_block_size])
        return self._make_neighborhoods(groups, prefix="block-")


class MultiPassBlocker(Blocker):
    """Union of the covers produced by several blockers."""

    def __init__(self, blockers: Sequence[Blocker]):
        if not blockers:
            raise ValueError("MultiPassBlocker needs at least one blocker")
        self.blockers = list(blockers)

    def build_cover(self, store: EntityStore, profiles=None) -> Cover:
        if profiles is None:
            # One shared index so the passes reuse cached keys/tokenizations.
            profiles = EntityProfileIndex(store.entities())
        neighborhoods: List[Neighborhood] = []
        seen_membership: Set[frozenset] = set()
        for pass_index, blocker in enumerate(self.blockers):
            for neighborhood in blocker.build_cover(store, profiles=profiles):
                membership = frozenset(neighborhood.entity_ids)
                if membership in seen_membership:
                    continue
                seen_membership.add(membership)
                neighborhoods.append(
                    Neighborhood(f"pass{pass_index}-{neighborhood.name}", membership)
                )
        return Cover(neighborhoods)


def full_name_sort_key(entity: Entity) -> str:
    """Default sort key: normalised ``lname fname``."""
    last = str(entity.get("lname", "")).strip().lower()
    first = str(entity.get("fname", "")).strip().lower()
    return f"{last} {first}"


class SortedNeighborhoodBlocker(Blocker):
    """Sliding-window blocking over a sorted key order.

    Parameters
    ----------
    window_size:
        Number of consecutive entities per neighborhood (≥ 2).
    step:
        Offset between consecutive windows; ``step < window_size`` makes the
        windows overlap, which is required for the result to behave like a
        cover rather than a partition.
    """

    def __init__(self, window_size: int = 10, step: Optional[int] = None,
                 key: KeyFunction = full_name_sort_key,
                 entity_type: Optional[str] = "author"):
        if window_size < 2:
            raise ValueError("window_size must be >= 2")
        self.window_size = window_size
        self.step = step if step is not None else max(1, window_size // 2)
        if self.step < 1:
            raise ValueError("step must be >= 1")
        self.key = key
        self.entity_type = entity_type

    def build_cover(self, store: EntityStore, profiles=None) -> Cover:
        if self.entity_type is not None:
            entities = store.entities_of_type(self.entity_type)
        else:
            entities = store.entities()
        derive = self.key if profiles is None else \
            (lambda entity: cached_key(profiles, self.key, entity))
        ordered = sorted(entities, key=lambda e: (derive(e), e.entity_id))
        ids = [entity.entity_id for entity in ordered]
        if not ids:
            return Cover([])
        groups: List[List[str]] = []
        start = 0
        while True:
            window = ids[start:start + self.window_size]
            if window:
                groups.append(window)
            if start + self.window_size >= len(ids):
                break
            start += self.step
        return self._make_neighborhoods(groups, prefix="window-")


class TokenBlocker(Blocker):
    """Block on word tokens of selected attributes."""

    def __init__(self, attributes: Sequence[str] = ("lname",),
                 entity_type: Optional[str] = "author",
                 max_block_size: int = 200, min_token_length: int = 2):
        if max_block_size < 2:
            raise ValueError("max_block_size must be >= 2")
        self.attributes = tuple(attributes)
        self.entity_type = entity_type
        self.max_block_size = max_block_size
        self.min_token_length = min_token_length

    def _tokens(self, entity: Entity, profiles=None) -> Set[str]:
        if profiles is not None:
            tokens: Set[str] = word_tokens_of(profiles, entity, self.attributes)
        else:
            tokens = set()
            for attribute in self.attributes:
                tokens.update(word_tokens(str(entity.get(attribute, ""))))
        return {t for t in tokens if len(t) >= self.min_token_length}

    def build_cover(self, store: EntityStore, profiles=None) -> Cover:
        if self.entity_type is not None:
            entities = store.entities_of_type(self.entity_type)
        else:
            entities = store.entities()
        blocks: Dict[str, List[str]] = {}
        for entity in sorted(entities, key=lambda e: e.entity_id):
            tokens = self._tokens(entity, profiles)
            if not tokens:
                continue
            for token in tokens:
                blocks.setdefault(token, []).append(entity.entity_id)
        groups: List[List[str]] = [
            members for token, members in sorted(blocks.items())
            if len(members) <= self.max_block_size
        ]
        # Entities whose every token was dropped (or that had no tokens) still
        # need to be covered; give each a singleton neighborhood.
        covered = {entity_id for group in groups for entity_id in group}
        for entity in sorted(entities, key=lambda e: e.entity_id):
            if entity.entity_id not in covered:
                groups.append([entity.entity_id])
        return self._make_neighborhoods(groups, prefix="token-")
