"""Reference canopy builder: the string-at-a-time path the profile index replaced.

``NaiveCanopyBlocker`` below carries what ``CanopyBlocker(use_profiles=False)``
ran, verbatim: every center re-tokenizes its own text against a plain
token -> entity-id index and scores each candidate through
:func:`~repro.blocking.canopy.author_name_cheap_similarity`, one full string
comparison per pair, no memo, no bound, no batch kernel.  Kept here, out of
``src/``, as the oracle :class:`repro.blocking.CanopyBlocker` is compared
against — both must build the identical cover for every store and threshold
pair.  Only the
per-center canopy function differs; center order and the acceptance sweep
are the inherited ones.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.blocking.canopy import CanopyBlocker, CanopyFn, author_name_cheap_similarity
from repro.datamodel import Entity, EntityStore
from repro.similarity.profiles import EntityProfileIndex, default_tokenizer


class NaiveCanopyBlocker(CanopyBlocker):
    """Canopy clustering over the author-name score, one pair at a time."""

    # ------------------------------------------------------------------ text
    def _entity_text(self, entity: Entity) -> str:
        parts = [str(entity.get(attr, "")) for attr in self.text_attributes]
        return " ".join(part for part in parts if part)

    def _build_inverted_index(self, entities: Sequence[Entity]) -> Dict[str, Set[str]]:
        """Token → entity-id inverted index used to pre-filter candidates."""
        index: Dict[str, Set[str]] = {}
        for entity in entities:
            for token in default_tokenizer(self._entity_text(entity)):
                index.setdefault(token, set()).add(entity.entity_id)
        return index

    def _candidates(self, entity: Entity, index: Dict[str, Set[str]]) -> Set[str]:
        candidates: Set[str] = set()
        for token in default_tokenizer(self._entity_text(entity)):
            candidates.update(index.get(token, ()))
        candidates.discard(entity.entity_id)
        return candidates

    # --------------------------------------------------------- canopy builders
    def canopy_factory(self, entities: Sequence[Entity],
                       profiles: Optional[EntityProfileIndex] = None) -> CanopyFn:
        """Build the per-center canopy function."""
        loose, tight = self.loose_threshold, self.tight_threshold

        by_id = {entity.entity_id: entity for entity in entities}
        index = self._build_inverted_index(entities)

        def score(a: str, b: str) -> float:
            return author_name_cheap_similarity(by_id[a], by_id[b])

        def naive_canopy(center_id: str) -> Tuple[Set[str], Set[str]]:
            canopy: Set[str] = {center_id}
            removed: Set[str] = {center_id}
            for candidate_id in self._candidates(by_id[center_id], index):
                if candidate_id not in by_id:
                    continue
                candidate_score = score(center_id, candidate_id)
                if candidate_score >= loose:
                    canopy.add(candidate_id)
                    if candidate_score >= tight:
                        removed.add(candidate_id)
            return canopy, removed

        return naive_canopy

    def _interner_for(self, store: EntityStore):
        """The reference never sweeps in the interned integer space."""
        return None
