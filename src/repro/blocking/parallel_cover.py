"""Parallel cover construction: sharded canopies and boundary expansion.

PR 2 made inference incremental, which leaves cover construction as the
dominant cold-start cost.  :class:`ParallelCoverBuilder` runs the two stages
of the paper's cover pipeline (Section 4) through the executor hierarchy of
:mod:`repro.parallel.executor`:

* **Canopy centers** are processed in *speculative waves*: a canopy is a pure
  function of its center (membership never depends on which entities are
  still candidate centers), so the builder scores the canopies of the next
  ``wave_size`` potential centers in parallel, then replays the sequential
  acceptance sweep over the wave — discarding the speculative canopies of
  centers that an earlier wave member's tight threshold removed.  The
  accepted-center sequence is therefore *identical* to
  :meth:`CanopyBlocker.sweep`, and so is the cover, byte for byte.

* **Boundary expansion** is embarrassingly parallel: neighborhoods are
  chunked across workers and merged back in cover order.

Worker payloads are small and picklable (normalized name parts, candidate id
lists, relation objects), so all of ``serial``/``threads``/``processes``
executors work; parity across executors is asserted in
``tests/test_parallel_cover.py``.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from typing import TYPE_CHECKING

from ..datamodel import EntityStore, Relation
from ..kernels.names import canopy_sweep, pilot_rows
from ..similarity.name_similarity import AuthorNameSimilarity, DEFAULT_AUTHOR_SIMILARITY

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..parallel.executor import Executor
from ..similarity.profiles import EntityProfileIndex, ProfiledNameScorer
from .base import Blocker
from .boundary import attach_leftover_singletons, expand_members, validate_total
from .canopy import CanopyBlocker, author_name_cheap_similarity, split_canopy
from .cover import Cover, Neighborhood

#: Worker result shapes: ``(canopy, removed)`` and expanded member sets.
FrozenSetPair = Tuple[frozenset, frozenset]
FrozenSetMembers = frozenset


def score_canopy_chunk(center_ids: Sequence,
                       center_tokens: Mapping,
                       parts: Mapping,
                       postings: Mapping[str, Sequence],
                       similarity: AuthorNameSimilarity,
                       loose: float, tight: float, pilot: float
                       ) -> List[Tuple[object, FrozenSetPair]]:
    """Worker: canopy + removed sets for each center in the chunk.

    Module-level and driven by picklable payloads so it runs under the
    process executor.  Candidate generation (token postings union) happens
    in the worker — the postings index is far smaller than the candidate
    lists it expands to — and scoring goes through the same
    :class:`~repro.similarity.profiles.ProfiledNameScorer` the serial
    profiled path uses, so scores are bitwise identical.  Entities are keyed
    by entity-id strings for dict stores and by interned integer indices for
    compact stores (the payloads are then a fraction of the size); the
    scorer is generic over the key type.
    """
    # One leg per chunk, chosen from the whole build's ``pilot`` rows: the
    # legs are bit-exact, so chunk results are identical across backends
    # (and therefore mixed fleets).
    scores = canopy_sweep(ProfiledNameScorer(parts, similarity), postings, pilot)
    results: List[Tuple[object, FrozenSetPair]] = []
    for center_id in center_ids:
        canopy, removed = split_canopy(
            center_id, scores(center_id, center_tokens[center_id], loose), tight)
        results.append((center_id, (frozenset(canopy), frozenset(removed))))
    return results


def expand_chunk(named_members: Sequence[Tuple[str, Tuple[str, ...]]],
                 relations: Sequence[Relation],
                 rounds: int) -> List[Tuple[str, FrozenSetMembers]]:
    """Worker: boundary-expand each ``(name, member ids)`` neighborhood."""
    return [(name, frozenset(expand_members(relations, members, rounds)))
            for name, members in named_members]


class ParallelCoverBuilder:
    """Builds total covers with a parallel map phase and deterministic merge.

    Parameters
    ----------
    blocker:
        The base cover builder; defaults to :class:`CanopyBlocker`.  Canopy
        center sharding requires a :class:`CanopyBlocker` with the default
        (author-name) similarity; any other blocker or canopy similarity
        falls back to the blocker's own ``build_cover`` for the base cover,
        with boundary expansion still parallelised.
    executor:
        An :class:`~repro.parallel.executor.Executor`, a spec string
        (``"serial"``/``"threads"``/``"processes"``), or ``None`` for serial.
    workers:
        Pool size when ``executor`` is a spec string; also the sharding
        factor for chunking work.
    wave_size:
        Number of speculative canopy centers scored per parallel wave;
        ``None`` (the default) speculates on every potential center in one
        wave, which minimises dispatch/payload overhead at the cost of
        computing canopies for centers a tight-threshold removal would have
        skipped.  Small waves curb that waste when removals are dense (tight
        threshold close to loose).
    relation_names / rounds / validate:
        As in :func:`repro.blocking.boundary.build_total_cover`.
    """

    def __init__(self, blocker: Optional[Blocker] = None,
                 executor: Union["Executor", str, None] = None,
                 workers: Optional[int] = None,
                 wave_size: Optional[int] = None,
                 relation_names: Optional[Iterable[str]] = None,
                 rounds: int = 1, validate: bool = True):
        # Imported lazily: repro.parallel imports from repro.core, which
        # imports this package.
        from ..parallel.executor import SerialExecutor, make_executor
        self.blocker = blocker if blocker is not None else CanopyBlocker()
        if executor is None:
            self.executor: "Executor" = SerialExecutor()
        elif isinstance(executor, str):
            self.executor = make_executor(executor, workers)
        else:
            self.executor = executor
        self.workers = workers if workers is not None else \
            max(1, getattr(self.executor, "workers", 1))
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if wave_size is not None and wave_size < 1:
            raise ValueError("wave_size must be >= 1")
        self.wave_size = wave_size
        self.relation_names = list(relation_names) if relation_names is not None else None
        self.rounds = rounds
        self.validate = validate

    # ------------------------------------------------------------- map phase
    def _map(self, tasks: Sequence) -> Dict:
        return self.executor.map_tasks(tasks)

    @staticmethod
    def _chunks(items: Sequence, count: int) -> List[Sequence]:
        """Split ``items`` into at most ``count`` contiguous, near-even chunks."""
        if not items:
            return []
        count = min(count, len(items))
        size, extra = divmod(len(items), count)
        chunks, start = [], 0
        for index in range(count):
            end = start + size + (1 if index < extra else 0)
            chunks.append(items[start:end])
            start = end
        return chunks

    # ----------------------------------------------------------- base cover
    def _supports_sharded_canopies(self) -> bool:
        return (isinstance(self.blocker, CanopyBlocker)
                and self.blocker.similarity is author_name_cheap_similarity)

    def build_cover(self, store: EntityStore,
                    profiles: Optional[EntityProfileIndex] = None) -> Cover:
        """The base (canopy) cover, with centers scored in parallel waves."""
        if not self._supports_sharded_canopies():
            return self.blocker.build_cover(store, profiles=profiles)

        blocker: CanopyBlocker = self.blocker
        entities = blocker.clustered_entities(store)
        index = blocker.profile_index(entities, profiles)
        # Against a CompactStore the whole pipeline runs in the snapshot's
        # interned integer id space: candidate postings, name parts and the
        # worker payloads carry small ints instead of entity-id strings, and
        # only the accepted canopies are decoded back at the end.  The scorer
        # is generic over the key type, so covers are identical either way.
        interner = getattr(store, "interner", None)
        if interner is not None:
            space = index.interned_space(interner)
            parts = space.parts
            postings = space.postings

            def tokens_of(center_id):
                return space.tokens[center_id]

            def text_of(center_id):
                return index.profile(interner.id_of(center_id)).text

            decode = space.decode
            order = [interner.index_of(entity_id)
                     for entity_id in blocker.shuffled_order(entities)]
        else:
            parts = index.name_parts()
            postings = {token: tuple(ids) for token, ids in index.postings.items()}

            def tokens_of(center_id):
                return tuple(index.profile(center_id).token_set)

            def text_of(center_id):
                return index.profile(center_id).text

            decode = set
            order = blocker.shuffled_order(entities)
        wave_size = self.wave_size if self.wave_size is not None else len(order)
        # Chunks are name-sorted runs of any length: the pilot that picks
        # their kernel leg is taken here, over the sweep order.
        pilot = pilot_rows(postings, map(tokens_of, order))

        # Entities with identical raw text AND identical normalized parts are
        # fully interchangeable: same token set (hence the same candidate
        # relationships, in both directions) and same scores against
        # everything.  Such a group leaves (or stays in) the candidate-center
        # pool together, and — provided the group's tokens are non-empty, so
        # its members actually appear in each other's candidate sets — a
        # group whose self-score reaches the tight threshold has its first
        # member in sweep order remove all the others; speculating on them
        # would be pure waste.  Grouping by parts alone would be unsound:
        # normalize_name_part strips characters the tokenizer keeps, so
        # equal parts do not imply shared tokens.
        similarity = DEFAULT_AUTHOR_SIMILARITY
        self_removing: Dict[Tuple[str, str], bool] = {}

        def removes_own_group(center_id) -> bool:
            if not tokens_of(center_id):
                # Token-less entities never appear in any candidate set, so
                # nothing — not even an identical twin — can remove them.
                return False
            key = parts[center_id]
            flag = self_removing.get(key)
            if flag is None:
                first, last = key
                flag = similarity.score_normalized(first, last, first, last) \
                    >= blocker.tight_threshold
                self_removing[key] = flag
            return flag

        remaining: Set = set(order)
        canopies: List[Set[str]] = []
        position = 0
        while position < len(order):
            # Collect the next wave of still-available potential centers.
            wave: List = []
            seen_groups: Set[Tuple[str, Tuple[str, str]]] = set()
            while position < len(order) and len(wave) < wave_size:
                center_id = order[position]
                position += 1
                if center_id not in remaining:
                    continue
                group = (text_of(center_id), parts[center_id])
                if group in seen_groups and removes_own_group(center_id):
                    # An earlier wave member with identical text and parts
                    # removes this entity before its turn could ever come.
                    continue
                seen_groups.add(group)
                wave.append(center_id)
            if not wave:
                continue
            # Chunk assignment is free to differ from sweep order: group
            # centers by name so each worker's candidates (and therefore its
            # Jaro-Winkler memo entries) stay chunk-local instead of every
            # worker re-deriving the same cross-cutting distinct pairs.
            by_name = sorted(wave, key=lambda cid: (parts[cid][1], parts[cid][0], cid))
            tasks = []
            for chunk_index, chunk in enumerate(self._chunks(by_name, self.workers)):
                center_tokens = {
                    center_id: tokens_of(center_id)
                    for center_id in chunk
                }
                tasks.append(
                    (f"canopy-chunk-{chunk_index}",
                     functools.partial(score_canopy_chunk, chunk, center_tokens,
                                       parts, postings,
                                       DEFAULT_AUTHOR_SIMILARITY,
                                       blocker.loose_threshold,
                                       blocker.tight_threshold, pilot)))
            speculated: Dict = {}
            for chunk_result in self._map(tasks).values():
                speculated.update(chunk_result)
            # Sequential replay of the acceptance sweep over the wave: a
            # speculative canopy is discarded when an earlier wave member's
            # tight threshold already removed its center.
            for center_id in wave:
                if center_id not in remaining:
                    continue
                canopy, removed = speculated[center_id]
                remaining -= removed
                canopies.append(decode(canopy))

        return blocker.canopy_cover(entities, canopies)

    # ------------------------------------------------------------- expansion
    def expand(self, cover: Cover, store: EntityStore) -> Cover:
        """Boundary-expand ``cover`` with neighborhoods sharded across workers."""
        names = self.relation_names if self.relation_names is not None \
            else store.relation_names()
        relations = [store.relation(name) for name in names]
        named_members = [(neighborhood.name, tuple(sorted(neighborhood.entity_ids)))
                         for neighborhood in cover]
        tasks = [
            (f"expand-chunk-{chunk_index}",
             functools.partial(expand_chunk, chunk, relations, self.rounds))
            for chunk_index, chunk in enumerate(self._chunks(named_members, self.workers))
        ]
        expanded_by_name: Dict[str, frozenset] = {}
        for chunk_result in self._map(tasks).values():
            expanded_by_name.update(chunk_result)
        expanded = [Neighborhood(neighborhood.name, expanded_by_name[neighborhood.name])
                    for neighborhood in cover]
        return attach_leftover_singletons(expanded, store)

    # ---------------------------------------------------------------- pipeline
    def build_total_cover(self, store: EntityStore,
                          profiles: Optional[EntityProfileIndex] = None) -> Cover:
        """Parallel base cover + parallel boundary expansion (+ validation)."""
        with self.executor:
            total = self.expand(self.build_cover(store, profiles), store)
        if self.validate:
            validate_total(total, store, self.relation_names)
        return total
