"""Precomputed per-entity profiles for the blocking front end.

Canopy construction repeatedly re-derives the same per-entity data from raw
strings: tokenizations for the candidate index and normalized name parts for
every similarity call.  An :class:`EntityProfileIndex` computes each of these
**once per entity** and the scorer on top memoizes the pair-level work, so
cover construction pays for string processing proportionally to the number
of *distinct* names instead of the number of comparisons.

Everything here is exact: the profiled scorer goes through the same
arithmetic as the raw-string path
(:meth:`AuthorNameSimilarity.score_normalized`), so covers built from
profiles are bitwise identical to covers built from raw strings — asserted
by the parity tests in ``tests/test_profiles.py``.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..datamodel import Entity
from .jaro import jaro_winkler_similarity
from .name_similarity import DEFAULT_AUTHOR_SIMILARITY, AuthorNameSimilarity, normalize_name_part
from .ngram import character_ngrams, word_tokens

Tokenizer = Callable[[str], List[str]]


def default_tokenizer(text: str) -> List[str]:
    """Word tokens plus character trigrams — a good default for person names."""
    return word_tokens(text) + character_ngrams(text.lower(), n=3, pad=False)


class EntityProfile:
    """Cached derived data of one entity: text, tokens, normalized name parts.

    Tokenization is lazy: blockers that only need keys or name parts (the
    standard key passes) never pay for it.
    """

    __slots__ = ("entity_id", "text", "norm_first", "norm_last",
                 "_tokenizer", "_tokens", "_token_set")

    def __init__(self, entity: Entity, text_attributes: Sequence[str],
                 tokenizer: Tokenizer):
        self.entity_id = entity.entity_id
        parts = [str(entity.get(attr, "")) for attr in text_attributes]
        self.text = " ".join(part for part in parts if part)
        self.norm_first = normalize_name_part(str(entity.get("fname", "")))
        self.norm_last = normalize_name_part(str(entity.get("lname", "")))
        self._tokenizer = tokenizer
        self._tokens: Optional[Tuple[str, ...]] = None
        self._token_set: Optional[FrozenSet[str]] = None

    @property
    def tokens(self) -> Tuple[str, ...]:
        if self._tokens is None:
            self._tokens = tuple(self._tokenizer(self.text))
        return self._tokens

    @property
    def token_set(self) -> FrozenSet[str]:
        if self._token_set is None:
            self._token_set = frozenset(self.tokens)
        return self._token_set

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EntityProfile({self.entity_id!r}, text={self.text!r})"


class EntityProfileIndex:
    """Profiles plus a token → entity-ids postings index for one entity set.

    The index is built for a fixed entity collection and text configuration
    (the same view a blocker has of the store); :meth:`matches` lets a
    blocker verify a caller-supplied index covers exactly its entity set
    before trusting it.
    """

    def __init__(self, entities: Iterable[Entity],
                 text_attributes: Sequence[str] = ("fname", "lname"),
                 tokenizer: Tokenizer = default_tokenizer):
        self.text_attributes = tuple(text_attributes)
        self.tokenizer = tokenizer
        self._profiles: Dict[str, EntityProfile] = {}
        self._postings: Optional[Dict[str, List[str]]] = None
        for entity in sorted(entities, key=lambda e: e.entity_id):
            self._profiles[entity.entity_id] = EntityProfile(
                entity, self.text_attributes, tokenizer)
        self._key_cache: Dict[Tuple[Callable, Entity], object] = {}
        self._word_token_cache: Dict[Tuple[Entity, Tuple[str, ...]], Set[str]] = {}
        self._name_parts: Optional[Dict[str, Tuple[str, str]]] = None
        self._interned: Optional[Tuple[int, "InternedProfileSpace"]] = None

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._profiles

    def profile(self, entity_id: str) -> EntityProfile:
        return self._profiles[entity_id]

    def matches(self, entity_ids: Iterable[str],
                text_attributes: Sequence[str],
                tokenizer: Tokenizer = default_tokenizer) -> bool:
        """Whether this index was built for exactly this entity set and text config."""
        return (self.text_attributes == tuple(text_attributes)
                and self.tokenizer is tokenizer
                and set(self._profiles) == set(entity_ids))

    # -------------------------------------------------------------- candidates
    @property
    def postings(self) -> Dict[str, List[str]]:
        """Token → sorted entity ids, built on first use."""
        if self._postings is None:
            postings: Dict[str, List[str]] = {}
            for entity_id, profile in self._profiles.items():
                for token in profile.token_set:
                    postings.setdefault(token, []).append(entity_id)
            self._postings = postings
        return self._postings

    # -------------------------------------------------------------- key memos
    def cached_key(self, key: Callable[[Entity], object], entity: Entity) -> object:
        """Memoized blocking-key value, keyed by (key function, entity).

        Lets multi-pass pipelines and repeated ``build_cover`` calls derive
        each key once per entity instead of once per pass.  The entity itself
        is the cache key (its equality includes the attributes), so an index
        accidentally reused across stores that recycle entity ids can never
        serve a stale key.
        """
        cache_key = (key, entity)
        try:
            return self._key_cache[cache_key]
        except KeyError:
            value = key(entity)
            self._key_cache[cache_key] = value
            return value

    def word_tokens_of(self, entity: Entity, attributes: Sequence[str]) -> Set[str]:
        """Memoized union of :func:`word_tokens` over the given attributes."""
        cache_key = (entity, tuple(attributes))
        try:
            return self._word_token_cache[cache_key]
        except KeyError:
            tokens: Set[str] = set()
            for attribute in attributes:
                tokens.update(word_tokens(str(entity.get(attribute, ""))))
            self._word_token_cache[cache_key] = tokens
            return tokens

    # --------------------------------------------------------------- scoring
    def name_parts(self) -> Dict[str, Tuple[str, str]]:
        """``entity_id → (norm_first, norm_last)`` — what
        :class:`ProfiledNameScorer` scores."""
        if self._name_parts is None:
            self._name_parts = {entity_id: (profile.norm_first, profile.norm_last)
                                for entity_id, profile in self._profiles.items()}
        return self._name_parts

    def interned_space(self, interner) -> "InternedProfileSpace":
        """This index re-keyed into a compact store's integer id space.

        Memoized per interner: a blocker working against a
        :class:`~repro.datamodel.CompactStore` builds the space once and all
        downstream structures (candidate sets, canopy sweeps) stay in
        integer space instead of re-keying by string ids.
        """
        if self._interned is not None and self._interned[0] == id(interner):
            return self._interned[1]
        space = InternedProfileSpace(self, interner)
        self._interned = (id(interner), space)
        return space


class InternedProfileSpace:
    """An :class:`EntityProfileIndex` re-keyed by interned integer indices.

    Everything a canopy construction needs — normalized name parts, token
    sets, the token → entities postings — keyed by the integer indices of a
    :class:`~repro.datamodel.EntityInterner` instead of entity-id strings.
    :class:`ProfiledNameScorer` is generic over its key type, so the *same*
    scoring code (and therefore bitwise-identical covers) runs over either
    key space; the integer space makes the hot candidate-set operations
    cheaper.
    """

    __slots__ = ("interner", "parts", "tokens", "postings")

    def __init__(self, index: EntityProfileIndex, interner):
        self.interner = interner
        parts: Dict[int, Tuple[str, str]] = {}
        tokens: Dict[int, Tuple[str, ...]] = {}
        for entity_id, profile in index._profiles.items():
            entity_index = interner.index_of(entity_id)
            parts[entity_index] = (profile.norm_first, profile.norm_last)
            tokens[entity_index] = tuple(sorted(profile.token_set))
        self.parts = parts
        self.tokens = tokens
        self.postings: Dict[str, Tuple[int, ...]] = {
            token: tuple(interner.index_of(entity_id) for entity_id in ids)
            for token, ids in index.postings.items()}

    def decode(self, indices: Iterable[int]) -> Set[str]:
        return set(self.interner.ids_of(indices))


class ProfiledNameScorer:
    """Memoized :class:`AuthorNameSimilarity` scoring over cached name parts.

    Scores are computed with :meth:`AuthorNameSimilarity.score_normalized`
    semantics but every Jaro-Winkler call is memoized on the (canonically
    ordered) normalized part pair — duplicate renderings of the same author
    across sources make the hit rate very high on bibliographic data.

    :meth:`score_at_least` adds the sound upper-bound prune: the first-name
    component is at most 1, so a pair whose last-name score alone cannot
    reach the threshold is rejected without touching the first names.
    """

    #: Default memo bound: far above any realistic distinct-pair count per
    #: scorer, so eviction only engages on pathological long-lived scorers.
    DEFAULT_MAX_MEMO_ENTRIES = 1 << 20

    def __init__(self, parts: Mapping[str, Tuple[str, str]],
                 similarity: AuthorNameSimilarity = DEFAULT_AUTHOR_SIMILARITY,
                 max_memo_entries: int = DEFAULT_MAX_MEMO_ENTRIES):
        if max_memo_entries < 1:
            raise ValueError("max_memo_entries must be >= 1")
        #: ``entity_id → (norm_first, norm_last)`` — see
        #: :meth:`EntityProfileIndex.name_parts`.
        self.parts = parts
        self.similarity = similarity
        self.max_memo_entries = max_memo_entries
        # name -> (memo, [hits, misses]).  Memos are plain dicts, so a hit is
        # one C-level ``dict.get``; the bound keeps long-lived scorers
        # (streaming, serving) from growing with every distinct pair ever
        # scored, evicting first-in, first-out (:meth:`_remember`).  Tallies
        # are plain ints; :meth:`canopy_scores` adds its own once per sweep.
        self._memos: Dict[str, Tuple[dict, List[int]]] = {
            name: ({}, [0, 0]) for name in ("memo_jw_last", "memo_jw_last_bound",
                                            "memo_jw_first", "memo_char_counts")}

    def memo_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss/occupancy of every memo (keys name the memoized value).

        The blocker exposes its last build's stats through
        :meth:`~repro.blocking.canopy.CanopyBlocker.memo_stats` and the
        framework folds them into the ``lru_cache_{hits,misses}_total``
        registry counters after each cover build.
        """
        return {name: {"hits": hits, "misses": misses, "entries": len(memo),
                       "capacity": self.max_memo_entries}
                for name, (memo, (hits, misses)) in self._memos.items()}

    def _remember(self, memo: dict, key, value):
        """Store a computed ``value``, evicting the oldest entry past the bound."""
        memo[key] = value
        if len(memo) > self.max_memo_entries:
            del memo[next(iter(memo))]
        return value

    def _memoized(self, name: str, key, compute, *args):
        memo, tally = self._memos[name]
        value = memo.get(key)
        if value is None:
            tally[1] += 1
            return self._remember(memo, key, compute(*args))
        tally[0] += 1
        return value

    def _char_counts_of(self, text: str) -> Counter:
        return self._memoized("memo_char_counts", text, Counter, text)

    def jaro_winkler_upper_bound(self, a: str, b: str) -> float:
        """A cheap, sound upper bound on ``jaro_winkler_similarity(a, b)``.

        Jaro's matched characters form a common sub-multiset of the two
        strings, so the multiset-intersection size bounds the match count;
        with zero transpositions assumed and the exact common-prefix length,
        the Winkler formula applied to that bound dominates the true score.
        When the bound is tight (all common characters match in order) the
        arithmetic below is the *same expression* the real implementation
        evaluates, so thresholding on the bound never disagrees with
        thresholding on the score.
        """
        if a == b:
            return 1.0
        if not a or not b:
            return 0.0
        counts_a = self._char_counts_of(a)
        counts_b = self._char_counts_of(b)
        if len(counts_b) < len(counts_a):
            counts_a, counts_b = counts_b, counts_a
        get_b = counts_b.get
        matches_bound = sum(min(count, get_b(char, 0))
                            for char, count in counts_a.items())
        if matches_bound == 0:
            return 0.0
        jaro_bound = (matches_bound / len(a) + matches_bound / len(b) + 1.0) / 3.0
        prefix_length = 0
        for char_a, char_b in zip(a[:4], b[:4]):
            if char_a != char_b:
                break
            prefix_length += 1
        return min(jaro_bound + prefix_length * 0.1 * (1.0 - jaro_bound), 1.0)

    def _memo_jw(self, a: str, b: str) -> float:
        return self._memoized("memo_jw_last", (a, b) if a <= b else (b, a),
                              jaro_winkler_similarity, a, b)

    def _memo_first(self, a: str, b: str) -> float:
        return self._memoized("memo_jw_first", (a, b) if a <= b else (b, a),
                              self.similarity.first_name_score_normalized, a, b)

    def score(self, id_a: str, id_b: str) -> float:
        first_a, last_a = self.parts[id_a]
        first_b, last_b = self.parts[id_b]
        last_score = self._memo_jw(last_a, last_b)
        first_score = self._memo_first(first_a, first_b)
        weight = self.similarity.last_name_weight
        return weight * last_score + (1.0 - weight) * first_score

    def score_at_least(self, id_a: str, id_b: str,
                       threshold: float) -> Optional[float]:
        """The exact score, or ``None`` when it falls below ``threshold``.

        Pairs whose last-name component alone cannot reach the threshold
        (``weight·last + (1−weight)·1 < threshold``) are rejected without
        computing the first-name component at all.
        """
        first_a, last_a = self.parts[id_a]
        first_b, last_b = self.parts[id_b]
        last_score = self._memo_jw(last_a, last_b)
        weight = self.similarity.last_name_weight
        if weight * last_score + (1.0 - weight) < threshold:
            return None
        first_score = self._memo_first(first_a, first_b)
        score = weight * last_score + (1.0 - weight) * first_score
        return score if score >= threshold else None

    def canopy_scores(self, center_id: str, candidate_ids: Iterable[str],
                      threshold: float) -> Iterator[Tuple[str, float]]:
        """Batch :meth:`score_at_least` for one canopy center.

        Yields only the ``(candidate_id, score)`` pairs reaching
        ``threshold``.  Semantically identical to calling
        :meth:`score_at_least` per candidate; the memo lookups are inlined
        and tallied in locals because this loop dominates profiled canopy
        construction.
        """
        parts = self.parts
        first_a, last_a = parts[center_id]
        weight = self.similarity.last_name_weight
        complement = 1.0 - weight
        memos = self._memos
        last_memo, last_bound, first_memo = (memos[name][0] for name in (
            "memo_jw_last", "memo_jw_last_bound", "memo_jw_first"))
        last_get, bound_get, first_get = last_memo.get, last_bound.get, first_memo.get
        remember = self._remember
        similarity = self.similarity
        asked = last_missed = bound_missed = first_asked = first_missed = 0
        try:
            for candidate_id in candidate_ids:
                asked += 1
                first_b, last_b = parts[candidate_id]
                last_key = (last_a, last_b) if last_a <= last_b else (last_b, last_a)
                last_score = last_get(last_key)
                if last_score is None:
                    last_missed += 1
                    # Sound two-stage prune: a cheap upper bound on the
                    # last-name Jaro-Winkler rejects most non-matching pairs
                    # before the exact O(|a|·|b|) computation is ever paid.
                    bound = bound_get(last_key)
                    if bound is None:
                        bound_missed += 1
                        bound = remember(last_bound, last_key,
                                         self.jaro_winkler_upper_bound(last_a, last_b))
                    if weight * bound + complement < threshold:
                        continue
                    last_score = remember(last_memo, last_key,
                                          jaro_winkler_similarity(last_a, last_b))
                if weight * last_score + complement < threshold:
                    continue
                first_asked += 1
                first_key = (first_a, first_b) if first_a <= first_b else (first_b, first_a)
                first_score = first_get(first_key)
                if first_score is None:
                    first_missed += 1
                    first_score = remember(
                        first_memo, first_key,
                        similarity.first_name_score_normalized(first_a, first_b))
                score = weight * last_score + complement * first_score
                if score >= threshold:
                    yield candidate_id, score
        finally:
            for name, looked, missed in (("memo_jw_last", asked, last_missed),
                                         ("memo_jw_last_bound", last_missed, bound_missed),
                                         ("memo_jw_first", first_asked, first_missed)):
                tally = memos[name][1]
                tally[0] += looked - missed
                tally[1] += missed

