"""Batched author-name canopy scoring over interned part strings.

:class:`BatchCanopyScorer` is the kernel counterpart of
:meth:`~repro.similarity.profiles.ProfiledNameScorer.canopy_scores`.  The
candidate universe's normalized name parts are interned once — every
distinct last-name string gets a row in one :class:`PackedStrings` block,
every distinct first-name string gets an integer id — and a canopy sweep
then runs entirely in the interned int space:

* candidate generation is a cached union of per-token row arrays (the
  scalar per-token set union, as a sorted int array);
* each *unique* center last-name resolves its char-multiset upper bound
  against **all** unique lasts in one vectorized pass, cached and reused by
  every center sharing that last name;
* exact Jaro-Winkler is computed lazily, vectorized, only for the unique
  last-name pairs that survive the bound prefilter, and cached the same way;
* first-name scores are resolved per unique first-name pair through the
  scorer's scalar helper (initial-handling logic), cached as rows.

Duplicate-heavy bibliographic data makes these row caches extremely
effective: a second center with the same last name pays one array gather.

Parity does **not** depend on any shared memo state: every cached value is
produced by the bit-exact kernels (or the scalar helper itself), and the
final admission replays the scalar expression ``weight·last +
(1−weight)·first ≥ threshold`` operation for operation on float64, so the
admitted ``(candidate, score)`` sets are byte-identical to the scalar
generator no matter how scalar and batched sweeps interleave — asserted by
the parity tests.

The scorer object is always passed in, so this module imports nothing from
:mod:`repro.similarity`.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import counters
from .backend import numpy_or_none, vectorized
from .strings import PackedStrings, _jaro_winkler_bound_rows, _jaro_winkler_rows

#: One leg per sweep, chosen before it starts from its pilot - the first
#: ``CANOPY_PILOT`` centers in sweep order: vectorised when they average
#: ``CANOPY_BREAK_EVEN`` candidate rows (:func:`pilot_rows`; counted, not
#: scored).  Measured in situ (``build_cover``, accepted centers only;
#: ``BENCH_kernels.json``): the vectorised sweep costs a flat 300-700 us a center
#: once its row caches are warm, and whole covers cross between ~280 and ~470
#: pilot rows (dblp@3, 144 and hepth@4, 281: scalar 1.3-1.5x ahead; dblp@6, 284:
#: level; dblp@10, 466: vectorised 1.3x ahead) - 320 sits in that band and
#: leaves room for the 150 ms import.
#: The legs memoise separately, so a sweep split between them center by center
#: ran slower than either alone (dblp@3: 1.3x) - hence one leg per sweep.
CANOPY_BREAK_EVEN = 320
CANOPY_PILOT = 64


def pilot_rows(postings: Mapping[str, Sequence], token_sets: Iterable) -> float:
    """Mean rows of a sweep's pilot: the postings-union size (the candidates
    and the center itself) over the first ``CANOPY_PILOT`` of ``token_sets``,
    its centers' in sweep order.  A shorter sweep averages over the missing
    centers too, which keeps it scalar."""
    return sum(len(set().union(*(postings.get(token, ()) for token in tokens)))
               for tokens in islice(token_sets, CANOPY_PILOT)) / CANOPY_PILOT


def canopy_sweep(scorer, postings: Mapping[str, Sequence], token_sets: Iterable):
    """The canopy family's one dispatch point, as ``sweep(center, tokens,
    threshold)``: the ``(candidate, score)`` pairs reaching ``threshold``
    among the entities sharing a token with ``center``.

    ``token_sets`` are the sweep's centers' token sets in sweep order; their
    :func:`pilot_rows` pick the leg.  The :class:`BatchCanopyScorer` is built
    here when the sweep is a vectorised one - never, on small inputs.
    """
    np = vectorized(pilot_rows(postings, token_sets), CANOPY_BREAK_EVEN)
    if np is not None:
        return BatchCanopyScorer(scorer, postings, np).canopy_scores_from_tokens

    def sweep(center, tokens: Iterable[str], threshold: float):
        candidates: set = set()
        for token in tokens:
            candidates.update(postings.get(token, ()))
        candidates.discard(center)
        return scorer.canopy_scores(center, candidates, threshold)

    return sweep


class BatchCanopyScorer:
    """Vectorized canopy sweeps over one :class:`ProfiledNameScorer`.

    ``scorer.parts`` maps candidate keys (entity-id strings or interned
    integer indices — the kernel is generic over the key type, like the
    scalar scorer) to ``(norm_first, norm_last)``.  ``postings`` optionally
    maps tokens to key sequences and enables :meth:`candidate_rows`, which
    replaces the scalar per-token set union with cached sorted row arrays.
    """

    __slots__ = ("scorer", "similarity", "parts", "keys", "_np", "_row_of",
                 "_last_ids", "_first_ids", "_unique_lasts", "_unique_firsts",
                 "_last_of", "_first_of", "_packed_lasts", "_packed_firsts",
                 "_first_lengths", "_first_initials", "_postings",
                 "_token_rows", "_union_rows", "_bound_cache", "_exact_cache",
                 "_first_cache", "_sweep_cache")

    def __init__(self, scorer, postings: Optional[Mapping[str, Sequence]] = None,
                 np_module=None):
        np = np_module if np_module is not None else numpy_or_none()
        if np is None:
            raise RuntimeError("BatchCanopyScorer requires the numpy kernel backend")
        self._np = np
        self.scorer = scorer
        self.similarity = scorer.similarity
        self.parts = scorer.parts
        self.keys = sorted(self.parts)
        self._row_of = {key: row for row, key in enumerate(self.keys)}
        last_of: Dict[str, int] = {}
        first_of: Dict[str, int] = {}
        unique_lasts: List[str] = []
        unique_firsts: List[str] = []
        last_ids: List[int] = []
        first_ids: List[int] = []
        for key in self.keys:
            first, last = self.parts[key]
            last_id = last_of.get(last)
            if last_id is None:
                last_id = last_of[last] = len(unique_lasts)
                unique_lasts.append(last)
            last_ids.append(last_id)
            first_id = first_of.get(first)
            if first_id is None:
                first_id = first_of[first] = len(unique_firsts)
                unique_firsts.append(first)
            first_ids.append(first_id)
        self._unique_lasts = unique_lasts
        self._unique_firsts = unique_firsts
        self._last_of = last_of
        self._first_of = first_of
        self._last_ids = np.asarray(last_ids, dtype=np.int64) if last_ids \
            else np.zeros(0, dtype=np.int64)
        self._first_ids = np.asarray(first_ids, dtype=np.int64) if first_ids \
            else np.zeros(0, dtype=np.int64)
        self._packed_lasts = PackedStrings(unique_lasts, np)
        self._packed_firsts = PackedStrings(unique_firsts, np)
        self._first_lengths = np.fromiter(map(len, unique_firsts),
                                          np.int64, len(unique_firsts))
        self._first_initials = np.fromiter(
            (ord(first[0]) if first else -1 for first in unique_firsts),
            np.int64, len(unique_firsts))
        self._postings = postings
        self._token_rows: Dict[str, object] = {}
        self._union_rows: Dict[frozenset, object] = {}
        # Per unique center-last: cached bound row (vs all unique lasts),
        # and a lazily filled exact row + computed mask.  Per unique
        # center-first: score row + computed mask (None once complete).
        self._bound_cache: Dict[int, object] = {}
        self._exact_cache: Dict[int, Tuple[object, object]] = {}
        self._first_cache: Dict[int, Tuple[object, object]] = {}
        # Full sweep results per unique (center last, center first, token
        # set, threshold): scores depend on nothing else, so duplicate
        # profiles — the common case on multi-source bibliographic data —
        # pay one dictionary hit plus a self-exclusion mask.
        self._sweep_cache: Dict[Tuple, Tuple[object, object]] = {}

    def __len__(self) -> int:
        return len(self.keys)

    # ------------------------------------------------------------- candidates
    def _rows_for_token(self, token: str):
        rows = self._token_rows.get(token)
        if rows is None:
            np = self._np
            keys = self._postings.get(token, ()) if self._postings else ()
            rows = np.unique(np.fromiter((self._row_of[key] for key in keys),
                                         np.int64, len(keys)))
            self._token_rows[token] = rows
        return rows

    def candidate_rows(self, tokens: Iterable[str], exclude=None):
        """Rows sharing at least one token — the postings union, batched.

        The union over the per-token row arrays produces exactly the scalar
        set union (as a sorted array); unions are cached per token set, so
        duplicate profiles pay one dictionary hit.
        """
        np = self._np
        token_key = tokens if isinstance(tokens, frozenset) else frozenset(tokens)
        rows = self._union_rows.get(token_key)
        if rows is None:
            arrays = [self._rows_for_token(token) for token in token_key]
            arrays = [array for array in arrays if len(array)]
            if not arrays:
                rows = np.zeros(0, dtype=np.int64)
            elif len(arrays) == 1:
                rows = arrays[0]                 # already unique and sorted
            else:
                rows = np.unique(np.concatenate(arrays))
            self._union_rows[token_key] = rows
        excluded = self._row_of.get(exclude)
        if excluded is not None:
            rows = rows[rows != excluded]
        return rows

    # ------------------------------------------------------------- row caches
    def _bound_row(self, last_id: int):
        """Upper bounds of ``unique_lasts[last_id]`` against every unique last."""
        row = self._bound_cache.get(last_id)
        if row is None:
            np = self._np
            all_rows = np.arange(len(self._unique_lasts), dtype=np.int64)
            row = _jaro_winkler_bound_rows(np, self._packed_lasts,
                                           self._unique_lasts[last_id], all_rows)
            self._bound_cache[last_id] = row
        return row

    def _exact_entry(self, last_id: int):
        entry = self._exact_cache.get(last_id)
        if entry is None:
            np = self._np
            size = len(self._unique_lasts)
            entry = (np.zeros(size, dtype=np.float64), np.zeros(size, dtype=bool))
            self._exact_cache[last_id] = entry
        return entry

    def _first_entry(self, first_id: int):
        """First-name score row of ``unique_firsts[first_id]``: the row
        array plus a computed mask (``None`` once the row is complete).

        An initial or missing center first name resolves against everything
        through constant masks — no string distance involved — so its row
        is computed eagerly in one pass.  A full center first name needs
        Jaro-Winkler against other full firsts; those rows fill lazily, only
        for the ids a sweep actually reaches."""
        entry = self._first_cache.get(first_id)
        if entry is None:
            np = self._np
            size = len(self._unique_firsts)
            row = np.zeros(size, dtype=np.float64)
            first = self._unique_firsts[first_id]
            if len(first) <= 1:
                if size:
                    self._fill_first_rows(first, row,
                                          np.arange(size, dtype=np.int64))
                entry = (row, None)
            else:
                entry = (row, np.zeros(size, dtype=bool))
            self._first_cache[first_id] = entry
        return entry

    def _fill_first_rows(self, first_a: str, row, ids) -> None:
        """``AuthorNameSimilarity.first_name_score_normalized`` of ``first_a``
        against the unique firsts in ``ids``, written into ``row``.

        The scalar branches (missing name, initial handling) become masked
        constant assignments; the full-vs-full branch is the bit-exact
        Jaro-Winkler kernel — so every value equals the scalar helper's.
        """
        np = self._np
        similarity = self.similarity
        if not first_a:
            row[ids] = similarity.missing_score
            return
        lengths = self._first_lengths[ids]
        matches = self._first_initials[ids] == ord(first_a[0])
        if len(first_a) == 1:
            values = np.where(matches,
                              np.where(lengths == 1,
                                       similarity.initial_pair_score,
                                       similarity.initial_full_score),
                              similarity.initial_mismatch_score)
        else:
            values = np.empty(len(ids), dtype=np.float64)
            full = lengths > 1
            if full.any():
                values[full] = _jaro_winkler_rows(
                    np, self._packed_firsts, first_a, ids[full])
            initial = lengths == 1
            values[initial & matches] = similarity.initial_full_score
            values[initial & ~matches] = similarity.initial_mismatch_score
        values = np.where(lengths == 0, similarity.missing_score, values)
        row[ids] = values

    # ---------------------------------------------------------------- scoring
    def canopy_scores(self, center_key, candidate_ids: Iterable,
                      threshold: float) -> List[Tuple[object, float]]:
        """Batched :meth:`ProfiledNameScorer.canopy_scores`.

        Returns the ``(candidate, score)`` pairs reaching ``threshold`` —
        the same set the scalar generator yields (ordering may differ; every
        consumer builds canopies as sets).
        """
        np = self._np
        candidates = candidate_ids if isinstance(candidate_ids, (list, tuple)) \
            else list(candidate_ids)
        rows = np.fromiter((self._row_of[key] for key in candidates),
                           np.int64, len(candidates))
        kept_rows, kept_scores = self._score_rows(center_key, rows, threshold)
        keys = self.keys
        return [(keys[row], value) for row, value in
                zip(kept_rows.tolist(), kept_scores.tolist())]

    def canopy_scores_from_tokens(self, center_key, tokens: Iterable[str],
                                  threshold: float) -> List[Tuple[object, float]]:
        """Candidate generation + scoring in one batched call.

        The admitted ``(rows, scores)`` arrays are cached per unique
        ``(center last, center first, token set, threshold)`` — every center
        with the same profile reuses them, paying only the self-exclusion
        mask (a center never scores itself; the extra self row a cached
        sweep carries cannot shift any other candidate's score).
        """
        token_key = tokens if isinstance(tokens, frozenset) else frozenset(tokens)
        first_a, last_a = self.parts[center_key]
        cache_key = (self._last_of[last_a], self._first_of[first_a],
                     token_key, threshold)
        cached = self._sweep_cache.get(cache_key)
        if cached is None:
            rows = self.candidate_rows(token_key)
            cached = self._score_rows(center_key, rows, threshold)
            self._sweep_cache[cache_key] = cached
        kept_rows, kept_scores = cached
        excluded = self._row_of[center_key]
        keys = self.keys
        return [(keys[row], value) for row, value in
                zip(kept_rows.tolist(), kept_scores.tolist())
                if row != excluded]

    def _score_rows(self, center_key, rows, threshold: float
                    ) -> Tuple[object, object]:
        np = self._np
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
        if len(rows) == 0:
            return empty
        first_a, last_a = self.parts[center_key]
        center_last = self._last_of[last_a]
        center_first = self._first_of[first_a]
        weight = self.similarity.last_name_weight
        complement = 1.0 - weight

        # Stage one: the char-multiset upper bound, gathered from the cached
        # row of this center's last name.  The bound is sound and evaluates
        # the same expression the scalar path thresholds on, so pruning here
        # never disagrees with the scalar sweep's decisions.
        last_ids = self._last_ids[rows]
        bound_row = self._bound_row(center_last)
        alive = ~(weight * bound_row[last_ids] + complement < threshold)
        pruned = len(rows) - int(alive.sum())
        counters.record(batches=1, pairs_scored=len(rows),
                        prefilter_checked=len(rows), prefilter_pruned=pruned)
        alive_rows = rows[alive]
        if len(alive_rows) == 0:
            return empty

        # Stage two: exact Jaro-Winkler for the unique last pairs that pass
        # the bound, in one vectorized call over *all* of this center-last's
        # uncached bound survivors (not just the current candidates) — later
        # centers with the same last then find everything cached.  Computing
        # extra bit-exact values never shifts a decision.
        alive_last = last_ids[alive]
        exact_row, computed = self._exact_entry(center_last)
        pending = ~computed
        if pending.any():
            needed = np.nonzero(
                pending & ~(weight * bound_row + complement < threshold))[0]
            if len(needed):
                exact_row[needed] = _jaro_winkler_rows(
                    np, self._packed_lasts, last_a, needed)
                computed[needed] = True
        row_last = exact_row[alive_last]

        # The scalar loop's intermediate check (last name alone cannot reach
        # the threshold) — sound for the same reason as the bound.
        strong = ~(weight * row_last + complement < threshold)
        alive_rows = alive_rows[strong]
        if len(alive_rows) == 0:
            return empty
        row_last = row_last[strong]

        # First-name components: a gather from this center-first's cached
        # row (see :meth:`_first_entry`), filling missing ids first when the
        # row is still partial.
        first_ids = self._first_ids[alive_rows]
        first_row, first_computed = self._first_entry(center_first)
        if first_computed is not None:
            missing = np.unique(first_ids[~first_computed[first_ids]])
            if len(missing):
                self._fill_first_rows(first_a, first_row, missing)
                first_computed[missing] = True

        # Final admission: the scalar expression, elementwise on float64.
        score = weight * row_last + complement * first_row[first_ids]
        keep = score >= threshold
        return alive_rows[keep], score[keep]
