"""Property tests: replaying any delta stream equals a cold run on the result.

The streaming contract is universally quantified — *any* interleaving of
entity/tuple/similarity/evidence adds and removes, applied through a
:class:`~repro.streaming.StreamSession`, must leave the standing match set
byte-identical to a cold batch run on the final instance.  Hypothesis drives
random instances and random delta streams at the exact semantics; a
fixed-seed matrix covers the dict/compact backends and the serial/process
executors (process pools are too slow for the hypothesis loop).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datamodel import (
    CompactStore,
    Entity,
    EntityPair,
    EntityStore,
    Relation,
    make_author,
)
from repro.datasets import dblp_tiny
from repro.matchers import MLNMatcher, RulesMatcher
from repro.streaming import (
    AddEntity,
    AddEvidence,
    AddTuple,
    ChangeBatch,
    DeltaLog,
    RemoveEntity,
    RemoveEvidence,
    RemoveSimilarity,
    RemoveTuple,
    StreamSession,
    UpdateEntity,
    UpsertSimilarity,
    synthesize_stream,
)
from tests.util import add_coauthor_edges

_LEVEL_SCORES = {1: 0.87, 2: 0.91, 3: 0.97}
_FIRST_NAMES = ["J.", "Jo", "Joe", "K.", "Ann"]


def _base_instance(author_count: int, rng: random.Random) -> EntityStore:
    """A small two-source instance with random coauthor structure."""
    store = EntityStore()
    for index in range(author_count):
        for source in (0, 1):
            store.add_entity(make_author(f"r{index}s{source}", "J.",
                                         f"Name{index}", source=f"s{source}"))
    edges = []
    for first in range(author_count):
        for second in range(first + 1, author_count):
            if rng.random() < 0.5:
                for source in (0, 1):
                    edges.append((f"r{first}s{source}", f"r{second}s{source}"))
    add_coauthor_edges(store, edges)
    for index in range(author_count):
        if rng.random() < 0.8:
            level = rng.choice([1, 2, 2, 3])
            store.add_similarity(EntityPair.of(f"r{index}s0", f"r{index}s1"),
                                 _LEVEL_SCORES[level], level)
    return store


def _random_stream(store: EntityStore, rng: random.Random,
                   batches: int, ops_per_batch: int,
                   with_evidence: bool) -> DeltaLog:
    """A random but *valid* delta stream against the evolving instance state."""
    present = set(store.entity_ids())
    removable = set()  # only stream-added entities are removed
    edges = set(store.similar_pairs())
    tuples = set(store.relation("coauthor").tuples())
    positive: set = set()
    negative: set = set()
    fresh_serial = 0

    log = DeltaLog(name="random")
    for _ in range(batches):
        batch = ChangeBatch()
        for _ in range(ops_per_batch):
            ids = sorted(present)
            kind = rng.randrange(10)
            if kind == 0:  # add a fresh author
                fresh_serial += 1
                entity_id = f"zz{fresh_serial}"
                batch.append(AddEntity(make_author(
                    entity_id, rng.choice(_FIRST_NAMES),
                    f"Name{rng.randrange(4)}", source="s2")))
                present.add(entity_id)
                removable.add(entity_id)
            elif kind == 1 and removable:  # remove a stream-added author
                entity_id = sorted(removable)[rng.randrange(len(removable))]
                batch.append(RemoveEntity(entity_id))
                present.discard(entity_id)
                removable.discard(entity_id)
                edges = {p for p in edges if entity_id not in p}
                tuples = {t for t in tuples if entity_id not in t}
                positive = {p for p in positive if entity_id not in p}
                negative = {p for p in negative if entity_id not in p}
            elif kind == 2:  # update an author's first name
                entity_id = ids[rng.randrange(len(ids))]
                batch.append(UpdateEntity(Entity(entity_id, "author", {
                    "fname": rng.choice(_FIRST_NAMES),
                    "lname": f"Name{rng.randrange(4)}",
                    "source": "s9"})))
            elif kind in (3, 4):  # upsert a similarity edge
                a, b = rng.sample(ids, 2)
                pair = EntityPair.of(a, b)
                level = rng.choice([1, 2, 3])
                batch.append(UpsertSimilarity(pair, _LEVEL_SCORES[level], level))
                edges.add(pair)
            elif kind == 5 and edges:  # remove a similarity edge
                pair = sorted(edges)[rng.randrange(len(edges))]
                batch.append(RemoveSimilarity(pair))
                edges.discard(pair)
                positive.discard(pair)
                negative.discard(pair)
            elif kind in (6, 7):  # add a coauthor tuple
                a, b = rng.sample(ids, 2)
                tup = tuple(sorted((a, b)))
                batch.append(AddTuple("coauthor", tup))
                tuples.add(tup)
            elif kind == 8 and tuples:  # remove a coauthor tuple
                tup = sorted(tuples)[rng.randrange(len(tuples))]
                batch.append(RemoveTuple("coauthor", tup))
                tuples.discard(tup)
            elif kind == 9 and with_evidence:
                a, b = rng.sample(ids, 2)
                pair = EntityPair.of(a, b)
                if rng.random() < 0.6:
                    polarity = rng.choice(["positive", "negative"])
                    batch.append(AddEvidence(pair, polarity))
                    (positive if polarity == "positive" else negative).add(pair)
                    (negative if polarity == "positive" else positive).discard(pair)
                elif positive or negative:
                    pool = sorted(positive) + sorted(negative)
                    pair = pool[rng.randrange(len(pool))]
                    polarity = "positive" if pair in positive else "negative"
                    batch.append(RemoveEvidence(pair, polarity))
                    (positive if polarity == "positive" else negative).discard(pair)
        log.append(batch)
    return log


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       author_count=st.integers(min_value=2, max_value=4),
       batches=st.integers(min_value=1, max_value=3))
def test_random_delta_streams_equal_batch_runs(seed, author_count, batches):
    rng = random.Random(seed)
    store = _base_instance(author_count, rng)
    log = _random_stream(store, rng, batches=batches, ops_per_batch=5,
                         with_evidence=True)
    session = StreamSession(MLNMatcher(), store.copy())
    session.start()
    session.replay(log)
    assert session.matches == session.cold_matches()


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_delta_streams_equal_batch_runs_rules_matcher(seed):
    rng = random.Random(seed)
    store = _base_instance(3, rng)
    log = _random_stream(store, rng, batches=2, ops_per_batch=4,
                         with_evidence=False)
    session = StreamSession(RulesMatcher(), store.copy())
    session.start()
    session.replay(log)
    assert session.matches == session.cold_matches()


def _reference_induced(relation, entity_ids) -> Relation:
    """``induced`` as it was before the one-pass walk: a ``tuples_of`` union
    per member, an ``all(...)`` test and a re-canonicalising ``add`` each."""
    allowed = set(entity_ids)
    induced = Relation(relation.name, relation.arity, relation.symmetric)
    candidates = set()
    for entity_id in allowed:
        candidates.update(relation.tuples_of(entity_id))
    for tup in candidates:
        if all(entity_id in allowed for entity_id in tup):
            induced.add(*tup)
    return induced


@pytest.mark.parametrize("backend", ["dict", "compact"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       author_count=st.integers(min_value=2, max_value=5),
       batches=st.integers(min_value=1, max_value=4))
def test_induced_relations_equal_the_reference_over_overlay_histories(
        backend, seed, author_count, batches):
    from repro.streaming.overlay import DeltaImpact, StoreOverlay
    rng = random.Random(seed)
    store = _base_instance(author_count, rng)
    log = _random_stream(store, rng, batches=batches, ops_per_batch=6,
                         with_evidence=False)
    overlay = StoreOverlay(CompactStore.from_store(store)
                           if backend == "compact" else store.copy())
    for batch in log:
        for op in batch:
            overlay.apply_delta(op, DeltaImpact())
        present = sorted(overlay.entity_ids())
        materialised = overlay.to_entity_store()
        for _ in range(4):
            subset = rng.sample(present, rng.randint(1, len(present)))
            for layered, plain in zip(overlay.relations(), materialised.relations()):
                expected = _reference_induced(layered, subset)
                for induced in (layered.induced(subset), plain.induced(subset)):
                    assert induced == expected
                    assert induced._index == expected._index
            assert overlay.restrict(subset).relations() == \
                materialised.restrict(subset).relations()


@pytest.mark.parametrize("backend", ["dict", "compact"])
@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_replay_equivalence_backend_executor_matrix(backend, executor):
    """Fixed-seed scenario across store backends and map-phase executors."""
    dataset = dblp_tiny()
    scenario = synthesize_stream(dataset, batches=3, holdout_fraction=0.3,
                                 seed=21)
    store = scenario.base.store
    if backend == "compact":
        store = CompactStore.from_store(store)
    kwargs = {} if executor == "serial" else {"executor": executor, "workers": 2}
    session = StreamSession(MLNMatcher(), store, **kwargs)
    session.start()
    session.replay(scenario.log)
    assert session.matches == session.cold_matches()


def test_streams_converging_to_same_instance_agree():
    """Two different op orders reaching the same instance give equal matches."""
    rng = random.Random(5)
    store = _base_instance(3, rng)
    log_a = _random_stream(store, random.Random(1), batches=2, ops_per_batch=4,
                           with_evidence=False)
    session_a = StreamSession(MLNMatcher(), store.copy())
    session_a.start()
    session_a.replay(log_a)
    # Replay the same final instance as a single batch of deltas.
    final = session_a.final_store()
    session_b = StreamSession(MLNMatcher(), final.copy())
    session_b.start()
    assert session_b.matches == session_a.matches


# ------------------------------------------------- canopy repair by symmetry
_RENDERINGS_FIRST = ["John", "Jon", "J.", "Joan", "Johan", "K.", "Karl", "Carl", ""]
_RENDERINGS_LAST = ["Smith", "Smyth", "Smithe", "Smit", "Jones", "Jonas",
                    "Johnson", "Jonson"]


def _random_author(entity_id: str, rng: random.Random) -> Entity:
    return make_author(entity_id, rng.choice(_RENDERINGS_FIRST),
                       rng.choice(_RENDERINGS_LAST), source="s0")


def _assert_canopy_cache_is_cold(maintainer, overlay) -> None:
    """Every cached canopy entry equals a cold ``canopy_fn`` on the current
    instance, and the maintained cover equals a cold total-cover build."""
    from repro.blocking import CanopyBlocker
    blocker = CanopyBlocker()
    store = overlay.to_entity_store()
    cold_fn = blocker.canopy_factory(blocker.clustered_entities(store))
    assert set(maintainer._canopy_cache) <= store.entity_ids()
    for center_id, (canopy, tight) in maintainer._canopy_cache.items():
        cold_canopy, cold_tight = cold_fn(center_id)
        assert canopy == cold_canopy, center_id
        assert tight == cold_tight, center_id


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=100_000),
       base_size=st.integers(min_value=3, max_value=14),
       batches=st.integers(min_value=1, max_value=5))
def test_canopy_patches_keep_the_cache_equal_to_cold_sweeps(seed, base_size,
                                                            batches):
    from repro.blocking import CanopyBlocker, build_total_cover
    from repro.streaming.maintainer import IncrementalCoverMaintainer
    from repro.streaming.overlay import DeltaImpact, StoreOverlay
    rng = random.Random(seed)
    store = EntityStore()
    for index in range(base_size):
        store.add_entity(_random_author(f"b{index:02d}", rng))
    present = sorted(store.entity_ids())
    add_coauthor_edges(store, [tuple(rng.sample(present, 2))
                               for _ in range(base_size // 2)])
    overlay = StoreOverlay(store)
    maintainer = IncrementalCoverMaintainer(CanopyBlocker(),
                                            relation_names=["coauthor"])
    maintainer.build(overlay)
    _assert_canopy_cache_is_cold(maintainer, overlay)

    serial = 0
    for _ in range(batches):
        impact = DeltaImpact()
        for _ in range(rng.randint(1, 4)):
            present = sorted(overlay.entity_ids())
            kind = rng.randrange(4)
            if kind == 0 or len(present) < 3:
                serial += 1
                op = AddEntity(_random_author(f"z{serial:02d}", rng))
            elif kind == 1:
                op = RemoveEntity(rng.choice(present))
            elif kind == 2:
                op = UpdateEntity(_random_author(rng.choice(present), rng))
            else:
                op = AddTuple("coauthor", tuple(sorted(rng.sample(present, 2))))
            overlay.apply_delta(op, impact)
        cover = maintainer.update(overlay, impact)
        assert not maintainer.last_full_rebuild
        _assert_canopy_cache_is_cold(maintainer, overlay)
        cold = build_total_cover(CanopyBlocker(), overlay.to_entity_store(),
                                 relation_names=["coauthor"])
        assert [(n.name, n.entity_ids) for n in cover] == \
            [(n.name, n.entity_ids) for n in cold]
        stats = maintainer.stats()
        # One sweep per changed author, plus centers the sweep newly reaches.
        assert stats["rescored_centers"] >= len(
            (impact.added_entities | impact.updated_entities)
            & overlay.entity_ids())
