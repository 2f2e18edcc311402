"""Parity tests for the compact columnar snapshot.

The dict-based :class:`EntityStore` is the reference implementation; the
:class:`CompactStore` / :class:`StoreView` snapshot every batch run reads
must be observably indistinguishable from it: identical entities, induced relations, similarity
edges, covers and final match sets — on hand-built instances, on random
(hypothesis) instances and end-to-end through the schemes and executors.
"""

import pickle
import random
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blocking import (
    CanopyBlocker,
    build_total_cover,
    expand_members,
)
from repro.core import EMFramework, FullRun
from repro.datamodel import (
    CompactStore,
    EntityPair,
    EntityStore,
    InducedRelation,
    Relation,
    StoreView,
    make_author,
    make_paper,
)
from repro.exceptions import ExperimentError, UnknownEntityError
from repro.matchers import MLNMatcher, RulesMatcher
from repro.parallel import GridExecutor, ProcessExecutor
from repro.parallel import shared as parallel_shared
from tests.util import build_two_hop_store, two_hop_rules


# --------------------------------------------------------------------- helpers
def _shared_value(key):
    """A broadcast payload as a pool worker resolves it (module-level: it
    pickles)."""
    return parallel_shared.get_shared(key)


def random_store(seed: int, author_count: int = 6) -> EntityStore:
    """A deterministic random instance with papers, relations and edges."""
    rng = random.Random(seed)
    store = EntityStore()
    for index in range(author_count):
        for source in (0, 1):
            store.add_entity(make_author(
                f"a{index}s{source}", f"F{index % 3}.", f"Last{index}",
                source=f"s{source}"))
    paper_count = max(2, author_count // 2)
    for index in range(paper_count):
        store.add_entity(make_paper(f"p{index}", title=f"Title {index}"))
    authored = Relation("authored", arity=2)
    for index in range(author_count):
        for source in (0, 1):
            authored.add(f"a{index}s{source}", f"p{rng.randrange(paper_count)}")
    store.add_relation(authored)
    cites = Relation("cites", arity=2)
    for _ in range(paper_count):
        first, second = rng.sample(range(paper_count), 2)
        cites.add(f"p{first}", f"p{second}")
    store.add_relation(cites)
    store.derive_coauthor("authored")
    for index in range(author_count):
        level = rng.choice([1, 2, 3])
        store.add_similarity(EntityPair.of(f"a{index}s0", f"a{index}s1"),
                             {1: 0.85, 2: 0.9, 3: 0.97}[level], level)
    for _ in range(author_count // 2):
        first, second = rng.sample(range(author_count), 2)
        pair = EntityPair.of(f"a{first}s0", f"a{second}s1")
        if store.similarity(pair) is None:
            store.add_similarity(pair, 0.8, 1)
    return store


def edge_triples(store):
    return sorted((edge.pair, edge.score, edge.level)
                  for edge in store.similarity_edges())


def assert_store_parity(reference, compact):
    """The full read interface must agree between the two backends."""
    assert len(compact) == len(reference)
    assert compact.entity_ids() == reference.entity_ids()
    assert sorted(e.entity_id for e in compact.entities()) == \
        sorted(e.entity_id for e in reference.entities())
    for entity in reference.entities():
        assert compact.entity(entity.entity_id) == entity
        assert entity.entity_id in compact
    for entity_type in ("author", "paper"):
        assert {e.entity_id for e in compact.entities_of_type(entity_type)} == \
            {e.entity_id for e in reference.entities_of_type(entity_type)}
    assert compact.relation_names() == reference.relation_names()
    for name in reference.relation_names():
        ref_rel, cmp_rel = reference.relation(name), compact.relation(name)
        assert cmp_rel.tuples() == ref_rel.tuples()
        assert (cmp_rel.name, cmp_rel.arity, cmp_rel.symmetric) == \
            (ref_rel.name, ref_rel.arity, ref_rel.symmetric)
        for entity_id in reference.entity_ids():
            assert cmp_rel.neighbors(entity_id) == ref_rel.neighbors(entity_id)
            assert cmp_rel.tuples_of(entity_id) == ref_rel.tuples_of(entity_id)
        assert cmp_rel.participants() == ref_rel.participants()
    assert compact.similar_pairs() == reference.similar_pairs()
    assert edge_triples(compact) == edge_triples(reference)
    for pair in reference.similar_pairs():
        assert compact.similarity_level(pair) == reference.similarity_level(pair)
        assert compact.similarity(pair).score == reference.similarity(pair).score
    for entity_id in reference.entity_ids():
        assert compact.similar_pairs_of(entity_id) == \
            reference.similar_pairs_of(entity_id)
        assert compact.related_entities(entity_id) == \
            reference.related_entities(entity_id)
    assert compact.stats() == reference.stats()


SETTINGS = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------- full store
class TestFullStoreParity:
    def test_read_interface_matches_dict_store(self):
        store = random_store(seed=1)
        assert_store_parity(store, CompactStore.from_store(store))

    @SETTINGS
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=8))
    def test_read_interface_matches_on_random_instances(self, seed, author_count):
        store = random_store(seed, author_count)
        assert_store_parity(store, CompactStore.from_store(store))

    def test_roundtrip_through_entity_store(self):
        store = random_store(seed=2)
        compact = CompactStore.from_store(store)
        materialized = compact.to_entity_store()
        assert_store_parity(store, materialized)
        assert_store_parity(materialized, CompactStore.from_store(materialized))

    def test_copy_is_equivalent_snapshot(self):
        compact = CompactStore.from_store(random_store(seed=3))
        clone = compact.copy()
        assert clone is not compact
        assert_store_parity(compact, clone)

    def test_snapshot_is_immutable(self):
        compact = CompactStore.from_store(random_store(seed=4))
        with pytest.raises(TypeError):
            compact.add_entity(make_author("zz", "New", "Author"))
        with pytest.raises(TypeError):
            compact.add_relation(Relation("extra", arity=2))
        with pytest.raises(TypeError):
            compact.add_similarity(EntityPair.of("a0s0", "a1s0"), 0.9, 1)

    def test_pickle_roundtrip(self):
        compact = CompactStore.from_store(random_store(seed=5))
        clone = pickle.loads(pickle.dumps(compact))
        assert clone.snapshot_token == compact.snapshot_token
        assert_store_parity(compact, clone)

    def test_pair_codec_roundtrip(self):
        store = random_store(seed=6)
        compact = CompactStore.from_store(store)
        pairs = sorted(store.similar_pairs())
        encoded = compact.encode_pairs(pairs)
        assert all(first < second for first, second in encoded)
        assert sorted(compact.decode_pairs(encoded)) == pairs


# ------------------------------------------------------------------ restriction
class TestViewParity:
    @SETTINGS
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=10_000))
    def test_restrict_matches_dict_restrict(self, seed, subset_seed):
        store = random_store(seed)
        compact = CompactStore.from_store(store)
        ids = sorted(store.entity_ids())
        rng = random.Random(subset_seed)
        subset = set(rng.sample(ids, rng.randint(1, len(ids))))
        reference = store.restrict(subset)
        view = compact.restrict(subset)
        assert isinstance(view, StoreView)
        assert_store_parity(reference, view)

    def test_nested_restrict(self):
        store = random_store(seed=7)
        compact = CompactStore.from_store(store)
        ids = sorted(store.entity_ids())
        outer, inner = set(ids[: len(ids) * 3 // 4]), set(ids[: len(ids) // 2])
        assert_store_parity(store.restrict(outer).restrict(inner),
                            compact.restrict(outer).restrict(inner))

    def test_restrict_unknown_entity_raises(self):
        compact = CompactStore.from_store(random_store(seed=8))
        with pytest.raises(UnknownEntityError):
            compact.restrict({"a0s0", "nope"})

    def test_view_restrict_outside_members_raises(self):
        compact = CompactStore.from_store(random_store(seed=8))
        view = compact.restrict({"a0s0", "a0s1"})
        with pytest.raises(UnknownEntityError):
            view.restrict({"a0s0", "a1s0"})

    def test_view_similarity_outside_members_is_none(self):
        store = random_store(seed=9)
        compact = CompactStore.from_store(store)
        pair = sorted(store.similar_pairs())[0]
        view = compact.restrict({pair.first})
        assert view.similarity(pair) is None
        assert view.similarity_level(pair) == 0
        assert view.similar_pairs_of(pair.second) == frozenset()

    def test_view_materializes_independent_store(self):
        store = random_store(seed=10)
        compact = CompactStore.from_store(store)
        subset = {e.entity_id for e in store.entities_of_type("author")}
        view = compact.restrict(subset)
        materialized = view.to_entity_store()
        assert_store_parity(store.restrict(subset), materialized)
        materialized.add_entity(make_author("zz", "New", "Author"))
        assert not view.has_entity("zz")


# ------------------------------------------------------- induced relations
def assert_relation_parity(reference: Relation, induced, full, probe_ids):
    """Every read of a view's relation equals the dict ``Relation.induced``;
    ``full`` is the snapshot relation, whose tuples probe ``contains``."""
    assert isinstance(induced, InducedRelation)
    assert (induced.name, induced.arity, induced.symmetric) == \
        (reference.name, reference.arity, reference.symmetric)
    assert len(induced) == len(reference)
    assert sorted(induced) == sorted(reference)
    assert induced.tuples() == reference.tuples()
    assert induced.participants() == reference.participants()
    assert induced == reference
    copy = induced.copy()
    assert isinstance(copy, Relation) and copy == reference
    for entity_id in probe_ids:
        assert induced.tuples_of(entity_id) == reference.tuples_of(entity_id)
        assert induced.neighbors(entity_id) == reference.neighbors(entity_id)
    for tup in full:
        for probe in (tup, tup[::-1]):
            assert induced.contains(*probe) == reference.contains(*probe)
            assert (probe in induced) == (probe in reference)
    rng = random.Random(len(probe_ids))
    for size in (0, 1, 3, len(probe_ids)):
        subset = set(rng.sample(probe_ids, size))
        assert set(induced.tuples_touching(subset)) == \
            set(reference.tuples_touching(subset))
        assert induced.induced(subset) == reference.induced(subset)


class TestInducedRelationParity:
    @SETTINGS
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=10_000),
           st.booleans())
    def test_every_read_matches_dict_induced(self, seed, subset_seed, nested):
        store = random_store(seed)
        compact = CompactStore.from_store(store)
        ids = sorted(store.entity_ids())
        rng = random.Random(subset_seed)
        subset = set(rng.sample(ids, rng.randint(1, len(ids))))
        reference, view = store.restrict(subset), compact.restrict(subset)
        if nested:
            inner = set(rng.sample(sorted(subset), rng.randint(1, len(subset))))
            reference, view = reference.restrict(inner), view.restrict(inner)
        for name in store.relation_names():
            assert_relation_parity(reference.relation(name), view.relation(name),
                                   compact.relation(name), ids + ["nope"])
        materialized = view.to_entity_store()
        assert isinstance(materialized, EntityStore)
        assert_store_parity(reference, materialized)
        for name in store.relation_names():
            assert materialized.relation(name) == reference.relation(name)

    def test_snapshot_decodes_each_tuple_and_edge_once(self):
        compact = CompactStore.from_store(random_store(seed=11))
        ids = sorted(compact.entity_ids())
        first, second = compact.restrict(ids[:8]), compact.restrict(ids[4:])
        for name in compact.relation_names():
            shared = {id(tup) for tup in compact.relation(name)}
            assert {id(tup) for tup in first.relation(name)} <= shared
            assert {id(tup) for tup in second.relation(name)} <= shared
        edges = {id(edge) for edge in compact.similarity_edges()}
        assert {id(edge) for edge in first.similarity_edges()} <= edges
        assert all(compact.similarity(edge.pair) is edge
                   for edge in compact.similarity_edges())

    def test_mln_ground_networks_identical_on_view_and_materialized(
            self, hepth_dataset, hepth_cover):
        compact = CompactStore.from_store(hepth_dataset.store)
        grounded = 0
        for neighborhood in list(hepth_cover)[:40]:
            view = compact.restrict(neighborhood.entity_ids)
            networks = [MLNMatcher().network_for(store)
                        for store in (view, view.to_entity_store())]
            on_view, materialized = (
                [(g.rule_name, g.weight, g.head_pair, g.body_pairs)
                 for g in network.groundings] for network in networks)
            assert on_view == materialized
            assert networks[0].candidates == networks[1].candidates
            grounded += len(on_view)
        assert grounded > 0


# ---------------------------------------------------------------- blocking
class TestBlockingParity:
    def cover_signature(self, cover):
        return [(n.name, tuple(sorted(n.entity_ids))) for n in cover]

    def test_total_cover_identical_across_backends(self, hepth_dataset):
        store = hepth_dataset.store
        compact = CompactStore.from_store(store)
        reference = build_total_cover(CanopyBlocker(), store,
                                      relation_names=["coauthor"])
        interned = build_total_cover(CanopyBlocker(), compact,
                                     relation_names=["coauthor"])
        assert self.cover_signature(interned) == self.cover_signature(reference)

    @SETTINGS
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=3))
    def test_expand_members_interned_fast_path(self, seed, rounds):
        store = random_store(seed)
        compact = CompactStore.from_store(store)
        names = store.relation_names()
        dict_relations = [store.relation(name) for name in names]
        compact_relations = [compact.relation(name) for name in names]
        rng = random.Random(seed)
        ids = sorted(store.entity_ids())
        members = set(rng.sample(ids, rng.randint(1, len(ids))))
        assert expand_members(compact_relations, members, rounds) == \
            expand_members(dict_relations, members, rounds)

    def test_expand_members_passes_through_unknown_ids(self):
        # Ids outside the snapshot touch no tuple; both backends must keep
        # them in the expanded member set rather than raising.
        store = random_store(seed=12)
        compact = CompactStore.from_store(store)
        names = store.relation_names()
        members = {"a0s0", "ghost-entity"}
        assert expand_members([compact.relation(name) for name in names],
                              members) == \
            expand_members([store.relation(name) for name in names], members)


# -------------------------------------------------------------- match parity
class TestMatchParity:
    """``EMFramework`` reads its compact snapshot; the references here run
    the same engine on the caller's dict store directly."""

    def test_schemes_identical_two_hop(self):
        store, cover = build_two_hop_store()

        def factory():
            return MLNMatcher(rules=two_hop_rules())

        framework = EMFramework(factory(), store, cover=cover)
        assert isinstance(framework.snapshot, CompactStore)
        for scheme in ("no-mp", "smp", "mmp"):
            assert framework.run(scheme).matches == GridExecutor(
                scheme=scheme).run(factory(), store, cover).matches
        assert framework.run("full").matches == \
            FullRun().run(factory(), store).matches

    def test_rules_matcher_identical(self, hepth_dataset, hepth_cover):
        framework = EMFramework(RulesMatcher(), hepth_dataset.store,
                                cover=hepth_cover)
        assert framework.run("smp").matches == GridExecutor(scheme="smp").run(
            RulesMatcher(), hepth_dataset.store, hepth_cover).matches

    def test_grid_identical_across_backends_and_executors(
            self, hepth_dataset, hepth_cover):
        expected = GridExecutor(scheme="smp").run(
            MLNMatcher(), hepth_dataset.store, hepth_cover).matches
        framework = EMFramework(MLNMatcher(), hepth_dataset.store,
                                cover=hepth_cover)
        dict_run = GridExecutor(scheme="smp", executor="serial").run(
            MLNMatcher(), hepth_dataset.store, hepth_cover)
        assert dict_run.matches == expected
        assert framework.run_grid("smp").matches == expected

    def test_grid_identical_under_process_executor(
            self, hepth_dataset, hepth_cover):
        expected = GridExecutor(scheme="smp").run(
            MLNMatcher(), hepth_dataset.store, hepth_cover).matches
        framework = EMFramework(MLNMatcher(), hepth_dataset.store,
                                cover=hepth_cover)
        result = framework.run_grid("smp", executor="processes", workers=2)
        assert result.matches == expected

    def test_caller_opened_pool_gives_identical_matches(
            self, hepth_dataset, hepth_cover):
        # The run shares its snapshot into a pool the caller already opened,
        # which re-spawns its workers with it.
        store = hepth_dataset.store
        compact = CompactStore.from_store(store)
        expected = GridExecutor(scheme="smp").run(
            MLNMatcher(), store, hepth_cover).matches
        with ProcessExecutor(workers=2) as executor:
            result = GridExecutor(scheme="smp", executor=executor).run(
                MLNMatcher(), compact, hepth_cover)
        assert result.matches == expected

    def test_unknown_backend_rejected(self, hepth_dataset, hepth_cover):
        # The option is retired: "compact", what every batch run reads, is
        # the one value left.
        for backend in ("dict", "columnar", "COMPACT"):
            with pytest.raises(ExperimentError, match="retired"):
                EMFramework(MLNMatcher(), hepth_dataset.store,
                            cover=hepth_cover, store_backend=backend)


# ------------------------------------------------------------ shared payloads
class TestSharedPayloads:
    def test_in_process_share_resolves_same_object(self):
        # The process executor installs a shared payload in this process
        # too: a degraded inline run resolves the very object.
        executor = ProcessExecutor(workers=1)
        payload = object()
        executor.share("test-key", payload)
        try:
            assert parallel_shared.get_shared("test-key") is payload
        finally:
            executor.unshare("test-key")
        with pytest.raises(ExperimentError):
            parallel_shared.get_shared("test-key")

    def test_process_executor_share_into_open_pool_respawns_it(self):
        executor = ProcessExecutor(workers=1)
        executor.share("early", 1)
        try:
            with executor:
                early = ("e", partial(_shared_value, "early"))
                assert executor.map_tasks([early]) == {"e": 1}
                before = executor._pool
                executor.share("late", 2)
                assert executor._pool is not before
                late = ("l", partial(_shared_value, "late"))
                assert executor.map_tasks([early, late]) == {"e": 1, "l": 2}
        finally:
            executor.unshare("early")
            executor.unshare("late")

    def test_view_cache_reuses_view_objects(self):
        compact = CompactStore.from_store(random_store(seed=11))
        token = compact.snapshot_token
        parallel_shared.share_local(token, compact)
        try:
            members = compact.indices_for(sorted(compact.entity_ids())[:4])
            first = parallel_shared.view_for(token, members)
            second = parallel_shared.view_for(token, members)
            assert first is second
        finally:
            parallel_shared.unshare_local(token)
