"""Tests for repro.blocking.cover (Neighborhood, Cover, total covers)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import Cover, Neighborhood
from repro.datamodel import EntityPair, EntityStore, Relation, make_author
from repro.exceptions import CoverError


def small_store():
    store = EntityStore()
    for entity_id in ("a", "b", "c", "d"):
        store.add_entity(make_author(entity_id, entity_id.upper(), "Name"))
    coauthor = Relation("coauthor", arity=2, symmetric=True)
    coauthor.add("a", "b")
    coauthor.add("c", "d")
    coauthor.add("b", "c")
    store.add_relation(coauthor)
    return store


class TestNeighborhood:
    def test_membership(self):
        neighborhood = Neighborhood("n1", frozenset({"a", "b"}))
        assert "a" in neighborhood
        assert "z" not in neighborhood
        assert len(neighborhood) == 2

    def test_empty_rejected(self):
        with pytest.raises(CoverError):
            Neighborhood("n1", frozenset())

    def test_contains_pair(self):
        neighborhood = Neighborhood("n1", frozenset({"a", "b"}))
        assert neighborhood.contains_pair(EntityPair.of("a", "b"))
        assert not neighborhood.contains_pair(EntityPair.of("a", "c"))

    def test_expanded(self):
        neighborhood = Neighborhood("n1", frozenset({"a"}))
        bigger = neighborhood.expanded({"b"}, suffix="+")
        assert bigger.entity_ids == {"a", "b"}
        assert bigger.name == "n1+"


class TestCover:
    def build(self):
        return Cover([
            Neighborhood("n1", frozenset({"a", "b"})),
            Neighborhood("n2", frozenset({"b", "c"})),
            Neighborhood("n3", frozenset({"c", "d"})),
        ])

    def test_lookup_and_iteration(self):
        cover = self.build()
        assert len(cover) == 3
        assert cover.neighborhood("n2").entity_ids == {"b", "c"}
        assert cover.names() == ["n1", "n2", "n3"]
        assert cover[0].name == "n1"

    def test_duplicate_names_rejected(self):
        with pytest.raises(CoverError):
            Cover([Neighborhood("n", frozenset({"a"})), Neighborhood("n", frozenset({"b"}))])

    def test_unknown_neighborhood(self):
        with pytest.raises(CoverError):
            self.build().neighborhood("zzz")

    def test_covered_entities_and_membership(self):
        cover = self.build()
        assert cover.covered_entities() == {"a", "b", "c", "d"}
        assert cover.neighborhoods_of("b") == {"n1", "n2"}
        assert cover.neighborhoods_of("zzz") == frozenset()

    def test_neighborhoods_of_pair(self):
        cover = self.build()
        assert cover.neighborhoods_of_pair(EntityPair.of("b", "c")) == {"n2"}
        assert cover.neighborhoods_of_pair(EntityPair.of("a", "d")) == frozenset()

    def test_covers_and_validate(self):
        cover = self.build()
        store = small_store()
        assert cover.covers(store.entity_ids())
        cover.validate_covering(store)
        partial = Cover([Neighborhood("n1", frozenset({"a"}))])
        with pytest.raises(CoverError):
            partial.validate_covering(store)

    def test_total_cover_detection(self):
        store = small_store()
        cover = self.build()
        # coauthor tuples (a,b), (b,c), (c,d) are each inside some neighborhood.
        assert cover.is_total(store, ["coauthor"])
        missing = Cover([
            Neighborhood("n1", frozenset({"a", "b"})),
            Neighborhood("n3", frozenset({"c", "d"})),
        ])
        assert not missing.is_total(store, ["coauthor"])
        uncovered = missing.uncovered_tuples(store, ["coauthor"])
        assert ("b", "c") in uncovered["coauthor"]

    def test_stats_and_pairs(self):
        cover = self.build()
        stats = cover.stats()
        assert stats["neighborhoods"] == 3
        assert stats["max_size"] == 2
        assert cover.total_pairs() == 3
        assert cover.max_neighborhood_size() == 2

    def test_subset(self):
        cover = self.build()
        assert cover.subset(2).names() == ["n1", "n2"]
        assert len(cover.subset(0)) == 0
        with pytest.raises(ValueError):
            cover.subset(-1)

    def test_empty_cover_stats(self):
        assert Cover([]).stats()["neighborhoods"] == 0
        assert Cover([]).total_pairs() == 0


_IDS = list("abcdef")
_covers = st.lists(st.frozensets(st.sampled_from(_IDS), min_size=1),
                   max_size=6).map(
    lambda groups: [Neighborhood(f"n{index}", members)
                    for index, members in enumerate(groups)])


@settings(max_examples=80, deadline=None)
@given(before=_covers, after=_covers)
def test_a_patched_cover_answers_like_a_cold_one(before, after):
    """``Cover(neighborhoods, previous)`` edits a copy of ``previous``'s
    index: it answers every membership query as a cold cover does, and
    ``previous`` still answers for its own neighborhoods."""
    def answers(cover):
        return (cover.covered_entities(),
                {e: cover.neighborhoods_of(e) for e in _IDS},
                {(a, b): cover.neighborhoods_of_pair(EntityPair.of(a, b))
                 for a in _IDS for b in _IDS if a < b},
                {tup: cover._tuple_covered(tup)
                 for tup in (("a",), ("a", "b"), ("a", "b", "c"))})

    previous = Cover(before)
    expected_previous = answers(previous)
    assert answers(Cover(after, previous)) == answers(Cover(after))
    assert answers(previous) == expected_previous
