"""Tests for the blockers: canopy, standard, sorted-neighborhood, token, multi-pass."""

import pytest

from repro.blocking import CanopyBlocker
from repro.datamodel import EntityStore, make_author, make_paper
from tests.reference.blockers import (
    MultiPassBlocker,
    SortedNeighborhoodBlocker,
    StandardBlocker,
    TokenBlocker,
    last_name_initial_key,
    last_name_soundex_key,
)


def name_store():
    """Six author references: three Smith variants, two Joneses, one Keller."""
    store = EntityStore()
    store.add_entities([
        make_author("s1", "John", "Smith"),
        make_author("s2", "J.", "Smith"),
        make_author("s3", "Johnny", "Smith"),
        make_author("j1", "Mary", "Jones"),
        make_author("j2", "M.", "Jones"),
        make_author("k1", "Karl", "Keller"),
        make_paper("p1", title="A Paper"),
    ])
    return store


class TestCanopyBlocker:
    def test_produces_a_cover_of_authors(self):
        cover = CanopyBlocker().build_cover(name_store())
        covered = cover.covered_entities()
        assert {"s1", "s2", "s3", "j1", "j2", "k1"} <= covered
        assert "p1" not in covered  # papers join later via boundary expansion

    def test_similar_names_share_a_canopy(self):
        cover = CanopyBlocker().build_cover(name_store())
        smith_neighborhoods = [n for n in cover if {"s1", "s2"} <= n.entity_ids]
        assert smith_neighborhoods, "the two Smith variants should share a canopy"

    def test_dissimilar_names_do_not_share(self):
        cover = CanopyBlocker().build_cover(name_store())
        for neighborhood in cover:
            assert not {"s1", "k1"} <= neighborhood.entity_ids

    def test_deterministic_given_seed(self):
        store = name_store()
        first = CanopyBlocker(seed=3).build_cover(store)
        second = CanopyBlocker(seed=3).build_cover(store)
        assert [n.entity_ids for n in first] == [n.entity_ids for n in second]

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            CanopyBlocker(loose_threshold=0.9, tight_threshold=0.5)

    def test_tight_threshold_limits_centers(self):
        # With tight == loose every clustered entity stops being a center, so
        # there are at most as many canopies as with a higher tight threshold.
        store = name_store()
        few = CanopyBlocker(loose_threshold=0.7, tight_threshold=0.7).build_cover(store)
        many = CanopyBlocker(loose_threshold=0.7, tight_threshold=0.99).build_cover(store)
        assert len(few) <= len(many)


class TestStandardBlocker:
    def test_blocks_by_soundex(self):
        cover = StandardBlocker(key=last_name_soundex_key).build_cover(name_store())
        smith_block = [n for n in cover if "s1" in n]
        assert smith_block and {"s1", "s2", "s3"} <= smith_block[0].entity_ids

    def test_blocks_by_initial(self):
        cover = StandardBlocker(key=last_name_initial_key).build_cover(name_store())
        jones_block = [n for n in cover if "j1" in n][0]
        assert "j2" in jones_block

    def test_max_block_size_splits(self):
        cover = StandardBlocker(key=lambda e: "same", max_block_size=2).build_cover(name_store())
        assert all(len(n) <= 2 for n in cover)
        assert cover.covers({"s1", "s2", "s3", "j1", "j2", "k1"})


class TestSortedNeighborhoodBlocker:
    def test_windows_cover_all_authors(self):
        cover = SortedNeighborhoodBlocker(window_size=3).build_cover(name_store())
        assert cover.covers({"s1", "s2", "s3", "j1", "j2", "k1"})

    def test_window_sizes_bounded(self):
        cover = SortedNeighborhoodBlocker(window_size=3).build_cover(name_store())
        assert all(len(n) <= 3 for n in cover)

    def test_overlapping_windows(self):
        cover = SortedNeighborhoodBlocker(window_size=4, step=2).build_cover(name_store())
        # With step < window consecutive windows overlap on at least one entity.
        neighborhoods = list(cover)
        assert any(neighborhoods[i].entity_ids & neighborhoods[i + 1].entity_ids
                   for i in range(len(neighborhoods) - 1))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SortedNeighborhoodBlocker(window_size=1)
        with pytest.raises(ValueError):
            SortedNeighborhoodBlocker(window_size=3, step=0)

    def test_empty_store(self):
        assert len(SortedNeighborhoodBlocker().build_cover(EntityStore())) == 0


class TestTokenBlocker:
    def test_groups_by_last_name_token(self):
        cover = TokenBlocker(attributes=("lname",)).build_cover(name_store())
        smith_blocks = [n for n in cover if {"s1", "s2", "s3"} <= n.entity_ids]
        assert smith_blocks

    def test_all_authors_covered_even_without_tokens(self):
        store = name_store()
        store.add_entity(make_author("empty", "", ""))
        cover = TokenBlocker(attributes=("lname",)).build_cover(store)
        assert "empty" in cover.covered_entities()

    def test_oversized_blocks_dropped_but_entities_kept(self):
        cover = TokenBlocker(attributes=("lname",), max_block_size=2).build_cover(name_store())
        # The Smith block (3 members) is dropped, but the Smiths stay covered
        # through singleton neighborhoods.
        assert cover.covers({"s1", "s2", "s3"})
        assert all(len(n) <= 2 for n in cover)

    def test_invalid_max_block_size(self):
        with pytest.raises(ValueError):
            TokenBlocker(max_block_size=1)


class TestProfilesParameter:
    """Every blocker must produce the same cover with a shared profile index."""

    def signature(self, cover):
        return [(n.name, tuple(sorted(n.entity_ids))) for n in cover]

    def test_blockers_unchanged_by_shared_profiles(self):
        from repro.similarity import EntityProfileIndex
        store = name_store()
        profiles = EntityProfileIndex(store.entities())
        for blocker in (
            CanopyBlocker(),
            StandardBlocker(key=last_name_soundex_key),
            SortedNeighborhoodBlocker(window_size=3),
            TokenBlocker(attributes=("lname",)),
        ):
            plain = self.signature(blocker.build_cover(store))
            shared = self.signature(blocker.build_cover(store, profiles=profiles))
            assert plain == shared, type(blocker).__name__

    def test_multi_pass_shares_one_index(self):
        from repro.similarity import EntityProfileIndex
        store = name_store()
        multi = MultiPassBlocker([
            StandardBlocker(key=last_name_soundex_key),
            SortedNeighborhoodBlocker(window_size=3),
            TokenBlocker(attributes=("lname",)),
        ])
        profiles = EntityProfileIndex(store.entities())
        assert self.signature(multi.build_cover(store)) == \
            self.signature(multi.build_cover(store, profiles=profiles))


class TestMultiPassBlocker:
    def test_union_of_passes(self):
        store = name_store()
        multi = MultiPassBlocker([
            StandardBlocker(key=last_name_soundex_key),
            SortedNeighborhoodBlocker(window_size=3),
        ])
        cover = multi.build_cover(store)
        soundex_only = StandardBlocker(key=last_name_soundex_key).build_cover(store)
        assert len(cover) >= len(soundex_only)
        assert cover.covers({"s1", "s2", "s3", "j1", "j2", "k1"})

    def test_duplicate_blocks_deduplicated(self):
        multi = MultiPassBlocker([
            StandardBlocker(key=last_name_soundex_key),
            StandardBlocker(key=last_name_soundex_key),
        ])
        cover = multi.build_cover(name_store())
        memberships = [n.entity_ids for n in cover]
        assert len(memberships) == len(set(memberships))

    def test_requires_at_least_one_blocker(self):
        with pytest.raises(ValueError):
            MultiPassBlocker([])
