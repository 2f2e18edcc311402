"""Tests for repro.datamodel.pair."""

import concurrent.futures
import copy
import multiprocessing
import pickle

import pytest

from repro.datamodel import Entity, EntityPair, all_pairs, pairs_from, pairs_involving
from repro.exceptions import InvalidPairError


class TestEntityPair:
    def test_canonical_order(self):
        assert EntityPair("b", "a") == EntityPair("a", "b")
        assert EntityPair("b", "a").first == "a"

    def test_identical_members_rejected(self):
        with pytest.raises(InvalidPairError):
            EntityPair("a", "a")

    def test_of_accepts_entities(self):
        first = Entity("a", "author")
        second = Entity("b", "author")
        assert EntityPair.of(second, first) == EntityPair("a", "b")

    def test_coerce_tuple(self):
        assert EntityPair.coerce(("b", "a")) == EntityPair("a", "b")

    def test_coerce_pair_is_identity(self):
        pair = EntityPair("a", "b")
        assert EntityPair.coerce(pair) is pair

    def test_iteration_and_tuple(self):
        pair = EntityPair("b", "a")
        assert list(pair) == ["a", "b"]
        assert pair.as_tuple() == ("a", "b")

    def test_other(self):
        pair = EntityPair("a", "b")
        assert pair.other("a") == "b"
        assert pair.other("b") == "a"
        with pytest.raises(KeyError):
            pair.other("c")

    def test_involves(self):
        pair = EntityPair("a", "b")
        assert pair.involves("a")
        assert pair.involves("b")
        assert not pair.involves("c")

    def test_ordering_is_total(self):
        pairs = [EntityPair("c", "d"), EntityPair("a", "b"), EntityPair("a", "c")]
        assert sorted(pairs) == [EntityPair("a", "b"), EntityPair("a", "c"),
                                 EntityPair("c", "d")]

    def test_hashable_and_set_semantics(self):
        assert len({EntityPair("a", "b"), EntityPair("b", "a")}) == 1


class TestPairHelpers:
    def test_pairs_from_mixed(self):
        result = pairs_from([("b", "a"), EntityPair("c", "d")])
        assert result == {EntityPair("a", "b"), EntityPair("c", "d")}
        assert isinstance(result, frozenset)

    def test_all_pairs_count(self):
        ids = ["a", "b", "c", "d"]
        pairs = all_pairs(ids)
        assert len(pairs) == 6

    def test_all_pairs_deduplicates_input(self):
        assert len(all_pairs(["a", "b", "a"])) == 1

    def test_pairs_involving(self):
        pairs = all_pairs(["a", "b", "c"])
        touching_a = pairs_involving(pairs, ["a"])
        assert touching_a == {EntityPair("a", "b"), EntityPair("a", "c")}


def _rebuilt_in_a_fresh_process(pairs):
    """Runs in a spawned interpreter, under its own string-hash seed."""
    fresh = [EntityPair(pair.second, pair.first) for pair in pairs]
    return ([hash(pair) == hash((pair.first, pair.second)) for pair in pairs],
            [pair in pairs for pair in fresh], set(pairs) | set(fresh))


class TestPairHash:
    #: ``pickle.dumps(EntityPair("a1", "b2"), protocol=2)`` and ``protocol=4``
    #: as written before the hash was cached: ``{'first', 'second'}`` state.
    OLD_PICKLES = (
        b"\x80\x02crepro.datamodel.pair\nEntityPair\nq\x00)\x81q\x01}q\x02(X\x05"
        b"\x00\x00\x00firstq\x03X\x02\x00\x00\x00a1q\x04X\x06\x00\x00\x00secondq"
        b"\x05X\x02\x00\x00\x00b2q\x06ub.",
        b"\x80\x04\x95J\x00\x00\x00\x00\x00\x00\x00\x8c\x14repro.datamodel.pair\x94"
        b"\x8c\nEntityPair\x94\x93\x94)\x81\x94}\x94(\x8c\x05first\x94\x8c\x02a1\x94"
        b"\x8c\x06second\x94\x8c\x02b2\x94ub.",
    )

    def test_hash_is_the_tuple_hash(self):
        assert hash(EntityPair("b", "a")) == hash(("a", "b"))

    @pytest.mark.parametrize("blob", OLD_PICKLES)
    def test_pickles_written_before_the_cached_hash_load(self, blob):
        loaded = pickle.loads(blob)
        assert loaded == EntityPair("a1", "b2")
        assert hash(loaded) == hash(("a1", "b2"))
        assert loaded in {EntityPair("b2", "a1")}

    def test_round_trip_keeps_the_pair_and_recomputes_the_hash(self):
        pair = EntityPair("b", "a")
        for clone in (pickle.loads(pickle.dumps(pair)), copy.deepcopy(pair)):
            assert clone == pair and hash(clone) == hash(pair)

    def test_spawn_pool_round_trip(self):
        """Pairs shipped to and from a spawned worker hash with the seed of
        the process holding them, in sets and as lookups."""
        pairs = frozenset(EntityPair(f"x{i}", f"y{i}") for i in range(50))
        context = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
            hashed, found, merged = pool.submit(
                _rebuilt_in_a_fresh_process, pairs).result(timeout=120)
        assert all(hashed) and all(found)
        assert merged == set(pairs)
        assert all(hash(pair) == hash((pair.first, pair.second)) for pair in merged)
