"""End-to-end parity: the incremental engine across schemes and executors.

The acceptance bar of the incremental scoring engine is that it is invisible
in the output: every scheme (NO-MP, SMP, MMP) under every executor (serial,
processes), with warm starts and result caches active, must produce
the *byte-identical* match set of the naive reference — the sequential scheme
run with set-based inference and every cache disabled.
"""

import pickle

import pytest

from repro.matchers import MLNMatcher, WarmStartCache
from repro.mln import paper_author_rules
from repro.parallel import GridExecutor
from tests.reference.grounding import ReferenceMLNMatcher
from tests.reference.inference import NaiveCollectiveInference
from tests.reference.schemes import (
    MaximalMessagePassing,
    NeighborhoodRunner,
    NoMessagePassing,
    SimpleMessagePassing,
)
from tests.util import (
    build_chain_store,
    build_two_hop_store,
    chain_cover,
    chain_pair,
    pair,
    two_hop_rules,
)

SEQUENTIAL_SCHEMES = {
    "no-mp": NoMessagePassing,
    "smp": SimpleMessagePassing,
    "mmp": MaximalMessagePassing,
}


def naive_matcher(rules):
    """The pre-incremental reference: set-based inference, no caches."""
    return ReferenceMLNMatcher(rules=rules,
                               inference=NaiveCollectiveInference(),
                               cache_results=False)


def counting_matcher(rules):
    """The production configuration: counting engine, all caches on."""
    return MLNMatcher(rules=rules)


def reference_matches(scheme, rules, store, cover):
    return SEQUENTIAL_SCHEMES[scheme]().run(naive_matcher(rules), store, cover).matches


class TestSequentialSchemeParity:
    """Counting + warm-started sequential schemes equal the naive reference."""

    @pytest.mark.parametrize("scheme", ["no-mp", "smp", "mmp"])
    def test_two_hop(self, scheme):
        store, cover = build_two_hop_store()
        expected = reference_matches(scheme, two_hop_rules(), store, cover)
        result = SEQUENTIAL_SCHEMES[scheme]().run(
            counting_matcher(two_hop_rules()), store, cover)
        assert result.matches == expected

    @pytest.mark.parametrize("scheme", ["no-mp", "smp", "mmp"])
    def test_chain_ring(self, scheme):
        store = build_chain_store(4, level=2)
        cover = chain_cover(4, window=3)
        expected = reference_matches(scheme, paper_author_rules(), store, cover)
        result = SEQUENTIAL_SCHEMES[scheme]().run(
            counting_matcher(paper_author_rules()), store, cover)
        assert result.matches == expected
        if scheme == "mmp":  # only MMP resolves the chicken-and-egg ring
            assert result.matches == {chain_pair(i) for i in range(4)}

    def test_smp_finds_the_two_hop_dependency(self):
        store, cover = build_two_hop_store()
        result = SimpleMessagePassing().run(
            counting_matcher(two_hop_rules()), store, cover)
        assert pair("a1", "a2") in result.matches


class TestGridExecutorParity:
    """Grid rounds (indexed evidence + warm-started tasks) equal the reference."""

    @pytest.mark.parametrize("scheme", ["no-mp", "smp", "mmp"])
    @pytest.mark.parametrize("executor", ["serial", "processes"])
    def test_two_hop(self, scheme, executor):
        store, cover = build_two_hop_store()
        expected = reference_matches(scheme, two_hop_rules(), store, cover)
        grid = GridExecutor(scheme=scheme, executor=executor, workers=2).run(
            counting_matcher(two_hop_rules()), store, cover)
        assert grid.matches == expected

    @pytest.mark.parametrize("scheme", ["no-mp", "smp", "mmp"])
    def test_chain_ring_serial(self, scheme):
        store = build_chain_store(4, level=2)
        cover = chain_cover(4, window=3)
        expected = reference_matches(scheme, paper_author_rules(), store, cover)
        grid = GridExecutor(scheme=scheme).run(
            counting_matcher(paper_author_rules()), store, cover)
        assert grid.matches == expected

    def test_chain_ring_mmp_processes(self):
        store = build_chain_store(4, level=2)
        cover = chain_cover(4, window=3)
        grid = GridExecutor(scheme="mmp", executor="processes", workers=2).run(
            counting_matcher(paper_author_rules()), store, cover)
        assert grid.matches == {chain_pair(i) for i in range(4)}


class TestWarmStartPlumbing:
    @pytest.mark.parametrize("cache_results", [True, False])
    def test_runner_warm_start_preserves_results(self, cache_results):
        """Revisits through a warm runner equal one-shot naive reference runs.

        With ``cache_results=False`` the warm starts come from the runner's
        own per-neighborhood cache; with ``True`` from the matcher's.
        """
        store, cover = build_two_hop_store()
        matcher = MLNMatcher(rules=two_hop_rules(), cache_results=cache_results)
        warm_runner = NeighborhoodRunner(matcher, store, cover)
        assert warm_runner._warm_start is not cache_results
        evidence = frozenset()
        for _ in range(3):
            for name in cover.names():
                warm = warm_runner.run(name, positive=evidence)
                cold = NeighborhoodRunner(
                    naive_matcher(two_hop_rules()), store, cover).run(
                        name, positive=evidence)
                assert warm == cold
                evidence = evidence | warm

    def test_matcher_result_cache_drops_on_pickle(self):
        store, _ = build_two_hop_store()
        matcher = counting_matcher(two_hop_rules())
        matcher.match(store)
        assert matcher._result_cache
        clone = pickle.loads(pickle.dumps(matcher))
        assert clone._result_cache == {}
        assert clone._network_cache == {}
        assert clone.match(store) == matcher.match(store)

    def test_matcher_warm_start_argument_is_used_soundly(self):
        store, cover = build_two_hop_store()
        matcher = counting_matcher(two_hop_rules())
        restricted = store.restrict(cover.neighborhood("bcd").entity_ids)
        base = matcher.match(restricted)
        again = matcher.match(restricted, warm_start=base)
        assert again == base

    def test_cache_results_disabled_still_correct(self):
        store, cover = build_two_hop_store()
        cached = counting_matcher(two_hop_rules())
        uncached = MLNMatcher(rules=two_hop_rules(), cache_results=False)
        for name in cover.names():
            restricted = store.restrict(cover.neighborhood(name).entity_ids)
            assert cached.match(restricted) == uncached.match(restricted)


class TestWarmStartCache:
    POS_A = frozenset({pair("x1", "x2")})
    POS_AB = frozenset({pair("x1", "x2"), pair("y1", "y2")})
    NEG = frozenset()

    def test_subset_lookup(self):
        cache = WarmStartCache()
        result = frozenset({pair("x1", "x2")})
        cache.store(self.POS_A, self.NEG, result)
        assert cache.lookup(self.POS_AB, self.NEG) == result
        assert cache.lookup(frozenset(), self.NEG) is None

    def test_negative_evidence_must_match_exactly(self):
        cache = WarmStartCache()
        cache.store(self.POS_A, frozenset({pair("n1", "n2")}), frozenset())
        assert cache.lookup(self.POS_AB, self.NEG) is None

    def test_probe_pattern_keeps_the_base_entry_alive(self):
        """k mutually-incompatible probes all warm-start from the base call."""
        cache = WarmStartCache(capacity=2)
        base_result = frozenset({pair("x1", "x2")})
        cache.store(self.POS_A, self.NEG, base_result)
        for i in range(6):
            probe_evidence = self.POS_A | {pair(f"p{i}", f"q{i}")}
            assert cache.lookup(probe_evidence, self.NEG) == base_result
            cache.store(probe_evidence, self.NEG, base_result | {pair(f"p{i}", f"q{i}")})

    def test_capacity_evicts_lru(self):
        cache = WarmStartCache(capacity=1)
        cache.store(self.POS_A, self.NEG, frozenset())
        cache.store(self.POS_AB, self.NEG, frozenset({pair("y1", "y2")}))
        assert len(cache) == 1
        assert cache.lookup(self.POS_A, self.NEG) is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            WarmStartCache(capacity=0)
