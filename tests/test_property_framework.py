"""Property-based tests (hypothesis) for the MLN matcher and the framework.

The framework's headline guarantees are universally quantified ("for every
well-behaved matcher and every cover ..."), which makes them natural targets
for property-based testing: random small instances and random covers are
generated, and the soundness / consistency / supermodularity invariants are
asserted exactly.
"""

import random
import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blocking import Cover, Neighborhood
from repro.core import FullRun
from repro.datamodel import EntityPair, EntityStore, make_author
from repro.matchers import MLNMatcher, RulesMatcher
from repro.mln import (
    GreedyCollectiveInference,
    MarkovLogicNetwork,
    paper_author_rules,
)
from tests.reference.inference import exhaustive_map
from tests.reference.schemes import (
    MaximalMessagePassing,
    NoMessagePassing,
    SimpleMessagePassing,
)
from tests.util import add_coauthor_edges


# --------------------------------------------------------------------------- strategies
@st.composite
def random_instances(draw):
    """A random small EM instance: 2-5 authors x 2 sources, random structure."""
    author_count = draw(st.integers(min_value=2, max_value=5))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    store = EntityStore()
    for index in range(author_count):
        for source in (0, 1):
            store.add_entity(make_author(f"r{index}s{source}", "J.", f"Name{index}",
                                         source=f"s{source}"))
    # Random coauthor edges within each source.
    edges = []
    for first in range(author_count):
        for second in range(first + 1, author_count):
            if rng.random() < 0.5:
                for source in (0, 1):
                    edges.append((f"r{first}s{source}", f"r{second}s{source}"))
    if edges:
        add_coauthor_edges(store, edges)
    else:
        add_coauthor_edges(store, [])
    # Every cross-source pair is a candidate with a random level.
    for index in range(author_count):
        level = rng.choice([1, 1, 2, 2, 3])
        score = {1: 0.87, 2: 0.91, 3: 0.97}[level]
        store.add_similarity(EntityPair.of(f"r{index}s0", f"r{index}s1"), score, level)
    return store


@st.composite
def instances_with_covers(draw):
    """A random instance plus a random cover of overlapping neighborhoods."""
    store = draw(random_instances())
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    entity_ids = sorted(store.entity_ids())
    neighborhoods = []
    neighborhood_count = rng.randint(2, 4)
    for index in range(neighborhood_count):
        size = rng.randint(2, len(entity_ids))
        members = set(rng.sample(entity_ids, size))
        neighborhoods.append(Neighborhood(f"n{index}", frozenset(members)))
    # Ensure the union covers everything by adding a catch-all neighborhood.
    covered = set().union(*(n.entity_ids for n in neighborhoods))
    missing = set(entity_ids) - covered
    if missing:
        neighborhoods.append(Neighborhood("rest", frozenset(missing)))
    return store, Cover(neighborhoods)


SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- MLN
class TestMLNProperties:
    @SETTINGS
    @given(random_instances())
    def test_greedy_inference_matches_exhaustive_map(self, store):
        network = MarkovLogicNetwork(paper_author_rules()).ground(store)
        greedy = GreedyCollectiveInference().infer(network)
        exact = exhaustive_map(network)
        assert abs(greedy.score - exact.score) < 1e-6

    @SETTINGS
    @given(random_instances(), st.integers(min_value=0, max_value=10_000))
    def test_supermodularity_of_score_deltas(self, store, seed):
        matcher = MLNMatcher()
        candidates = sorted(store.similar_pairs())
        if len(candidates) < 2:
            return
        rng = random.Random(seed)
        target = rng.choice(candidates)
        others = [p for p in candidates if p != target]
        small = set(rng.sample(others, rng.randint(0, len(others))))
        remaining = [p for p in others if p not in small]
        large = small | set(rng.sample(remaining, rng.randint(0, len(remaining))))
        assert matcher.score_delta(store, large, {target}) >= \
            matcher.score_delta(store, small, {target}) - 1e-9

    @SETTINGS
    @given(random_instances())
    def test_idempotence_of_mln_matcher(self, store):
        matcher = MLNMatcher()
        output = matcher.match(store)
        replayed = matcher.match_pairs(store, positive=output)
        assert replayed == output

    @SETTINGS
    @given(random_instances())
    def test_entity_monotonicity_of_mln_matcher(self, store):
        matcher = MLNMatcher()
        full_output = matcher.match(store)
        authors = sorted(store.entity_ids())
        sub_ids = authors[: max(2, len(authors) // 2)]
        sub_output = matcher.match(store.restrict(sub_ids))
        assert sub_output <= full_output


# --------------------------------------------------------------------------- schemes
class TestSchemeProperties:
    @SETTINGS
    @given(instances_with_covers())
    def test_smp_is_sound_wrt_full_run(self, store_and_cover):
        store, cover = store_and_cover
        matcher = MLNMatcher()
        smp = SimpleMessagePassing().run(matcher, store, cover)
        full = FullRun().run(matcher, store)
        assert smp.matches <= full.matches

    @SETTINGS
    @given(instances_with_covers())
    def test_mmp_is_sound_wrt_full_run(self, store_and_cover):
        store, cover = store_and_cover
        matcher = MLNMatcher()
        mmp = MaximalMessagePassing().run(matcher, store, cover)
        full = FullRun().run(matcher, store)
        assert mmp.matches <= full.matches

    @SETTINGS
    @given(instances_with_covers(), st.integers(min_value=0, max_value=100))
    def test_smp_is_consistent_under_cover_order(self, store_and_cover, seed):
        store, cover = store_and_cover
        neighborhoods = list(cover)
        random.Random(seed).shuffle(neighborhoods)
        shuffled = Cover(neighborhoods)
        first = SimpleMessagePassing().run(MLNMatcher(), store, cover)
        second = SimpleMessagePassing().run(MLNMatcher(), store, shuffled)
        assert first.matches == second.matches

    @SETTINGS
    @given(instances_with_covers())
    def test_smp_finds_at_least_no_mp(self, store_and_cover):
        store, cover = store_and_cover
        matcher = MLNMatcher()
        nomp = NoMessagePassing().run(matcher, store, cover)
        smp = SimpleMessagePassing().run(matcher, store, cover)
        assert nomp.matches <= smp.matches

    @SETTINGS
    @given(instances_with_covers())
    def test_rules_matcher_smp_sound_and_consistent(self, store_and_cover):
        store, cover = store_and_cover
        smp = SimpleMessagePassing().run(RulesMatcher(), store, cover)
        full = FullRun().run(RulesMatcher(), store)
        assert smp.matches <= full.matches
