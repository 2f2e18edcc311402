"""Sliced grounding: a neighborhood's network is a slice of its base's index.

``MarkovLogicNetwork.ground(view)`` does not ground the view: it slices the
binding index of the view's base (``view.restriction()``), keeping each
grounding whose witness lies inside the view.  Every network here must
equal — grounding order, weights and candidates — the nested-loop oracle
(``tests/reference/grounding.py``) run on ``view.to_entity_store()``:

* every neighborhood of the hepth@0.3 and dblp@0.5 covers, as dict, compact
  and overlay views, each kind sliced from one MLN;
* every neighborhood of a streamed instance, as overlay views before the
  stream and after each batch, across a rebase, sliced from the live
  matcher's MLN;
* random small stores and covers under four rule programs, before and after
  a random mutation of an overlay.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking import CanopyBlocker, build_total_cover
from repro.datamodel import CompactStore, EntityPair, EntityStore, make_author
from repro.datasets import dblp_like, hepth_like
from repro.matchers import MLNMatcher
from repro.mln import MarkovLogicNetwork, Rule, RuleSet, atom, const, paper_author_rules
from repro.obs import registry as obs_registry
from repro.streaming import StreamSession, synthesize_stream
from repro.streaming.overlay import StoreOverlay
from tests.reference.grounding import reference_network, section2_example_rules
from tests.util import add_coauthor_edges

RULE_PROGRAMS = {
    "paper": paper_author_rules(),
    # Level-free ``similar``.
    "section2": section2_example_rules(),
    # An entity-id constant in an evidence atom, in a body ``equals`` and in
    # a head (the last makes an unseeded plan).
    "entity_constant": RuleSet([
        Rule("via_e0",
             (atom("coauthor", "x", const("e0")), atom("similar", "x", "y"),
              atom("coauthor", "y", "c"), atom("equals", "c", const("e0"))),
             atom("equals", "x", "y"), 1.5),
        Rule("to_e1", (atom("coauthor", "x", "c"), atom("similar", "x", const("e1"), 2)),
             atom("equals", "x", const("e1")), -0.5)]),
    # An evidence atom sharing no head variable: its bindings read entities
    # far from the head, so only their witnesses tell which slices keep them.
    "detached_evidence": RuleSet([Rule(
        "anywhere",
        (atom("similar", "x", "y", 1), atom("coauthor", "u", "v"), atom("equals", "u", "v")),
        atom("equals", "x", "y"), 0.75)]),
}


def rows(network):
    """A network as plain data: its groundings in order, and its candidates."""
    return ([(g.rule_name, g.weight, g.head_pair, tuple(sorted(g.body_pairs)))
             for g in network.groundings], sorted(network.candidates))


class Oracle:
    """The oracle network of a materialised store, memoised by its content
    (the views of one neighborhood materialise to equal stores)."""

    def __init__(self, rules):
        self.rules, self._seen = rules, {}

    def __call__(self, store: EntityStore):
        key = (store.entity_ids(),
               frozenset((edge.pair, edge.level) for edge in store.similarity_edges()),
               tuple((relation.name, relation.tuples()) for relation in store.relations()))
        found = self._seen.get(key)
        if found is None:
            found = self._seen[key] = rows(reference_network(self.rules, store))
        return found


def materialised(view) -> EntityStore:
    """``view.to_entity_store()``; a dict view is a materialised store."""
    return view if isinstance(view, EntityStore) else view.to_entity_store()


def assert_slice_is_the_oracle(mln, view, oracle):
    assert rows(mln.ground(view)) == oracle(materialised(view))


# ------------------------------------------------------- the two covers
@pytest.fixture(scope="module", params=["hepth@0.3", "dblp@0.5"])
def instance(request):
    preset, scale = request.param.split("@")
    store = {"hepth": hepth_like, "dblp": dblp_like}[preset](scale=float(scale)).store
    cover = build_total_cover(CanopyBlocker(), store, relation_names=["coauthor"])
    return store, cover, Oracle(paper_author_rules())


@pytest.mark.parametrize("kind", ["dict", "compact", "overlay"])
def test_every_neighborhood_slice_is_the_oracle(instance, kind):
    store, cover, oracle = instance
    base = {"dict": lambda: store,
            "compact": lambda: CompactStore.from_store(store),
            "overlay": lambda: StoreOverlay(store)}[kind]()
    mln = MarkovLogicNetwork(paper_author_rules())
    for neighborhood in cover:
        assert_slice_is_the_oracle(mln, base.restrict(neighborhood.entity_ids), oracle)
    # The whole instance is a slice too (members None).
    assert_slice_is_the_oracle(mln, base, oracle)


@pytest.fixture(scope="module")
def stream():
    return synthesize_stream(dblp_like(scale=0.25), batches=4,
                             holdout_fraction=0.2, seed=7)


def rebasing_session(scenario) -> StreamSession:
    """A session over the stream's base that rebases after batches 2 and 4."""
    session = StreamSession(MLNMatcher(), CompactStore.from_store(scenario.base.store),
                            blocker=CanopyBlocker(), relation_names=["coauthor"],
                            rebase_threshold=150)
    session.start()
    return session


def test_overlay_slices_stay_the_oracle_across_a_stream_and_a_rebase(stream):
    scenario, session = stream, rebasing_session(stream)
    mln, oracle = session.matcher.mln, Oracle(paper_author_rules())
    rebased = []
    for batch in [None, *scenario.log]:
        if batch is not None:
            rebased.append(session.apply(batch).rebased)
        for neighborhood in session.cover:
            assert_slice_is_the_oracle(
                mln, session.overlay.restrict(neighborhood.entity_ids), oracle)
    assert any(rebased) and not all(rebased), rebased


def test_a_rebase_frees_the_retired_overlay_and_its_index(stream):
    session = rebasing_session(stream)
    rebased = []
    for batch in stream.log:
        retired = weakref.ref(session.overlay)
        rebased.append(session.apply(batch).rebased)
        gc.collect()
        assert (retired() is None) == rebased[-1]
    assert any(rebased)


# ---------------------------------------------------- random instances
ENTITY_IDS = [f"e{i}" for i in range(7)]
ID_PAIRS = st.tuples(st.sampled_from(ENTITY_IDS), st.sampled_from(ENTITY_IDS))
DISTINCT_PAIRS = ID_PAIRS.filter(lambda ab: ab[0] != ab[1])


@st.composite
def small_stores(draw):
    store = EntityStore()
    store.add_entities([make_author(i, "A", f"N{i}") for i in ENTITY_IDS])
    add_coauthor_edges(store, draw(st.lists(ID_PAIRS, max_size=14)))
    similar = draw(st.dictionaries(DISTINCT_PAIRS.map(lambda ab: EntityPair.of(*ab)),
                                   st.integers(1, 3), max_size=10))
    for candidate, level in similar.items():
        store.add_similarity(candidate, 0.9, level)
    return store


COVERS = st.lists(st.frozensets(st.sampled_from(ENTITY_IDS), min_size=1), min_size=1,
                  max_size=5)
MUTATIONS = st.lists(st.tuples(st.sampled_from(["similar", "unsimilar", "tuple", "untuple"]),
                               DISTINCT_PAIRS, st.integers(1, 3)), max_size=6)


def mutate(overlay: StoreOverlay, kind, ids, level) -> None:
    if kind == "similar":
        overlay.upsert_similarity(EntityPair.of(*ids), 0.8, level)
    elif kind == "unsimilar":
        overlay.remove_similarity(EntityPair.of(*ids))
    elif kind == "tuple":
        overlay.add_tuple("coauthor", ids)
    else:
        overlay.remove_tuple("coauthor", ids)


@settings(max_examples=80, deadline=None)
@given(store=small_stores(), program=st.sampled_from(sorted(RULE_PROGRAMS)),
       cover=COVERS, mutations=MUTATIONS)
def test_random_slices_are_the_oracle(store, program, cover, mutations):
    rules = RULE_PROGRAMS[program]
    mln, oracle = MarkovLogicNetwork(rules), Oracle(rules)
    compact = CompactStore.from_store(store)
    overlay = StoreOverlay(compact)
    for members in cover:
        for base in (store, compact, overlay):
            assert_slice_is_the_oracle(mln, base.restrict(members), oracle)
    for mutation in mutations:
        mutate(overlay, *mutation)
    for members in cover:
        assert_slice_is_the_oracle(mln, overlay.restrict(members), oracle)
    assert_slice_is_the_oracle(mln, overlay, oracle)


# ------------------------------------------------- the per-base index
def test_a_generation_gets_a_fresh_index_and_a_retired_base_none():
    store = hepth_like(scale=0.1).store
    mln = MarkovLogicNetwork(paper_author_rules())
    overlay = StoreOverlay(CompactStore.from_store(store))
    members = sorted(store.entity_ids())[:40]
    mln.ground(overlay.restrict(members))
    first = mln._indexes[overlay][1]
    mln.ground(overlay.restrict(members[:20]))
    assert mln._indexes[overlay][1] is first
    overlay.remove_entity(members[0])
    mln.ground(overlay.restrict(members[1:]))
    assert mln._indexes[overlay][1] is not first
    del overlay
    gc.collect()
    assert len(mln._indexes) == 0


def test_the_whole_base_is_one_more_slice_of_its_index():
    # MMP grounds the whole snapshot after its neighborhoods: every binding
    # of it was enumerated for some view already (a total cover holds every
    # candidate pair), so the whole network joins nothing new.
    store = CompactStore.from_store(hepth_like(scale=0.1).store)
    mln = MarkovLogicNetwork(paper_author_rules())
    for neighborhood in build_total_cover(CanopyBlocker(), store, relation_names=["coauthor"]):
        mln.ground(store.restrict(neighborhood.entity_ids))
    counter = obs_registry.counter("mln_ground_bindings_total")
    before = counter.value()
    assert mln.ground(store).groundings
    assert counter.value() == before


def test_pickling_drops_the_indexes():
    store = CompactStore.from_store(hepth_like(scale=0.1).store)
    mln = MarkovLogicNetwork(paper_author_rules())
    network = mln.ground(store.restrict(sorted(store.entity_ids())[:40]))
    clone = pickle.loads(pickle.dumps(mln))
    assert len(mln._indexes) == 1 and len(clone._indexes) == 0
    assert rows(clone.ground(store.restrict(sorted(store.entity_ids())[:40]))) == rows(network)
