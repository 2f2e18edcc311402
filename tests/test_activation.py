"""The activation rule: tight wake-ups lose nothing against the loose oracle.

``repro.core.activation.woken_by`` wakes a neighborhood only for a pair with
both ends inside it that its last output does not already hold.  The paper's
``Neighbor(...)`` operator (``tests/reference/activation.py``) wakes every
neighborhood sharing one entity.  For well-behaved matchers the two must
reach the same matches, first derivations and per-neighborhood results —
only the number of matcher calls may differ — and the tight grid must never
ask a neighborhood a question it has already answered.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blocking import Cover, Neighborhood
from repro.core.activation import woken_by
from repro.datamodel import EntityPair, Evidence
from repro.matchers import MLNMatcher, RulesMatcher, TypeIMatcher
from repro.matchers.properties import check_idempotence, check_monotonicity
from repro.obs import registry as obs_registry
from repro.parallel import GridExecutor, make_executor
from repro.streaming import StreamSession, synthesize_stream
from tests.reference.activation import loosely_woken_by, neighbors_of_pairs
from tests.reference.schemes import MaximalMessagePassing, SimpleMessagePassing
from tests.test_property_framework import instances_with_covers

MATCHERS = {"rules": RulesMatcher, "mln": MLNMatcher}
#: MMP needs a Type-II matcher, which the rules matcher is not.
COMBINATIONS = [("rules", "smp"), ("mln", "smp"), ("mln", "mmp")]


def _cover():
    return Cover([
        Neighborhood("n1", frozenset({"a", "b"})),
        Neighborhood("n2", frozenset({"b", "c"})),
        Neighborhood("n3", frozenset({"c", "d"})),
        Neighborhood("n4", frozenset({"b", "c", "d"})),
    ])


# ------------------------------------------------------------------ the rule
def test_neighbors_of_pairs_is_the_neighbor_operator():
    affected = neighbors_of_pairs(_cover(), [EntityPair.of("b", "c")])
    assert affected == {"n1", "n2", "n3", "n4"}


def test_woken_by_needs_both_ends_inside():
    assert woken_by(_cover(), [EntityPair.of("b", "c")], {}) == {"n2", "n4"}
    assert woken_by(_cover(), [EntityPair.of("a", "d")], {}) == set()


def test_woken_by_skips_a_neighborhood_that_already_output_the_pair():
    pair, other = EntityPair.of("b", "c"), EntityPair.of("c", "d")
    last = {"n2": frozenset({pair}), "n4": frozenset({other})}
    # n2 produced the pair itself; n4 ran but has not seen it; n3 never ran.
    assert woken_by(_cover(), [pair], last) == {"n4"}
    assert woken_by(_cover(), [other], last) == {"n3"}
    assert woken_by(_cover(), [pair, other], last) == {"n3", "n4"}


def test_wakeup_counters_count_routings():
    woken = obs_registry.counter("grid_wakeups_total")
    suppressed = obs_registry.counter("grid_wakeups_suppressed_total")
    before = woken.value(), suppressed.value()
    pair = EntityPair.of("b", "c")
    woken_by(_cover(), [pair], {"n2": frozenset({pair})})
    # Routed to n2 (already output it) and n4 (has not).
    assert (woken.value(), suppressed.value()) == (before[0] + 1, before[1] + 1)


def test_grid_run_reports_its_wakeups(hepth_dataset, hepth_cover):
    woken = obs_registry.counter("grid_wakeups_total")
    suppressed = obs_registry.counter("grid_wakeups_suppressed_total")
    before = woken.value(), suppressed.value()
    result = GridExecutor(scheme="smp").run(RulesMatcher(), hepth_dataset.store,
                                            hepth_cover)
    later_tasks = sum(len(tasks) for tasks in result.rounds[1:])
    assert later_tasks > 0
    # Every task after round one was woken by at least one routing, and the
    # producers of the new pairs were not.
    assert woken.value() - before[0] >= later_tasks
    assert suppressed.value() - before[1] >= len(result.matches)


# ------------------------------------------------ tight == loose, end to end
def _grid_outcome(scheme, executor, matcher, store, cover):
    return GridExecutor(scheme=scheme, executor=executor).run(
        matcher, store, cover, collect_results=True)


def _assert_tight_equals_loose(monkeypatch, matcher_name, scheme, executor,
                               store, cover):
    tight = _grid_outcome(scheme, executor, MATCHERS[matcher_name](),
                          store, cover)
    with monkeypatch.context() as patch:
        patch.setattr("repro.parallel.grid.woken_by", loosely_woken_by)
        loose = _grid_outcome(scheme, executor, MATCHERS[matcher_name](),
                              store, cover)
    assert tight.matches == loose.matches
    assert tight.pair_origins == loose.pair_origins
    assert tight.neighborhood_results == loose.neighborhood_results
    assert tight.round_count <= loose.round_count
    assert tight.neighborhood_runs <= loose.neighborhood_runs


@pytest.mark.parametrize("matcher_name,scheme", COMBINATIONS)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(instances_with_covers())
def test_tight_grid_equals_loose_grid_serial(monkeypatch, matcher_name, scheme,
                                             instance):
    store, cover = instance
    _assert_tight_equals_loose(monkeypatch, matcher_name, scheme, None,
                               store, cover)


@pytest.fixture(scope="module")
def process_pool():
    with make_executor("processes", 2) as executor:
        yield executor


@pytest.mark.parametrize("matcher_name,scheme", COMBINATIONS)
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(instances_with_covers())
def test_tight_grid_equals_loose_grid_processes(monkeypatch, process_pool,
                                                matcher_name, scheme, instance):
    store, cover = instance
    _assert_tight_equals_loose(monkeypatch, matcher_name, scheme, process_pool,
                               store, cover)


@pytest.mark.parametrize("matcher_name,scheme", COMBINATIONS)
def test_tight_grid_equals_loose_grid_on_blocked_covers(
        monkeypatch, matcher_name, scheme, hepth_dataset, hepth_cover,
        dblp_dataset, dblp_cover):
    for dataset, cover in ((hepth_dataset, hepth_cover),
                           (dblp_dataset, dblp_cover)):
        _assert_tight_equals_loose(monkeypatch, matcher_name, scheme, None,
                                   dataset.store, cover)


@pytest.mark.parametrize("matcher_name,scheme", COMBINATIONS)
def test_sequential_schemes_agree_with_the_grid(matcher_name, scheme,
                                                hepth_dataset, hepth_cover):
    sequential = (SimpleMessagePassing if scheme == "smp"
                  else MaximalMessagePassing)().run(
        MATCHERS[matcher_name](), hepth_dataset.store, hepth_cover)
    grid = GridExecutor(scheme=scheme).run(
        MATCHERS[matcher_name](), hepth_dataset.store, hepth_cover)
    assert sequential.matches == grid.matches


# ------------------------------------- no question is asked twice in one run
class RecordingMatcher(TypeIMatcher):
    """Delegates to ``inner`` and logs every call with its answer."""

    name = "recording"

    def __init__(self, inner: TypeIMatcher):
        self.inner = inner
        #: (members, V+, V−, output) per call, in call order.
        self.calls = []

    def match(self, store, evidence=None):
        evidence = evidence if evidence is not None else Evidence.empty()
        output = self.inner.match(store, evidence)
        self.calls.append((frozenset(store.entity_ids()), evidence.positive,
                           evidence.negative, output))
        return output


def _assert_every_run_had_something_to_learn(calls, cover) -> int:
    """No neighborhood is invoked twice with the same ``(members, V+, V−)``;
    every re-invocation carries a pair absent from its previous output.
    Returns the number of re-invocations seen.

    The matcher sees member sets, not names, so neighborhoods whose member
    set occurs twice in the cover (two canopies expanding to the same set)
    are left out: their calls cannot be told apart.
    """
    multiplicity = {}
    for neighborhood in cover:
        multiplicity[neighborhood.entity_ids] = \
            multiplicity.get(neighborhood.entity_ids, 0) + 1
    previous = {}
    revisits = 0
    for members, positive, negative, output in calls:
        if multiplicity[members] > 1:
            continue
        seen = previous.get(members)
        if seen is not None:
            revisits += 1
            assert (positive, negative) != seen[:2], \
                f"neighborhood {sorted(members)[:3]}… asked the same question twice"
            assert positive - seen[2], \
                f"neighborhood {sorted(members)[:3]}… re-run with nothing new to learn"
        previous[members] = (positive, negative, output)
    return revisits


@pytest.mark.parametrize("inner", [RulesMatcher, MLNMatcher])
def test_cold_grid_run_never_repeats_a_question(inner, hepth_dataset, hepth_cover):
    matcher = RecordingMatcher(inner())
    result = GridExecutor(scheme="smp").run(matcher, hepth_dataset.store,
                                            hepth_cover)
    assert result.round_count > 1, "fixture must exercise message passing"
    assert _assert_every_run_had_something_to_learn(matcher.calls,
                                                    hepth_cover) > 0


@pytest.mark.parametrize("inner", [RulesMatcher, MLNMatcher])
def test_stream_batches_never_repeat_a_question(inner, dblp_dataset):
    scenario = synthesize_stream(dblp_dataset, batches=4,
                                 holdout_fraction=0.3, seed=5)
    matcher = RecordingMatcher(inner())
    session = StreamSession(matcher, scenario.base.store.copy())
    session.start()
    _assert_every_run_had_something_to_learn(matcher.calls, session.cover)
    revisits = 0
    for batch in scenario.log:
        del matcher.calls[:]
        session.apply(batch)
        revisits += _assert_every_run_had_something_to_learn(
            matcher.calls, session.cover)
    assert revisits > 0, "fixture must exercise message passing"
    assert session.verify()


# ----------------------- the rule leans on well-behaved matchers: check them
def _neighborhood_stores(dataset, cover, limit=40):
    """Restricted stores of the neighborhoods with at least one candidate."""
    stores = []
    for neighborhood in cover:
        store = dataset.store.restrict(neighborhood.entity_ids)
        if store.similar_pairs():
            stores.append(store)
    stores.sort(key=lambda s: -len(s.similar_pairs()))
    return stores[:limit]


@pytest.mark.parametrize("matcher_name", sorted(MATCHERS))
def test_shipped_matchers_are_idempotent_and_monotone_on_neighborhoods(
        matcher_name, hepth_dataset, hepth_cover, dblp_dataset, dblp_cover):
    checked = 0
    for dataset, cover in ((hepth_dataset, hepth_cover),
                           (dblp_dataset, dblp_cover)):
        for index, store in enumerate(_neighborhood_stores(dataset, cover)):
            matcher = MATCHERS[matcher_name]()
            report = check_idempotence(matcher, store, trials=2, seed=index)
            report = report.merge(
                check_monotonicity(matcher, store, trials=2, seed=index))
            assert report.ok, [str(v) for v in report.violations]
            checked += report.checks
    assert checked > 100


@pytest.mark.parametrize("matcher_name", sorted(MATCHERS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances_with_covers(), st.randoms(use_true_random=False))
def test_evidence_from_the_last_output_changes_nothing(matcher_name, instance, rng):
    """The skipped task: for ``N ⊆ E(C, V)``, ``E(C, V ∪ N) = E(C, V)``."""
    store, cover = instance
    matcher = MATCHERS[matcher_name]()
    for neighborhood in cover:
        sub = store.restrict(neighborhood.entity_ids)
        candidates = sorted(sub.similar_pairs())
        if not candidates:
            continue
        given_pairs = frozenset(rng.sample(candidates,
                                           rng.randint(0, len(candidates))))
        output = matcher.match_pairs(sub, positive=given_pairs)
        if not output:
            continue
        known = frozenset(rng.sample(sorted(output),
                                     rng.randint(1, len(output))))
        assert matcher.match_pairs(sub, positive=given_pairs | known) == output
