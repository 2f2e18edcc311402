"""Tests for the message-passing schemes: NO-MP, SMP, MMP, UB, FULL.

These tests use hand-built instances whose correct outputs are known exactly:

* the *two-hop* instance separates NO-MP from SMP,
* the *ring* instance separates SMP from MMP (the chicken-and-egg chains of
  Section 5.2),
* soundness (every scheme's output is contained in the full run) and
  consistency (order invariance) are checked on both.
"""

import pytest

from repro.blocking import Cover, Neighborhood
from repro.core import FullRun, UpperBoundScheme, compute_maximal_messages
from repro.exceptions import MatcherError
from repro.matchers import MLNMatcher, RulesMatcher
from repro.mln import paper_author_rules
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


def two_hop_setup():
    store, cover = build_two_hop_store()
    matcher = MLNMatcher(rules=two_hop_rules())
    return matcher, store, cover


def ring_setup(length=4):
    store = build_chain_store(length=length, level=2)
    cover = chain_cover(length=length, window=3)
    matcher = MLNMatcher(rules=paper_author_rules())
    return matcher, store, cover


A_PAIR, B_PAIR = pair("a1", "a2"), pair("b1", "b2")
C_PAIR, D_PAIR = pair("c1", "c2"), pair("d1", "d2")


class TestNoMessagePassing:
    def test_two_hop_misses_the_dependent_pair(self):
        matcher, store, cover = two_hop_setup()
        result = NoMessagePassing().run(matcher, store, cover)
        assert result.matches == {B_PAIR, C_PAIR, D_PAIR}
        assert A_PAIR not in result.matches
        assert result.neighborhood_runs == len(cover)
        assert result.scheme == "no-mp"

    def test_ring_matches_nothing(self):
        matcher, store, cover = ring_setup()
        result = NoMessagePassing().run(matcher, store, cover)
        assert result.matches == frozenset()


class TestSimpleMessagePassing:
    def test_two_hop_recovers_the_dependent_pair(self):
        matcher, store, cover = two_hop_setup()
        result = SimpleMessagePassing().run(matcher, store, cover)
        assert result.matches == {A_PAIR, B_PAIR, C_PAIR, D_PAIR}
        assert result.messages_passed > 0

    def test_sound_with_respect_to_full_run(self):
        matcher, store, cover = two_hop_setup()
        smp = SimpleMessagePassing().run(matcher, store, cover)
        full = FullRun().run(matcher, store)
        assert smp.matches <= full.matches

    def test_consistency_under_neighborhood_order(self):
        matcher, store, cover = two_hop_setup()
        reversed_cover = Cover(list(cover)[::-1])
        forward = SimpleMessagePassing().run(matcher, store, cover)
        backward = SimpleMessagePassing().run(MLNMatcher(rules=two_hop_rules()),
                                              store, reversed_cover)
        assert forward.matches == backward.matches

    def test_ring_still_stuck(self):
        """SMP cannot bootstrap the chicken-and-egg ring (Section 5.2)."""
        matcher, store, cover = ring_setup()
        result = SimpleMessagePassing().run(matcher, store, cover)
        assert result.matches == frozenset()

    def test_activation_cap_respected(self):
        matcher, store, cover = two_hop_setup()
        result = SimpleMessagePassing(max_activations_per_neighborhood=1).run(
            matcher, store, cover)
        # With a single pass per neighborhood the scheme degenerates towards
        # NO-MP but must remain sound.
        full = FullRun().run(matcher, store)
        assert result.matches <= full.matches


class TestComputeMaximal:
    def test_ring_neighborhood_produces_one_component_message(self):
        matcher, store, cover = ring_setup()
        runner = NeighborhoodRunner(matcher, store, cover)
        messages = compute_maximal_messages(runner, "ring-0", evidence_matches=())
        assert len(messages) == 1
        assert messages[0] == {chain_pair(0), chain_pair(1), chain_pair(2)}

    def test_already_matched_pairs_not_probed(self):
        matcher, store, cover = two_hop_setup()
        runner = NeighborhoodRunner(matcher, store, cover)
        messages = compute_maximal_messages(runner, "bcd", evidence_matches=())
        # c and d are matched unconditionally, so only the b pair could be in a
        # message, and it is entailed by evidence alone (it is matched in the
        # unconditioned output) - hence no messages at all.
        flattened = {p for message in messages for p in message}
        assert C_PAIR not in flattened and D_PAIR not in flattened

    def test_two_hop_ab_neighborhood_message(self):
        matcher, store, cover = two_hop_setup()
        runner = NeighborhoodRunner(matcher, store, cover)
        messages = compute_maximal_messages(runner, "ab", evidence_matches=())
        assert {A_PAIR, B_PAIR} in messages


class TestMaximalMessagePassing:
    def test_requires_probabilistic_matcher(self):
        _, store, cover = two_hop_setup()
        with pytest.raises(MatcherError):
            MaximalMessagePassing().run(RulesMatcher(), store, cover)

    def test_two_hop_matches_everything(self):
        matcher, store, cover = two_hop_setup()
        result = MaximalMessagePassing().run(matcher, store, cover)
        assert result.matches == {A_PAIR, B_PAIR, C_PAIR, D_PAIR}

    def test_ring_resolved_only_by_mmp(self):
        """The ring needs maximal messages from different neighborhoods."""
        matcher, store, cover = ring_setup()
        result = MaximalMessagePassing().run(matcher, store, cover)
        assert result.matches == {chain_pair(i) for i in range(4)}
        assert result.messages_passed > 0

    def test_ring_output_is_sound(self):
        matcher, store, cover = ring_setup()
        mmp = MaximalMessagePassing().run(matcher, store, cover)
        full = FullRun().run(matcher, store)
        assert mmp.matches <= full.matches

    def test_consistency_under_neighborhood_order(self):
        matcher, store, cover = ring_setup()
        forward = MaximalMessagePassing().run(matcher, store, cover)
        backward = MaximalMessagePassing().run(
            MLNMatcher(rules=paper_author_rules()), store, Cover(list(cover)[::-1]))
        assert forward.matches == backward.matches

    def test_recomputing_messages_every_visit_gives_same_answer(self):
        matcher, store, cover = ring_setup()
        once = MaximalMessagePassing(compute_messages_once=True).run(matcher, store, cover)
        matcher2 = MLNMatcher(rules=paper_author_rules())
        every = MaximalMessagePassing(compute_messages_once=False).run(matcher2, store, cover)
        assert once.matches == every.matches


class TestUpperBound:
    def test_ub_contains_every_scheme_output(self):
        matcher, store, cover = two_hop_setup()
        truth = {A_PAIR, B_PAIR, C_PAIR, D_PAIR}
        ub = UpperBoundScheme().run(matcher, store, truth)
        smp = SimpleMessagePassing().run(matcher, store, cover)
        assert smp.matches <= ub.matches

    def test_ub_with_type1_matcher_on_cover(self):
        matcher, store, cover = two_hop_setup()
        truth = {A_PAIR, B_PAIR, C_PAIR, D_PAIR}
        ub = UpperBoundScheme().run_type1(matcher, store, cover, truth)
        assert {C_PAIR, D_PAIR} <= ub.matches


class TestFullRun:
    def test_full_on_two_hop(self):
        matcher, store, _ = two_hop_setup()
        result = FullRun().run(matcher, store)
        assert result.matches == {A_PAIR, B_PAIR, C_PAIR, D_PAIR}
        assert result.scheme == "full"

    def test_full_prefix_restricts_entities(self):
        matcher, store, cover = two_hop_setup()
        result = FullRun().run_on_prefix(matcher, store, cover, 1)
        assert result.neighborhoods == 1
        assert result.matches <= {A_PAIR, B_PAIR}
