"""Tests that follow the paper's own narrative examples.

Section 2 of the paper walks through a small instance to explain why
collective matching needs message passing.  These tests re-create the pieces
of that narrative with the library and assert the claims the paper makes about
them:

* a similar pair with a shared coauthor is matched because the score improves
  by (weight of R2) − (weight of R1) (Section 2.1);
* a neighborhood without enough local evidence outputs nothing, and receiving
  a simple message from another neighborhood unlocks it (Section 2.2, SMP);
* a set of pairs that is only worth matching as a whole is recovered by
  maximal messages but not by simple messages (Sections 2.2 and 5.2, MMP).
"""

import pytest

from repro.blocking import Cover, Neighborhood
from repro.core import EMFramework, compute_maximal_messages
from repro.datamodel import Evidence
from repro.matchers import MLNMatcher
from repro.mln import paper_author_rules
from tests.reference.grounding import section2_example_rules
from tests.reference.properties import check_well_behaved
from tests.reference.schemes import (
    MaximalMessagePassing,
    NeighborhoodRunner,
    NoMessagePassing,
    SimpleMessagePassing,
)
from tests.util import (
    build_chain_store,
    build_shared_coauthor_store,
    build_two_hop_store,
    chain_cover,
    chain_pair,
    pair,
    two_hop_rules,
)


class TestSection21WorkedExample:
    """The (c1, c2, d1) example with the R1 = −5 / R2 = +8 weights."""

    def test_match_improves_score_by_three(self):
        matcher = MLNMatcher(rules=section2_example_rules())
        store = build_shared_coauthor_store()
        delta = matcher.score_delta(store, base=(), added={pair("c1", "c2")})
        assert delta == pytest.approx(3.0)   # -5 (R1) + 8 (R2 via d1 = d1)

    def test_matcher_outputs_the_pair(self):
        matcher = MLNMatcher(rules=section2_example_rules())
        assert matcher.match(build_shared_coauthor_store()) == {pair("c1", "c2")}

    def test_monotonicity_on_the_example(self):
        """Adding more entities never removes the (c1, c2) decision."""
        matcher = MLNMatcher(rules=section2_example_rules())
        report = check_well_behaved(matcher, build_shared_coauthor_store(), trials=3)
        assert report.ok


class TestSection22SimpleMessages:
    """A neighborhood that cannot decide alone is unlocked by a message."""

    def test_neighborhood_without_evidence_outputs_nothing(self):
        store, cover = build_two_hop_store()
        runner = NeighborhoodRunner(MLNMatcher(rules=two_hop_rules()), store, cover)
        assert runner.run("ab") == frozenset()

    def test_message_unlocks_the_neighborhood(self):
        store, cover = build_two_hop_store()
        runner = NeighborhoodRunner(MLNMatcher(rules=two_hop_rules()), store, cover)
        # The bcd neighborhood finds (b1, b2); passing it as evidence lets the
        # ab neighborhood match (a1, a2) on the next visit.
        found_elsewhere = runner.run("bcd")
        assert pair("b1", "b2") in found_elsewhere
        unlocked = runner.run("ab", positive=found_elsewhere)
        assert pair("a1", "a2") in unlocked

    def test_smp_automates_the_exchange(self):
        store, cover = build_two_hop_store()
        nomp = NoMessagePassing().run(MLNMatcher(rules=two_hop_rules()), store, cover)
        smp = SimpleMessagePassing().run(MLNMatcher(rules=two_hop_rules()), store, cover)
        assert pair("a1", "a2") not in nomp.matches
        assert pair("a1", "a2") in smp.matches


class TestSection52MaximalMessages:
    """All-or-nothing chains are recovered only by maximal messages."""

    def test_each_neighborhood_emits_a_partial_inference(self):
        store = build_chain_store(length=4, level=2)
        cover = chain_cover(length=4, window=3)
        runner = NeighborhoodRunner(MLNMatcher(rules=paper_author_rules()), store, cover)
        messages = compute_maximal_messages(runner, "ring-0", evidence_matches=())
        # "Either all of them are true or none of them are": the neighborhood's
        # three visible pairs form one maximal message.
        assert messages == [frozenset({chain_pair(0), chain_pair(1), chain_pair(2)})]

    def test_simple_messages_cannot_complete_the_chain(self):
        store = build_chain_store(length=4, level=2)
        cover = chain_cover(length=4, window=3)
        smp = SimpleMessagePassing().run(MLNMatcher(rules=paper_author_rules()), store, cover)
        assert smp.matches == frozenset()

    def test_maximal_messages_complete_the_chain(self):
        store = build_chain_store(length=4, level=2)
        cover = chain_cover(length=4, window=3)
        mmp = MaximalMessagePassing().run(MLNMatcher(rules=paper_author_rules()), store, cover)
        assert mmp.matches == {chain_pair(i) for i in range(4)}

    def test_framework_reports_the_same_story(self):
        store = build_chain_store(length=4, level=2)
        cover = chain_cover(length=4, window=3)
        framework = EMFramework(MLNMatcher(rules=paper_author_rules()), store, cover=cover)
        results = framework.run_all()
        assert len(results["no-mp"].matches) == 0
        assert len(results["smp"].matches) == 0
        assert len(results["mmp"].matches) == 4
