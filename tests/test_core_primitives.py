"""Tests for the core framework primitives: active set, messages, runner, results."""

import pytest

from repro.core import MaximalMessageSet, SchemeResult, make_message
from repro.matchers import MLNMatcher
from tests.reference.grounding import section2_example_rules
from tests.reference.schemes import ActiveNeighborhoodQueue, NeighborhoodRunner
from tests.util import build_two_hop_store, pair, two_hop_rules


class TestActiveNeighborhoodQueue:
    def test_fifo_order(self):
        queue = ActiveNeighborhoodQueue(["a", "b", "c"])
        assert [queue.pop(), queue.pop(), queue.pop()] == ["a", "b", "c"]

    def test_set_semantics(self):
        queue = ActiveNeighborhoodQueue(["a"])
        assert not queue.add("a")
        assert len(queue) == 1
        assert queue.add("b")
        assert "b" in queue

    def test_readd_after_pop(self):
        queue = ActiveNeighborhoodQueue(["a"])
        queue.pop()
        assert queue.add("a")
        assert len(queue) == 1

    def test_add_all_counts_new_only(self):
        queue = ActiveNeighborhoodQueue(["a", "b"])
        assert queue.add_all(["b", "c", "d"]) == 2
        assert queue.total_activations == 4

    def test_drain(self):
        queue = ActiveNeighborhoodQueue(["a", "b"])
        assert list(queue.drain()) == ["a", "b"]
        assert not queue

    def test_bool_and_iter(self):
        queue = ActiveNeighborhoodQueue()
        assert not queue
        queue.add("x")
        assert list(queue) == ["x"]


class TestMaximalMessageSet:
    def test_disjoint_messages_kept_separately(self):
        messages = MaximalMessageSet()
        messages.add([pair("a", "b")])
        messages.add([pair("c", "d")])
        assert len(messages) == 2
        assert messages.pair_count() == 2

    def test_overlapping_messages_merge(self):
        """Proposition 3(ii): overlapping maximal messages union into one."""
        messages = MaximalMessageSet()
        messages.add([pair("a", "b"), pair("c", "d")])
        merged = messages.add([pair("c", "d"), pair("e", "f")])
        assert merged == {pair("a", "b"), pair("c", "d"), pair("e", "f")}
        assert len(messages) == 1

    def test_chain_of_merges(self):
        messages = MaximalMessageSet()
        messages.add([pair("a", "b")])
        messages.add([pair("c", "d")])
        messages.add([pair("a", "b"), pair("c", "d"), pair("e", "f")])
        assert len(messages) == 1
        assert messages.pair_count() == 3

    def test_message_of(self):
        messages = MaximalMessageSet([[pair("a", "b"), pair("c", "d")]])
        assert messages.message_of(pair("a", "b")) == {pair("a", "b"), pair("c", "d")}
        with pytest.raises(KeyError):
            messages.message_of(pair("x", "y"))

    def test_discard_pairs(self):
        messages = MaximalMessageSet([[pair("a", "b"), pair("c", "d")]])
        messages.discard_pairs([pair("a", "b")])
        assert pair("a", "b") not in messages
        assert messages.messages() == [frozenset({pair("c", "d")})]

    def test_empty_message_ignored(self):
        messages = MaximalMessageSet()
        assert messages.add([]) == frozenset()
        assert len(messages) == 0

    def test_make_message(self):
        assert make_message([pair("a", "b")]) == frozenset({pair("a", "b")})


class TestNeighborhoodRunner:
    def setup_runner(self):
        store, cover = build_two_hop_store()
        matcher = MLNMatcher(rules=two_hop_rules())
        return NeighborhoodRunner(matcher, store, cover), cover

    def test_neighborhood_store_is_cached(self):
        runner, cover = self.setup_runner()
        first = runner.neighborhood_store("ab")
        second = runner.neighborhood_store("ab")
        assert first is second
        assert first.entity_ids() == cover.neighborhood("ab").entity_ids

    def test_candidate_pairs_restricted(self):
        runner, _ = self.setup_runner()
        assert runner.candidate_pairs("ab") == {pair("a1", "a2"), pair("b1", "b2")}

    def test_run_counts_calls_and_time(self):
        runner, _ = self.setup_runner()
        runner.run("bcd")
        runner.run("bcd", positive=[pair("c1", "c2")])
        assert runner.calls == 2
        assert runner.calls_per_neighborhood["bcd"] == 2
        assert runner.matcher_seconds >= 0.0

    def test_evidence_restricted_to_neighborhood(self):
        runner, _ = self.setup_runner()
        # Evidence about c/d pairs is irrelevant inside the 'ab' neighborhood
        # and must not leak into its output.
        output = runner.run("ab", positive=[pair("c1", "c2"), pair("d1", "d2")])
        assert pair("c1", "c2") not in output

    def test_reset_counters_keeps_store_cache(self):
        runner, _ = self.setup_runner()
        store = runner.neighborhood_store("ab")
        runner.run("ab")
        runner.reset_counters()
        assert runner.calls == 0
        assert runner.neighborhood_store("ab") is store


class TestSchemeResult:
    def test_summary_and_helpers(self):
        result = SchemeResult(scheme="smp", matcher="mln",
                              matches=frozenset({pair("a", "b")}),
                              neighborhood_runs=3, neighborhoods=2, rounds=1,
                              messages_passed=1, elapsed_seconds=0.5)
        summary = result.summary()
        assert summary["scheme"] == "smp"
        assert summary["matches"] == 1
        assert result.match_count == 1
        assert result.match_set.clusters() == [frozenset({"a", "b"})]
