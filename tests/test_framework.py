"""Tests for the EMFramework facade."""

import pytest

from repro.core import EMFramework
from repro.datamodel import CompactStore, StoreView
from repro.evaluation import precision_recall_f1, soundness_completeness
from repro.exceptions import ExperimentError
from repro.matchers import MLNMatcher, RulesMatcher
from repro.mln import paper_author_rules
from tests.util import (
    build_chain_store,
    build_two_hop_store,
    chain_cover,
    chain_pair,
    pair,
    two_hop_rules,
)


class TestFrameworkWithExplicitCover:
    def setup_framework(self):
        store, cover = build_two_hop_store()
        return EMFramework(MLNMatcher(rules=two_hop_rules()), store, cover=cover)

    def test_run_by_name(self):
        framework = self.setup_framework()
        assert framework.run("no-mp").scheme == "no-mp"
        assert framework.run("NO_MP").scheme == "no-mp"
        assert framework.run("smp").scheme == "smp"
        assert framework.run("mmp").scheme == "mmp"
        assert framework.run("full").scheme == "full"

    def test_unknown_scheme(self):
        with pytest.raises(ExperimentError):
            self.setup_framework().run("bogus")

    def test_run_all(self):
        results = self.setup_framework().run_all(include_full=True)
        assert set(results) == {"no-mp", "smp", "mmp", "full"}
        assert results["smp"].matches <= results["full"].matches

    def test_nomp_sound_but_incomplete_and_smp_exact_on_two_hop(self):
        results = self.setup_framework().run_all(include_full=True)
        nomp = soundness_completeness(results["no-mp"].matches,
                                      results["full"].matches)
        assert nomp.soundness == 1.0
        assert nomp.completeness < 1.0
        truth = {pair("a1", "a2"), pair("b1", "b2"), pair("c1", "c2"),
                 pair("d1", "d2")}
        smp = precision_recall_f1(results["smp"].matches, truth)
        assert (smp.precision, smp.recall) == (1.0, 1.0)
        assert precision_recall_f1(results["no-mp"].matches, truth).recall < 1.0

    def test_run_all_skips_mmp_for_type1(self):
        store, cover = build_two_hop_store()
        framework = EMFramework(RulesMatcher(), store, cover=cover)
        results = framework.run_all()
        assert "mmp" not in results

    def test_upper_bound_dispatch(self):
        framework = self.setup_framework()
        truth = [pair("a1", "a2"), pair("b1", "b2"), pair("c1", "c2"), pair("d1", "d2")]
        ub = framework.run_upper_bound(truth)
        assert ub.scheme == "ub"

    def test_cover_stats_and_clusters(self):
        framework = self.setup_framework()
        stats = framework.cover_stats()
        assert stats["neighborhoods"] == 2
        result = framework.run("smp")
        clusters = framework.clusters(result)
        assert frozenset({"a1", "a2"}) in clusters

    def test_runner_shared_and_counters_reset(self):
        framework = self.setup_framework()
        first = framework.run("no-mp")
        second = framework.run("no-mp")
        assert first.neighborhood_runs == second.neighborhood_runs

    def test_full_prefix(self):
        framework = self.setup_framework()
        result = framework.run_full_prefix(1)
        assert result.neighborhoods == 1


class TestFrameworkWithBlocker:
    def test_builds_total_cover_from_default_blocker(self, hepth_dataset):
        framework = EMFramework(RulesMatcher(), hepth_dataset.store)
        assert framework.cover.is_total(hepth_dataset.store, ["coauthor"])
        assert framework.cover.covers(hepth_dataset.store.entity_ids())

    def test_streaming_entry_points_pay_for_one_cover_build(self, dblp_dataset):
        """A ``serve`` session builds and maintains its own cover (canopy by
        canopy, not through ``CanopyBlocker.build_cover``); the framework's
        is built only when a batch scheme asks for it."""
        from repro.blocking import CanopyBlocker, build_total_cover
        from repro.obs import registry as obs_registry
        cold_builds = obs_registry.counter("blocking_covers_total")
        before = cold_builds.value()
        framework = EMFramework(MLNMatcher(), dblp_dataset.store)
        service = framework.serve().start()
        session_cover = service.session.cover
        service.drain()
        assert cold_builds.value() == before
        cover = framework.cover
        assert framework.cover is cover
        assert cold_builds.value() == before + 1
        reference = build_total_cover(CanopyBlocker(), dblp_dataset.store,
                                      relation_names=["coauthor"])
        for built in (cover, session_cover):
            assert [(n.name, n.entity_ids) for n in built] == \
                [(n.name, n.entity_ids) for n in reference]

    def test_mmp_rejected_for_type1_matcher(self):
        store, cover = build_two_hop_store()
        framework = EMFramework(RulesMatcher(), store, cover=cover)
        from repro.exceptions import MatcherError
        with pytest.raises(MatcherError):
            framework.run("mmp")

    def test_ring_framework_end_to_end(self):
        store = build_chain_store(4, level=2)
        cover = chain_cover(4, window=3)
        framework = EMFramework(MLNMatcher(rules=paper_author_rules()), store, cover=cover)
        results = framework.run_all()
        assert results["no-mp"].matches == frozenset()
        assert results["smp"].matches == frozenset()
        assert results["mmp"].matches == {chain_pair(i) for i in range(4)}


class TestOneSnapshot:
    """Batch runs read one compact snapshot, taken once per framework; the
    served stream reads the caller's store and takes none."""

    @staticmethod
    def snapshots_taken(monkeypatch):
        taken = []
        original = CompactStore.from_store.__func__

        def counted(cls, store):
            taken.append(store)
            return original(cls, store)
        monkeypatch.setattr(CompactStore, "from_store", classmethod(counted))
        return taken

    def test_every_batch_run_reads_one_snapshot(self, monkeypatch, hepth_dataset):
        taken = self.snapshots_taken(monkeypatch)
        framework = EMFramework(MLNMatcher(), hepth_dataset.store)
        assert taken == []
        framework.run_all(include_full=True)
        framework.run_upper_bound(hepth_dataset.true_matches())
        framework.run_full_prefix(3)
        assert taken == [hepth_dataset.store]
        assert isinstance(framework.snapshot, CompactStore)
        # Every neighborhood ran on a view of that snapshot, kept for the
        # next run.
        assert set(framework._store_cache) == set(framework.cover.names())
        assert all(isinstance(view, StoreView)
                   and view.restriction()[0] is framework.snapshot
                   for view in framework._store_cache.values())

    def test_serve_takes_no_snapshot(self, monkeypatch, dblp_dataset):
        taken = self.snapshots_taken(monkeypatch)
        framework = EMFramework(MLNMatcher(), dblp_dataset.store)
        service = framework.serve().start()
        assert service.session.overlay.base is dblp_dataset.store
        service.drain()
        assert taken == []

    def test_a_compact_store_is_its_own_snapshot(self, monkeypatch):
        store, cover = build_two_hop_store()
        compact = CompactStore.from_store(store)
        taken = self.snapshots_taken(monkeypatch)
        framework = EMFramework(MLNMatcher(rules=two_hop_rules()), compact,
                                cover=cover)
        framework.run("smp")
        assert framework.snapshot is compact
        assert taken == []
