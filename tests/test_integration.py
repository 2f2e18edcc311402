"""End-to-end integration tests on the tiny synthetic datasets.

These exercise the full pipeline the benchmarks use — dataset generation,
canopy + boundary covering, matching with MLN and RULES, all message-passing
schemes, grid execution and evaluation — and assert the qualitative properties
the paper reports (soundness, scheme ordering, precision floors) rather than
exact figures.
"""

import pytest

from repro.core import EMFramework
from repro.datamodel import MatchSet
from repro.evaluation import precision_recall_f1, soundness_completeness
from repro.matchers import MLNMatcher, RulesMatcher
from repro.parallel import GridExecutor
from tests.reference.schemes import SimpleMessagePassing


@pytest.fixture(scope="module")
def hepth_mln_results(hepth_dataset, hepth_cover):
    framework = EMFramework(MLNMatcher(), hepth_dataset.store, cover=hepth_cover)
    results = framework.run_all(include_full=True)
    results["ub"] = framework.run_upper_bound(hepth_dataset.true_matches())
    return results


class TestMLNPipelineOnHepth:
    def test_all_schemes_sound_wrt_full(self, hepth_mln_results):
        full = hepth_mln_results["full"].matches
        for scheme in ("no-mp", "smp", "mmp"):
            assert hepth_mln_results[scheme].matches <= full, scheme

    def test_nomp_and_smp_soundness_against_full(self, hepth_mln_results):
        full = hepth_mln_results["full"].matches
        for scheme in ("no-mp", "smp"):
            report = soundness_completeness(hepth_mln_results[scheme].matches, full)
            assert report.soundness == pytest.approx(1.0), scheme
            assert 0.0 <= report.completeness <= 1.0, scheme

    def test_scheme_ordering(self, hepth_mln_results):
        assert hepth_mln_results["no-mp"].matches <= hepth_mln_results["smp"].matches
        assert hepth_mln_results["smp"].matches <= hepth_mln_results["mmp"].matches

    def test_ub_upper_bounds_every_scheme(self, hepth_mln_results):
        ub = hepth_mln_results["ub"].matches
        for scheme in ("no-mp", "smp", "mmp", "full"):
            assert hepth_mln_results[scheme].matches <= ub, scheme

    def test_precision_is_high(self, hepth_dataset, hepth_mln_results):
        truth = hepth_dataset.true_matches()
        for scheme in ("no-mp", "smp", "mmp"):
            closed = MatchSet(hepth_mln_results[scheme].matches).transitive_closure()
            metrics = precision_recall_f1(closed.pairs, truth)
            assert metrics.precision >= 0.8, scheme

    def test_recall_is_nontrivial(self, hepth_dataset, hepth_mln_results):
        truth = hepth_dataset.true_matches()
        metrics = precision_recall_f1(
            MatchSet(hepth_mln_results["mmp"].matches).transitive_closure().pairs, truth)
        assert metrics.recall >= 0.4

    def test_completeness_ordering(self, hepth_mln_results):
        ub = hepth_mln_results["ub"].matches
        nomp = soundness_completeness(hepth_mln_results["no-mp"].matches, ub).completeness
        mmp = soundness_completeness(hepth_mln_results["mmp"].matches, ub).completeness
        assert mmp >= nomp


class TestRulesPipelineOnDblp:
    def test_smp_equals_full_run(self, dblp_dataset, dblp_cover):
        """Figure 4: the RULES matcher with SMP reproduces its full run exactly."""
        framework = EMFramework(RulesMatcher(), dblp_dataset.store, cover=dblp_cover)
        smp = framework.run("smp")
        full = framework.run_full()
        report = soundness_completeness(smp.matches, full.matches)
        assert report.is_sound
        assert report.is_complete

    def test_rules_precision(self, dblp_dataset, dblp_cover):
        framework = EMFramework(RulesMatcher(), dblp_dataset.store, cover=dblp_cover)
        smp = framework.run("smp")
        metrics = precision_recall_f1(smp.matches, dblp_dataset.true_matches())
        assert metrics.precision >= 0.8


class TestGridEquivalence:
    def test_grid_smp_equals_sequential_on_hepth(self, hepth_dataset, hepth_cover):
        grid = GridExecutor(scheme="smp").run(MLNMatcher(), hepth_dataset.store, hepth_cover)
        sequential = SimpleMessagePassing().run(MLNMatcher(), hepth_dataset.store,
                                                hepth_cover)
        assert grid.matches == sequential.matches

    def test_simulated_speedup_reasonable(self, hepth_dataset, hepth_cover):
        grid = GridExecutor(scheme="no-mp").run(MLNMatcher(), hepth_dataset.store, hepth_cover)
        speedup = grid.speedup(workers=8)
        assert 1.0 <= speedup <= 8.0
