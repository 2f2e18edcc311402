"""Ablation: canopy thresholds vs neighborhood size and accuracy.

The canopy loose threshold controls how aggressively entities are grouped:
lower thresholds produce larger, fewer neighborhoods (more context per matcher
run, but a more expensive run), higher thresholds produce many small
neighborhoods.  This sweep reports cover statistics and SMP accuracy for three
settings on the HEPTH-like workload.
"""

from common import print_figure
from repro.blocking import CanopyBlocker, build_total_cover
from repro.core import EMFramework
from repro.datamodel import MatchSet
from repro.evaluation import precision_recall_f1
from repro.matchers import MLNMatcher


def test_ablation_canopy_thresholds(benchmark, hepth_data):
    store = hepth_data.store
    truth = hepth_data.true_matches()
    settings = [
        ("loose", 0.70, 0.90),
        ("default", 0.78, 0.92),
        ("tight", 0.86, 0.95),
    ]

    def sweep():
        rows = []
        for label, loose, tight in settings:
            blocker = CanopyBlocker(loose_threshold=loose, tight_threshold=tight)
            cover = build_total_cover(blocker, store, relation_names=["coauthor"])
            result = EMFramework(MLNMatcher(), store, cover=cover).run("smp")
            closed = MatchSet(result.matches).transitive_closure().pairs
            metrics = precision_recall_f1(closed, truth)
            stats = cover.stats()
            rows.append({
                "canopy": f"{label} ({loose:.2f}/{tight:.2f})",
                "neighborhoods": stats["neighborhoods"],
                "max_size": stats["max_size"],
                "total_pairs": stats["total_pairs"],
                "P": round(metrics.precision, 3),
                "R": round(metrics.recall, 3),
                "F1": round(metrics.f1, 3),
                "time_s": round(result.elapsed_seconds, 2),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_figure("Ablation - canopy thresholds (SMP, MLN matcher, HEPTH-like)", rows)

    # Looser canopies always consider at least as many candidate pairs.
    assert rows[0]["total_pairs"] >= rows[-1]["total_pairs"]
