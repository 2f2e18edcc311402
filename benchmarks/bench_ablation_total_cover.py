"""Ablation: what does boundary expansion (total covering) buy?

Section 4 argues that relation tuples not contained in any neighborhood are
"lost" — they never participate in matching.  This ablation runs SMP with the
MLN matcher on (a) the raw canopy cover and (b) the same cover after boundary
expansion over the coauthor relation, and reports the recall difference.
"""

from common import print_figure
from repro.blocking import CanopyBlocker, expand_to_total_cover
from repro.core import EMFramework
from repro.datamodel import MatchSet
from repro.evaluation import precision_recall_f1
from repro.matchers import MLNMatcher


def test_ablation_total_cover(benchmark, hepth_data):
    store = hepth_data.store
    truth = hepth_data.true_matches()

    def run_both():
        base_cover = CanopyBlocker().build_cover(store)
        # The raw canopy cover misses the papers/relational context entirely;
        # make it a cover of the store by adding singletons, without following
        # the coauthor relation (rounds of expansion over an empty relation
        # list keeps neighborhoods as they are).
        raw_cover = expand_to_total_cover(base_cover, store, relation_names=[])
        total_cover = expand_to_total_cover(base_cover, store, relation_names=["coauthor"])
        raw = EMFramework(MLNMatcher(), store, cover=raw_cover).run("smp")
        total = EMFramework(MLNMatcher(), store, cover=total_cover).run("smp")
        return {"raw": (raw, raw_cover), "total": (total, total_cover)}

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)

    rows = []
    for name, (result, cover) in results.items():
        closed = MatchSet(result.matches).transitive_closure().pairs
        metrics = precision_recall_f1(closed, truth)
        rows.append({
            "cover": "canopies only" if name == "raw" else "canopies + coauthor boundary",
            "neighborhoods": len(cover),
            "P": round(metrics.precision, 3),
            "R": round(metrics.recall, 3),
            "F1": round(metrics.f1, 3),
            "uncovered_coauthor_tuples": sum(
                len(t) for t in cover.uncovered_tuples(store, ["coauthor"]).values()),
        })
    print_figure("Ablation - effect of total covering (SMP, MLN matcher, HEPTH-like)", rows)

    raw_row = rows[0] if rows[0]["cover"] == "canopies only" else rows[1]
    total_row = rows[1] if rows[0]["cover"] == "canopies only" else rows[0]
    # Without the coauthor boundary, collective evidence is lost: recall drops.
    assert total_row["R"] >= raw_row["R"]
    assert raw_row["uncovered_coauthor_tuples"] > 0
    assert total_row["uncovered_coauthor_tuples"] == 0
