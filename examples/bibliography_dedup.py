"""Deduplicating author records across bibliography databases (end-to-end).

The motivating workload of the paper's Example 1: several bibliography
databases describe overlapping sets of papers, each with its own author
records; the task is to decide which records denote the same person.

This example compares three matchers of increasing sophistication on the same
DBLP-like workload — a non-relational pairwise baseline (Fellegi-Sunter), an
iterative relational matcher, and the collective MLN matcher scaled with SMP —
and reports accuracy, illustrating the accuracy ladder described in the
paper's survey (Appendix D).  It also shows how to persist a dataset and the
resolved clusters for downstream use.

Run with::

    python examples/bibliography_dedup.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro import (
    CanopyBlocker,
    EMFramework,
    IterativeMatcher,
    MLNMatcher,
    MatchSet,
    PairwiseMatcher,
    build_total_cover,
    dblp_like,
    precision_recall_f1,
    save_dataset,
)
from repro.evaluation import format_table


def evaluate(name: str, matches, truth) -> dict:
    closed = MatchSet(matches).transitive_closure().pairs
    metrics = precision_recall_f1(closed, truth)
    return {
        "matcher": name,
        "matches": len(matches),
        "precision": round(metrics.precision, 3),
        "recall": round(metrics.recall, 3),
        "f1": round(metrics.f1, 3),
    }


def main() -> None:
    dataset = dblp_like(scale=0.3)
    store = dataset.store
    truth = dataset.true_matches()
    print(f"dataset: {dataset.name} {dataset.stats()}")

    cover = build_total_cover(CanopyBlocker(), store, relation_names=["coauthor"])
    rows = []

    # 1. Non-relational baseline: independent pair-wise decisions on names.
    pairwise = PairwiseMatcher()
    rows.append(evaluate("pairwise (Fellegi-Sunter)", pairwise.match(store), truth))

    # 2. Iterative relational matcher: matched coauthors feed back into scores.
    #    The acceptance threshold sits just below the typical name-similarity of
    #    a clean duplicate so that strong pairs seed the iteration.
    from repro.matchers import IterativeMatcherConfig
    iterative = IterativeMatcher(IterativeMatcherConfig(match_threshold=0.95))
    rows.append(evaluate("iterative relational", iterative.match(store), truth))

    # 3. Collective MLN matcher, scaled with Simple Message Passing.
    framework = EMFramework(MLNMatcher(), store, cover=cover)
    smp = framework.run("smp")
    rows.append(evaluate("collective MLN + SMP", smp.matches, truth))

    print()
    print(format_table(rows, title="Matcher comparison (same workload, same candidates)"))

    # Persist the dataset and the resolved clusters for downstream use.
    output_dir = Path(tempfile.mkdtemp(prefix="repro-dedup-"))
    dataset_path = save_dataset(dataset, output_dir / "dblp_like.json")
    clusters = [sorted(c) for c in MatchSet(smp.matches).clusters() if len(c) > 1]
    clusters_path = output_dir / "clusters.json"
    clusters_path.write_text(json.dumps(clusters, indent=1))
    print(f"\nwrote dataset to {dataset_path}")
    print(f"wrote {len(clusters)} resolved clusters to {clusters_path}")


if __name__ == "__main__":
    main()
