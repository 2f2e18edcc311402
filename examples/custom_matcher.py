"""Plugging your own matcher into the framework.

The framework treats the entity matcher as a black box (Section 3): anything
implementing :class:`repro.matchers.TypeIMatcher` can be scaled with SMP, and
anything implementing :class:`repro.matchers.TypeIIMatcher` (i.e. exposing a
cheap log-score) can additionally use MMP.

This example implements a small custom Type-I matcher — a "shared coauthor"
heuristic written directly against the data model — checks empirically that it
is well behaved (idempotent + monotone), and runs it under NO-MP and SMP.  It
also shows how to configure the MLN matcher with a *custom rule program* and
weights learnt from labelled data with the voted perceptron.

Run with::

    python examples/custom_matcher.py
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

from repro import (
    CanopyBlocker,
    EMFramework,
    EntityPair,
    EntityStore,
    Evidence,
    MLNMatcher,
    MatchSet,
    build_total_cover,
    hepth_like,
    precision_recall_f1,
)
from repro.evaluation import format_table
from repro.matchers import TypeIMatcher, check_well_behaved
from repro.mln import Rule, RuleSet, TrainingExample, VotedPerceptronLearner, atom


class SharedCoauthorMatcher(TypeIMatcher):
    """Match two similar records when they share a matched (or literal) coauthor.

    A deliberately simple collective matcher: a candidate pair is accepted
    when its similarity level is 3, or when its level is at least 1 and the
    two records have a pair of coauthors that is already known to match
    (including the trivial case of a literally shared coauthor record).
    Matches found in one pass feed the next, so the matcher is iterative,
    idempotent and monotone — i.e. well behaved.
    """

    name = "shared-coauthor"

    def match(self, store: EntityStore,
              evidence: Optional[Evidence] = None) -> FrozenSet[EntityPair]:
        evidence = evidence if evidence is not None else Evidence.empty()
        entity_ids = store.entity_ids()
        matches: Set[EntityPair] = {p for p in evidence.positive
                                    if p.first in entity_ids and p.second in entity_ids}
        blocked = set(evidence.negative)
        coauthor = store.relation("coauthor") if store.has_relation("coauthor") else None
        changed = True
        while changed:
            changed = False
            for pair in sorted(store.similar_pairs()):
                if pair in matches or pair in blocked:
                    continue
                level = store.similarity_level(pair)
                if level >= 3:
                    matches.add(pair)
                    changed = True
                    continue
                if level >= 1 and coauthor is not None:
                    left = coauthor.neighbors(pair.first)
                    right = coauthor.neighbors(pair.second)
                    supported = bool(left & right) or any(
                        EntityPair.of(c1, c2) in matches
                        for c1 in left for c2 in right if c1 != c2)
                    if supported:
                        matches.add(pair)
                        changed = True
        return frozenset(matches)


def main() -> None:
    dataset = hepth_like(scale=0.25)
    store = dataset.store
    truth = dataset.true_matches()
    cover = build_total_cover(CanopyBlocker(), store, relation_names=["coauthor"])

    # 1. Check the custom matcher's contract empirically before scaling it.
    matcher = SharedCoauthorMatcher()
    sample_ids = sorted(store.entity_ids())[:60]
    report = check_well_behaved(matcher, store.restrict(sample_ids), trials=4)
    print(f"well-behaved check: {report.checks} checks, "
          f"{len(report.violations)} violations")

    # 2. Scale it with the framework.
    framework = EMFramework(matcher, store, cover=cover)
    rows = []
    for scheme in ("no-mp", "smp"):
        result = framework.run(scheme)
        closed = MatchSet(result.matches).transitive_closure().pairs
        metrics = precision_recall_f1(closed, truth)
        rows.append({"matcher": matcher.name, "scheme": scheme,
                     "precision": round(metrics.precision, 3),
                     "recall": round(metrics.recall, 3),
                     "f1": round(metrics.f1, 3)})

    # 3. A custom MLN program with weights learnt from a labelled sample.
    rules = RuleSet()
    for level, initial_weight in ((1, -1.0), (2, -1.0), (3, 1.0)):
        rules.add(Rule(f"similar_{level}",
                       (atom("similar", "e1", "e2", level),),
                       atom("equals", "e1", "e2"), initial_weight))
    rules.add(Rule("coauthor",
                   (atom("coauthor", "e1", "c1"), atom("coauthor", "e2", "c2"),
                    atom("equals", "c1", "c2")),
                   atom("equals", "e1", "e2"), 0.5))

    training_ids = sorted(store.entity_ids())[:80]
    training_store = store.restrict(training_ids)
    training_truth = frozenset(p for p in truth
                               if p.first in training_ids and p.second in training_ids)
    learner = VotedPerceptronLearner(learning_rate=0.5, epochs=5)
    learned_weights, _ = learner.learn(rules, [TrainingExample(training_store, training_truth)])
    print(f"learnt weights: { {k: round(v, 2) for k, v in learned_weights.items()} }")

    learned_matcher = MLNMatcher(rules=rules.with_weights(learned_weights))
    framework = EMFramework(learned_matcher, store, cover=cover)
    result = framework.run("smp")
    closed = MatchSet(result.matches).transitive_closure().pairs
    metrics = precision_recall_f1(closed, truth)
    rows.append({"matcher": "mln (learnt weights)", "scheme": "smp",
                 "precision": round(metrics.precision, 3),
                 "recall": round(metrics.recall, 3),
                 "f1": round(metrics.f1, 3)})

    print()
    print(format_table(rows, title="Custom matchers under the framework"))


if __name__ == "__main__":
    main()
