"""Correlation clustering for soft negative rules.

When a RULES program contains soft negative rules, the derived positive
matches and the negative votes may conflict; Dedupalog resolves the conflict
by clustering the entities so that the total weight of violated soft rules is
(approximately) minimised.  The classic pivot algorithm of Ailon, Charikar and
Newman gives a 3-approximation in expectation and runs in linear time in the
number of edges — this is the "3-approximate algorithm in [2]" the paper
mentions in Appendix B.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

from ..datamodel import EntityPair, MatchSet


def pivot_correlation_clustering(nodes: Iterable[str],
                                 positive_edges: Iterable[EntityPair],
                                 negative_edges: Iterable[EntityPair] = (),
                                 seed: int = 0) -> List[FrozenSet[str]]:
    """Cluster ``nodes`` with the random-pivot 3-approximation.

    ``positive_edges`` pull their endpoints into the same cluster,
    ``negative_edges`` push them apart; edges absent from both sets are
    treated as (weak) negative, the standard correlation-clustering
    convention on sparse graphs.

    The algorithm repeatedly picks a random unclustered pivot and forms a
    cluster from the pivot and its unclustered positive neighbours that are
    not negatively connected to it.
    """
    rng = random.Random(seed)
    negative = set(negative_edges)
    adjacency: Dict[str, Set[str]] = {node: set() for node in nodes}
    for pair in positive_edges:
        if pair in negative:
            continue
        adjacency.setdefault(pair.first, set()).add(pair.second)
        adjacency.setdefault(pair.second, set()).add(pair.first)

    unclustered = set(adjacency)
    order = sorted(unclustered)
    rng.shuffle(order)
    clusters: List[FrozenSet[str]] = []
    for pivot in order:
        if pivot not in unclustered:
            continue
        cluster = {pivot}
        for neighbor in adjacency[pivot]:
            if neighbor in unclustered and EntityPair.of(pivot, neighbor) not in negative:
                cluster.add(neighbor)
        unclustered -= cluster
        clusters.append(frozenset(cluster))
    return clusters


def clustering_cost(clusters: Sequence[FrozenSet[str]],
                    positive_edges: Iterable[EntityPair],
                    negative_edges: Iterable[EntityPair],
                    positive_weight: float = 1.0,
                    negative_weight: float = 1.0) -> float:
    """Correlation-clustering objective: weight of disagreeing edges.

    A positive edge across two clusters and a negative edge inside one cluster
    each count as a disagreement.
    """
    membership: Dict[str, int] = {}
    for index, cluster in enumerate(clusters):
        for node in cluster:
            membership[node] = index
    cost = 0.0
    for pair in positive_edges:
        if membership.get(pair.first) != membership.get(pair.second):
            cost += positive_weight
    for pair in negative_edges:
        first = membership.get(pair.first)
        second = membership.get(pair.second)
        if first is not None and first == second:
            cost += negative_weight
    return cost


def clusters_to_matches(clusters: Sequence[FrozenSet[str]]) -> FrozenSet[EntityPair]:
    """All intra-cluster pairs — the transitively-closed match set of a clustering."""
    return MatchSet.from_clusters(clusters).pairs
