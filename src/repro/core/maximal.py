"""COMPUTEMAXIMAL (Algorithm 2): extracting maximal messages from a neighborhood.

A maximal message is a set of pairs that the matcher will either match all of
or none of (Definition 8).  Algorithm 2 discovers them inside one
neighborhood ``C``:

1. for every candidate pair ``p`` of ``C``, run the matcher with ``p`` added
   to the positive evidence and record the output ``E(C, M+ ∪ {p})``;
2. build a graph with one node per pair and an edge between ``p`` and ``p'``
   whenever each appears in the other's conditioned output (they entail each
   other);
3. every connected component becomes one maximal message.

The implementation restricts the per-pair probes to the *candidate* pairs of
the neighborhood (pairs with a similarity edge): pairs that are not candidates
can never be matched, so conditioning on them is pointless, and pairs that are
already matched (in ``M+`` or in the unconditioned output) carry no new
information — their messages would be vacuously sound.

The neighborhood runner is duck-typed: anything with ``run(name,
positive=...)`` and ``candidate_pairs(name)`` — the grid's per-task runner
(:mod:`repro.parallel.tasks`) in the program, the sequential schemes' runner
in the test oracle.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from ..datamodel import EntityPair
from .messages import MaximalMessage, make_message


def _connected_components(nodes: Iterable[EntityPair],
                          edges: Dict[EntityPair, Set[EntityPair]]) -> List[Set[EntityPair]]:
    """Connected components of an undirected graph given as an adjacency dict."""
    remaining = set(nodes)
    components: List[Set[EntityPair]] = []
    while remaining:
        seed = remaining.pop()
        component = {seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            for neighbor in edges.get(current, ()):  # type: ignore[arg-type]
                if neighbor in remaining:
                    remaining.discard(neighbor)
                    component.add(neighbor)
                    frontier.append(neighbor)
        components.append(component)
    return components


def compute_maximal_messages(runner, neighborhood_name: str,
                             evidence_matches: Iterable[EntityPair],
                             unconditioned_output: Optional[FrozenSet[EntityPair]] = None,
                             include_singletons: bool = False) -> List[MaximalMessage]:
    """Run Algorithm 2 for one neighborhood.

    Parameters
    ----------
    runner:
        Runs the matcher on the neighborhood and lists its candidate pairs
        (see the module docstring).
    neighborhood_name:
        Which neighborhood to analyse.
    evidence_matches:
        The current global match set ``M+``.
    unconditioned_output:
        ``E(C, M+)`` when the caller already computed it (MMP does); avoids
        one extra matcher call.
    include_singletons:
        When false (default), components consisting of a single pair that is
        not even matched under its own conditioning are dropped — such
        messages can never help another neighborhood and would only bloat
        ``T``.
    """
    evidence = frozenset(evidence_matches)
    if unconditioned_output is None:
        unconditioned_output = runner.run(neighborhood_name, positive=evidence)

    already_matched = evidence | unconditioned_output
    probe_pairs = sorted(p for p in runner.candidate_pairs(neighborhood_name)
                         if p not in already_matched)
    if not probe_pairs:
        return []

    # Step 1: conditioned outputs E(C, M+ ∪ {p}).
    conditioned: Dict[EntityPair, FrozenSet[EntityPair]] = {}
    for pair in probe_pairs:
        conditioned[pair] = runner.run(neighborhood_name, positive=evidence | {pair})

    # Step 2: mutual-entailment graph.
    edges: Dict[EntityPair, Set[EntityPair]] = {pair: set() for pair in probe_pairs}
    for i, pair in enumerate(probe_pairs):
        for other in probe_pairs[i + 1:]:
            if other in conditioned[pair] and pair in conditioned[other]:
                edges[pair].add(other)
                edges[other].add(pair)

    # Step 3: connected components become messages.
    messages: List[MaximalMessage] = []
    for component in _connected_components(probe_pairs, edges):
        if len(component) == 1 and not include_singletons:
            only = next(iter(component))
            # A singleton is only worth passing if conditioning on it at least
            # matches it (i.e. it is self-consistent); unmatched singletons
            # carry no information.
            if only not in conditioned[only]:
                continue
        messages.append(make_message(component))
    return messages
