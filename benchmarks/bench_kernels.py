"""Bench: batched scoring kernels vs the scalar reference, with parity.

PR 9 introduced the optional-numpy kernel layer (``repro.kernels``): batched
canopy scoring over interned name parts, and batched MLN probe sweeps over a
ground network's CSR-packed touching map.  The scalar code paths stay in
place as the byte-identical parity reference, so this bench records, per
workload:

* **canopy sweep** — every canopy center's loose-threshold sweep over its
  token-posting candidates, scalar :meth:`ProfiledNameScorer.canopy_scores`
  vs the kernel-backed :class:`BatchCanopyScorer`;
* **probe sweep** — repeated greedy worklist probes over a dense synthetic
  ground network, scalar :meth:`WorldState.delta_single` loop vs
  :meth:`WorldState.delta_batch`;
* **parity** — the batched results must equal the scalar results exactly
  (same sets, same floats), which is the contract the whole kernel layer is
  built on.

The acceptance gate of PR 9 (and the CI numpy-job smoke step) is intact
parity with a **>= 3x canopy sweep speedup** and a **>= 2x probe sweep
speedup** on the default (10x-scale) workloads; the smoke config gates the
same shapes at CI-sized scales with proportionally lower bars.  Without
numpy the bench records scalar timings only and the speedup gates are
skipped — there is nothing to gate.

Run standalone (this is what the CI numpy-job smoke step does)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke --check

or through pytest together with the other benches::

    cd benchmarks && PYTHONPATH=../src python -m pytest -q -s bench_kernels.py
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.atomicio import atomic_write_json
from repro.blocking import CanopyBlocker
from repro.datamodel import EntityPair
from repro.datasets import dblp_like, hepth_like
from repro.kernels import backend, use
from repro.kernels.counters import COUNTERS
from repro.mln.grounding import GroundRule
from repro.mln.network import GroundNetwork
from repro.mln.state import WorldState
from repro.obs import registry as obs_registry
from repro.similarity import ProfiledNameScorer

#: Named workload sizes.  ``smoke`` is the CI gate (seconds); ``default`` is
#: the recorded trajectory point at 10x workload scale.  Each canopy workload
#: is ``(preset, scale, speedup_target)`` and each probe workload is
#: ``(pairs, groundings_per_head, body_size, rounds, speedup_target)``; a
#: ``None`` target records the number without gating it.
CONFIGS: Dict[str, Dict] = {
    "smoke": {
        "repeats": 1,
        "canopy": [("hepth", 4.0, 1.3)],
        "probe": [(2000, 6, 2, 8, 1.5)],
    },
    "default": {
        "repeats": 2,
        "canopy": [("hepth", 8.0, 3.0), ("dblp", 10.0, 1.5)],
        "probe": [(5000, 16, 2, 12, 2.0), (2000, 6, 2, 12, None)],
    },
}

_PRESETS = {"hepth": hepth_like, "dblp": dblp_like}

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_kernels.json"


def best_of(repeats: int, measure) -> float:
    return min(measure() for _ in range(repeats))


# ------------------------------------------------------------- canopy sweep
def run_canopy_workload(preset: str, scale: float, repeats: int,
                        target: Optional[float]) -> Dict:
    """Time every center's loose sweep, scalar vs batched, and compare."""
    store = _PRESETS[preset](scale=scale).store
    blocker = CanopyBlocker()
    entities = blocker.clustered_entities(store)
    pindex = blocker.profile_index(entities, None)
    loose = blocker.loose_threshold
    centers = [entity.entity_id for entity in entities]

    def scalar_sweep():
        scorer = ProfiledNameScorer(pindex.name_parts())
        started = time.perf_counter()
        results = {}
        for center in centers:
            results[center] = sorted(
                scorer.canopy_scores(center, pindex.candidates(center), loose))
        return time.perf_counter() - started, results

    def batch_sweep():
        scorer = ProfiledNameScorer(pindex.name_parts())
        batch = scorer.batch_scorer(pindex.postings)
        started = time.perf_counter()
        results = {}
        for center in centers:
            results[center] = sorted(batch.canopy_scores_from_tokens(
                center, pindex.profile(center).token_set, loose))
        return time.perf_counter() - started, results

    scalar_seconds, scalar_results = min(
        (scalar_sweep() for _ in range(repeats)), key=lambda pair: pair[0])
    workload = {
        "preset": preset,
        "scale": scale,
        "entities": len(centers),
        "loose_threshold": loose,
        "seconds": {"scalar": round(scalar_seconds, 6)},
        "target": target,
    }
    if backend() != "numpy":
        return workload
    with use("numpy"), obs_registry.capturing() as work:
        batch_seconds, batch_results = min(
            (batch_sweep() for _ in range(repeats)), key=lambda pair: pair[0])
    workload["seconds"]["batch"] = round(batch_seconds, 6)
    workload["speedup"] = round(scalar_seconds / batch_seconds, 2) \
        if batch_seconds > 0 else float("inf")
    workload["parity"] = batch_results == scalar_results
    workload["counters"] = kernel_counts(work)
    return workload


def kernel_counts(delta: obs_registry.RegistryDelta) -> Dict[str, float]:
    """The ``kernel_*_total`` counts one ``capturing()`` scope collected."""
    scope = obs_registry.MetricsRegistry()
    scope.apply_wire(delta.as_wire())
    counts: Dict[str, float] = {}
    for name, counter in COUNTERS.items():
        metric = scope.get(counter.name)
        counts[name] = int(metric.value()) if metric is not None else 0
    checked = counts["prefilter_checked"]
    counts["prefilter_hit_rate"] = \
        counts["prefilter_pruned"] / checked if checked else 0.0
    return counts


# -------------------------------------------------------------- probe sweep
def synth_network(n_pairs: int, degree: int, body: int,
                  seed: int = 7) -> GroundNetwork:
    """A dense coauthor-shaped ground network with controlled degree.

    Grounding a dense evidence graph through the rule joiner is quadratic in
    the coauthor edges, so the bench synthesizes the ground rules directly:
    ``degree`` support groundings per head pair (each requiring ``body``
    other pairs, pseudo-randomly drawn) plus one prior grounding per pair.
    This isolates the probe kernel from the grounder.
    """
    rng = random.Random(seed)
    pairs = [EntityPair.of(f"a{i}", f"b{i}") for i in range(n_pairs)]
    groundings = []
    for head in range(n_pairs):
        for _ in range(degree):
            others = rng.sample(range(n_pairs), body + 1)
            body_pairs = frozenset(
                pairs[other] for other in others if other != head)
            groundings.append(GroundRule(
                rule_name="coauthor",
                weight=rng.choice([2.46, -3.84, 12.75]),
                head_pair=pairs[head],
                body_pairs=frozenset(list(body_pairs)[:body])))
        groundings.append(GroundRule(
            rule_name="similar_2", weight=-3.84,
            head_pair=pairs[head], body_pairs=frozenset()))
    return GroundNetwork(groundings, pairs)


def run_probe_workload(n_pairs: int, degree: int, body: int, rounds: int,
                       repeats: int, target: Optional[float]) -> Dict:
    """Time a greedy worklist sweep: probe every pair, add the best, repeat."""
    network = synth_network(n_pairs, degree, body)
    worklist = sorted(network.candidates)
    touching = network.touching_map
    avg_touch = sum(len(indices) for indices in touching.values()) / \
        max(len(touching), 1)

    def sweep(batching: bool):
        state = WorldState(network)
        started = time.perf_counter()
        probed = []
        for _ in range(rounds):
            if batching:
                deltas = state.delta_batch(worklist)
            else:
                deltas = [state.delta_single(pair) for pair in worklist]
            probed.append(deltas)
            best = max(range(len(worklist)),
                       key=lambda position: (deltas[position], -position))
            state.add(worklist[best])
        return time.perf_counter() - started, probed

    scalar_seconds, scalar_results = min(
        (sweep(False) for _ in range(repeats)), key=lambda pair: pair[0])
    workload = {
        "pairs": n_pairs,
        "groundings_per_head": degree,
        "body_size": body,
        "rounds": rounds,
        "groundings": len(network.grounding_weights),
        "avg_touching": round(avg_touch, 1),
        "seconds": {"scalar": round(scalar_seconds, 6)},
        "target": target,
    }
    if backend() != "numpy":
        return workload
    with use("numpy"), obs_registry.capturing() as work:
        batch_seconds, batch_results = min(
            (sweep(True) for _ in range(repeats)), key=lambda pair: pair[0])
    workload["seconds"]["batch"] = round(batch_seconds, 6)
    workload["speedup"] = round(scalar_seconds / batch_seconds, 2) \
        if batch_seconds > 0 else float("inf")
    workload["parity"] = batch_results == scalar_results
    workload["counters"] = kernel_counts(work)
    return workload


# -------------------------------------------------------------------- bench
def run_bench(config_name: str) -> Dict:
    config = CONFIGS[config_name]
    repeats = config["repeats"]
    return {
        "bench": "kernels",
        "backend": backend(),
        "config": {"name": config_name, "repeats": repeats},
        "canopy_sweeps": [
            run_canopy_workload(preset, scale, repeats, target)
            for preset, scale, target in config["canopy"]
        ],
        "probe_sweeps": [
            run_probe_workload(pairs, degree, body, rounds, repeats, target)
            for pairs, degree, body, rounds, target in config["probe"]
        ],
    }


def check_report(report: Dict) -> List[str]:
    """The CI gate: exact parity everywhere, speedups over their targets."""
    if report["backend"] != "numpy":
        # Scalar-only recording; there is no batched leg to gate.
        return []
    failures = []
    for kind in ("canopy_sweeps", "probe_sweeps"):
        for workload in report[kind]:
            if kind == "canopy_sweeps":
                label = f"canopy {workload['preset']}@{workload['scale']}"
            else:
                label = f"probe {workload['pairs']}x" \
                        f"{workload['groundings_per_head']}"
            if not workload["parity"]:
                failures.append(f"{label}: batched results differ from the "
                                "scalar reference")
            target = workload["target"]
            if target is not None and workload["speedup"] < target:
                failures.append(f"{label}: speedup {workload['speedup']}x is "
                                f"below the {target}x target")
    return failures


# -------------------------------------------------------------- entrypoints
def test_kernel_speedups_smoke():
    """Pytest entry point: the smoke config must pass the CI gate."""
    report = run_bench("smoke")
    print()
    print(json.dumps(report, indent=2))
    assert not check_report(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", choices=sorted(CONFIGS), default="default")
    parser.add_argument("--smoke", action="store_true",
                        help="shorthand for --config smoke")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the JSON report "
                             f"(default: {DEFAULT_OUTPUT}; gate-only runs "
                             "with --check and no --output write nothing)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the batched kernels match "
                             "the scalar reference exactly and clear their "
                             "per-workload speedup targets")
    args = parser.parse_args(argv)
    config = "smoke" if args.smoke else args.config

    report = run_bench(config)
    print(json.dumps(report, indent=2))
    # A bare --check run is a gate, not a recording — don't clobber the
    # committed trajectory file with off-config numbers.
    output = args.output
    if output is None and not args.check:
        output = DEFAULT_OUTPUT
    if output is not None:
        atomic_write_json(output, report, indent=2, trailing_newline=True)
        print(f"\nwrote {output}")

    if args.check:
        failures = check_report(report)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
