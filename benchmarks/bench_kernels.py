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
  built on;
* **cover build, in situ** — ``CanopyBlocker.build_cover`` as the pipeline
  calls it (accepted centers only, so the row caches amortise over far
  fewer sweeps than above), under forced ``python``, forced ``numpy`` and
  ``auto`` on a ladder of scales, each leg's per-center cost bucketed by
  candidate rows, and the pilot mean (the rows the first ``CANOPY_PILOT``
  centers in sweep order average, which is what ``auto`` decides on) at
  which whole covers cross (``CANOPY_BREAK_EVEN``); the sharded
  ``ParallelCoverBuilder`` build (every potential center, in name-sorted
  chunks) under the same three backends at the canopy workloads' scales;
* **probe ladder** — the greedy probe/add loop on synthetic networks of 4 /
  16 / 64 / 256 pairs (the worklist is the whole network, as a
  neighborhood's first sweep is) under both forced legs, and the worklist
  size where they cross.  A record, not a gate: ``auto`` runs every probe
  sweep scalar, because real ground networks have touching lists of 2-4
  entries where this ladder has 19-49, and there the scalar loop won every
  sweep measured.

The acceptance gate of PR 9 (and the CI numpy-job smoke step) is intact
parity with a **>= 3x canopy sweep speedup** and a **>= 2x probe sweep
speedup** on the default (10x-scale) workloads; the smoke config gates the
same shapes at CI-sized scales with proportionally lower bars.  Without
numpy the bench records scalar timings only and the speedup gates are
skipped — there is nothing to gate.  ``--check`` also fails when ``auto``
is more than 10 % slower than the better forced leg on any recorded cover
build, sequential or sharded: picking the leg must cost nothing on either
side.  (The recorded default run fails that at dblp@6 — see
``docs/benchmarks.md``; the smoke config is green.)

Run standalone (this is what the CI numpy-job smoke step does)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke --check

or through pytest together with the other benches::

    cd benchmarks && PYTHONPATH=../src python -m pytest -q -s bench_kernels.py
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.atomicio import atomic_write_json
from repro.blocking import CanopyBlocker, ParallelCoverBuilder
from repro.datamodel import CompactStore, EntityPair
from repro.datasets import dblp_like, hepth_like
from repro.kernels import BatchCanopyScorer, backend, numpy_or_none, use
from repro.kernels.counters import COUNTERS
from repro.kernels.names import CANOPY_BREAK_EVEN, pilot_rows
from repro.mln.grounding import GroundRule
from repro.mln.network import GroundNetwork
from repro.mln.state import WorldState
from repro.obs import registry as obs_registry
from repro.similarity import ProfiledNameScorer

#: Named workload sizes.  ``smoke`` is the CI gate (seconds); ``default`` is
#: the recorded trajectory point at 10x workload scale.  Each canopy workload
#: is ``(preset, scale, speedup_target)`` and each probe workload is
#: ``(pairs, groundings_per_head, body_size, rounds, speedup_target)``; a
#: ``None`` target records the number without gating it.  ``cover`` lists the
#: in-situ cover builds as ``(preset, scale)`` — the canopy workloads,
#: ``dblp@1.5`` (the largest ``BENCHMARK.json`` shape) and, in the default
#: config, the scales between which the legs cross — ``sharded`` the
#: ``ParallelCoverBuilder`` builds (one scale well on either side of the
#: crossing), and ``ladder`` the ``(groundings_per_head, body_size)`` network
#: shapes the probe ladder climbs.
CONFIGS: Dict[str, Dict] = {
    "smoke": {
        "repeats": 3,
        "canopy": [("hepth", 4.0, 1.3)],
        "probe": [(2000, 6, 2, 8, 1.5)],
        "cover": [("dblp", 1.5), ("hepth", 4.0)],
        "sharded": [("dblp", 1.5)],
        "ladder": [(6, 2)],
    },
    "default": {
        "repeats": 2,
        "canopy": [("hepth", 8.0, 3.0), ("dblp", 10.0, 1.5)],
        "probe": [(5000, 16, 2, 12, 2.0), (2000, 6, 2, 12, None)],
        "cover": [("dblp", 1.5), ("dblp", 3.0), ("hepth", 4.0),
                  ("dblp", 6.0), ("hepth", 8.0), ("dblp", 10.0)],
        "sharded": [("dblp", 1.5), ("hepth", 8.0), ("dblp", 10.0)],
        "ladder": [(6, 2), (16, 2)],
    },
}

#: The three ways a run can be configured; ``auto`` is the default.
BACKENDS = ("python", "numpy", "auto")
#: Worklist sizes of the probe ladder.
LADDER_SIZES = (4, 16, 64, 256)
#: ``auto`` may cost at most this much over the better forced leg.
AUTO_TOLERANCE = 1.10
#: Lower edges of the candidate-row buckets of the per-center cost table.
ROW_BUCKETS = (0, 32, 64, 96, 128, 160, 192, 256, 384, 512, 1024)

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
        batch = BatchCanopyScorer(scorer, pindex.postings)
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


# ----------------------------------------------------- cover build, in situ
def run_cover_workload(preset: str, scale: float, repeats: int,
                       sharded: bool = False) -> Dict:
    """``build_cover`` under each backend; for the sequential build also each
    leg's per-center cost."""
    store = CompactStore.from_store(_PRESETS[preset](scale=scale).store)
    blocker = CanopyBlocker()
    builder = ParallelCoverBuilder(blocker, workers=2) if sharded else blocker

    def build() -> Tuple[float, List]:
        started = time.process_time()
        cover = builder.build_cover(store)
        return time.process_time() - started, \
            [(n.name, sorted(n.entity_ids)) for n in cover]

    # Interleaved in rotating order, CPU time, lower quartile of 5-15 rounds
    # (more for the short builds): on one side of the break-even ``auto`` and
    # a forced leg are the very same code path, and the gate has to tell 10 %
    # from a shared machine, where the best of many is one lucky quiet moment
    # and the median sits inside a neighbour's burst.
    samples: Dict[str, List[float]] = {name: [] for name in BACKENDS}
    covers: Dict[str, List] = {}
    rounds = max(repeats, 5)
    turn = 0
    while turn < rounds:
        for name in BACKENDS[turn % 3:] + BACKENDS[:turn % 3]:
            with use(name):
                spent, covers[name] = build()
            samples[name].append(spent)
        turn += 1
        if turn == 1:
            slowest = max(spent[0] for spent in samples.values())
            rounds = max(rounds, min(15, int(4.0 / slowest)))
    seconds = {name: lower_quartile(spent) for name, spent in samples.items()}

    entities = blocker.clustered_entities(store)
    pindex = blocker.profile_index(entities, None)
    order = blocker.shuffled_order(entities)
    workload = {
        "preset": preset, "scale": scale, "entities": len(entities),
        # What ``auto`` decides on, computed the way the builders do.
        "pilot_mean_rows": round(pilot_rows(
            pindex.postings,
            (pindex.profile(center).token_set for center in order)), 1),
        "seconds": {name: round(value, 6) for name, value in seconds.items()},
        "auto_vs_best": round(seconds["auto"] /
                              min(seconds["python"], seconds["numpy"]), 3),
        "parity": covers["python"] == covers["numpy"] == covers["auto"],
    }
    if sharded:
        return workload

    # Per-center cost of each leg over the same accepted centers, by
    # candidate rows.
    cost: Dict[str, Dict[str, float]] = {}
    for name in ("python", "numpy"):
        with use(name):
            canopy_fn = blocker.canopy_factory(entities, pindex)
            spent_on: Dict[str, float] = {}

            def timed(center, canopy_fn=canopy_fn, spent_on=spent_on):
                started = time.perf_counter()
                result = canopy_fn(center)
                spent_on[center] = time.perf_counter() - started
                return result

            blocker.sweep(order, timed)
        cost[name] = spent_on
    accepted = list(cost["python"])          # in sweep order
    rows_of = {center: len(pindex.candidates(center)) for center in accepted}
    buckets = []
    for low, high in zip(ROW_BUCKETS, ROW_BUCKETS[1:] + (None,)):
        centers = [center for center in accepted if low <= rows_of[center]
                   and (high is None or rows_of[center] < high)]
        if centers:
            buckets.append({
                "rows_from": low, "centers": len(centers),
                "scalar_us": round(1e6 * sum(cost["python"][c] for c in centers)
                                   / len(centers), 1),
                "batch_us": round(1e6 * sum(cost["numpy"][c] for c in centers)
                                  / len(centers), 1)})
    rows = sorted(rows_of[center] for center in accepted)
    workload.update({
        "accepted_centers": len(accepted),
        "candidate_rows": {"p50": rows[len(rows) // 2],
                           "p90": rows[len(rows) * 9 // 10], "max": rows[-1]},
        "per_center": buckets,
    })
    return workload


def lower_quartile(samples: List[float]) -> float:
    return sorted(samples)[len(samples) // 4]


def crossing(ladder: List[Tuple[float, float, float]]) -> Optional[float]:
    """First ``size`` from which the batched leg is the cheaper one at every
    larger rung of ``(size, scalar cost, batch cost)``; ``None`` if never."""
    found = None
    for size, scalar, batch in ladder:
        if batch <= scalar:
            found = size if found is None else found
        else:
            found = None
    return found


# -------------------------------------------------------------- probe ladder
def run_probe_ladder(degree: int, body: int) -> Dict:
    """The greedy probe/add loop at each ladder size, under each forced leg."""
    rungs = []
    for size in LADDER_SIZES:
        rounds = min(12, size)
        network = synth_network(size, degree, body)
        worklist = sorted(network.candidates)
        touching = network.touching_map

        def sweep() -> float:
            # A fresh network each time: a neighborhood's ProbeIndex is
            # built by its first vectorised sweep and amortises over the
            # handful that follow, not over a whole bench run.
            state = WorldState(synth_network(size, degree, body))
            started = time.process_time()
            for _ in range(rounds):
                deltas = state.delta_batch(worklist)
                best = max(range(size),
                           key=lambda position: (deltas[position], -position))
                state.add(worklist[best])
            return time.process_time() - started

        # Interleaved, lower quartile of many, like the cover builds: the
        # small rungs are microseconds a sweep.
        samples: Dict[str, List[float]] = {"python": [], "numpy": []}
        for _ in range(max(12, 4000 // size)):
            for name, spent in samples.items():
                with use(name):
                    spent.append(sweep())
        rungs.append({
            "worklist": size,
            "mean_touching": round(sum(map(len, touching.values()))
                                   / max(len(touching), 1), 1),
            "us_per_sweep": {
                name: round(1e6 * lower_quartile(spent) / rounds, 2)
                for name, spent in samples.items()}})
    return {
        "groundings_per_head": degree, "body_size": body, "rungs": rungs,
        "crossing_worklist": crossing(
            [(rung["worklist"], rung["us_per_sweep"]["python"],
              rung["us_per_sweep"]["numpy"]) for rung in rungs]),
    }


# -------------------------------------------------------------------- bench
def run_bench(config_name: str) -> Dict:
    config = CONFIGS[config_name]
    repeats = config["repeats"]
    vectorised = backend() == "numpy"
    import_seconds = None
    if vectorised:
        # What a process pays the first time a batch needs numpy - measured
        # in a fresh interpreter, then loaded here so that no timed leg
        # below includes it.
        import_seconds = float(subprocess.run(
            [sys.executable, "-c", "import time; started = time.perf_counter(); "
             "import numpy; print(time.perf_counter() - started)"],
            capture_output=True, text=True, check=True, timeout=60).stdout)
        with use("numpy"):
            numpy_or_none()
    covers = [run_cover_workload(preset, scale, repeats)
              for preset, scale in config["cover"]] if vectorised else []
    sharded = [run_cover_workload(preset, scale, repeats, sharded=True)
               for preset, scale in config["sharded"]] if vectorised else []
    return {
        "bench": "kernels",
        "backend": backend(),
        "config": {"name": config_name, "repeats": repeats},
        "numpy_import_seconds": import_seconds and round(import_seconds, 4),
        # What ``auto`` dispatches on, beside what this run measured: the
        # pilot mean from which every larger cover built faster vectorised.
        "canopy_break_even": {
            "constant": CANOPY_BREAK_EVEN,
            "measured": crossing(sorted(
                (w["pilot_mean_rows"], w["seconds"]["python"],
                 w["seconds"]["numpy"]) for w in covers))},
        "cover_builds": covers,
        "sharded_cover_builds": sharded,
        "probe_ladders": [run_probe_ladder(degree, body)
                          for degree, body in config["ladder"]]
        if vectorised else [],
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
    """The CI gate: exact parity everywhere, speedups over their targets,
    ``auto`` keeping up with the better forced leg on every cover build."""
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
    for kind, builder in (("cover_builds", "cover"),
                          ("sharded_cover_builds", "sharded cover")):
        for workload in report[kind]:
            label = f"{builder} {workload['preset']}@{workload['scale']}"
            if not workload["parity"]:
                failures.append(f"{label}: covers differ between backends")
            if workload["auto_vs_best"] > AUTO_TOLERANCE:
                failures.append(
                    f"{label}: auto is {workload['auto_vs_best']}x the better "
                    f"forced leg (limit {AUTO_TOLERANCE}x)")
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
