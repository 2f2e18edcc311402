"""Bench: batched scoring kernels vs the scalar reference, with parity.

The optional-numpy kernel layer (``repro.kernels``) holds two families, both
in the cover build: batched canopy scoring over interned name parts, and the
TF-IDF block scorer.  The scalar code paths stay in place as the
byte-identical parity reference, so this bench records, per workload:

* **canopy sweep** — every canopy center's loose-threshold sweep over its
  token-posting candidates, scalar :meth:`ProfiledNameScorer.canopy_scores`
  vs the kernel-backed :class:`BatchCanopyScorer`;
* **parity** — the batched results must equal the scalar results exactly
  (same sets, same floats), which is the contract the whole kernel layer is
  built on;
* **cover build, in situ** — ``CanopyBlocker.build_cover`` as the pipeline
  calls it (accepted centers only, so the row caches amortise over far
  fewer sweeps than above), under forced ``python``, forced ``numpy`` and
  ``auto`` on a ladder of scales, each leg's per-center cost bucketed by
  candidate rows, and the pilot mean (the rows the first ``CANOPY_PILOT``
  centers in sweep order average, which is what ``auto`` decides on) at
  which whole covers cross (``CANOPY_BREAK_EVEN``);
* **TF-IDF cover build, in situ** — ``CanopyBlocker(similarity="tfidf")``
  under forced ``python`` and forced ``numpy`` (``auto`` vectorises every
  TF-IDF block whenever numpy resolves, so it is the ``numpy`` leg).  A
  record with a parity check, not a speed gate.

The gate (and the CI numpy-job smoke step) is intact parity with a canopy
sweep speedup over the per-workload targets in ``CONFIGS``; a faster scalar
reference lowers the ratio, so the targets are set against the measured one
(``docs/benchmarks.md``).  Without numpy the bench records scalar timings
only and the speedup gates are skipped — there is nothing to gate.
``--check`` also fails when ``auto`` is more than 10 % slower than the better
forced leg on any recorded canopy cover build: picking the leg must cost
nothing on either side.  (The 150-450-row band is where the legs sit
closest; on the default config the gate also fails on machine noise alone
— see ``docs/benchmarks.md``.  The smoke config is green.)

Run standalone (this is what the CI numpy-job smoke step does)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke --check

or through pytest together with the other benches::

    cd benchmarks && PYTHONPATH=../src python -m pytest -q -s bench_kernels.py
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.atomicio import atomic_write_json
from repro.blocking import CanopyBlocker
from repro.datamodel import CompactStore
from repro.datasets import dblp_like, hepth_like
from repro.kernels import BatchCanopyScorer, backend, numpy_or_none, use
from repro.kernels.counters import COUNTERS
from repro.kernels.names import CANOPY_BREAK_EVEN, pilot_rows
from repro.obs import registry as obs_registry
from repro.similarity import ProfiledNameScorer

#: Named workload sizes.  ``smoke`` is the CI gate (seconds); ``default`` is
#: the recorded trajectory point at 10x workload scale.  Each canopy workload
#: is ``(preset, scale, speedup_target)``.  ``cover`` lists the in-situ cover
#: builds as ``(preset, scale)`` — the canopy workloads, ``dblp@1.5`` (the
#: largest ``BENCHMARK.json`` shape) and, in the default config, the scales
#: between which the legs cross — and ``tfidf`` the TF-IDF cover builds.
CONFIGS: Dict[str, Dict] = {
    "smoke": {
        "repeats": 3,
        "canopy": [("hepth", 4.0, 1.15)],
        "cover": [("dblp", 1.5), ("hepth", 4.0)],
        "tfidf": [("dblp", 1.5)],
    },
    "default": {
        "repeats": 2,
        "canopy": [("hepth", 8.0, 2.3), ("dblp", 10.0, 1.1)],
        "cover": [("dblp", 1.5), ("dblp", 3.0), ("hepth", 4.0),
                  ("dblp", 6.0), ("hepth", 8.0), ("dblp", 10.0)],
        "tfidf": [("dblp", 1.5), ("hepth", 4.0), ("dblp", 6.0)],
    },
}

#: The three ways a run can be configured; ``auto`` is the default.
BACKENDS = ("python", "numpy", "auto")
#: ``auto`` may cost at most this much over the better forced leg.
AUTO_TOLERANCE = 1.10
#: Lower edges of the candidate-row buckets of the per-center cost table.
ROW_BUCKETS = (0, 32, 64, 96, 128, 160, 192, 256, 384, 512, 1024)

_PRESETS = {"hepth": hepth_like, "dblp": dblp_like}

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_kernels.json"


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


# ----------------------------------------------------- cover build, in situ
def interleaved_builds(blocker, store, backends: Tuple[str, ...],
                       repeats: int) -> Tuple[Dict[str, float], Dict[str, List]]:
    """``blocker.build_cover(store)`` under each of ``backends``: CPU seconds
    a build and the cover each backend built."""

    def build() -> Tuple[float, List]:
        started = time.process_time()
        cover = blocker.build_cover(store)
        return time.process_time() - started, \
            [(n.name, sorted(n.entity_ids)) for n in cover]

    # Interleaved in rotating order, CPU time, lower quartile of 5-15 rounds
    # (more for the short builds): on one side of the break-even ``auto`` and
    # a forced leg are the very same code path, and the gate has to tell 10 %
    # from a shared machine, where the best of many is one lucky quiet moment
    # and the median sits inside a neighbour's burst.
    samples: Dict[str, List[float]] = {name: [] for name in backends}
    covers: Dict[str, List] = {}
    rounds = max(repeats, 5)
    turn = 0
    while turn < rounds:
        shift = turn % len(backends)
        for name in backends[shift:] + backends[:shift]:
            with use(name):
                spent, covers[name] = build()
            samples[name].append(spent)
        turn += 1
        if turn == 1:
            slowest = max(spent[0] for spent in samples.values())
            rounds = max(rounds, min(15, int(4.0 / slowest)))
    return ({name: lower_quartile(spent) for name, spent in samples.items()},
            covers)


def run_cover_workload(preset: str, scale: float, repeats: int) -> Dict:
    """``build_cover`` under each backend, and each leg's per-center cost."""
    store = CompactStore.from_store(_PRESETS[preset](scale=scale).store)
    blocker = CanopyBlocker()
    seconds, covers = interleaved_builds(blocker, store, BACKENDS, repeats)

    entities = blocker.clustered_entities(store)
    pindex = blocker.profile_index(entities, None)
    order = blocker.shuffled_order(entities)
    workload = {
        "preset": preset, "scale": scale, "entities": len(entities),
        # What ``auto`` decides on, computed the way the sweep does.
        "pilot_mean_rows": round(pilot_rows(
            pindex.postings,
            (pindex.profile(center).token_set for center in order)), 1),
        "seconds": {name: round(value, 6) for name, value in seconds.items()},
        "auto_vs_best": round(seconds["auto"] /
                              min(seconds["python"], seconds["numpy"]), 3),
        "parity": covers["python"] == covers["numpy"] == covers["auto"],
    }
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


def run_tfidf_cover_workload(preset: str, scale: float, repeats: int) -> Dict:
    """A TF-IDF canopy cover build under each forced leg."""
    store = CompactStore.from_store(_PRESETS[preset](scale=scale).store)
    blocker = CanopyBlocker(similarity="tfidf", loose_threshold=0.5,
                            tight_threshold=0.8)
    seconds, covers = interleaved_builds(
        blocker, store, ("python", "numpy"), repeats)
    return {
        "preset": preset, "scale": scale,
        "entities": len(blocker.clustered_entities(store)),
        "neighborhoods": len(covers["python"]),
        "seconds": {name: round(value, 6) for name, value in seconds.items()},
        "speedup": round(seconds["python"] / seconds["numpy"], 2),
        "parity": covers["python"] == covers["numpy"],
    }


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
        "tfidf_cover_builds": [
            run_tfidf_cover_workload(preset, scale, repeats)
            for preset, scale in config["tfidf"]] if vectorised else [],
        "canopy_sweeps": [
            run_canopy_workload(preset, scale, repeats, target)
            for preset, scale, target in config["canopy"]
        ],
    }


def check_report(report: Dict) -> List[str]:
    """The CI gate: exact parity everywhere, speedups over their targets,
    ``auto`` keeping up with the better forced leg on every cover build."""
    if report["backend"] != "numpy":
        # Scalar-only recording; there is no batched leg to gate.
        return []
    failures = []
    for workload in report["canopy_sweeps"]:
        label = f"canopy {workload['preset']}@{workload['scale']}"
        if not workload["parity"]:
            failures.append(f"{label}: batched results differ from the "
                            "scalar reference")
        target = workload["target"]
        if target is not None and workload["speedup"] < target:
            failures.append(f"{label}: speedup {workload['speedup']}x is "
                            f"below the {target}x target")
    for kind, builder in (("cover_builds", "cover"),
                          ("tfidf_cover_builds", "tfidf cover")):
        for workload in report[kind]:
            label = f"{builder} {workload['preset']}@{workload['scale']}"
            if not workload["parity"]:
                failures.append(f"{label}: covers differ between backends")
            # TF-IDF builds record no ``auto`` leg: it is the ``numpy`` one.
            if workload.get("auto_vs_best", 0.0) > AUTO_TOLERANCE:
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
