"""The repo's end-to-end benchmark: one command, every metric, every check.

One run of one workload (what the benchmark driver calls)::

    python3 benchmarks/e2e/run.py --workload serve-write-dblp --seed 7 \
        --seconds 12 --trace 0

prints each metric by name and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--trace`` it runs every workload (or the ``--workload`` ones) twice
in fresh child processes — untraced, then traced — prints both tables and
writes ``benchmarks/e2e/results/latest.json``; ``--repeat 2 --compare`` does
that twice and fails unless the two sets agree within the bounds of
``BENCHMARK.json``.  No ``PYTHONPATH`` is needed: the script finds ``src/``
next to ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

#: Per-layer counts that must repeat exactly between two runs of one seed.
EXACT_COUNTS = ("blocking.neighborhoods", "parallel.tasks", "mln.ground_calls",
                "durability.replayed_batches", "durability.wal_bytes")
CHILD_TIMEOUT = 170.0
SHARES_PREFIX = "layer-shares "


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ one workload
def single(args) -> int:
    import metrics
    import scenario
    from workloads import TOY, WORKLOADS

    workload = (TOY if args.toy else WORKLOADS)[args.workload[0]]
    golden = json.loads((HERE / "golden.json").read_text())
    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        raw = scenario.run(workload, args.seed, args.seconds, bool(args.trace),
                           workdir, golden,
                           f"{workload.name}@{workload.scale}x{workload.batches}:{args.seed}")
    except scenario.BenchmarkFailure as failure:
        print(f"{workload.name}: FAILED: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = metrics.per_layer(raw, workload.workers) if args.trace \
        else metrics.end_to_end(raw)
    print(f"{workload.name} seed={args.seed} entities={raw['entities']} "
          f"ops/batch={raw['ops_per_batch']:.1f} commits={len(raw['commit_latencies'])} "
          f"reads={sum(len(log.latencies) for log in raw['quiet'])} "
          f"matches={len(raw['match_samples'])} digest={raw['digest']}")
    for name, (value, unit) in values.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    result = {"correct": True, "attempted": raw["attempted"],
              "failed": raw["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in values.items()}}
    if args.trace:
        # Kept off the result line, whose keys the driver's contract fixes;
        # the full mode picks this line up for results/latest.json.
        print(SHARES_PREFIX + json.dumps({
            "match": metrics.layer_shares(raw["match_spans"]),
            "serve": metrics.layer_shares(raw["server_spans"])}))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------- every workload
def child(workload: str, args, trace: int) -> dict:
    """One workload, one pass, in a fresh process; its parsed result line."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)] + (["--toy"] if args.toy else [])
    started = time.perf_counter()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as expired:
        return {"correct": False, "wall_s": CHILD_TIMEOUT,
                "error": f"timed out; stderr tail: {(expired.stderr or '')[-400:]}"}
    wall = time.perf_counter() - started
    if done.returncode != 0:
        return {"correct": False, "wall_s": wall,
                "error": f"exit {done.returncode}; stderr tail: {done.stderr[-800:]}"}
    lines = done.stdout.strip().splitlines()
    outcome = dict(json.loads(lines[-1]), wall_s=wall)
    if trace:
        outcome["layer_shares"] = json.loads(lines[-2][len(SHARES_PREFIX):])
    return outcome


def stamp() -> dict:
    from repro import kernels
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {"python": platform.python_version(), "cpus": os.cpu_count(),
            "kernel_backend": kernels.backend(), "numpy": numpy_version,
            "git_revision": revision,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def print_table(title: str, listed: list, results: dict) -> None:
    names = list(results)
    print(f"\n{title}")
    print(f"  {'metric':36s} {'unit':6s} " + " ".join(f"{n:>18s}" for n in names))
    for entry in listed:
        print(f"  {entry['name']:36s} {entry['unit']:6s} "
              + " ".join(f"{results[n]['metrics'][entry['name']]['value']:18.6g}"
                         for n in names))


def compare(sets: list, spec: dict) -> list:
    """Disagreements between two result sets, as printable lines."""
    from workloads import WORKLOADS
    first, second = sets
    problems = []
    for workload in first["end_to_end"]:
        for entry in spec["end_to_end"]:
            a, b = (s["end_to_end"][workload]["metrics"][entry["name"]]["value"]
                    for s in (first, second))
            worse = (b - a) / a if entry["better"] == "lower" else (a - b) / a
            if abs(worse) > entry["bound"]:
                problems.append(f"{workload} {entry['name']}: {a:.6g} vs {b:.6g} "
                                f"differ by {abs(worse):.1%} > {entry['bound']:.0%}")
        for name in EXACT_COUNTS:
            # Each pool worker keeps its own ground-network cache, so under
            # a process pool this one count depends on which worker a
            # neighborhood's second visit lands on.
            if name == "mln.ground_calls" and WORKLOADS[workload].executor == "processes":
                continue
            a, b = (s["per_layer"][workload]["metrics"][name]["value"]
                    for s in (first, second))
            if a != b:
                problems.append(f"{workload} {name}: count {a} vs {b}")
    return problems


def everything(args) -> int:
    spec = contract()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    sets = []
    failed = False
    for repeat in range(args.repeat):
        result = {"end_to_end": {}, "per_layer": {}}
        for name in names:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                outcome = child(name, args, trace)
                print(f"[{repeat + 1}/{args.repeat}] {name} trace={trace}: "
                      f"{'ok' if outcome['correct'] else 'FAILED'} "
                      f"in {outcome['wall_s']:.1f}s", flush=True)
                if not outcome["correct"]:
                    print(outcome["error"], file=sys.stderr)
                    failed = True
                result[key][name] = outcome
        sets.append(result)
    if failed:
        print("a workload failed; no result file written", file=sys.stderr)
        return 1
    latest = sets[-1]
    print_table("end-to-end (tracing off)", spec["end_to_end"], latest["end_to_end"])
    print_table("per layer (tracing on)", spec["per_layer"], latest["per_layer"])
    print("\nlayer shares of span self-time, traced pass (match phase / server):")
    for name in names:
        for phase, shares in latest["per_layer"][name]["layer_shares"].items():
            print(f"  {name:18s} {phase:6s} "
                  + " ".join(f"{layer}={share:.1%}" for layer, share in shares.items()))
    if args.compare:
        problems = compare(sets[-2:], spec)
        for line in problems:
            print(f"DISAGREE {line}", file=sys.stderr)
        if problems:
            return 1
        print("\nthe two sets agree within every bound; exact counts repeat")
    (HERE / "results").mkdir(exist_ok=True)
    document = {"stamp": stamp(), "seed": args.seed, "seconds": args.seconds,
                "toy": args.toy, "workloads": names, **latest}
    (HERE / "results" / "latest.json").write_text(json.dumps(document, indent=1))
    print(f"\nwritten {HERE / 'results' / 'latest.json'}")
    return 0


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/e2e/run.py: no src/repro beside benchmarks/ — "
              "nothing to measure", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name; repeatable without --trace")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(contract()["run_seconds"]),
                        help="measured window per run (match loop + read window)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE workload once: 0 = end-to-end metrics, "
                             "1 = per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--compare", action="store_true",
                        help="with --repeat 2: fail unless the two sets agree")
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (selftest.py)")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace runs exactly one --workload")
        return single(args)
    if args.compare and args.repeat < 2:
        parser.error("--compare needs --repeat 2")
    return everything(args)


if __name__ == "__main__":
    sys.exit(main())
