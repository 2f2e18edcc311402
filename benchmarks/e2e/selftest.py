"""Self-test of the benchmark itself: ``python3 benchmarks/e2e/selftest.py``.

Runs every workload at toy size through the same code path the driver uses
(``run.py --workload W --trace 0|1``), two at a time, and checks that every
metric ``BENCHMARK.json`` names comes back exactly once with a finite,
correctly-united value — and that no end-to-end metric is zero.  Not named
``test_*.py`` on purpose: the repo's tier-1 suite must not collect it.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = "2"


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--toy", "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, f"{workload} trace={trace}:\n{done.stderr[-1500:]}"
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    started = time.perf_counter()
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    jobs = [(w["name"], trace) for w in spec["workloads"] for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: run(*job), jobs))
    for (workload, trace), result in zip(jobs, results):
        listed = spec["per_layer" if trace else "end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True and result["failed"] == 0 \
            and result["attempted"] >= 1, (workload, result)
        reported = result["metrics"]
        assert sorted(reported) == sorted(m["name"] for m in listed), \
            (workload, trace, set(reported) ^ {m["name"] for m in listed})
        for metric in listed:
            got = reported[metric["name"]]
            assert got["unit"] == metric["unit"], (workload, metric, got)
            assert isinstance(got["value"], (int, float)) \
                and math.isfinite(got["value"]), (workload, metric, got)
            if not trace:
                assert got["value"] > 0, (workload, metric, got)
    print(f"selftest ok: {len(jobs)} runs, {len(spec['end_to_end'])} end-to-end "
          f"and {len(spec['per_layer'])} per-layer metrics each, "
          f"{time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
