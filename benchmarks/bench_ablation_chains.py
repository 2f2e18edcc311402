"""Ablation: MMP vs SMP as the amount of chained (chicken-and-egg) evidence grows.

Section 5.2 motivates maximal messages with match sets that only pay off
collectively.  This ablation constructs rings of weakly-similar record pairs
(the structure of the Section 2.1 chain) of growing length, covers each ring
with sliding windows that never contain the whole ring, and reports how many
of the ring pairs NO-MP, SMP and MMP recover.  The expected shape: NO-MP and
SMP recover none of them, MMP recovers all of them, at every ring length.
"""

from common import print_figure
from repro.core import EMFramework
from repro.matchers import MLNMatcher
from repro.mln import paper_author_rules

import sys
from pathlib import Path

# Reuse the ring builders from the test utilities.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.util import build_chain_store, chain_cover  # noqa: E402


def test_ablation_chain_length(benchmark):
    lengths = (4, 6, 8, 10)

    def sweep():
        rows = []
        for length in lengths:
            store = build_chain_store(length=length, level=2)
            cover = chain_cover(length=length, window=3)
            nomp, smp, mmp = (
                EMFramework(MLNMatcher(rules=paper_author_rules()), store,
                            cover=cover).run(scheme)
                for scheme in ("no-mp", "smp", "mmp"))
            rows.append({
                "ring_length": length,
                "chain_pairs": length,
                "no_mp_found": len(nomp.matches),
                "smp_found": len(smp.matches),
                "mmp_found": len(mmp.matches),
                "mmp_time_s": round(mmp.elapsed_seconds, 3),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_figure("Ablation - chained evidence: pairs recovered per scheme", rows)

    for row in rows:
        assert row["no_mp_found"] == 0
        assert row["smp_found"] == 0
        assert row["mmp_found"] == row["chain_pairs"]
