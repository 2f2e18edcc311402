"""Figure 3(f): running time as a function of the number of neighborhoods.

The paper runs the MLN matcher holistically ("Full EM") on growing portions of
HEPTH and compares it against MMP on the same portion: Full EM grows
super-linearly with the instance and becomes infeasible beyond a few thousand
neighborhoods, while MMP grows linearly.

The reproduction sweeps growing HEPTH-like instances (generated at increasing
scales of the benchmark workload) and reports the number of neighborhoods,
Full-EM time and MMP time for each.  The shape assertion is the crossover the
paper's figure shows: relative to MMP, the holistic run keeps getting more
expensive as the instance grows (on small instances it is cheaper than MMP, on
large ones it catches up and overtakes).
"""

from common import print_figure
from conftest import HEPTH_SCALE
from repro.blocking import CanopyBlocker, build_total_cover
from repro.core import EMFramework, FullRun
from repro.datasets import hepth_like
from repro.matchers import MLNMatcher


def test_fig3f_scaling(benchmark):
    fractions = (0.3, 0.5, 0.75, 1.0)
    scales = [HEPTH_SCALE * fraction for fraction in fractions]

    def sweep():
        rows = []
        for scale in scales:
            dataset = hepth_like(scale=scale)
            cover = build_total_cover(CanopyBlocker(), dataset.store,
                                      relation_names=["coauthor"])
            full = FullRun().run(MLNMatcher(), dataset.store)
            mmp = EMFramework(MLNMatcher(), dataset.store, cover=cover).run("mmp")
            rows.append({
                "neighborhoods": len(cover),
                "references": dataset.stats()["author_references"],
                "candidate_pairs": dataset.stats()["candidate_pairs"],
                "full_em_s": round(full.elapsed_seconds, 3),
                "mmp_s": round(mmp.elapsed_seconds, 3),
                "full_over_mmp": round(full.elapsed_seconds / max(mmp.elapsed_seconds, 1e-9), 3),
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_figure("Figure 3(f) - running time vs number of neighborhoods (HEPTH-like)",
                 rows)

    # Shape: the holistic run gets progressively more expensive *relative to
    # MMP* as the instance grows (the paper's curves cross and diverge).
    assert rows[-1]["full_over_mmp"] > rows[0]["full_over_mmp"]
    # And MMP's cost stays roughly linear in the number of neighborhoods.
    mmp_per_neighborhood_first = rows[0]["mmp_s"] / rows[0]["neighborhoods"]
    mmp_per_neighborhood_last = rows[-1]["mmp_s"] / rows[-1]["neighborhoods"]
    assert mmp_per_neighborhood_last <= 6 * mmp_per_neighborhood_first
