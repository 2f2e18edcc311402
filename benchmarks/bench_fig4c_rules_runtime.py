"""Figure 4(c): running time of the RULES matcher (NO-MP, SMP, FULL) on both datasets.

Shape to reproduce: RULES is fast and linear, so unlike the MLN matcher there
is no speed advantage in message passing — SMP costs about the same as (or a
bit more than) NO-MP and the FULL run, on both datasets.
"""

from common import print_figure
from repro.core import EMFramework, FullRun
from repro.matchers import RulesMatcher


def test_fig4c_rules_runtime(benchmark, hepth_data, hepth_cover, dblp_data, dblp_cover):
    def run_all():
        rows = []
        for dataset_name, dataset, cover in (("HEPTH", hepth_data, hepth_cover),
                                              ("DBLP", dblp_data, dblp_cover)):
            nomp = EMFramework(RulesMatcher(), dataset.store, cover=cover).run("no-mp")
            smp = EMFramework(RulesMatcher(), dataset.store, cover=cover).run("smp")
            full = FullRun().run(RulesMatcher(), dataset.store)
            rows.append({
                "dataset": dataset_name,
                "no_mp_s": round(nomp.elapsed_seconds, 3),
                "smp_s": round(smp.elapsed_seconds, 3),
                "full_s": round(full.elapsed_seconds, 3),
                "smp_matches": len(smp.matches),
                "full_matches": len(full.matches),
            })
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_figure("Figure 4(c) - running times of the RULES matcher", rows)

    for row in rows:
        # RULES is cheap: all three configurations complete in seconds, and the
        # full holistic run is not the bottleneck the MLN matcher's would be.
        assert row["full_s"] < 60
        # Soundness: SMP never produces matches the holistic run would not.
        assert row["smp_matches"] <= row["full_matches"]
