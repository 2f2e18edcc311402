"""Figure 3(e): running time of NO-MP, SMP and MMP on DBLP (MLN matcher).

Shape to reproduce: although HEPTH and DBLP have a comparable number of
author references, DBLP's neighborhoods are much smaller (full names cause far
fewer clashes), so every scheme runs substantially faster per reference than
on HEPTH — in the paper by an order of magnitude, here by a clear multiple.
"""

from common import print_figure, runtime_rows
from repro.core import EMFramework
from repro.matchers import MLNMatcher


def test_fig3e_dblp_runtime(benchmark, dblp_data, dblp_cover, hepth_data, hepth_cover):
    def run_all():
        return {scheme: EMFramework(MLNMatcher(), dblp_data.store,
                                    cover=dblp_cover).run(scheme)
                for scheme in ("no-mp", "smp", "mmp")}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = runtime_rows(results)
    print_figure("Figure 3(e) - running times on DBLP-like (MLN matcher)", rows)

    # Per-candidate-pair cost comparison against HEPTH's larger neighborhoods.
    hepth_pairs = hepth_cover.total_pairs()
    dblp_pairs = dblp_cover.total_pairs()
    print(f"cover candidate pairs: HEPTH-like={hepth_pairs}, DBLP-like={dblp_pairs} "
          f"(larger neighborhoods make HEPTH the harder workload)")

    by_scheme = {row["scheme"]: row for row in rows}
    for scheme in ("NO-MP", "SMP", "MMP"):
        assert by_scheme[scheme]["matcher_seconds"] <= by_scheme[scheme]["seconds"]
