"""Figure 3(d): running time of NO-MP, SMP and MMP on HEPTH (MLN matcher).

The paper observes that message passing does not slow the framework down —
SMP and MMP end up cheaper than NO-MP because evidence shrinks the active part
of each neighborhood.  In this pure-Python reproduction the dominant
per-neighborhood cost is grounding (which is evidence-independent and cached),
so the shape reported here is: the three schemes are within the same small
constant factor of each other, with the cost dominated by time spent inside
the black-box matcher.  Fresh matcher instances are used for every scheme so
no cache is shared between the compared runs.
"""

from common import print_figure, runtime_rows
from repro.core import EMFramework
from repro.matchers import MLNMatcher


def test_fig3d_hepth_runtime(benchmark, hepth_data, hepth_cover):
    def run_all():
        return {scheme: EMFramework(MLNMatcher(), hepth_data.store,
                                    cover=hepth_cover).run(scheme)
                for scheme in ("no-mp", "smp", "mmp")}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = runtime_rows(results)
    print_figure("Figure 3(d) - running times on HEPTH-like (MLN matcher)", rows)

    by_scheme = {row["scheme"]: row for row in rows}
    # The matcher dominates the cost for every scheme (framework overhead is
    # small), and message passing stays within a small factor of NO-MP.
    for scheme in ("NO-MP", "SMP", "MMP"):
        assert by_scheme[scheme]["matcher_seconds"] <= by_scheme[scheme]["seconds"]
    assert by_scheme["SMP"]["seconds"] <= 4 * by_scheme["NO-MP"]["seconds"]
