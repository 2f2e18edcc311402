"""Kernel work accounting: the four ``kernel_*_total`` registry counters.

Batch kernels report through :func:`record` how much work they did —
candidate pairs scored, batch invocations, and how many candidates the cheap
vectorized prefilter examined and eliminated before any exact scoring.  The
counts are plain :mod:`repro.obs.registry` counters: inside a map task the
task's ``capturing()`` scope carries them back on ``MapResult.metric_deltas``,
everywhere else (cover builds) they land in the process registry.  All stay
zero on the scalar backend.
"""

from __future__ import annotations

from ..obs import registry as obs_registry

#: Work name (the keyword :func:`record` takes) -> its registry counter.
COUNTERS = {
    "pairs_scored": obs_registry.counter(
        "kernel_pairs_scored_total",
        "Candidate pairs whose score a batch kernel evaluated"),
    "batches": obs_registry.counter(
        "kernel_batches_total", "Vectorized batch kernel invocations"),
    "prefilter_checked": obs_registry.counter(
        "kernel_prefilter_checked_total",
        "Candidates examined by the vectorized prefilter"),
    "prefilter_pruned": obs_registry.counter(
        "kernel_prefilter_pruned_total",
        "Candidates eliminated by the prefilter before exact scoring"),
}


def record(**work: int) -> None:
    """Add one kernel call's work, e.g. ``record(batches=1, pairs_scored=n)``."""
    for name, amount in work.items():
        COUNTERS[name].inc(amount)
