"""Parity: the one scheme engine against the sequential oracle.

``EMFramework.run`` runs NO-MP, SMP and MMP on the round-based grid.  The
paper's queue-driven loops live in ``tests/reference/schemes.py``; the
schemes are consistent (Theorems 2 and 4), so on every instance both must
return the identical match set.  This is checked on every (preset, matcher,
scheme) row the paper-figure benches run, at a reduced scale, and on random
small stores and covers.  The engine reads the framework's compact snapshot
and the oracle restricts the caller's dict store, so this is also the check
that the two stores yield the same matches.

To print the same rows at the benches' default scales, with timings::

    PYTHONPATH=src python -m tests.test_scheme_parity
"""

from __future__ import annotations

import functools
import time

import pytest
from hypothesis import given

from repro.blocking import CanopyBlocker, build_total_cover
from repro.core import EMFramework
from repro.datasets import dblp_big_like, dblp_like, hepth_like
from repro.evaluation import format_table
from repro.matchers import MLNMatcher, RulesMatcher
from repro.mln import paper_author_rules
from tests.reference.schemes import SCHEMES as ORACLES
from tests.test_property_framework import SETTINGS, instances_with_covers
from tests.util import build_chain_store, chain_cover

PRESETS = {"hepth": hepth_like, "dblp": dblp_like, "dblp-big": dblp_big_like}
MATCHERS = {
    "mln": MLNMatcher,
    "rules": RulesMatcher,
    "mln-paper": lambda: MLNMatcher(rules=paper_author_rules()),
}
#: Scale of the tier-1 rows, and the benches' defaults (benchmarks/conftest.py).
TIER1_SCALE = 0.25
BENCH_SCALES = {"hepth": 0.5, "dblp": 0.5, "dblp-big": 1.0}
#: The ring lengths of the chained-evidence ablation (no scale: hand-built).
RING_LENGTHS = (4, 6, 8, 10)

#: Every (preset, matcher, scheme) the paper-figure benches run: Figures
#: 3(a)-(f) and the canopy/total-cover ablations (MLN on HEPTH and DBLP),
#: Table 1 (MLN on DBLP-BIG), Figure 4 (RULES, no MMP: it is Type-I) and the
#: chained-evidence ablation (the paper's rules on rings).
BENCH_ROWS = [
    *((preset, "mln", scheme) for preset in ("hepth", "dblp", "dblp-big")
      for scheme in ("no-mp", "smp", "mmp")),
    *((preset, "rules", scheme) for preset in ("hepth", "dblp")
      for scheme in ("no-mp", "smp")),
    *(("chain-ring", "mln-paper", scheme) for scheme in ("no-mp", "smp", "mmp")),
]


@functools.lru_cache(maxsize=None)
def instances(preset: str, scale: float):
    """The (store, cover) pairs the benches run ``preset`` on."""
    if preset == "chain-ring":
        return tuple((build_chain_store(length=length, level=2),
                      chain_cover(length=length, window=3))
                     for length in RING_LENGTHS)
    store = PRESETS[preset](scale=scale).store
    return ((store, build_total_cover(CanopyBlocker(), store,
                                      relation_names=["coauthor"])),)


def assert_engine_equals_oracle(matcher: str, scheme: str, store, cover):
    """Run both on one instance; returns ``(engine, oracle)`` results."""
    engine = EMFramework(MATCHERS[matcher](), store, cover=cover).run(scheme)
    oracle = ORACLES[scheme]().run(MATCHERS[matcher](), store, cover)
    assert engine.matches == oracle.matches
    assert engine.scheme == oracle.scheme == scheme
    assert engine.neighborhoods == oracle.neighborhoods == len(cover)
    if scheme == "smp":  # both count each committed new match once
        assert engine.messages_passed == oracle.messages_passed
    return engine, oracle


@pytest.mark.parametrize("preset,matcher,scheme", BENCH_ROWS)
def test_engine_equals_oracle_on_every_bench_row(preset, matcher, scheme):
    for store, cover in instances(preset, TIER1_SCALE):
        assert_engine_equals_oracle(matcher, scheme, store, cover)


@pytest.mark.parametrize("matcher,scheme", [
    ("mln", "no-mp"), ("mln", "smp"), ("mln", "mmp"),
    ("rules", "no-mp"), ("rules", "smp")])
@SETTINGS
@given(instances_with_covers())
def test_engine_equals_oracle_on_random_instances(matcher, scheme, instance):
    assert_engine_equals_oracle(matcher, scheme, *instance)


def main() -> None:
    rows = []
    for preset, matcher, scheme in BENCH_ROWS:
        scale = BENCH_SCALES.get(preset)
        engine_s = oracle_s = 0.0
        matches = 0
        for store, cover in instances(preset, scale):
            started = time.process_time()
            engine = EMFramework(MATCHERS[matcher](), store, cover=cover).run(scheme)
            engine_s += time.process_time() - started
            started = time.process_time()
            oracle = ORACLES[scheme]().run(MATCHERS[matcher](), store, cover)
            oracle_s += time.process_time() - started
            assert engine.matches == oracle.matches, (preset, matcher, scheme)
            matches += len(engine.matches)
        rows.append({"preset": preset, "scale": scale or "-", "matcher": matcher,
                     "scheme": scheme, "matches": matches, "equal": "yes",
                     "engine_cpu_s": round(engine_s, 2),
                     "oracle_cpu_s": round(oracle_s, 2)})
    print(format_table(rows, title="engine vs sequential oracle, bench default scales"))


if __name__ == "__main__":
    main()
