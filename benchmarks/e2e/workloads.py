"""The four workloads of the end-to-end benchmark and their seeded inputs.

Every workload drives the same scenario (``scenario.py``): batch-match an
instance, serve it durably over HTTP while a delta stream commits, crash,
recover, read, drain.  What differs is the input and the traffic mix, chosen
so that each workload loads different layers — see ``README.md`` for the
reasoning and ``BENCHMARK.json`` for the one-line version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List

from repro.datasets import BibliographicDataset, dblp_like, hepth_like
from repro.datasets.loader import dataset_from_dict, dataset_to_dict
from repro.streaming import synthesize_stream
from repro.streaming.deltas import op_to_dict

PRESETS = {"hepth": hepth_like, "dblp": dblp_like}

#: The delta stream's own seed.  The corpus (the preset's generator seed)
#: and the stream drawn from it are part of the workload, not of ``--seed``:
#: redrawing either per seed was measured first and moved match time by 36 %
#: and commit latency by up to 50 % between seeds (a few large neighborhoods
#: carry the MLN cost, so which entities arrive when decides the work) — no
#: regression bound survives that.  See ``make_inputs`` for what a seed does.
STREAM_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    scale: float
    matcher: str            # CLI matcher name: "mln" or "rules"
    scheme: str             # batch scheme for the match phase
    executor: str           # grid executor for the match phase
    workers: int
    batches: int            # delta batches posted in total
    holdout: float          # share of the instance streamed in by the batches
    checkpoint_every: int
    kill_after: int         # SIGKILL the server after this many commits
    match_share: float      # share of --seconds spent in the match loop
                            # (the rest is the quiescent read window)

    @property
    def replay_tail(self) -> int:
        """Batches the recovery must replay from the WAL."""
        return self.kill_after % self.checkpoint_every


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="batch-mln-hepth",
        why="hepth@0.3 (few large neighborhoods), MLN matcher, MMP on a "
            "2-process grid, 16 batches: mln grounding+inference and "
            "core/parallel message promotion carry it; blocking <2%",
        preset="hepth", scale=0.3, matcher="mln", scheme="mmp",
        executor="processes", workers=2, batches=16, holdout=0.2,
        checkpoint_every=4, kill_after=14, match_share=0.6),
    Workload(
        name="batch-rules-dblp",
        why="dblp@1.5 (many small neighborhoods), rules matcher, serial SMP "
            "grid, 16 batches: blocking, datamodel views, dedupalog and "
            "per-task overhead carry it; mln does nothing, so MLN work "
            "must show no change",
        preset="dblp", scale=1.5, matcher="rules", scheme="smp",
        executor="serial", workers=1, batches=16, holdout=0.1,
        checkpoint_every=4, kill_after=14, match_share=0.6),
    Workload(
        name="serve-write-dblp",
        why="dblp@0.5, MLN, 40 small batches (checkpoint every 8, crash at "
            "36): the write path serving>WAL>cover repair>re-match>mln>"
            "epoch publish, and recovery of a 4-batch tail",
        preset="dblp", scale=0.5, matcher="mln", scheme="smp",
        executor="serial", workers=1, batches=40, holdout=0.2,
        checkpoint_every=8, kill_after=36, match_share=0.4),
    Workload(
        name="serve-read-dblp",
        why="dblp@0.5, MLN, 8 large batches, longest read window: the "
            "epoch/HTTP read path used the other way; a commit-path gain "
            "bought with a slower epoch index or handler shows here",
        preset="dblp", scale=0.5, matcher="mln", scheme="smp",
        executor="serial", workers=1, batches=8, holdout=0.2,
        checkpoint_every=4, kill_after=6, match_share=0.4),
)}

#: Toy sizes for ``selftest.py``: same shapes, seconds instead of minutes.
_TOY_SCALE = {"batch-mln-hepth": 0.12, "batch-rules-dblp": 0.5,
              "serve-write-dblp": 0.12, "serve-read-dblp": 0.12}
TOY: Dict[str, Workload] = {
    name: replace(WORKLOADS[name], scale=scale, batches=6,
                  checkpoint_every=2, kill_after=5)
    for name, scale in _TOY_SCALE.items()}


@dataclass
class Inputs:
    base: BibliographicDataset      # what the server starts from
    final: BibliographicDataset     # what the stream converges to
    batches: List[List[dict]]       # POST /deltas bodies, wire format
    read_ids: List[str]             # seeded permutation of the base ids


def _relabel(node, mapping: Dict[str, str]):
    """``node`` (JSON data) with every entity id replaced through ``mapping``."""
    if isinstance(node, str):
        return mapping.get(node, node)
    if isinstance(node, list):
        return [_relabel(item, mapping) for item in node]
    if isinstance(node, dict):
        return {mapping.get(key, key): _relabel(value, mapping)
                for key, value in node.items()}
    return node


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Everything the program is given, derived from ``seed`` alone.

    The corpus and the shape of the delta stream belong to the workload;
    the seed renumbers every entity (which reorders every sorted walk, every
    tie-break and every canonical id, and changes every output) and draws
    the read order.
    """
    corpus = PRESETS[workload.preset](scale=workload.scale)
    scenario = synthesize_stream(corpus, batches=workload.batches,
                                 holdout_fraction=workload.holdout,
                                 seed=STREAM_SEED)
    if len(scenario.log) != workload.batches:
        raise RuntimeError(
            f"{workload.name}: stream has {len(scenario.log)} batches, "
            f"wanted {workload.batches} (holdout too small for the scale)")
    rng = random.Random(seed)
    ids = sorted(corpus.store.entity_ids()
                 | {op.entity.entity_id for batch in scenario.log
                    for op in batch if hasattr(op, "entity")})
    numbers = list(range(len(ids)))
    rng.shuffle(numbers)
    mapping = {old: f"{old.rsplit('-', 1)[0]}-{number:05d}"
               for old, number in zip(ids, numbers)}
    base = dataset_from_dict(_relabel(dataset_to_dict(scenario.base), mapping))
    final = dataset_from_dict(_relabel(dataset_to_dict(scenario.final), mapping))
    batches = [[_relabel(op_to_dict(op), mapping) for op in batch]
               for batch in scenario.log]
    # Reads only ask for ids present from epoch 0 on, so none can 404.
    read_ids = sorted(base.store.entity_ids() & final.store.entity_ids())
    rng.shuffle(read_ids)
    return Inputs(base, final, batches, read_ids)
