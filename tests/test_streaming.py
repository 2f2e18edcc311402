"""Unit tests for the streaming delta-ingestion subsystem."""

from __future__ import annotations

import json

import pytest

from repro.blocking import CanopyBlocker, build_total_cover
from repro.core import EMFramework
from repro.datamodel import CompactStore, Entity, EntityPair, EntityStore, make_author
from repro.exceptions import CoverError, DeltaError, ExperimentError
from repro.matchers import MLNMatcher, RulesMatcher
from repro.parallel.grid import GridExecutor
from repro.streaming import (
    AddEntity,
    AddEvidence,
    AddTuple,
    ChangeBatch,
    DeltaLog,
    IncrementalCoverMaintainer,
    RemoveEntity,
    RemoveEvidence,
    RemoveSimilarity,
    RemoveTuple,
    StoreOverlay,
    StreamSession,
    UpdateEntity,
    UpsertSimilarity,
    load_delta_log,
    save_delta_log,
    synthesize_stream,
)
from repro.streaming.deltas import log_from_dict, log_to_dict, op_from_dict, op_to_dict
from repro.streaming.overlay import DeltaImpact


# ------------------------------------------------------------------- deltas
def test_delta_json_round_trip(tmp_path):
    log = DeltaLog(name="t")
    log.append(ChangeBatch([
        AddEntity(make_author("a9", "Jo", "Doe", source="s0")),
        UpdateEntity(make_author("a9", "Joe", "Doe", source="s0")),
        RemoveEntity("a9"),
        AddTuple("coauthor", ("a1", "a2")),
        RemoveTuple("coauthor", ("a1", "a2")),
        UpsertSimilarity(EntityPair.of("a1", "a2"), 0.9, 3),
        RemoveSimilarity(EntityPair.of("a1", "a2")),
        AddEvidence(EntityPair.of("a1", "a2"), "positive"),
        RemoveEvidence(EntityPair.of("a1", "a2"), "positive"),
    ]))
    path = save_delta_log(log, tmp_path / "trace.json")
    loaded = load_delta_log(path)
    assert log_to_dict(loaded) == log_to_dict(log)
    assert loaded.op_count() == 9


def test_delta_json_rejects_unknown_op():
    with pytest.raises(DeltaError):
        op_from_dict({"op": "frobnicate"})
    with pytest.raises(DeltaError):
        log_from_dict({"format_version": 99, "batches": []})


@pytest.mark.parametrize("score, level", [
    (1.5, 2), (-0.5, 2), (float("nan"), 2), (float("inf"), 2),
    (float("-inf"), 2), (0.5, 0), (0.5, -3), (0.5, 4), (0.5, 99),
])
def test_delta_json_rejects_an_out_of_range_similarity(score, level):
    with pytest.raises(DeltaError, match="similarity"):
        op_from_dict({"op": "upsert_similarity", "first": "a1",
                      "second": "a2", "score": score, "level": level})


@pytest.mark.parametrize("score, level", [(0.0, 1), (1.0, 3), (0.5, 2)])
def test_delta_json_accepts_the_similarity_bounds(score, level):
    delta = op_from_dict({"op": "upsert_similarity", "first": "a1",
                          "second": "a2", "score": score, "level": level})
    assert (delta.score, delta.level) == (score, level)


@pytest.mark.parametrize("payload", [
    [],
    "trace",
    {"format_version": 1},
    {"format_version": 1, "batches": 5},
    {"format_version": 1, "batches": [5]},
    {"format_version": 1, "batches": [{"op": "remove_entity", "id": "a1"}]},
])
def test_delta_trace_loader_rejects_what_is_not_a_trace(payload):
    with pytest.raises(DeltaError):
        log_from_dict(payload)


def test_delta_trace_loader_rejects_a_dataset_file(tmp_path, dblp_dataset):
    from repro.datasets import save_dataset
    path = tmp_path / "dataset.json"
    save_dataset(dblp_dataset, path)
    assert json.loads(path.read_text())["format_version"] == 1
    with pytest.raises(DeltaError, match="batches"):
        load_delta_log(path)


def test_delta_trace_loader_rejects_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text("batches: []")
    with pytest.raises(DeltaError, match="not a JSON delta trace"):
        load_delta_log(path)


def test_evidence_polarity_validated():
    with pytest.raises(DeltaError):
        AddEvidence(EntityPair.of("a", "b"), "maybe")


# ------------------------------------------------------------ store overlay
def _small_store() -> EntityStore:
    store = EntityStore()
    for index in range(4):
        store.add_entity(make_author(f"a{index}", "J.", f"Name{index}"))
    from repro.datamodel import Relation
    coauthor = Relation("coauthor", arity=2, symmetric=True)
    coauthor.add("a0", "a1")
    coauthor.add("a1", "a2")
    store.add_relation(coauthor)
    store.add_similarity(EntityPair.of("a0", "a1"), 0.9, 3)
    store.add_similarity(EntityPair.of("a2", "a3"), 0.85, 2)
    return store


def _apply_ops(overlay: StoreOverlay, ops) -> DeltaImpact:
    impact = DeltaImpact()
    for op in ops:
        overlay.apply_delta(op, impact)
    return impact


@pytest.mark.parametrize("backend", ["dict", "compact"])
def test_overlay_reads_match_materialised_store(backend):
    base = _small_store()
    if backend == "compact":
        base = CompactStore.from_store(base)
    overlay = StoreOverlay(base)
    _apply_ops(overlay, [
        AddEntity(make_author("a4", "K.", "Name4")),
        AddTuple("coauthor", ("a3", "a4")),
        UpsertSimilarity(EntityPair.of("a3", "a4"), 0.95, 3),
        RemoveSimilarity(EntityPair.of("a0", "a1")),
        RemoveTuple("coauthor", ("a0", "a1")),
        UpdateEntity(make_author("a2", "Jay", "Name2")),
    ])
    materialised = overlay.to_entity_store()
    assert overlay.entity_ids() == materialised.entity_ids()
    assert overlay.similar_pairs() == materialised.similar_pairs()
    for name in materialised.relation_names():
        assert overlay.relation(name).tuples() == materialised.relation(name).tuples()
    assert overlay.entity("a2").get("fname") == "Jay"
    for entity_id in overlay.entity_ids():
        assert overlay.similar_pairs_of(entity_id) == \
            materialised.similar_pairs_of(entity_id)
        assert overlay.relation("coauthor").neighbors(entity_id) == \
            materialised.relation("coauthor").neighbors(entity_id)
    # Restriction materialises the same sub-instance either way.
    subset = ["a2", "a3", "a4"]
    assert overlay.restrict(subset).similar_pairs() == \
        materialised.restrict(subset).similar_pairs()
    assert overlay.restrict(subset).relation("coauthor").tuples() == \
        materialised.restrict(subset).relation("coauthor").tuples()


def test_overlay_remove_entity_cascades():
    overlay = StoreOverlay(_small_store())
    impact = DeltaImpact()
    overlay.apply_delta(RemoveEntity("a1"), impact)
    assert not overlay.has_entity("a1")
    assert ("coauthor", ("a0", "a1")) in impact.changed_tuples
    assert ("coauthor", ("a1", "a2")) in impact.changed_tuples
    assert EntityPair.of("a0", "a1") in impact.changed_similarity
    assert overlay.relation("coauthor").tuples() == frozenset()
    assert overlay.similar_pairs() == frozenset({EntityPair.of("a2", "a3")})


def test_overlay_rejects_bad_mutations():
    overlay = StoreOverlay(_small_store())
    with pytest.raises(DeltaError):
        overlay.add_entity(make_author("a0", "J.", "Name0"))
    from repro.exceptions import UnknownEntityError, UnknownRelationError
    with pytest.raises(UnknownRelationError):
        overlay.add_tuple("nope", ("a0", "a1"))
    with pytest.raises(UnknownEntityError):
        overlay.upsert_similarity(EntityPair.of("a0", "zz"), 0.9, 3)


def test_overlay_idempotent_ops_carry_no_impact():
    overlay = StoreOverlay(_small_store())
    impact = _apply_ops(overlay, [
        AddTuple("coauthor", ("a0", "a1")),          # already present
        UpsertSimilarity(EntityPair.of("a0", "a1"), 0.9, 3),  # same value
        RemoveTuple("coauthor", ("a0", "a3")),       # absent
        RemoveSimilarity(EntityPair.of("a1", "a2")),  # absent
    ])
    assert impact.is_empty()
    assert overlay.mutation_count == 0


def test_overlay_rebase_round_trip():
    base = CompactStore.from_store(_small_store())
    overlay = StoreOverlay(base)
    _apply_ops(overlay, [
        AddEntity(make_author("a4", "K.", "Name4")),
        UpsertSimilarity(EntityPair.of("a3", "a4"), 0.95, 3),
    ])
    # A rebase materialises a dict base, whatever the base it started from.
    rebased = overlay.to_entity_store()
    assert isinstance(rebased, EntityStore)
    fresh = StoreOverlay(rebased)
    assert fresh.entity_ids() == overlay.entity_ids()
    assert fresh.similar_pairs() == overlay.similar_pairs()
    assert fresh.delta_size() == 0


# ------------------------------------------------------- cover maintenance
def test_maintainer_matches_cold_builds_across_batches(dblp_dataset):
    scenario = synthesize_stream(dblp_dataset, batches=4,
                                 holdout_fraction=0.3, seed=3)
    blocker = CanopyBlocker()
    maintainer = IncrementalCoverMaintainer(blocker, relation_names=["coauthor"])
    overlay = StoreOverlay(scenario.base.store)
    cover = maintainer.build(overlay)
    reference = build_total_cover(CanopyBlocker(), scenario.base.store,
                                  relation_names=["coauthor"])
    assert [(n.name, n.entity_ids) for n in cover] == \
        [(n.name, n.entity_ids) for n in reference]
    for batch in scenario.log:
        impact = DeltaImpact()
        for op in batch:
            overlay.apply_delta(op, impact)
        cover = maintainer.update(overlay, impact)
        cold = build_total_cover(CanopyBlocker(), overlay.to_entity_store(),
                                 relation_names=["coauthor"])
        assert [(n.name, n.entity_ids) for n in cover] == \
            [(n.name, n.entity_ids) for n in cold]
        stats = maintainer.stats()
        assert 0.0 <= stats["rescored_fraction"] <= 1.0


def test_cover_repair_reports_how_much_of_the_instance_a_delta_touched(dblp_dataset):
    """One arrival costs one canopy sweep plus set edits on the entries it
    joins — readable from ``BatchResult.cover_stats`` and the repair span."""
    from repro.obs import trace
    session = StreamSession(MLNMatcher(), dblp_dataset.store.copy())
    session.start()
    twin = sorted(session.maintainer._canopy_cache)[0]
    original = session.overlay.entity(twin)
    previous = trace.tracer()
    trace.enable()
    try:
        result = session.apply(ChangeBatch([AddEntity(make_author(
            "zz-twin", original.get("fname"), original.get("lname"),
            source="s9"))]))
        repairs = [record for record in trace.spans()
                   if record["name"] == "stream.cover_repair"]
    finally:
        if previous is not None:   # the REPRO_TRACE=1 leg keeps a tracer
            trace.enable(previous.path)
        else:
            trace.disable()
    stats = result.cover_stats
    assert stats["full_rebuild"] == 0.0
    assert 1 <= stats["rescored_centers"] <= 3 < stats["centers"]
    assert stats["patched_entries"] >= 1      # at least its twin's canopy
    assert len(repairs) == 1
    assert repairs[0]["attrs"]["rescored_centers"] == stats["rescored_centers"]
    assert repairs[0]["attrs"]["patched_entries"] == stats["patched_entries"]
    assert session.verify()


def test_streaming_takes_only_a_canopy_blocker(dblp_dataset):
    """The maintainer repairs canopy covers and nothing else: a key-based
    blocker is refused up front, by the maintainer and by the session."""
    from tests.reference.blockers import StandardBlocker, last_name_initial_key
    blocker = StandardBlocker(last_name_initial_key)
    with pytest.raises(CoverError, match="StandardBlocker"):
        IncrementalCoverMaintainer(blocker, relation_names=["coauthor"])
    with pytest.raises(CoverError):
        StreamSession(MLNMatcher(), dblp_dataset.store.copy(), blocker=blocker)


# ------------------------------------------------------------ stream session
def test_session_replay_is_byte_identical_to_cold(dblp_dataset):
    scenario = synthesize_stream(dblp_dataset, batches=4,
                                 holdout_fraction=0.3, seed=5)
    session = StreamSession(MLNMatcher(), scenario.base.store)
    session.start()
    results = session.replay(scenario.log)
    assert len(results) == 4
    # The final instance must equal the dataset the scenario was cut from.
    final = session.final_store()
    assert final.entity_ids() == dblp_dataset.store.entity_ids()
    assert final.similar_pairs() == dblp_dataset.store.similar_pairs()
    for name in dblp_dataset.store.relation_names():
        assert final.relation(name).tuples() == \
            dblp_dataset.store.relation(name).tuples()
    # ... and the standing matches must equal a cold run on it.
    assert session.verify()


def test_session_reports_tombstones(dblp_dataset):
    store = dblp_dataset.store.copy()
    session = StreamSession(MLNMatcher(), store)
    session.start()
    pair = sorted(session.matches)[0]
    result = session.apply(ChangeBatch([RemoveSimilarity(pair)]))
    assert pair in result.retracted
    assert pair not in session.matches
    assert session.verify()


def test_session_external_evidence_round_trip(dblp_dataset):
    session = StreamSession(MLNMatcher(), dblp_dataset.store)
    session.start()
    baseline = session.matches
    candidates = sorted(dblp_dataset.store.similar_pairs() - baseline)
    pair = candidates[0]
    forced = session.apply(ChangeBatch([AddEvidence(pair, "positive")]))
    assert pair in forced.matches
    assert session.verify()
    retracted = session.apply(ChangeBatch([RemoveEvidence(pair, "positive")]))
    assert retracted.matches == baseline
    assert session.verify()


def test_session_negative_evidence_suppresses_pair(dblp_dataset):
    session = StreamSession(MLNMatcher(), dblp_dataset.store)
    session.start()
    pair = sorted(session.matches)[0]
    result = session.apply(ChangeBatch([AddEvidence(pair, "negative")]))
    assert pair not in result.matches
    assert pair in result.retracted
    assert session.verify()


def test_session_rebases_past_threshold(dblp_dataset):
    scenario = synthesize_stream(dblp_dataset, batches=2,
                                 holdout_fraction=0.3, seed=5)
    session = StreamSession(MLNMatcher(), scenario.base.store,
                            rebase_threshold=1)
    session.start()
    results = session.replay(scenario.log)
    assert all(result.rebased for result in results)
    assert session.overlay.delta_size() == 0
    assert session.verify()


def test_session_rejects_non_smp_schemes(dblp_dataset):
    with pytest.raises(DeltaError):
        StreamSession(MLNMatcher(), dblp_dataset.store, scheme="mmp")


def test_session_works_with_rules_matcher(dblp_dataset):
    scenario = synthesize_stream(dblp_dataset, batches=2,
                                 holdout_fraction=0.25, seed=9)
    session = StreamSession(RulesMatcher(), scenario.base.store)
    session.start()
    session.replay(scenario.log)
    assert session.verify()


# ------------------------------------------------------------ framework API
def test_framework_serve_hands_off_to_a_stream_session(dblp_dataset):
    framework = EMFramework(MLNMatcher(), dblp_dataset.store.copy(),
                            blocker=CanopyBlocker(),
                            relation_names=["coauthor"])
    service = framework.serve().start()
    try:
        session = service.session
        assert isinstance(session, StreamSession)
        assert session.matches == framework.run_grid("smp").matches
        pair = sorted(session.matches)[0]
        result = service.apply_deltas(ChangeBatch([RemoveSimilarity(pair)]),
                                      timeout=60)
        assert pair in result.retracted
    finally:
        service.drain()


def test_framework_serve_requires_blocker(dblp_dataset, dblp_cover):
    framework = EMFramework(MLNMatcher(), dblp_dataset.store, cover=dblp_cover)
    with pytest.raises(ExperimentError):
        framework.serve()


# -------------------------------------------------------------- trace + CLI
def test_synthesize_stream_restores_final_instance(dblp_dataset):
    scenario = synthesize_stream(dblp_dataset, batches=5,
                                 holdout_fraction=0.4, seed=13)
    overlay = StoreOverlay(scenario.base.store.copy())
    for batch in scenario.log:
        for op in batch:
            if op.op in ("add_evidence", "remove_evidence"):
                continue
            overlay.apply_delta(op, DeltaImpact())
    final = overlay.to_entity_store()
    assert final.entity_ids() == dblp_dataset.store.entity_ids()
    assert final.similar_pairs() == dblp_dataset.store.similar_pairs()
    for name in dblp_dataset.store.relation_names():
        assert final.relation(name).tuples() == \
            dblp_dataset.store.relation(name).tuples()
    for entity in final:
        assert entity == dblp_dataset.store.entity(entity.entity_id)


def test_cli_stream_round_trip(tmp_path, dblp_dataset):
    from repro.cli import main
    from repro.datasets import save_dataset
    dataset_path = tmp_path / "final.json"
    save_dataset(dblp_dataset, dataset_path)
    base_path = tmp_path / "base.json"
    trace_path = tmp_path / "trace.json"
    assert main(["stream-trace", "--dataset", str(dataset_path),
                 "--batches", "3", "--holdout", "0.3",
                 "--base-output", str(base_path),
                 "--trace-output", str(trace_path)]) == 0
    assert base_path.exists() and trace_path.exists()
    clusters_path = tmp_path / "clusters.json"
    assert main(["stream", "--dataset", str(base_path),
                 "--deltas", str(trace_path), "--verify",
                 "--output", str(clusters_path)]) == 0
    clusters = json.loads(clusters_path.read_text())
    assert all(len(cluster) > 1 for cluster in clusters)


def test_grid_initial_active_validation(dblp_dataset, dblp_cover):
    grid = GridExecutor(scheme="smp")
    with pytest.raises(ExperimentError):
        grid.run(MLNMatcher(), dblp_dataset.store, dblp_cover,
                 initial_active=["no-such-neighborhood"])
