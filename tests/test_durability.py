"""Unit tests for the durability layer: WAL, checkpoints, recovery, atomicity.

The corruption coverage here pins the recovery semantics: a record cut
short by end-of-file is a *torn tail* (the crash happened mid-append, the
batch was never acknowledged) and is silently dropped; every other kind of
damage — a complete record failing its checksum, duplicate or gapped batch
ids, a checkpoint set where every generation is broken — raises a typed
:class:`~repro.exceptions.RecoveryError` instead of ever returning a
possibly-wrong match set.
"""

from __future__ import annotations

import base64
import json
import pickle
import random
import struct

import pytest

from repro.atomicio import atomic_write_bytes, atomic_write_json
from repro.blocking import CanopyBlocker, build_total_cover
from repro.datamodel import CompactStore, EntityPair, make_author
from repro.datamodel.serialize import store_from_dict, store_to_dict
from repro.durability import CheckpointManager, DeltaWAL, DurableStreamSession, WAL_FILENAME
from repro.exceptions import CoverError, DurabilityError, RecoveryError
from repro.matchers import MLNMatcher
from repro.streaming import ChangeBatch, StreamSession, UpsertSimilarity, synthesize_stream
from repro.streaming.deltas import AddEntity, log_to_dict, op_to_dict


def _batch(serial: int) -> ChangeBatch:
    """A tiny distinguishable batch (never applied, only serialised)."""
    return ChangeBatch([
        AddEntity(make_author(f"w{serial}", "J.", f"Wal{serial}", source="s0")),
        UpsertSimilarity(EntityPair.of(f"w{serial}", "anchor"), 0.9, 3),
    ])


def _ops(records):
    return [[op_to_dict(op) for op in batch] for _, batch in records]


# ----------------------------------------------------------------------- WAL
def test_wal_round_trip_and_reopen(tmp_path):
    path = tmp_path / WAL_FILENAME
    wal = DeltaWAL.open(path, fsync=False)
    batches = {i: _batch(i) for i in (1, 2, 3)}
    for batch_id, batch in batches.items():
        wal.append(batch_id, batch)
    assert wal.last_batch_id == 3
    wal.close()

    reopened = DeltaWAL.open(path, fsync=False)
    records = reopened.scan()
    assert [rid for rid, _ in records] == [1, 2, 3]
    assert _ops(records) == _ops(sorted(batches.items()))
    # The scanned high-water mark keeps ids increasing across restarts.
    assert reopened.last_batch_id == 3
    with pytest.raises(DurabilityError):
        reopened.append(3, _batch(4))
    reopened.append(4, _batch(4))
    reopened.close()


def test_wal_append_requires_increasing_ids(tmp_path):
    wal = DeltaWAL.open(tmp_path / WAL_FILENAME, fsync=False)
    wal.append(1, _batch(1))
    with pytest.raises(DurabilityError):
        wal.append(1, _batch(1))
    with pytest.raises(DurabilityError):
        wal.append(0, _batch(0))
    wal.close()


def test_wal_torn_tail_is_dropped_and_truncated(tmp_path):
    path = tmp_path / WAL_FILENAME
    wal = DeltaWAL.open(path, fsync=False)
    wal.append(1, _batch(1))
    wal.append(2, _batch(2))
    wal.close()
    intact_size = path.stat().st_size

    # Simulate a crash mid-append: a partial header, then a partial payload.
    for torn_suffix in (b"\x00\x00", struct.pack(">II", 500, 123) + b'{"bat'):
        with path.open("ab") as handle:
            handle.write(torn_suffix)
        reopened = DeltaWAL.open(path, fsync=False)
        assert [rid for rid, _ in reopened.scan()] == [1, 2]
        reopened.close()
        # open() physically truncates the torn bytes away.
        assert path.stat().st_size == intact_size


def test_wal_bit_flip_in_committed_record_is_corruption(tmp_path):
    path = tmp_path / WAL_FILENAME
    wal = DeltaWAL.open(path, fsync=False)
    wal.append(1, _batch(1))
    wal.append(2, _batch(2))
    wal.close()
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x40  # flip one bit inside the last record's payload
    path.write_bytes(bytes(data))
    with pytest.raises(RecoveryError, match="checksum"):
        DeltaWAL.open(path, fsync=False)


def test_wal_duplicate_and_non_increasing_ids_are_corruption(tmp_path):
    from repro.durability.wal import _MAGIC, _encode_record
    for ids in ((1, 1), (2, 1)):
        path = tmp_path / f"wal-{ids[0]}-{ids[1]}.log"
        path.write_bytes(_MAGIC + b"".join(_encode_record(rid, _batch(rid))
                                           for rid in ids))
        with pytest.raises(RecoveryError):
            DeltaWAL.open(path, fsync=False)


def test_wal_bad_magic_and_implausible_length_are_corruption(tmp_path):
    bad_magic = tmp_path / "not-a-wal.log"
    bad_magic.write_bytes(b"GARBAGE!" + b"\x00" * 16)
    with pytest.raises(RecoveryError, match="magic"):
        DeltaWAL.open(bad_magic, fsync=False)

    from repro.durability.wal import _MAGIC
    huge = tmp_path / "huge.log"
    huge.write_bytes(_MAGIC + struct.pack(">II", 1 << 31, 0))
    with pytest.raises(RecoveryError, match="implausible"):
        DeltaWAL.open(huge, fsync=False)


def test_wal_partial_magic_header_is_empty_log(tmp_path):
    path = tmp_path / WAL_FILENAME
    path.write_bytes(b"DWAL")  # crash while writing the header itself
    wal = DeltaWAL.open(path, fsync=False)
    assert wal.scan() == []
    wal.append(1, _batch(1))
    wal.close()
    assert [rid for rid, _ in DeltaWAL.open(path, fsync=False).scan()] == [1]


def test_wal_truncate_through_keeps_tail_and_floor(tmp_path):
    wal = DeltaWAL.open(tmp_path / WAL_FILENAME, fsync=False)
    for batch_id in (1, 2, 3, 4):
        wal.append(batch_id, _batch(batch_id))
    assert wal.truncate_through(2) == 2
    assert [rid for rid, _ in wal.scan()] == [3, 4]
    # Truncating everything keeps the checkpoint id as the append floor.
    assert wal.truncate_through(4) == 0
    assert wal.scan() == []
    with pytest.raises(DurabilityError):
        wal.append(4, _batch(4))
    wal.append(5, _batch(5))
    wal.close()


# ---------------------------------------------------------------- checkpoints
def test_checkpoint_round_trip_and_pruning(tmp_path):
    manager = CheckpointManager(tmp_path, keep=2, fsync=False)
    assert manager.load_latest() is None
    for batch_id in (1, 2, 3):
        manager.save({"value": batch_id}, batch_id)
    loaded = manager.load_latest()
    assert loaded is not None
    batch_id, payload = loaded
    assert batch_id == 3 and payload["value"] == 3
    # Only the last two generations survive pruning.
    assert not manager.path_for(1).exists()
    assert manager.path_for(2).exists() and manager.path_for(3).exists()


def test_checkpoint_damaged_latest_falls_back_to_older(tmp_path):
    manager = CheckpointManager(tmp_path, keep=2, fsync=False)
    manager.save({"value": 1}, 1)
    manager.save({"value": 2}, 2)
    latest = manager.path_for(2)

    # Bit-flip the newest generation: loading falls back to generation 1.
    data = bytearray(latest.read_bytes())
    data[len(data) // 2] ^= 0x01
    latest.write_bytes(bytes(data))
    batch_id, payload = manager.load_latest()
    assert batch_id == 1 and payload["value"] == 1

    # Damage the older one too: recovery must fail loudly, not start fresh.
    older = manager.path_for(1)
    older.write_text("not json at all")
    with pytest.raises(RecoveryError, match="every checkpoint generation"):
        manager.load_latest()


def test_checkpoint_rejects_mismatched_embedded_batch_id(tmp_path):
    manager = CheckpointManager(tmp_path, keep=2, fsync=False)
    manager.save({"value": 1}, 1)
    # A file renamed (or misplaced) to the wrong generation is not trusted.
    manager.path_for(1).rename(manager.path_for(7))
    with pytest.raises(RecoveryError):
        manager.load_latest()


def _write_legacy_checkpoint(path, payload):
    """The on-disk form before the body was embedded as encoded: the whole
    document re-serialised with ``indent=1`` around the same digest."""
    import hashlib
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    path.write_text(json.dumps({"sha256": digest, "payload": payload},
                               indent=1, sort_keys=True))


def test_checkpoint_embeds_the_encoded_body_once(tmp_path):
    import hashlib
    manager = CheckpointManager(tmp_path, keep=2, fsync=False)
    payload = {"value": [1.5, "é", {"k": None}], "nested": {"b": 1, "a": 2}}
    data = manager.save(payload, 4).read_bytes()
    body = json.dumps(dict(payload, format_version=1, batch_id=4),
                      separators=(",", ":"), sort_keys=True)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    assert data.decode("utf-8") == f'{{"payload":{body},"sha256":"{digest}"}}'
    assert manager.load_latest() == (4, dict(payload, format_version=1,
                                             batch_id=4))


def test_checkpoint_in_legacy_indented_form_still_loads(tmp_path):
    manager = CheckpointManager(tmp_path, keep=2, fsync=False)
    payload = {"value": 7, "format_version": 1, "batch_id": 3}
    _write_legacy_checkpoint(manager.path_for(3), payload)
    assert manager.load_latest() == (3, payload)


def test_checkpoint_flipped_payload_byte_is_rejected(tmp_path):
    manager = CheckpointManager(tmp_path, keep=1, fsync=False)
    manager.save({"value": "abcdefgh"}, 1)
    data = bytearray(manager.path_for(1).read_bytes())
    data[data.index(b"abcdefgh") + 3] ^= 0x01  # still valid JSON
    manager.path_for(1).write_bytes(bytes(data))
    with pytest.raises(RecoveryError, match="checksum mismatch"):
        manager.load_latest()


def test_checkpoint_flipped_digest_character_is_rejected(tmp_path):
    manager = CheckpointManager(tmp_path, keep=1, fsync=False)
    manager.save({"value": "abcdefgh"}, 1)
    data = bytearray(manager.path_for(1).read_bytes())
    at = data.rindex(b'"sha256":"') + len(b'"sha256":"') + 5
    data[at] = ord("0") if data[at] != ord("0") else ord("1")  # still hex
    manager.path_for(1).write_bytes(bytes(data))
    with pytest.raises(RecoveryError, match="checksum mismatch"):
        manager.load_latest()


def test_checkpoint_in_legacy_form_with_a_flipped_digest_is_rejected(tmp_path):
    manager = CheckpointManager(tmp_path, keep=1, fsync=False)
    payload = {"value": 7, "format_version": 1, "batch_id": 3}
    _write_legacy_checkpoint(manager.path_for(3), payload)
    document = json.loads(manager.path_for(3).read_text())
    document["sha256"] = "0" * 64
    manager.path_for(3).write_text(json.dumps(document, indent=1))
    with pytest.raises(RecoveryError, match="checksum mismatch"):
        manager.load_latest()


def test_checkpoint_body_containing_the_digest_marker_loads(tmp_path):
    manager = CheckpointManager(tmp_path, keep=1, fsync=False)
    marker = ',"sha256":"' + "f" * 64 + '"}'
    # Once inside a string value (escaped on disk), once as a real key that
    # ends the body (not escaped): only the file's last 77 bytes are the
    # digest field.
    payload = {"text": marker, "value": {"a": 1, "sha256": "f" * 64}}
    manager.save(payload, 1)
    assert b',"sha256":"' + b"f" * 64 in manager.path_for(1).read_bytes()
    assert manager.load_latest() == (1, dict(payload, format_version=1,
                                             batch_id=1))


def test_checkpoint_truncated_file_is_rejected(tmp_path):
    manager = CheckpointManager(tmp_path, keep=1, fsync=False)
    manager.save({"value": "abcdefgh"}, 1)
    data = manager.path_for(1).read_bytes()
    for cut in (1, 2, 40, len(data) // 2, len(data) - 1):
        manager.path_for(1).write_bytes(data[:cut])
        with pytest.raises(RecoveryError, match="every checkpoint generation"):
            manager.load_latest()


# -------------------------------------------------------------- atomic writes
def test_atomic_writes_leave_no_temp_files(tmp_path):
    target = tmp_path / "artifact.json"
    atomic_write_json(target, {"a": 1})
    atomic_write_bytes(target, b'{"a": 2}')
    assert json.loads(target.read_text()) == {"a": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_save_dataset_and_trace_are_atomic(tmp_path, dblp_dataset):
    from repro.datasets import load_dataset, save_dataset
    from repro.streaming import load_delta_log, save_delta_log
    dataset_path = save_dataset(dblp_dataset, tmp_path / "dataset.json")
    loaded = load_dataset(dataset_path)
    assert store_to_dict(loaded.store) == store_to_dict(dblp_dataset.store)
    scenario = synthesize_stream(dblp_dataset, batches=3, seed=3)
    trace_path = save_delta_log(scenario.log, tmp_path / "trace.json")
    assert log_to_dict(load_delta_log(trace_path)) == log_to_dict(scenario.log)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["dataset.json", "trace.json"]


def test_store_serialize_round_trip(dblp_dataset):
    payload = store_to_dict(dblp_dataset.store)
    rebuilt = store_from_dict(payload)
    assert store_to_dict(rebuilt) == payload


# --------------------------------------------------- synthesize_stream seeds
def test_synthesize_stream_is_deterministic(dblp_dataset):
    first = synthesize_stream(dblp_dataset, batches=5, seed=11, evidence=True)
    second = synthesize_stream(dblp_dataset, batches=5, seed=11, evidence=True)
    assert log_to_dict(first.log) == log_to_dict(second.log)
    assert store_to_dict(first.base.store) == store_to_dict(second.base.store)
    # An explicit rng is equivalent to the seed it was built from.
    threaded = synthesize_stream(dblp_dataset, batches=5, seed=0,
                                 evidence=True, rng=random.Random(11))
    assert log_to_dict(threaded.log) == log_to_dict(first.log)
    different = synthesize_stream(dblp_dataset, batches=5, seed=12,
                                  evidence=True)
    assert log_to_dict(different.log) != log_to_dict(first.log)


def test_synthesize_stream_skips_empty_batches(dblp_dataset):
    # Far more batches than held-out entities: the surplus must be skipped,
    # not emitted as empty commit records.
    scenario = synthesize_stream(dblp_dataset, batches=40,
                                 holdout_fraction=0.1, churn=False, seed=2)
    assert len(scenario.log) <= 40
    assert all(not batch.is_empty() for batch in scenario.log)


# ------------------------------------------------------------ durable session
def _plain_session(dataset, **kwargs) -> StreamSession:
    return StreamSession(MLNMatcher(), dataset.store.copy(), **kwargs)


def test_durable_session_round_trip_and_recover(tmp_path, dblp_dataset):
    scenario = synthesize_stream(dblp_dataset, batches=4,
                                 holdout_fraction=0.3, seed=5)
    durable = DurableStreamSession(
        StreamSession(MLNMatcher(), scenario.base.store.copy()),
        tmp_path, checkpoint_every=2, fsync=False)
    durable.replay(scenario.log)
    reference_state = durable.session.standing_state()
    durable.close()

    recovered = DurableStreamSession.recover(tmp_path, fsync=False)
    assert recovered.batches_applied == len(scenario.log)
    assert recovered.matches == frozenset(
        EntityPair.of(a, b) for a, b in reference_state["matches"])
    # Byte-identity of the *entire* standing state, not just the match set.
    assert recovered.session.standing_state() == reference_state
    assert recovered.verify()
    recovered.close(checkpoint=False)


def test_recover_replays_uncheckpointed_wal_tail(tmp_path, dblp_dataset):
    scenario = synthesize_stream(dblp_dataset, batches=3,
                                 holdout_fraction=0.3, seed=7)
    # checkpoint_every=0: only the base checkpoint exists, every batch must
    # come back from the WAL tail.
    durable = DurableStreamSession(
        StreamSession(MLNMatcher(), scenario.base.store.copy()),
        tmp_path, checkpoint_every=0, fsync=False)
    durable.replay(scenario.log)
    reference = durable.session.standing_state()
    durable.wal.close()  # no final checkpoint: simulate abrupt death

    recovered = DurableStreamSession.recover(tmp_path, fsync=False)
    assert recovered.session.standing_state() == reference
    # Three batches cross no multiple of the default cadence (8): recovery
    # publishes nothing, so the tail stays in the WAL ...
    assert recovered.checkpoints.load_latest()[0] == 0
    assert [rid for rid, _ in recovered.wal.scan()] == [1, 2, 3]
    recovered.wal.close()
    # ... and a second recovery replays the same tail to the same state.
    again = DurableStreamSession.recover(tmp_path, fsync=False)
    assert again.session.standing_state() == reference
    assert [rid for rid, _ in again.wal.scan()] == [1, 2, 3]
    again.close(checkpoint=False)


def test_recover_skips_wal_records_older_than_checkpoint(tmp_path, dblp_dataset):
    scenario = synthesize_stream(dblp_dataset, batches=3,
                                 holdout_fraction=0.3, seed=7)
    durable = DurableStreamSession(
        StreamSession(MLNMatcher(), scenario.base.store.copy()),
        tmp_path, checkpoint_every=0, fsync=False)
    durable.replay(scenario.log)
    reference = durable.session.standing_state()
    # Publish a checkpoint *without* truncating the WAL — the overlap a
    # crash between checkpoint publish and truncation leaves behind.
    durable.checkpoints.save(durable._checkpoint_payload(),
                             durable.batches_applied)
    assert len(durable.wal.scan()) == len(scenario.log)
    durable.wal.close()

    recovered = DurableStreamSession.recover(tmp_path, fsync=False)
    assert recovered.session.standing_state() == reference
    recovered.close(checkpoint=False)


def test_recover_rejects_gapped_wal_tail(tmp_path, dblp_dataset):
    scenario = synthesize_stream(dblp_dataset, batches=3,
                                 holdout_fraction=0.3, seed=7)
    durable = DurableStreamSession(
        StreamSession(MLNMatcher(), scenario.base.store.copy()),
        tmp_path, checkpoint_every=0, fsync=False)
    durable.replay(scenario.log)
    durable.wal.close()

    # Rewrite the WAL with the middle record missing: ids 1, 3.
    from repro.durability.wal import _MAGIC, _encode_record
    records = DeltaWAL.open(tmp_path / WAL_FILENAME, fsync=False).scan()
    gapped = [record for record in records if record[0] != 2]
    (tmp_path / WAL_FILENAME).write_bytes(
        _MAGIC + b"".join(_encode_record(rid, batch) for rid, batch in gapped))
    with pytest.raises(RecoveryError, match="gapped"):
        DurableStreamSession.recover(tmp_path, fsync=False)


def test_recover_without_checkpoint_fails_loudly(tmp_path):
    with pytest.raises(RecoveryError, match="no checkpoint"):
        DurableStreamSession.recover(tmp_path, fsync=False)


def test_recover_rejects_inconsistent_checkpoint(tmp_path, dblp_dataset):
    durable = DurableStreamSession(
        StreamSession(MLNMatcher(), dblp_dataset.store.copy()),
        tmp_path, checkpoint_every=0, fsync=False)
    durable.start()
    payload = durable._checkpoint_payload()
    payload["standing"] = dict(payload["standing"], batches_applied=99)
    durable.checkpoints.save(payload, 0)
    durable.wal.close()
    with pytest.raises(RecoveryError, match="inconsistent"):
        DurableStreamSession.recover(tmp_path, fsync=False)


def test_recover_ignores_retired_config_keys_in_old_checkpoints(tmp_path,
                                                                 dblp_dataset):
    """A checkpoint written before ``fallback_dirty_fraction`` was retired
    (legacy indented form, the key still in its config) recovers as is."""
    scenario = synthesize_stream(dblp_dataset, batches=3,
                                 holdout_fraction=0.3, seed=7)
    durable = DurableStreamSession(
        StreamSession(MLNMatcher(), scenario.base.store.copy()),
        tmp_path, checkpoint_every=0, fsync=False)
    durable.replay(scenario.log)
    reference = durable.session.standing_state()
    durable.wal.close()
    _, payload = durable.checkpoints.load_latest()
    assert "fallback_dirty_fraction" not in payload["config"]
    payload["config"]["fallback_dirty_fraction"] = 0.5
    _write_legacy_checkpoint(durable.checkpoints.path_for(0), payload)

    recovered = DurableStreamSession.recover(tmp_path, fsync=False)
    assert recovered.session.standing_state() == reference
    recovered.close(checkpoint=False)


def test_recover_tolerates_retired_attributes_on_pickled_objects(tmp_path,
                                                                 dblp_dataset):
    """A checkpoint whose pickled blocker still carries ``use_profiles`` and
    whose pickled inference object still carries ``use_counting`` (both
    retired with their naive paths) recovers to the same standing state."""
    scenario = synthesize_stream(dblp_dataset, batches=3,
                                 holdout_fraction=0.3, seed=7)
    durable = DurableStreamSession(
        StreamSession(MLNMatcher(), scenario.base.store.copy()),
        tmp_path, checkpoint_every=0, fsync=False)
    durable.replay(scenario.log)
    reference = durable.session.standing_state()
    durable.wal.close()
    _, payload = durable.checkpoints.load_latest()

    def repickled(key, mark):
        restored = pickle.loads(base64.b64decode(payload[key]))
        mark(restored)
        payload[key] = base64.b64encode(pickle.dumps(restored)).decode("ascii")

    repickled("blocker_pickle",
              lambda blocker: setattr(blocker, "use_profiles", True))
    repickled("matcher_pickle",
              lambda matcher: setattr(matcher.mln.inference,
                                      "use_counting", True))
    durable.checkpoints.save(payload, 0)

    recovered = DurableStreamSession.recover(tmp_path, fsync=False)
    assert recovered.session.blocker.use_profiles is True  # rode along, unused
    assert recovered.session.standing_state() == reference
    assert recovered.verify()
    recovered.close(checkpoint=False)


def _cover_rows(cover):
    return [(neighborhood.name, neighborhood.entity_ids)
            for neighborhood in cover]


@pytest.mark.parametrize("backend", ["dict", "compact"])
def test_recovery_resumes_the_cover_from_the_canopy_cache(tmp_path,
                                                          dblp_dataset,
                                                          backend):
    scenario = synthesize_stream(dblp_dataset, batches=3,
                                 holdout_fraction=0.3, seed=7)
    store = scenario.base.store.copy()
    if backend == "compact":
        store = CompactStore.from_store(store)
    durable = DurableStreamSession(StreamSession(MLNMatcher(), store),
                                   tmp_path, checkpoint_every=0, fsync=False)
    durable.replay(scenario.log)
    original = durable.session
    durable.close()  # the final checkpoint carries the canopy cache
    _, payload = durable.checkpoints.load_latest()
    assert payload["canopies"] == original.maintainer.canopy_state()
    assert payload["canopies"]
    assert "canopies" not in payload["standing"]

    recovered = DurableStreamSession.recover(tmp_path, fsync=False)
    session = recovered.session
    assert isinstance(session.overlay.base, type(store))
    assert session.maintainer.last_dirty_centers == 0  # no canopy scored
    cold = build_total_cover(CanopyBlocker(), session.final_store(),
                             relation_names=session.relation_names)
    assert _cover_rows(session.cover) == _cover_rows(cold) == \
        _cover_rows(original.cover)
    assert session.maintainer.canopy_state() == \
        original.maintainer.canopy_state()
    assert session.standing_state() == original.standing_state()
    recovered.close(checkpoint=False)


def test_checkpoint_without_canopy_cache_recovers_cold(tmp_path,
                                                       dblp_dataset):
    """A checkpoint written before the canopy cache was carried rebuilds the
    cover cold and recovers to the same standing state."""
    scenario = synthesize_stream(dblp_dataset, batches=3,
                                 holdout_fraction=0.3, seed=7)
    durable = DurableStreamSession(
        StreamSession(MLNMatcher(), scenario.base.store.copy()),
        tmp_path, checkpoint_every=0, fsync=False)
    durable.replay(scenario.log)
    reference = durable.session.standing_state()
    durable.wal.close()
    _, payload = durable.checkpoints.load_latest()
    del payload["canopies"]
    durable.checkpoints.save(payload, 0)

    recovered = DurableStreamSession.recover(tmp_path, fsync=False)
    assert recovered.session.standing_state() == reference
    assert recovered.verify()
    recovered.close()
    # Without a tail to replay, the build is visible in the stats: the
    # closing checkpoint's cache resumes, the same file without it rescores.
    resumed = DurableStreamSession.recover(tmp_path, fsync=False)
    assert resumed.session.maintainer.last_dirty_centers == 0
    _, payload = resumed.checkpoints.load_latest()
    del payload["canopies"]
    resumed.checkpoints.save(payload, 3)
    resumed.close(checkpoint=False)
    rebuilt = DurableStreamSession.recover(tmp_path, fsync=False)
    assert rebuilt.session.maintainer.last_dirty_centers > 0
    assert rebuilt.session.standing_state() == reference
    rebuilt.close(checkpoint=False)


#: ``pickle.dumps(CanopyBlocker(), protocol=4)`` as written while the blocker
#: still had a ``similarity`` parameter: its state names
#: ``repro.blocking.canopy.author_name_cheap_similarity``.
PRE_REMOVAL_BLOCKER_PICKLE = (
    "gASV7QAAAAAAAACMFXJlcHJvLmJsb2NraW5nLmNhbm9weZSMDUNhbm9weUJsb2NrZXKUk5Qp"
    "gZR9lCiMD2xvb3NlX3RocmVzaG9sZJRHP+j1wo9cKPaMD3RpZ2h0X3RocmVzaG9sZJRHP+1w"
    "o9cKPXGMCnNpbWlsYXJpdHmUaACMHGF1dGhvcl9uYW1lX2NoZWFwX3NpbWlsYXJpdHmUk5SM"
    "C2VudGl0eV90eXBllIwGYXV0aG9ylIwPdGV4dF9hdHRyaWJ1dGVzlIwFZm5hbWWUjAVsbmFt"
    "ZZSGlIwEc2VlZJRLAIwMX2xhc3Rfc2NvcmVylE51Yi4=")


def _durable_run_with_a_tail(tmp_path, dataset):
    """A durable session checkpointed after batch 2 of 3, closed without a
    final checkpoint: recovery loads the checkpoint and replays batch 3."""
    scenario = synthesize_stream(dataset, batches=3, holdout_fraction=0.3,
                                 seed=7)
    durable = DurableStreamSession(
        StreamSession(MLNMatcher(), scenario.base.store.copy()),
        tmp_path, checkpoint_every=2, fsync=False)
    durable.replay(scenario.log)
    reference = durable.session.standing_state()
    durable.close(checkpoint=False)
    return durable, reference


def test_checkpoint_pickled_before_the_similarity_parameter_left_recovers(
        tmp_path, dblp_dataset):
    """A checkpoint whose blocker still carries ``similarity`` recovers: the
    attribute is dropped on unpickling and the session ends where the
    uninterrupted one did."""
    old = base64.b64decode(PRE_REMOVAL_BLOCKER_PICKLE)
    assert b"author_name_cheap_similarity" in old
    durable, reference = _durable_run_with_a_tail(tmp_path, dblp_dataset)
    checkpoint_id, payload = durable.checkpoints.load_latest()
    assert checkpoint_id == 2
    payload["blocker_pickle"] = PRE_REMOVAL_BLOCKER_PICKLE
    durable.checkpoints.save(payload, checkpoint_id)

    recovered = DurableStreamSession.recover(tmp_path, fsync=False)
    session = recovered.session
    assert not hasattr(session.blocker, "similarity")
    assert session.blocker.__dict__ == CanopyBlocker().__dict__
    assert session.standing_state() == reference
    cold = build_total_cover(CanopyBlocker(), session.final_store(),
                             relation_names=session.relation_names)
    assert _cover_rows(session.cover) == _cover_rows(cold)
    assert recovered.verify()
    recovered.close(checkpoint=False)


def test_checkpoint_with_a_retired_similarity_mode_is_refused(tmp_path,
                                                              dblp_dataset):
    """A TF-IDF canopy blocker no longer exists: its checkpoint is refused
    rather than silently recovered onto a different cover."""
    durable, _ = _durable_run_with_a_tail(tmp_path, dblp_dataset)
    checkpoint_id, payload = durable.checkpoints.load_latest()
    blocker = CanopyBlocker()
    blocker.__dict__["similarity"] = "tfidf"
    payload["blocker_pickle"] = base64.b64encode(
        pickle.dumps(blocker)).decode("ascii")
    durable.checkpoints.save(payload, checkpoint_id)
    with pytest.raises(CoverError, match="tfidf"):
        DurableStreamSession.recover(tmp_path, fsync=False)


def test_checkpoint_requires_started_session(tmp_path, dblp_dataset):
    durable = DurableStreamSession(
        StreamSession(MLNMatcher(), dblp_dataset.store.copy()),
        tmp_path, fsync=False)
    with pytest.raises(DurabilityError):
        durable.checkpoint()
    with pytest.raises(ValueError):
        DurableStreamSession(
            StreamSession(MLNMatcher(), dblp_dataset.store.copy()),
            tmp_path, checkpoint_every=-1, fsync=False)


def test_framework_open_stream_durable(tmp_path, dblp_dataset):
    from repro.core import EMFramework
    framework = EMFramework(MLNMatcher(), dblp_dataset.store.copy())
    session = framework.open_stream(durable_dir=tmp_path, checkpoint_every=1,
                                    fsync=False)
    assert isinstance(session, DurableStreamSession)
    assert (tmp_path / WAL_FILENAME).exists()
    assert session.checkpoints.load_latest()[0] == 0
    pair = sorted(session.matches)[0]
    from repro.streaming import RemoveSimilarity
    framework.apply_deltas(ChangeBatch([RemoveSimilarity(pair)]))
    session.close()

    recovered = DurableStreamSession.recover(tmp_path, fsync=False)
    assert recovered.batches_applied == 1
    assert pair not in recovered.matches
    recovered.close(checkpoint=False)


def test_cli_stream_durable_and_recover(tmp_path, dblp_dataset):
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
    durable_dir = tmp_path / "durable"
    assert main(["stream", "--dataset", str(base_path),
                 "--deltas", str(trace_path),
                 "--durable-dir", str(durable_dir),
                 "--checkpoint-every", "2"]) == 0
    assert (durable_dir / WAL_FILENAME).exists()
    clusters_path = tmp_path / "clusters.json"
    assert main(["recover", "--durable-dir", str(durable_dir), "--verify",
                 "--output", str(clusters_path)]) == 0
    clusters = json.loads(clusters_path.read_text())
    assert all(len(cluster) > 1 for cluster in clusters)


def _checkpoint_ids(directory):
    return sorted(int(path.name[len("checkpoint-"):-len(".json")])
                  for path in directory.glob("checkpoint-*.json"))


def test_cli_serve_recovery_keeps_the_checkpoint_cadence(tmp_path,
                                                         dblp_dataset):
    """``serve --durable-dir D --checkpoint-every 2`` recovers on that
    cadence: the replayed tail checkpoints at batch 2, the drain at 3."""
    from repro.cli import main
    scenario = synthesize_stream(dblp_dataset, batches=3,
                                 holdout_fraction=0.3, seed=7)
    durable = DurableStreamSession(
        StreamSession(MLNMatcher(), scenario.base.store.copy()),
        tmp_path, checkpoint_every=0, fsync=False)
    durable.replay(scenario.log)
    durable.wal.close()  # crash: only the base checkpoint, WAL holds 1-3
    assert _checkpoint_ids(tmp_path) == [0]

    assert main(["serve", "--durable-dir", str(tmp_path), "--port", "0",
                 "--checkpoint-every", "2", "--duration", "0.05"]) == 0
    assert _checkpoint_ids(tmp_path) == [2, 3]


def test_cli_recover_without_state_exits_nonzero(tmp_path, capsys):
    from repro.cli import EXIT_RECOVERY_FAILED, main

    code = main(["recover", "--durable-dir", str(tmp_path / "nothing")])
    assert code == EXIT_RECOVERY_FAILED
    err = capsys.readouterr().err
    assert "durable directory does not exist" in err
    assert str(tmp_path / "nothing") in err
