"""Durable streaming sessions: log-ahead apply, checkpoints, crash recovery.

:class:`DurableStreamSession` wraps a
:class:`~repro.streaming.runner.StreamSession` with a write-ahead delta log
and periodic checkpoints so a standing match set survives process death:

* **apply** — the change batch is appended to the :class:`DeltaWAL` and
  fsynced *before* any in-memory state mutates (the commit point), then
  applied through the wrapped session; every ``checkpoint_every`` batches a
  snapshot checkpoint is published and the WAL tail truncated;
* **recover** — :meth:`DurableStreamSession.recover` loads the latest valid
  checkpoint (rebuilding the store, matcher, blocker, cover and standing
  provenance without re-running the cold start) and replays the WAL tail
  through the ordinary ``apply`` path.  Torn tail records are detected by
  checksum and dropped — they were never acknowledged; anything else that
  does not add up (mid-log corruption, duplicate or gapped batch ids, a
  damaged checkpoint with no valid older generation) raises
  :class:`~repro.exceptions.RecoveryError` instead of returning a possibly
  wrong match set.

Because replaying any delta stream is byte-identical to a cold batch run on
the final instance (the streaming contract), recovery is *testable for
free*: for every registered crash point, killing a session mid-stream and
recovering must leave subsequent matches byte-identical to an uninterrupted
run — asserted by the fault-injection matrix in
``tests/test_durability_crash.py``.
"""

from __future__ import annotations

import base64
import pickle
import signal
import time
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Union

from ..datamodel import EntityPair
from ..datamodel.serialize import store_from_dict, store_to_dict
from ..exceptions import DurabilityError, RecoveryError
from ..obs import registry as obs_registry
from ..obs.trace import span
from ..streaming.deltas import ChangeBatch
from ..streaming.runner import BatchResult, StreamSession
from .checkpoint import CheckpointManager
from .crashpoints import crash_point
from .wal import DeltaWAL

PathLike = Union[str, Path]

WAL_FILENAME = "wal.log"

_RECOVERIES = obs_registry.counter(
    "durable_recoveries_total", "Successful crash recoveries")
_REPLAYED_BATCHES = obs_registry.counter(
    "wal_replayed_batches_total", "WAL tail batches replayed during recovery")


class DurableStreamSession:
    """A :class:`StreamSession` whose standing state survives process death."""

    def __init__(self, session: StreamSession, directory: PathLike,
                 checkpoint_every: int = 8, fsync: bool = True,
                 keep_checkpoints: int = 2, _wal: Optional[DeltaWAL] = None,
                 checkpoint_on_signal: bool = False):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 "
                             "(0 disables automatic checkpoints)")
        self.session = session
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = checkpoint_every
        self.fsync = fsync
        self.wal = _wal if _wal is not None \
            else DeltaWAL.open(self.directory / WAL_FILENAME, fsync=fsync)
        self.checkpoints = CheckpointManager(self.directory,
                                             keep=keep_checkpoints,
                                             fsync=fsync)
        # Graceful-shutdown machinery (see install_signal_handlers).
        self._shutdown_requested = False
        self._applying = False
        self._previous_handlers: Dict[int, object] = {}
        if checkpoint_on_signal:
            self.install_signal_handlers()

    # ----------------------------------------------------- graceful shutdown
    def install_signal_handlers(self) -> bool:
        """Install SIGTERM/SIGINT handlers for a clean, checkpointed exit.

        A signal arriving while the session is idle checkpoints immediately
        and raises ``SystemExit(0)``; one arriving mid-``apply`` only sets a
        flag — the in-flight batch finishes (and is acknowledged), the final
        checkpoint is written, and *then* the process exits.  Either way no
        acknowledged batch is ever lost and recovery starts from the final
        checkpoint instead of a WAL replay.

        Returns ``False`` (and installs nothing) when not called from the
        main thread — CPython only delivers signals there.
        """
        try:
            self._previous_handlers = {
                signal.SIGTERM: signal.signal(signal.SIGTERM, self._on_signal),
                signal.SIGINT: signal.signal(signal.SIGINT, self._on_signal),
            }
        except ValueError:  # not in the main thread
            self._previous_handlers = {}
            return False
        return True

    def uninstall_signal_handlers(self) -> None:
        """Restore the signal handlers that were replaced (idempotent)."""
        for signum, handler in self._previous_handlers.items():
            signal.signal(signum, handler)
        self._previous_handlers = {}

    def _on_signal(self, signum, frame) -> None:
        self._shutdown_requested = True
        if not self._applying:
            self._graceful_exit()

    def _graceful_exit(self) -> None:
        self.close(checkpoint=True)
        self.uninstall_signal_handlers()
        raise SystemExit(0)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> Optional[BatchResult]:
        """Cold-start the wrapped session and publish the base checkpoint.

        The base checkpoint makes the *instance itself* durable — without
        it a crash before the first periodic checkpoint would have nothing
        to replay the WAL against.
        """
        result = None
        if not self.session.started:
            result = self.session.start()
        self.checkpoint()
        return result

    def apply(self, batch: ChangeBatch) -> BatchResult:
        """Log the batch (the commit point), then apply it in memory."""
        self._applying = True
        try:
            with span("durable.apply", ops=len(batch)) as apply_span:
                if not self.session.started:
                    self.start()
                batch_id = self.session.batches_applied + 1
                apply_span.add_attrs(batch_id=batch_id)
                self.wal.append(batch_id, batch)
                result = self.session.apply(batch)
                self._checkpoint_on_cadence()
        finally:
            self._applying = False
        # A signal that arrived mid-batch deferred to here: the batch is
        # fully applied and logged, so exit cleanly with a final checkpoint.
        if self._shutdown_requested:
            self._graceful_exit()
        return result

    def replay(self, batches: Iterable[ChangeBatch]) -> List[BatchResult]:
        """Apply a sequence of batches; returns one result per batch."""
        return [self.apply(batch) for batch in batches]

    def close(self, checkpoint: bool = True) -> None:
        """Flush a final checkpoint (by default) and release the WAL."""
        if checkpoint and self.session.started:
            self.checkpoint()
        self.wal.close()
        self.uninstall_signal_handlers()

    # ----------------------------------------------------------- checkpoint
    def _checkpoint_payload(self) -> Dict:
        session = self.session
        return {
            "store": store_to_dict(session.overlay),
            "standing": session.standing_state(),
            "config": session.session_config(),
            "matcher_pickle": base64.b64encode(
                session._matcher_blueprint).decode("ascii"),
            "blocker_pickle": base64.b64encode(
                pickle.dumps(session.blocker)).decode("ascii"),
            # Optional: without it recovery builds the cover cold.
            "canopies": session.maintainer.canopy_state(),
        }

    def checkpoint(self) -> Path:
        """Publish a snapshot checkpoint and truncate the covered WAL tail."""
        if not self.session.started:
            raise DurabilityError("cannot checkpoint before the session starts")
        batch_id = self.session.batches_applied
        path = self.checkpoints.save(self._checkpoint_payload(), batch_id)
        self.wal.truncate_through(batch_id)
        crash_point("checkpoint.committed")
        return path

    def _checkpoint_on_cadence(self) -> None:
        """The periodic rule (none when ``checkpoint_every`` is 0)."""
        if self.checkpoint_every and \
                self.session.batches_applied % self.checkpoint_every == 0:
            self.checkpoint()

    # ------------------------------------------------------------- recovery
    @classmethod
    def recover(cls, directory: PathLike, executor=None,
                workers: Optional[int] = None, checkpoint_every: int = 8,
                fsync: bool = True, keep_checkpoints: int = 2,
                fault_policy=None,
                checkpoint_on_signal: bool = False) -> "DurableStreamSession":
        """Resume a durable session from its directory after a crash.

        Loads the latest valid checkpoint, reconstructs the session (store,
        matcher, blocker, standing results and provenance) and the cover
        from the checkpoint's canopy cache without scoring a canopy (cold
        for files without one), then replays the committed WAL tail through
        the normal ``apply`` path under the periodic rule: recovery
        checkpoints exactly where an uninterrupted session would have.
        """
        directory = Path(directory)
        if not directory.exists():
            raise RecoveryError(
                f"durable directory does not exist: {directory} — nothing "
                "was ever written there (check the --durable-dir path)")
        if not directory.is_dir():
            raise RecoveryError(
                f"durable path is not a directory: {directory}")
        checkpoints = CheckpointManager(directory, keep=keep_checkpoints,
                                        fsync=fsync)
        loaded = checkpoints.load_latest()
        if loaded is None:
            if not any(directory.iterdir()):
                raise RecoveryError(
                    f"durable directory is empty: {directory} — no "
                    "checkpoint or WAL to recover from (was the session "
                    "ever started?)")
            raise RecoveryError(f"no checkpoint found in {directory} — "
                                "nothing to recover the WAL against")
        checkpoint_id, payload = loaded
        standing = payload["standing"]
        if standing["batches_applied"] != checkpoint_id:
            raise RecoveryError(
                f"checkpoint {checkpoint_id} embeds inconsistent standing "
                f"state (batches_applied={standing['batches_applied']})")

        store = store_from_dict(payload["store"])
        matcher = pickle.loads(base64.b64decode(payload["matcher_pickle"]))
        blocker = pickle.loads(base64.b64decode(payload["blocker_pickle"]))
        # Older checkpoints may carry keys of retired options (a config's
        # ``max_rounds``, the payload's ``backend``); they are ignored.
        config = payload["config"]
        session = StreamSession(
            matcher, store, blocker=blocker,
            relation_names=config["relation_names"],
            executor=executor, workers=workers,
            expansion_rounds=config["expansion_rounds"],
            rebase_threshold=config["rebase_threshold"],
            fault_policy=fault_policy,
            # Checkpoints written before the supervision history existed
            # fall back to the constructor default.
            supervision_limit=config.get("supervision_limit", 64))
        session.restore_standing(standing, payload.get("canopies"))
        # Free the parsed checkpoint before the replay grows the session.
        del loaded, payload, standing, config

        wal = DeltaWAL.open(directory / WAL_FILENAME, fsync=fsync)
        # Signal handlers go in only after the replay: a signal mid-replay
        # must not checkpoint a half-applied batch.
        durable = cls(session, directory, checkpoint_every=checkpoint_every,
                      fsync=fsync, keep_checkpoints=keep_checkpoints, _wal=wal)
        replayed = 0
        with span("durable.recover", checkpoint=checkpoint_id) as recover_span:
            for batch_id, batch in wal.scan():
                if batch_id <= checkpoint_id:
                    # The checkpoint is newer than this record (a crash
                    # landed between checkpoint publish and WAL truncation):
                    # the batch is already folded into the snapshot, skip it.
                    continue
                expected = session.batches_applied + 1
                if batch_id != expected:
                    raise RecoveryError(
                        f"WAL tail is gapped: expected batch {expected} "
                        f"next, found {batch_id} (checkpoint at "
                        f"{checkpoint_id})")
                session.apply(batch)
                durable._checkpoint_on_cadence()
                replayed += 1
            recover_span.add_attrs(replayed=replayed)
        _RECOVERIES.inc()
        _REPLAYED_BATCHES.inc(replayed)
        if checkpoint_on_signal:
            durable.install_signal_handlers()
        return durable

    # ------------------------------------------------------------ delegation
    @property
    def started(self) -> bool:
        return self.session.started

    @property
    def batches_applied(self) -> int:
        return self.session.batches_applied

    @property
    def matches(self) -> FrozenSet[EntityPair]:
        return self.session.matches

    @property
    def evidence(self):
        return self.session.evidence

    def final_store(self):
        return self.session.final_store()

    def fresh_matcher(self):
        return self.session.fresh_matcher()

    def cold_matches(self) -> FrozenSet[EntityPair]:
        return self.session.cold_matches()

    def verify(self) -> bool:
        return self.session.verify()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DurableStreamSession({self.directory}, "
                f"batches_applied={self.batches_applied})")
