"""Atomic snapshot checkpoints of a streaming session's standing state.

A checkpoint is one self-contained JSON document: the materialised instance
(the overlay rebased into a plain store layout), the standing match set,
per-neighborhood results, pair provenance, external evidence, the session
configuration, pickled blueprints of the matcher and blocker, and the cover
maintainer's canopy cache — enough for :meth:`DurableStreamSession.recover`
to rebuild the session without re-running the cold start or scoring a canopy.

Checkpoints are published with the classic dance: write a temp file in the
checkpoint directory, fsync it, ``os.replace`` it onto its final
``checkpoint-<batch id>.json`` name, fsync the directory.  A crash at any
step leaves either the previous checkpoint generation or the new one —
never a half-written file under a final name.  The last ``keep``
generations are retained so a corrupted latest file (detected by its
embedded SHA-256) falls back to the previous one.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..atomicio import fsync_directory
from ..exceptions import RecoveryError
from ..obs import registry as obs_registry
from ..obs.trace import span
from .crashpoints import crash_point

_CHECKPOINTS = obs_registry.counter(
    "checkpoints_total", "Checkpoint generations atomically published")
_CHECKPOINT_SECONDS = obs_registry.histogram(
    "checkpoint_save_seconds", "Wall-clock time to publish one checkpoint")

PathLike = Union[str, Path]

CHECKPOINT_FORMAT_VERSION = 1

_NAME_RE = re.compile(r"^checkpoint-(\d{10})\.json$")


def _wrap(payload: Dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    # The canonical body is embedded as encoded: one pass of the C encoder
    # serves both the digest and the file.
    return f'{{"payload":{body},"sha256":"{digest}"}}'.encode("utf-8")


_HEAD, _TAIL = b'{"payload":', re.compile(rb',"sha256":"([0-9a-f]{64})"\}')


def _unwrap(data: bytes) -> Dict:
    # _wrap's last 77 bytes are the digest field, the body sits before them.
    tail = _TAIL.fullmatch(data, max(len(_HEAD), len(data) - 77))
    if data.startswith(_HEAD) and tail:  # hash the embedded body, parse once
        body, digest = data[len(_HEAD):tail.start()], tail.group(1).decode()
        payload = json.loads(body)
    else:  # the legacy indented form: re-encode the parsed payload
        document = json.loads(data)
        payload, digest = document["payload"], document["sha256"]
        body = json.dumps(payload, separators=(",", ":"),
                          sort_keys=True).encode("utf-8")
    if hashlib.sha256(body).hexdigest() != digest:
        raise ValueError("checkpoint checksum mismatch")
    return payload


class CheckpointManager:
    """Writes, prunes and loads checkpoint generations in one directory."""

    def __init__(self, directory: PathLike, keep: int = 2, fsync: bool = True):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.keep = keep
        self.fsync = fsync

    # -------------------------------------------------------------- listing
    def _generations(self) -> List[Tuple[int, Path]]:
        """(batch id, path) of every checkpoint file, newest first."""
        if not self.directory.exists():
            return []
        found = []
        for path in self.directory.iterdir():
            match = _NAME_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return sorted(found, reverse=True)

    def path_for(self, batch_id: int) -> Path:
        return self.directory / f"checkpoint-{batch_id:010d}.json"

    # --------------------------------------------------------------- saving
    def save(self, payload: Dict, batch_id: int) -> Path:
        """Atomically publish ``payload`` as the checkpoint for ``batch_id``."""
        started = time.perf_counter()
        with span("checkpoint.save", batch_id=batch_id) as save_span:
            crash_point("checkpoint.begin")
            self.directory.mkdir(parents=True, exist_ok=True)
            target = self.path_for(batch_id)
            data = _wrap(dict(payload,
                              format_version=CHECKPOINT_FORMAT_VERSION,
                              batch_id=batch_id))
            save_span.add_attrs(bytes=len(data))
            fd, temp_name = tempfile.mkstemp(dir=str(self.directory),
                                             prefix=f".{target.name}.",
                                             suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    if self.fsync:
                        os.fsync(handle.fileno())
                crash_point("checkpoint.temp_written")
                os.replace(temp_name, target)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
            if self.fsync:
                fsync_directory(self.directory)
            crash_point("checkpoint.published")
            self._prune()
        _CHECKPOINTS.inc()
        _CHECKPOINT_SECONDS.observe(time.perf_counter() - started)
        return target

    def _prune(self) -> None:
        for _, path in self._generations()[self.keep:]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - races with inspection only
                pass

    # -------------------------------------------------------------- loading
    def load_latest(self) -> Optional[Tuple[int, Dict]]:
        """The newest checkpoint that parses and passes its checksum.

        Returns ``(batch id, payload)``; damaged generations fall back to
        the next older one.  Returns ``None`` when no checkpoint file
        exists; raises :class:`RecoveryError` when files exist but every
        one is damaged (recovery must not silently start from scratch).
        """
        generations = self._generations()
        if not generations:
            return None
        errors = []
        for batch_id, path in generations:
            try:
                payload = _unwrap(path.read_bytes())
            except Exception as error:
                errors.append(f"{path.name}: {error}")
                continue
            if payload.get("format_version") != CHECKPOINT_FORMAT_VERSION:
                errors.append(f"{path.name}: unsupported format version "
                              f"{payload.get('format_version')!r}")
                continue
            if payload.get("batch_id") != batch_id:
                errors.append(f"{path.name}: embedded batch id "
                              f"{payload.get('batch_id')!r} does not match "
                              f"the file name")
                continue
            return batch_id, payload
        raise RecoveryError(
            "every checkpoint generation is damaged: " + "; ".join(errors))
