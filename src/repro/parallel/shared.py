"""Per-process registry of broadcast payloads for the process pool.

When the grid runs on a process pool, the heavy, round-invariant payloads —
the :class:`~repro.datamodel.compact.CompactStore` snapshot and the matcher
— are *broadcast once per worker* instead of travelling inside every task:
:class:`~repro.parallel.executor.ProcessExecutor` passes them to every
worker through the pool's ``initializer``, so each worker unpickles the
snapshot exactly once at spawn, and every task carries only integer member
lists and evidence pairs (see :class:`repro.parallel.tasks.MapTask`).  The
executor installs them in the parent process too, where a task the
supervisor degrades to an inline run resolves them.

Next to the registry lives a per-snapshot cache of the restricted
:class:`~repro.datamodel.compact.StoreView` objects, keyed by the task's
member tuple: revisits of the same neighborhood in later rounds reuse the
same view object, which keeps identity-keyed matcher caches (the MLN ground
network cache) warm inside a worker.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..exceptions import ExperimentError

#: key -> broadcast payload, installed by an executor for this process.
_SHARED: Dict[str, Any] = {}
#: snapshot token -> (member tuple -> StoreView), dropped on unshare.
_VIEWS: Dict[str, Dict[Tuple[int, ...], Any]] = {}


def install_shared(items: Dict[str, Any]) -> None:
    """Install broadcast payloads (the process-pool worker initializer)."""
    _SHARED.update(items)


def share_local(key: str, value: Any) -> None:
    """Install one payload in this process's registry."""
    _SHARED[key] = value


def unshare_local(key: str) -> None:
    """Drop a payload (and any views derived from it) from this process."""
    _SHARED.pop(key, None)
    _VIEWS.pop(key, None)


def get_shared(key: str) -> Any:
    """Resolve a broadcast payload installed in this process."""
    try:
        return _SHARED[key]
    except KeyError:
        raise ExperimentError(
            f"shared payload {key!r} is not installed in this process; "
            "map tasks require the snapshot to be broadcast via "
            "ProcessExecutor.share") from None


def view_for(snapshot_token: str, members: Tuple[int, ...]) -> Any:
    """The (cached) restricted view of a broadcast snapshot."""
    views = _VIEWS.setdefault(snapshot_token, {})
    view = views.get(members)
    if view is None:
        view = get_shared(snapshot_token).restrict_indices(members)
        views[members] = view
    return view
