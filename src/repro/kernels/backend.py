"""Capability probe and backend selection for the batch scoring kernels.

Every kernel has two interchangeable legs: ``"numpy"`` (vectorized batches
over packed arrays; needs the ``pip install .[speed]`` extra) and
``"python"`` (the scalar code paths, the byte-identical parity reference).

The request is ``auto`` unless forced: by the ``REPRO_KERNEL_BACKEND``
environment variable, read once when this module is imported, or by
:func:`set_backend`, which also writes the variable so that process-executor
workers start on their parent's choice.  Forced ``numpy`` runs every batch
vectorised, forced ``python`` none; under ``auto`` a batch takes the
vectorised leg only where it measured faster in situ: a canopy sweep whose
pilot reaches its break-even (:func:`vectorized`).
Every numpy kernel is bit-exact against its scalar reference, so legs mix
freely — across sweeps, or across a mixed fleet of workers — without changing
any cover or match.

numpy is a first-need import: :func:`backend` answers from
``importlib.util.find_spec``, and the first batch to take the vectorised leg
pays the import (~145 ms, ~16 MB).  A numpy that is installed but will not
import degrades ``auto`` to the scalar legs.  The first resolution logs one line.
"""

from __future__ import annotations

import importlib.util
import logging
import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from ..exceptions import ExperimentError

logger = logging.getLogger("repro.kernels")

#: Environment variable read at import (and written by :func:`set_backend`)
#: so spawned worker processes start on the same backend as their parent.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

VALID_CHOICES = ("auto", "numpy", "python")

_lock = threading.Lock()
_inherited = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
#: The forced backend, or ``None`` for auto: the environment's, until set_backend.
_forced: Optional[str] = _inherited if _inherited in ("numpy", "python") else None
_numpy_found: Optional[bool] = None    # find_spec verdict; None until asked
_numpy_module = None                   # the module, once a batch needed it
_announced: Optional[str] = None       # backend already logged, if any


def _numpy_installed() -> bool:
    """Whether numpy can be imported — answered without importing it."""
    global _numpy_found
    if _numpy_found is None:
        try:
            _numpy_found = importlib.util.find_spec("numpy") is not None
        except (ImportError, ValueError):
            _numpy_found = False
    return _numpy_found


def numpy_or_none():
    """The numpy module when the *resolved* backend is ``"numpy"``, else
    ``None``; the first non-``None`` answer is what imports numpy."""
    global _numpy_found, _numpy_module
    if backend() != "numpy":
        return None
    if _numpy_module is None:
        try:
            _numpy_module = importlib.import_module("numpy")
        except ImportError as error:
            if _forced == "numpy":
                raise
            # Present but broken (ABI mismatch, partial install): under auto
            # the scalar legs take over, as if it were not installed.
            logger.warning("numpy is installed but failed to import (%s); "
                           "kernel backend: python", error)
            _numpy_found = False
    return _numpy_module


def vectorized(size: float, break_even: float):
    """The size rule: numpy when a batch of ``size`` should take the
    vectorised leg, else ``None`` (take the scalar one).  Under ``auto``
    that is ``size >= break_even``; a forced backend ignores the size."""
    if _forced is None and size < break_even:
        return None
    return numpy_or_none()


def backend() -> str:
    """Resolve the active kernel backend: ``"numpy"`` or ``"python"``.

    Never imports numpy.  The first call (and the first call after the
    selection changes) logs the resolution and its reason exactly once.
    """
    global _announced
    requested = _forced or "auto"
    if requested == "python":
        resolved, reason = "python", "forced"
    elif not _numpy_installed():
        if requested == "numpy":
            raise ExperimentError(
                "kernel backend 'numpy' was requested but numpy is not "
                "installed; install the accelerator with 'pip install .[speed]' "
                "or select --kernel-backend python")
        resolved, reason = "python", "numpy not installed"
    elif requested == "numpy":
        resolved, reason = "numpy", "forced: every batch vectorised"
    else:
        resolved, reason = "numpy", "auto: cover builds past the canopy break-even"
    if _announced != resolved:
        with _lock:
            if _announced != resolved:
                logger.info("kernel backend: %s (%s)", resolved, reason)
                _announced = resolved
    return resolved


def set_backend(name: Optional[str]) -> Optional[str]:
    """Force the kernel backend process-wide; returns the previous forcing.

    ``name`` is one of ``"auto"``/``"numpy"``/``"python"`` or ``None``
    (``None`` and ``"auto"`` both clear the forcing).  The choice is also
    exported through :data:`BACKEND_ENV_VAR` so process-executor workers
    inherit it.  Forcing ``"numpy"`` on a machine without numpy raises
    :class:`~repro.exceptions.ExperimentError` immediately.
    """
    global _forced
    if name is not None and name not in VALID_CHOICES:
        raise ExperimentError(
            f"unknown kernel backend {name!r}; expected one of {VALID_CHOICES}")
    previous = _forced
    if name == "numpy" and not _numpy_installed():
        raise ExperimentError(
            "kernel backend 'numpy' was requested but numpy is not installed; "
            "install the accelerator with 'pip install .[speed]'")
    _forced = None if name in (None, "auto") else name
    if _forced is None:
        os.environ.pop(BACKEND_ENV_VAR, None)
    else:
        os.environ[BACKEND_ENV_VAR] = _forced
    return previous


@contextmanager
def use(name: Optional[str]) -> Iterator[str]:
    """Context manager scoping :func:`set_backend` — used by the parity tests."""
    previous = set_backend(name)
    try:
        yield backend()
    finally:
        set_backend(previous if previous is not None else "auto")
