"""Batch scoring kernels over the interned int space.

Vectorized counterparts of the two cover-build scoring loops — the canopy
sweep over author names (Jaro-Winkler blocks behind a sound prefilter) and
the TF-IDF cosine sweep — with numpy as an *optional* accelerator
(``pip install .[speed]``), imported by the first batch that takes a
vectorised leg.  The scalar code paths remain in place as the byte-identical
parity reference; under the default ``auto`` backend each family takes the
leg that measured faster in situ (:mod:`repro.kernels.backend`), so
installing or removing numpy never changes any cover, match set, or score —
only the speed at which they are produced.  The matcher phase runs no kernel.
"""

from .backend import (
    BACKEND_ENV_VAR,
    VALID_CHOICES,
    backend,
    numpy_or_none,
    set_backend,
    use,
)
from .counters import record
from .names import BatchCanopyScorer, canopy_sweep
from .strings import PackedStrings
from .tfidf import ADMISSION_MARGIN, TfIdfBlockScorer

__all__ = [
    "ADMISSION_MARGIN",
    "BACKEND_ENV_VAR",
    "BatchCanopyScorer",
    "PackedStrings",
    "TfIdfBlockScorer",
    "VALID_CHOICES",
    "backend",
    "canopy_sweep",
    "numpy_or_none",
    "record",
    "set_backend",
    "use",
]
