"""Batch scoring kernels over the interned int space.

Vectorized counterparts of the hot scoring loops — TF-IDF cosine sweeps,
Jaro-Winkler / Damerau-Levenshtein blocks, canopy scoring, MLN probe
batches — with numpy as an *optional* accelerator (``pip install .[speed]``),
imported by the first batch that takes a vectorised leg.  The scalar code
paths remain in place as the byte-identical parity reference; under the
default ``auto`` backend each kernel family takes the leg that measured
faster in situ (:mod:`repro.kernels.backend`), so installing or removing
numpy never changes any cover, match set, or score — only the speed at which
they are produced.
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
from .probes import ProbeIndex
from .strings import (
    PackedStrings,
    damerau_levenshtein_block,
    jaro_winkler_block,
    jaro_winkler_bound_block,
)
from .tfidf import ADMISSION_MARGIN, TfIdfBlockScorer

__all__ = [
    "ADMISSION_MARGIN",
    "BACKEND_ENV_VAR",
    "BatchCanopyScorer",
    "PackedStrings",
    "ProbeIndex",
    "TfIdfBlockScorer",
    "VALID_CHOICES",
    "backend",
    "canopy_sweep",
    "damerau_levenshtein_block",
    "jaro_winkler_block",
    "jaro_winkler_bound_block",
    "numpy_or_none",
    "record",
    "set_backend",
    "use",
]
