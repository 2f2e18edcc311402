"""Batch scoring kernels over the interned int space.

The vectorized counterpart of the cover build's scoring loop — the canopy
sweep over author names (Jaro-Winkler blocks behind a sound prefilter) —
with numpy as an *optional* accelerator (``pip install .[speed]``), imported
by the first batch that takes a vectorised leg.  The scalar code path
remains in place as the byte-identical parity reference; under the default
``auto`` backend a sweep takes the leg that measured faster in situ
(:mod:`repro.kernels.backend`), so installing or removing numpy never
changes any cover, match set, or score — only the speed at which they are
produced.  The matcher phase runs no kernel.
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

__all__ = [
    "BACKEND_ENV_VAR",
    "BatchCanopyScorer",
    "PackedStrings",
    "VALID_CHOICES",
    "backend",
    "canopy_sweep",
    "numpy_or_none",
    "record",
    "set_backend",
    "use",
]
