"""Message-passing framework: the paper's primary contribution (Sections 2-5)."""

from .framework import EMFramework, SCHEMES
from .full import FullRun
from .maximal import compute_maximal_messages
from .messages import MaximalMessage, MaximalMessageSet, make_message
from .result import SchemeResult
from .upper_bound import UpperBoundScheme

__all__ = [
    "EMFramework",
    "FullRun",
    "MaximalMessage",
    "MaximalMessageSet",
    "SCHEMES",
    "SchemeResult",
    "UpperBoundScheme",
    "compute_maximal_messages",
    "make_message",
]
