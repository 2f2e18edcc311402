"""Result objects returned by the message-passing schemes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from ..datamodel import EntityPair, MatchSet


@dataclass
class SchemeResult:
    """Outcome of running one scheme (NO-MP, SMP, MMP, FULL, UB) on a dataset.

    Attributes
    ----------
    scheme:
        Scheme identifier (``"no-mp"``, ``"smp"``, ``"mmp"``, ``"full"``, ``"ub"``).
    matcher:
        Name of the underlying black-box matcher.
    matches:
        The final match set produced by the scheme.
    neighborhood_runs:
        Number of matcher invocations on neighborhoods (the dominant cost).
    neighborhoods:
        Number of neighborhoods in the cover (0 for FULL runs).
    rounds:
        Number of grid rounds (1 for NO-MP, FULL and UB).
    messages_passed:
        Number of simple messages (new matches communicated) for SMP, or
        maximal messages created for MMP.
    elapsed_seconds:
        Wall-clock time of the scheme run.
    matcher_seconds:
        Time spent inside the black-box matcher (the rest is framework
        overhead — the paper argues this overhead is minimal).
    extra:
        Scheme-specific diagnostics (e.g. per-round active counts).
    """

    scheme: str
    matcher: str
    matches: FrozenSet[EntityPair]
    neighborhood_runs: int = 0
    neighborhoods: int = 0
    rounds: int = 0
    messages_passed: int = 0
    elapsed_seconds: float = 0.0
    matcher_seconds: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def match_set(self) -> MatchSet:
        return MatchSet(self.matches)

    @property
    def match_count(self) -> int:
        return len(self.matches)

    def summary(self) -> Dict[str, object]:
        """Flat dictionary used by the report tables."""
        return {
            "scheme": self.scheme,
            "matcher": self.matcher,
            "matches": len(self.matches),
            "neighborhood_runs": self.neighborhood_runs,
            "neighborhoods": self.neighborhoods,
            "rounds": self.rounds,
            "messages_passed": self.messages_passed,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "matcher_seconds": round(self.matcher_seconds, 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SchemeResult(scheme={self.scheme!r}, matcher={self.matcher!r}, "
                f"matches={len(self.matches)}, runs={self.neighborhood_runs}, "
                f"time={self.elapsed_seconds:.3f}s)")
