"""Soundex, the phonetic key the ``Similar`` relation's candidate groups use.

Two spellings of the same surname often share a Soundex code even when their
edit distance is large, so :func:`repro.datasets.similar.default_candidate_key`
groups references by it before scoring pairs.
"""

from __future__ import annotations


_SOUNDEX_CODES = {
    **dict.fromkeys("bfpv", "1"),
    **dict.fromkeys("cgjkqsxz", "2"),
    **dict.fromkeys("dt", "3"),
    **dict.fromkeys("l", "4"),
    **dict.fromkeys("mn", "5"),
    **dict.fromkeys("r", "6"),
}


def soundex(name: str, length: int = 4) -> str:
    """American Soundex code of ``name`` (default 4 characters, zero padded)."""
    cleaned = [c for c in name.lower() if c.isalpha()]
    if not cleaned:
        return "0" * length
    first = cleaned[0]
    encoded = [first.upper()]
    previous_code = _SOUNDEX_CODES.get(first, "")
    for char in cleaned[1:]:
        code = _SOUNDEX_CODES.get(char, "")
        if char in "hw":
            # h and w do not break runs of the same code.
            continue
        if code and code != previous_code:
            encoded.append(code)
        previous_code = code
        if len(encoded) >= length:
            break
    return "".join(encoded).ljust(length, "0")[:length]
