"""Character n-grams and word tokens: the canopy tokenizer's pieces."""

from __future__ import annotations

from typing import List


def character_ngrams(text: str, n: int = 2, pad: bool = True) -> List[str]:
    """Character n-grams of ``text``.

    With ``pad=True`` the string is padded with ``n - 1`` ``#`` characters on
    each side so that leading/trailing characters get full weight — the usual
    convention for approximate name matching.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not text:
        return []
    if pad and n > 1:
        padding = "#" * (n - 1)
        text = f"{padding}{text}{padding}"
    if len(text) < n:
        return [text]
    return [text[i:i + n] for i in range(len(text) - n + 1)]


def word_tokens(text: str) -> List[str]:
    """Lower-cased alphanumeric word tokens of ``text``."""
    tokens: List[str] = []
    current: List[str] = []
    for char in text.lower():
        if char.isalnum():
            current.append(char)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens
