"""Batch string-similarity kernels over packed codepoint arrays.

One *center* string is scored against a whole block of candidate strings per
call.  Candidates are packed once into contiguous arrays
(:class:`PackedStrings`: flat codepoint array + offsets, plus lazily derived
padded matrices, char-multiset count matrices and prefix slices), and each
kernel is a fixed number of vectorized passes over the selected rows instead
of a Python loop over pairs.  The two kernels are private to the canopy
family (:mod:`repro.kernels.names`), which owns the dispatch and the counters:

* :func:`_jaro_winkler_rows` — exact Jaro-Winkler.  The greedy match
  assignment walks the center's characters (a handful of iterations, each
  vectorized over the whole block); match and transposition counts are
  integers, and the final formula replays the scalar expression order
  operation for operation, so scores are **bit-identical** to
  :func:`repro.similarity.jaro.jaro_winkler_similarity`.
* :func:`_jaro_winkler_bound_rows` — the char-multiset upper bound of
  :meth:`~repro.similarity.profiles.ProfiledNameScorer.jaro_winkler_upper_bound`
  applied vectorized, used as the sound prefilter before any exact
  computation.  Same expression order, hence bit-identical bounds and
  therefore identical prune decisions.
"""

from __future__ import annotations

from typing import Sequence

from .backend import numpy_or_none


def _encode(text: str, np):
    """Codepoints of ``text`` as an int64 array (utf-32 is the codepoint dump)."""
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)


class PackedStrings:
    """A block of strings packed into contiguous arrays (offsets + flat codes).

    ``flat`` holds every string's codepoints back to back; ``offsets[i]``/
    ``lengths[i]`` delimit string ``i``.  The padded matrix, per-string
    char-count matrix and 4-codepoint prefix slice are derived lazily — each
    is one vectorized pass, paid once per pack and shared by every kernel
    call against the block.
    """

    __slots__ = ("strings", "_np", "lengths", "offsets", "flat",
                 "_matrix", "_alphabet", "_char_counts", "_prefix")

    def __init__(self, strings: Sequence[str], np_module=None):
        np = np_module if np_module is not None else numpy_or_none()
        if np is None:
            raise RuntimeError("PackedStrings requires the numpy kernel backend")
        self._np = np
        self.strings = list(strings)
        self.lengths = np.fromiter((len(s) for s in self.strings), np.int64,
                                   len(self.strings))
        self.offsets = np.zeros(len(self.strings) + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=self.offsets[1:])
        self.flat = _encode("".join(self.strings), np)
        self._matrix = None
        self._alphabet = None
        self._char_counts = None
        self._prefix = None

    def __len__(self) -> int:
        return len(self.strings)

    @property
    def matrix(self):
        """``(n, max_len)`` padded codepoint matrix; pad value is ``-1``."""
        if self._matrix is None:
            np = self._np
            width = int(self.lengths.max()) if len(self.strings) else 0
            matrix = np.full((len(self.strings), width), -1, dtype=np.int64)
            mask = np.arange(width) < self.lengths[:, None]
            matrix[mask] = self.flat
            self._matrix = matrix
        return self._matrix

    @property
    def char_counts(self):
        """``(alphabet, counts)`` — per-string multiset counts over the block's alphabet."""
        if self._char_counts is None:
            np = self._np
            alphabet, inverse = np.unique(self.flat, return_inverse=True)
            counts = np.zeros((len(self.strings), len(alphabet)), dtype=np.int64)
            row_of_flat = np.repeat(np.arange(len(self.strings)), self.lengths)
            np.add.at(counts, (row_of_flat, inverse), 1)
            self._alphabet = alphabet
            self._char_counts = counts
        return self._alphabet, self._char_counts

    @property
    def prefix4(self):
        """First four codepoints of each string, ``-1``-padded (Winkler prefix)."""
        if self._prefix is None:
            self._prefix = self.matrix[:, :4] if self.matrix.shape[1] >= 4 \
                else self._np.pad(self.matrix, ((0, 0), (0, 4 - self.matrix.shape[1])),
                                  constant_values=-1)
        return self._prefix


def _jaro_match_counts(np, block, lb, a_codes):
    """Greedy Jaro match/transposition counts of one center vs. a block.

    Emulates the scalar two-loop assignment exactly: for each center
    character in order, the first unmatched in-window equal character of
    each candidate is claimed.  Integer outputs, so equality with the scalar
    reference is exact rather than approximate.
    """
    n, width = block.shape
    la = len(a_codes)
    if la == 0 or width == 0:
        zeros = np.zeros(n, dtype=np.int64)
        return zeros, zeros
    window = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    positions = np.arange(width)
    b_matched = np.zeros((n, width), dtype=bool)
    matched_j = np.full((n, la), -1, dtype=np.int64)
    for i in range(la):
        low = i - window
        high = np.minimum(i + window + 1, lb)
        eligible = ((positions >= low[:, None]) & (positions < high[:, None])
                    & ~b_matched & (block == a_codes[i]))
        hit = eligible.any(axis=1)
        first = eligible.argmax(axis=1)
        hit_rows = np.nonzero(hit)[0]
        b_matched[hit_rows, first[hit_rows]] = True
        matched_j[hit_rows, i] = first[hit_rows]
    matches = (matched_j >= 0).sum(axis=1)
    # Transpositions: the center's matched characters in center order against
    # the block's matched characters in candidate order.  A stable argsort on
    # the "unmatched" flag compacts the matched center positions left without
    # reordering them; sorting the matched candidate positions yields the
    # candidate-side order.
    order = np.argsort(matched_j < 0, axis=1, kind="stable")
    a_seq = np.take_along_axis(np.broadcast_to(a_codes, (n, la)), order, axis=1)
    js = np.sort(np.where(matched_j >= 0, matched_j, width), axis=1)
    b_seq = np.take_along_axis(block, np.minimum(js, width - 1), axis=1)
    valid = np.arange(la) < matches[:, None]
    transpositions = ((a_seq != b_seq) & valid).sum(axis=1) // 2
    return matches, transpositions


def _jaro_winkler_rows(np, packed: PackedStrings, center: str, rows,
                       prefix_weight: float = 0.1, max_prefix: int = 4):
    """Exact Jaro-Winkler of ``center`` vs. the selected packed rows."""
    block = packed.matrix[rows]
    lb = packed.lengths[rows]
    a_codes = _encode(center, np)
    la = len(a_codes)
    matches, transpositions = _jaro_match_counts(np, block, lb, a_codes)
    # The formula below replays jaro_similarity()'s expression order exactly;
    # every elementwise op is the same correctly-rounded IEEE operation the
    # scalar path performs, so results are bit-identical.
    safe_m = np.maximum(matches, 1)
    safe_la = max(la, 1)
    safe_lb = np.maximum(lb, 1)
    jaro = (matches / safe_la + matches / safe_lb
            + (matches - transpositions) / safe_m) / 3.0
    jaro = np.where(matches == 0, 0.0, jaro)
    keep = min(max_prefix, la, block.shape[1])
    if keep > 0:
        prefix = np.cumprod(block[:, :keep] == a_codes[:keep], axis=1).sum(axis=1)
    else:
        prefix = np.zeros(len(lb), dtype=np.int64)
    score = jaro + prefix * prefix_weight * (1.0 - jaro)
    score = np.minimum(score, 1.0)
    # Scalar shortcut: identical strings (including two empties) score 1.0.
    # Non-empty equal strings already come out of the formula as exactly 1.0,
    # so only the empty-vs-empty row needs the override.
    if la == 0:
        score = np.where(lb == 0, 1.0, 0.0)
    return score


def _jaro_winkler_bound_rows(np, packed: PackedStrings, center: str, rows):
    """The char-multiset Jaro-Winkler upper bound, vectorized over a block.

    Bit-identical to
    :meth:`ProfiledNameScorer.jaro_winkler_upper_bound`: the multiset
    intersection size is integer, and the bound expression replays the
    scalar operation order.
    """
    alphabet, counts = packed.char_counts
    a_codes = _encode(center, np)
    la = len(a_codes)
    lb = packed.lengths[rows]
    if la == 0:
        return np.where(lb == 0, 1.0, 0.0)
    center_codes, center_counts = np.unique(a_codes, return_counts=True)
    slots = np.searchsorted(alphabet, center_codes)
    in_alphabet = (slots < len(alphabet))
    if len(alphabet):
        in_alphabet &= alphabet[np.minimum(slots, len(alphabet) - 1)] == center_codes
    projected = np.zeros(max(len(alphabet), 1), dtype=np.int64)
    projected[slots[in_alphabet]] = center_counts[in_alphabet]
    if len(alphabet):
        matches_bound = np.minimum(projected[None, :len(alphabet)],
                                   counts[rows]).sum(axis=1)
    else:
        matches_bound = np.zeros(len(lb), dtype=np.int64)
    safe_lb = np.maximum(lb, 1)
    jaro_bound = (matches_bound / la + matches_bound / safe_lb + 1.0) / 3.0
    keep = min(4, la)
    prefix_block = packed.prefix4[rows]
    prefix = np.cumprod(prefix_block[:, :keep] == a_codes[:keep], axis=1).sum(axis=1)
    bound = np.minimum(jaro_bound + prefix * 0.1 * (1.0 - jaro_bound), 1.0)
    bound = np.where(matches_bound == 0, 0.0, bound)
    # Equal strings hit the bound formula at exactly 1.0; only empty
    # candidates (against the non-empty center) need the scalar's 0.0.
    return np.where(lb == 0, 0.0, bound)
