"""Signed n-gram hashing: the one kernel behind the hashed embedding.

Hash layout (tests/fnv_spec.py is its scalar spec): each character n-gram
is hashed over its UTF-8 bytes with seeded 64-bit FNV-1a. The seed enters
as its eight little-endian bytes, hashed from the FNV offset basis; each
byte b then updates h = (h ^ b) * FNV_PRIME mod 2^64. The gram counts into
bucket h mod dim, with sign -1 when the top hash bit is set and +1
otherwise.

`hashed_ngram_matrix(texts, dim, n_lo, n_hi, seed)` is the batch entry
point the embedding uses: one call per provider batch, returning the
(len(texts), dim) signed counts. `hashed_ngram_counts` is the same for
one text.

The kernel works on a whole batch at once. FNV-1a extends byte by byte, so
the hash of the n-gram at character j is the hash of the (n-1)-gram at j
extended by the bytes of character j+n-1: every n costs at most four
masked uint64 steps over the batch, and numpy's uint64 arithmetic wraps
mod 2^64 as the hash needs. The counts are sums of +-1, exact in float64
in any order, so the output equals a scalar loop over the grams exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF
_PAD = 4  # lets every character read four bytes without a bounds check

HASH_BACKEND = "python"  # the only backend; reported as corpusfilter.HASH_BACKEND


def _seed_state(seed: int) -> int:
    h = FNV_OFFSET
    for b in range(8):
        h = ((h ^ ((seed >> (8 * b)) & 0xFF)) * FNV_PRIME) & _MASK
    return h


def hashed_ngram_matrix(
    texts: Sequence[str], dim: int, n_lo: int, n_hi: int, seed: int
) -> np.ndarray:
    """Signed n-gram counts of each text, one row per text: (len(texts), dim)."""
    n_docs = len(texts)
    raw = "".join(texts).encode("utf-8")
    buf = np.zeros(len(raw) + _PAD, dtype=np.uint8)
    buf[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    # byte offset and UTF-8 length of every character
    starts = np.flatnonzero((buf[: len(raw)] & 0xC0) != 0x80)
    n_chars = starts.size
    char_len = np.diff(starts, append=len(raw))
    # per character: the text it is in, and the character index where that text ends
    doc_len = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n_docs)
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), doc_len)
    end_of = np.repeat(np.cumsum(doc_len), doc_len)

    max_len = int(char_len.max()) if n_chars else 1
    byte_k = [buf[starts + k].astype(np.uint64) for k in range(max_len)]
    has_k = [None] + [char_len > k for k in range(1, max_len)]  # every char has byte 0

    prime = np.uint64(FNV_PRIME)
    h = np.full(n_chars, _seed_state(seed & _MASK), dtype=np.uint64)
    # each gram counts once under key 2 * (doc * dim + bucket) + sign bit
    row_key = doc_of * (2 * dim)
    keys = []
    for n in range(1, n_hi + 1):
        # extend the gram at each start j < n_chars - n + 1 by character j + n - 1
        m = n_chars - n + 1
        if m <= 0:
            break
        c = slice(n - 1, n - 1 + m)
        h = (h[:m] ^ byte_k[0][c]) * prime
        for k in range(1, max_len):
            h = np.where(has_k[k][c], (h ^ byte_k[k][c]) * prime, h)
        if n < n_lo:
            continue
        # a gram is whole when it ends inside the text it starts in
        whole = np.arange(n, m + n) <= end_of[:m]
        hv = h[whole]
        keys.append(
            row_key[:m][whole]
            + 2 * (hv % np.uint64(dim)).astype(np.int64)
            + (hv >> np.uint64(63)).astype(np.int64)
        )
    tally = np.bincount(
        np.concatenate(keys) if keys else np.zeros(0, np.int64), minlength=2 * n_docs * dim
    )
    counts = (tally[0::2] - tally[1::2]).astype(np.float64)
    return counts.reshape(n_docs, dim)


def hashed_ngram_counts(text: str, dim: int, n_lo: int, n_hi: int, seed: int) -> np.ndarray:
    """Signed n-gram counts of one text, shape (dim,)."""
    return hashed_ngram_matrix([text], dim, n_lo, n_hi, seed)[0]
