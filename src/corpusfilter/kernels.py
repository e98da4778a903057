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

The kernel hashes the batch's texts joined end to end, one pass per n.
FNV-1a extends byte by byte, so pass n turns the (n-1)-gram hash at each
character j into the n-gram hash in place, by the bytes of character j+n-1;
uint64 arithmetic wraps mod 2^64 as the hash needs. A gram that starts
less than n characters before a text's end runs into the next one and goes
to a spill bin, dropped at the end. Each pass adds the bincount of its keys
to one tally: sums of +-1, exact in any order, so equal to a scalar loop's.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF

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
    buf = np.frombuffer(raw + bytes(4), dtype=np.uint8)  # every character can read four bytes
    # byte offset and UTF-8 length of every character
    starts = np.flatnonzero((buf[: len(raw)] & 0xC0) != 0x80)
    n_chars = starts.size
    char_len = np.diff(starts, append=len(raw))
    max_len = int(char_len.max()) if n_chars else 1
    byte_k = [buf[starts + k].astype(np.uint64) for k in range(max_len)]
    doc_len = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n_docs)
    ends = np.cumsum(doc_len)
    prime = np.uint64(FNV_PRIME)
    # a gram counts once under key 2 * (doc * dim + bucket) + sign bit, or in the spill bin
    spill = 2 * n_docs * dim
    row_key = np.repeat(np.arange(n_docs, dtype=np.uint64) * np.uint64(2 * dim), doc_len)
    tally = np.zeros(spill + 1, dtype=np.int64)
    h = np.full(n_chars, _seed_state(seed & _MASK), dtype=np.uint64)
    for n in range(1, min(n_hi, n_chars) + 1):
        m = n_chars - n + 1
        h, c = h[:m], slice(n - 1, n - 1 + m)
        h ^= byte_k[0][c]
        h *= prime
        for k in range(1, max_len):
            np.copyto(h, (h ^ byte_k[k][c]) * prime, where=char_len[c] > k)
        if n < n_lo:
            continue
        key = h % np.uint64(dim)
        key <<= np.uint64(1)
        key |= h >> np.uint64(63)
        key += row_key[:m]
        # the gram at j straddles a text end at one of j+1 ... j+n-1
        cut = (ends[:, None] - np.arange(1, n)).ravel()
        key[cut[(cut >= 0) & (cut < m)]] = spill
        tally += np.bincount(key.view(np.int64), minlength=spill + 1)
    return (tally[:-1:2] - tally[1::2]).astype(np.float64).reshape(n_docs, dim)


def hashed_ngram_counts(text: str, dim: int, n_lo: int, n_hi: int, seed: int) -> np.ndarray:
    """Signed n-gram counts of one text, shape (dim,)."""
    return hashed_ngram_matrix([text], dim, n_lo, n_hi, seed)[0]
