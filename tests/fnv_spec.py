"""Scalar specification of the signed n-gram hashing kernel.

The plain per-gram loop over the hash layout documented in
src/corpusfilter/kernels.py. The shipped batch kernel is tested against
it bit for bit; it is far too slow to ship.
"""

import numpy as np

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK = 0xFFFFFFFFFFFFFFFF


def spec_counts(text: str, dim: int, n_lo: int, n_hi: int, seed: int) -> np.ndarray:
    h0 = FNV_OFFSET
    for b in range(8):
        h0 = ((h0 ^ (((seed & MASK) >> (8 * b)) & 0xFF)) * FNV_PRIME) & MASK
    counts = np.zeros(dim, dtype=np.float64)
    for n in range(n_lo, n_hi + 1):
        for j in range(len(text) - n + 1):
            h = h0
            for byte in text[j : j + n].encode("utf-8"):
                h = ((h ^ byte) * FNV_PRIME) & MASK
            if h >> 63:
                counts[h % dim] -= 1.0
            else:
                counts[h % dim] += 1.0
    return counts
