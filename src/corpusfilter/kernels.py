"""Kernel backend selection.

Prefers the compiled extension; falls back to the vectorised numpy kernel
when the extension is not built. Both produce bit-identical output, so
the choice only affects speed. `HASH_BACKEND` records which one won.

`hashed_ngram_matrix(texts, dim, n_lo, n_hi, seed)` is the batch entry
point the embedding uses: one call per provider batch, returning the
(len(texts), dim) signed counts. `hashed_ngram_counts` is the same for
one text.
"""

import numpy as np

try:
    from ._hash_fast import hashed_ngram_counts

    HASH_BACKEND = "cython"

    def hashed_ngram_matrix(texts, dim, n_lo, n_hi, seed):
        out = np.empty((len(texts), dim), dtype=np.float64)
        for i, text in enumerate(texts):
            out[i] = hashed_ngram_counts(text, dim, n_lo, n_hi, seed)
        return out

except ImportError:  # extension not built; numpy kernel
    from ._hash_ref import hashed_ngram_counts, hashed_ngram_matrix

    HASH_BACKEND = "python"

__all__ = ["hashed_ngram_counts", "hashed_ngram_matrix", "HASH_BACKEND"]
