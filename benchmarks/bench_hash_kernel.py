#!/usr/bin/env python3
"""Benchmark the n-gram hashing kernel on synthetic web-like documents:
the scalar spec loop against the numpy batch kernel. Prints Mchar/s for
each and asserts they agree bit for bit.

    PYTHONPATH=src python3 benchmarks/bench_hash_kernel.py [--docs 256] [--dim 384]
"""

import argparse
import os
import random
import string
import sys
import time

import numpy as np

from corpusfilter.kernels import hashed_ngram_matrix as numpy_matrix

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from fnv_spec import spec_counts  # noqa: E402


def make_docs(n, seed=0, n_chars=1500):
    rng = random.Random(seed)
    alphabet = string.ascii_lowercase + "     éàüö漢字"
    return ["".join(rng.choice(alphabet) for _ in range(n_chars)) for _ in range(n)]


def per_document(kernel):
    def matrix(docs, dim, lo, hi, seed):
        return np.stack([kernel(doc, dim, lo, hi, seed) for doc in docs])

    return matrix


def bench(name, matrix, docs, args, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = matrix(docs, args.dim, args.ngram_lo, args.ngram_hi, 0)
        best = min(best, time.perf_counter() - start)
    n_chars = sum(len(d) for d in docs)
    print(f"{name:7s}: {best:8.3f}s for {n_chars / 1e6:.2f}M chars "
          f"({n_chars / best / 1e6:6.2f} Mchar/s, best of {repeats})")
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--docs", type=int, default=256)
    parser.add_argument("--chars", type=int, default=1500)
    parser.add_argument("--dim", type=int, default=384)
    parser.add_argument("--ngram-lo", type=int, default=2)
    parser.add_argument("--ngram-hi", type=int, default=4)
    parser.add_argument("--spec-docs", type=int, default=16,
                        help="documents timed through the slow scalar spec")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    docs = make_docs(args.docs, n_chars=args.chars)
    print(f"{args.docs} docs of {args.chars} chars, dim={args.dim}, "
          f"ngrams {args.ngram_lo}-{args.ngram_hi}")

    spec_docs = docs[: args.spec_docs]
    spec = bench("spec", per_document(spec_counts), spec_docs, args, 1)
    batch = bench("numpy", numpy_matrix, docs, args, args.repeats)
    assert np.array_equal(batch[: len(spec_docs)], spec)
    print("kernels agree bit-exactly")


if __name__ == "__main__":
    main()
