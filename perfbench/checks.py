"""Checks made apart from the program.

Everything here recomputes an expected result from the benchmark's own
inputs, with code that does not import corpusfilter, and raises
`CheckFailed` when the program's output disagrees. Numeric results from
independent arithmetic are compared to `TOL`.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9

# Hash layout of the signed n-gram featurizer: seeded 64-bit FNV-1a over the
# UTF-8 bytes of each character n-gram; bucket = hash mod dim; the top hash
# bit set means the gram counts -1, else +1. The seed enters as its eight
# little-endian bytes hashed from the FNV offset basis.
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def fnv_features(text: str, dim: int, n_lo: int, n_hi: int, seed: int) -> list[float]:
    """Scalar signed FNV-1a counts over character n-grams of `text`."""
    h0 = FNV_OFFSET
    for k in range(8):
        h0 = ((h0 ^ ((seed >> (8 * k)) & 0xFF)) * FNV_PRIME) & MASK64
    counts = [0.0] * dim
    for n in range(n_lo, n_hi + 1):
        for start in range(len(text) - n + 1):
            h = h0
            for byte in text[start : start + n].encode("utf-8"):
                h = ((h ^ byte) * FNV_PRIME) & MASK64
            counts[h % dim] += -1.0 if h >> 63 else 1.0
    return counts


def reference_score(text: str, emb: dict, clf: dict) -> float:
    """Score of one document: truncate, lowercase, hash, L2-normalise, then
    the logistic model from the saved classifier record `clf`."""
    clipped = text[: emb["truncate_chars"]].lower()
    lo, hi = emb["ngram_range"]
    x = np.array(fnv_features(clipped, emb["dim"], lo, hi, emb["seed"]))
    x /= math.sqrt(float(x @ x))
    if clf["normalize_inputs"]:
        x /= math.sqrt(float(x @ x))
    z = float(x @ np.asarray(clf["w"], dtype=np.float64)) + float(clf["b"])
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


def check_score_records(records: list[dict], expected: list[tuple[str, str, float]]) -> None:
    """`records` are the program's score lines; `expected` is one
    (doc_id, shard, score) per corpus document in manifest order."""
    require(
        len(records) == len(expected),
        f"{len(records)} score records for {len(expected)} documents",
    )
    for rec, (doc_id, shard, score) in zip(records, expected):
        require(
            rec.get("doc_id") == doc_id and rec.get("shard") == shard,
            f"score record {rec.get('doc_id')!r}/{rec.get('shard')!r} "
            f"where {doc_id!r}/{shard!r} was due",
        )
        require(
            abs(float(rec["score"]) - score) <= TOL,
            f"score of {doc_id!r} is {rec['score']!r}, reference {score!r}",
        )


def nearest_rank(values, percentile: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    ordered = sorted(values)
    require(len(ordered) > 0, "percentile of an empty sample")
    return ordered[math.ceil(percentile / 100.0 * len(ordered)) - 1]


def check_tau(got: float, values, percentile: float, what: str) -> None:
    want = nearest_rank(values, percentile)
    require(
        abs(float(got) - want) <= TOL,
        f"{what}: p{percentile:g} is {got!r}, nearest rank gives {want!r}",
    )


def kept_lines(lines: list[str], ids: list[str], scores: dict[str, float], tau: float) -> str:
    """The filtered shard due for input `lines`: the lines whose document
    scores strictly above `tau`, byte for byte and in input order."""
    return "".join(line for line, i in zip(lines, ids) if scores[i] > tau)


def check_filtered_shard(got: str, lines, ids, scores, tau: float, what: str) -> None:
    want = kept_lines(lines, ids, scores, tau)
    if got == want:
        return
    got_lines = got.splitlines(keepends=True)
    kept = set(got_lines)
    for line, i in zip(lines, ids):
        if line in kept and scores[i] <= tau:
            raise CheckFailed(f"{what}: kept {i!r} at score {scores[i]!r} <= tau {tau!r}")
        if line not in kept and scores[i] > tau:
            raise CheckFailed(f"{what}: dropped {i!r} at score {scores[i]!r} > tau {tau!r}")
    raise CheckFailed(f"{what}: kept lines differ from the input lines or their order")


def rank_auc(high: list[float], low: list[float]) -> float:
    """Share of (high, low) pairs ordered high above low; ties count half."""
    require(bool(high) and bool(low), "ranking check needs both quality classes")
    wins = sum((h > l) + 0.5 * (h == l) for h in high for l in low)
    return wins / (len(high) * len(low))


def check_cluster_fit(labels, K: int, wcss_history: list[float]) -> None:
    labels = np.asarray(labels)
    n = labels.size
    require(bool(np.all((labels >= 0) & (labels < K))), "a point has no cluster")
    sizes = np.bincount(labels, minlength=K)
    cap = math.ceil(n / K)
    require(
        int(sizes.max()) <= cap,
        f"cluster {int(sizes.argmax())} holds {int(sizes.max())} points, capacity {cap}",
    )
    require(len(wcss_history) >= 1, "empty WCSS history")
    for a, b in zip(wcss_history, wcss_history[1:]):
        require(b < a, f"WCSS history does not strictly fall: {a!r} then {b!r}")


def nearest_centroid_counts(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Points per nearest centroid, the lowest id winning ties.

    Distances come from the expanded form; rows whose two nearest
    centroids are within TOL there are settled again with the direct
    sum of squared differences.
    """
    d = (X * X).sum(axis=1)[:, None] - 2.0 * (X @ C.T) + (C * C).sum(axis=1)[None, :]
    labels = np.argmin(d, axis=1)
    two = np.partition(d, 1, axis=1)[:, :2]
    for i in np.flatnonzero(two[:, 1] - two[:, 0] <= TOL):
        labels[i] = int(np.argmin(((X[i] - C) ** 2).sum(axis=1)))
    return np.bincount(labels, minlength=C.shape[0])


def check_histogram(counts, X: np.ndarray, C: np.ndarray, name: str) -> None:
    want = nearest_centroid_counts(X, C)
    got = np.asarray(counts)
    require(
        got.shape == want.shape and bool(np.array_equal(got, want)),
        f"histogram {name!r} differs from the nearest-centroid recount "
        f"in {int(np.sum(got != want)) if got.shape == want.shape else 'shape'} clusters",
    )


def total_variation(a, b) -> float:
    pa = np.asarray(a, dtype=np.float64) / np.sum(a)
    pb = np.asarray(b, dtype=np.float64) / np.sum(b)
    return 0.5 * float(np.abs(pa - pb).sum())
