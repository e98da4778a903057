"""Balanced K-means diagnostics over document embeddings.

Fits K centroids with a hard per-cluster capacity cap of ceil(N/K), then
compares how different datasets distribute over the fitted clusters via
total variation distance between their cluster histograms. Two corpora
drawn from the same underlying distribution land in the same clusters
even when they are in different languages, which is what makes an
English-trained filter usable elsewhere.

Squared distances come from one helper, `_sq_distances`, which expands
||x - c||^2 as ||x||^2 - 2 x.c + ||c||^2 with one matrix product per block
of `_BLOCK_ROWS` rows. A fit over n points of dimension d therefore holds
X, one X-sized work array for the WCSS, and O(n*K + block*d) for the
distances; no (n, K, d) array is ever built. Nearest-centroid assignment
settles near ties with the direct sum of squared differences, so that
ties go to the lowest cluster id exactly as the direct form would.

k-means++ seeding keeps each point's squared distance to its nearest seed,
`d2`, in the direct form, because `d2` sets the probabilities of the seeded
draws. `d2` starts infinite, so the first seed costs a full direct pass. For
each seed c, one matrix-vector product gives every row's expanded distance to
c, and the direct form runs only on the rows where that is within
`_TIE_RTOL` * (max ||x||^2 + ||c||^2) of reaching `d2`. Both forms are
within a few d * 2^-53 * (||x||^2 + ||c||^2) of the exact distance, far
inside that slack, so a skipped row's direct distance is at least its
`d2`, and taking the minimum would not change it. Each seed is drawn as
`Generator.choice(n, p=d2 / total)` draws it, from the cumulative sum of p
and one uniform variate, without choice's checks of p: instead the fit
rejects, for every K, a point whose squared norm is not finite.

The fit computes the rows' squared norms once and hands them to the
seeding and to every iteration's distances. The centroid update is
`X[labels == k].mean(axis=0)` bit for bit, without a gather per cluster:
numpy's axis-0 mean adds the rows to a zero sum in index order, so
`_cluster_means` adds the j-th row of every cluster that has one in step j:
at most `capacity` steps of at most K rows each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus_io import load_json_object, write_json
from .errors import ConfigError, DataError, DimensionMismatchError


@dataclass
class ClusterModel:
    centroids: np.ndarray  # K x d
    K: int
    dim: int
    capacity: int
    seed: int
    labels_: np.ndarray | None = field(default=None, repr=False)
    wcss_history_: list[float] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.shape != (self.K, self.dim):
            raise DimensionMismatchError(
                f"centroid matrix {self.centroids.shape} != ({self.K}, {self.dim})"
            )


@dataclass
class ClusterHistogram:
    dataset_name: str
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _as_matrix(points) -> np.ndarray:
    """The points as a float64 matrix, one row per point."""
    try:
        X = np.asarray(points, dtype=np.float64)
    except ValueError as exc:
        raise DimensionMismatchError(f"points do not form a matrix: {exc}") from None
    if X.ndim != 2:
        raise DimensionMismatchError(f"points must form a 2-D array, not one of shape {X.shape}")
    return X


_BLOCK_ROWS = 4096

# Rows whose two nearest centroids are closer than this, relative to
# ||x||^2 + max ||c||^2, are settled again with the direct form. The expanded
# form's rounding error is a few d * 2^-53 of that scale.
_TIE_RTOL = 1e-10


def _row_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, X)


def _finite_row_norms(X: np.ndarray) -> np.ndarray:
    """The rows' squared norms; a row whose squared norm is not finite fails."""
    xx = _row_norms(X)
    bad = np.flatnonzero(~np.isfinite(xx))
    if len(bad):
        raise DataError(
            f"point {bad[0]} is not finite or too large: its squared norm is {xx[bad[0]]}"
        )
    return xx


def _sq_distances(X: np.ndarray, C: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """(n, K) squared distances from each row of X to each row of C in the
    expanded form, computed one block of rows at a time; `xx` holds the
    rows' squared norms."""
    cc = _row_norms(C)
    D = np.empty((X.shape[0], C.shape[0]))
    for lo in range(0, X.shape[0], _BLOCK_ROWS):
        blk, out = X[lo : lo + _BLOCK_ROWS], D[lo : lo + _BLOCK_ROWS]
        np.matmul(blk, C.T, out=out)
        out *= -2.0
        out += xx[lo : lo + _BLOCK_ROWS, None]
        out += cc
        np.maximum(out, 0.0, out=out)
    return D


def _direct_sq_distances(X: np.ndarray, c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sum of squared differences from each of the rows of X that `rows`
    names to the point c, one block of rows at a time; bit-identical to
    ((X[rows] - c) ** 2).sum(axis=1)."""
    if len(rows) <= _BLOCK_ROWS:
        diff = X[rows]  # one block: its gathered copy is the work array
        diff -= c
        diff *= diff
        return diff.sum(axis=1)
    d2 = np.empty(len(rows))
    work = np.empty((_BLOCK_ROWS, X.shape[1]))
    for lo in range(0, len(rows), _BLOCK_ROWS):
        diff = work[: min(len(rows) - lo, _BLOCK_ROWS)]
        # the rows are in range; mode "raise" would gather through a buffer
        np.take(X, rows[lo : lo + _BLOCK_ROWS], axis=0, out=diff, mode="clip")
        diff -= c
        diff *= diff
        diff.sum(axis=1, out=d2[lo : lo + _BLOCK_ROWS])
    return d2


def _kmeans_pp_init(
    X: np.ndarray, K: int, rng: np.random.Generator, xx: np.ndarray
) -> np.ndarray:
    """k-means++ seeds with `d2` in the direct form, which runs only on the rows
    a new seed may bring closer: a row whose expanded distance exceeds its `d2`
    by more than the `_TIE_RTOL` slack has a direct distance of at least `d2`
    as well (see the module docstring), so its `d2`, and every later draw, is
    what a full pass gives. `d2` starts infinite, so every row is near the
    first seed, drawn uniformly. `xx` holds the rows' squared norms."""
    n = X.shape[0]
    centroids = np.empty((K, X.shape[1]))
    d2 = np.full(n, np.inf)
    # a row is near a new seed c where ||x||^2 - 2 x.c + ||c||^2 - d2 is at most
    # _TIE_RTOL * (max ||x||^2 + ||c||^2); gap holds the terms that vary by row
    slack = _TIE_RTOL * xx.max()
    gap = cdf = np.empty(n)  # one buffer: the draw is done before gap is needed
    for k in range(K):
        total = d2.sum()
        if k == 0 or total <= 0:
            i = rng.integers(n)
        else:
            # Generator.choice(n, p=d2 / total): the same index from the same draw
            np.divide(d2, total, out=cdf)
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]
            i = cdf.searchsorted(rng.random(), side="right")
        c = centroids[k] = X[i]
        cc = c @ c
        np.matmul(X, c, out=gap)
        gap *= -2.0
        gap += xx
        gap -= d2
        near = np.flatnonzero(gap <= slack + (_TIE_RTOL - 1.0) * cc)
        d2[near] = np.minimum(d2[near], _direct_sq_distances(X, c, near))
    return centroids


def _balanced_assign(D: np.ndarray, capacity: int) -> np.ndarray:
    """Greedy capacity-constrained assignment.

    Points are processed in ascending order of their distance to the
    nearest centroid, each going to its closest cluster that still has
    room, the lowest id among equals. Early (confident) points almost
    always get their first choice; only boundary points get bumped, and
    only they search the clusters with room.
    """
    first = np.argmin(D, axis=1)
    labels, sizes = first.tolist(), [0] * D.shape[1]
    full = np.zeros(D.shape[1])  # +inf at each cluster with no room
    for i in np.argsort(D[np.arange(len(D)), first], kind="stable").tolist():
        k = labels[i]
        if sizes[k] == capacity:
            k = labels[i] = int((D[i] + full).argmin())
        sizes[k] += 1
        if sizes[k] == capacity:
            full[k] = np.inf
    return np.array(labels, dtype=np.int64)


def _cluster_means(X: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each cluster's mean, bit for bit X[labels == k].mean(axis=0), one
    step per row of the largest cluster (see the module docstring); a
    cluster with no rows keeps its centroid."""
    K = len(centroids)
    counts = np.bincount(labels, minlength=K)
    order = np.argsort(labels, kind="stable")
    rank = np.empty_like(order)  # each row's place among its cluster's rows
    rank[order] = np.arange(len(order)) - (np.cumsum(counts) - counts)[labels[order]]
    # clusters largest first, so that the clusters with a j-th row lead step j
    by_size = np.argsort(-counts, kind="stable")
    place = np.empty_like(by_size)
    place[by_size] = np.arange(K)
    steps = np.argsort(rank * K + place[labels])
    sums = np.zeros((K, X.shape[1]))
    lo = 0
    for m in np.bincount(rank).tolist():
        sums[:m] += X[steps[lo : lo + m]]
        lo += m
    filled = by_size[: np.count_nonzero(counts)]
    means = centroids.copy()
    means[filled] = sums[: len(filled)] / counts[filled, None]
    return means


def _wcss(X: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    diff = centroids[labels]
    np.subtract(X, diff, out=diff)
    diff *= diff
    return float(diff.sum())


def fit_balanced_kmeans(
    points, K: int, seed: int = 0, max_iters: int = 50
) -> ClusterModel:
    if K < 1:
        raise ConfigError(f"K must be at least 1, not {K}")
    if max_iters < 1:
        raise ConfigError(f"max_iters must be at least 1, not {max_iters}")
    X = _as_matrix(points)
    n, dim = X.shape
    if n < K:
        raise DataError(f"{n} points cannot fill {K} clusters")
    xx = _finite_row_norms(X)
    capacity = math.ceil(n / K)
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(X, K, rng, xx)

    labels = None
    best_wcss = np.inf
    history: list[float] = []
    for _ in range(max_iters):
        new_labels = _balanced_assign(_sq_distances(X, centroids, xx), capacity)
        new_centroids = _cluster_means(X, new_labels, centroids)
        wcss = _wcss(X, new_centroids, new_labels)
        # greedy assignment is not globally optimal, so keep the best state seen
        # and stop when the objective fails to improve, as it does once labels repeat
        if labels is not None and wcss >= best_wcss - 1e-12:
            break
        labels, centroids, best_wcss = new_labels, new_centroids, wcss
        history.append(wcss)

    model = ClusterModel(centroids=centroids, K=K, dim=dim, capacity=capacity, seed=seed)
    model.labels_ = labels
    model.wcss_history_ = history
    return model


def assign_batch(model: ClusterModel, X, xx: np.ndarray | None = None) -> np.ndarray:
    """Nearest-centroid assignment; capacity is a fit-time constraint only.
    Ties go to the lowest cluster id. A point that is not finite fails;
    `xx` holds the rows' squared norms when the caller has checked them."""
    X = _as_matrix(X)
    if X.shape[1] != model.dim:
        raise DimensionMismatchError(f"point dim {X.shape[1]} != model dim {model.dim}")
    C = model.centroids
    if xx is None:
        xx = _finite_row_norms(X)
    D = _sq_distances(X, C, xx)
    labels = np.argmin(D, axis=1)
    # rows with a second centroid within tol of the nearest
    D -= np.take_along_axis(D, labels[:, None], axis=1)
    tol = _TIE_RTOL * (xx + _row_norms(C).max())
    for i in np.flatnonzero(np.count_nonzero(D <= tol[:, None], axis=1) > 1):
        labels[i] = np.argmin(((C - X[i]) ** 2).sum(axis=1))
    return labels


def histogram_over_clusters(model: ClusterModel, dataset, name: str) -> ClusterHistogram:
    """Cluster sizes of the rows of a 2-D dataset, assigned `_BLOCK_ROWS` rows at a time."""
    if len(dataset) == 0:
        raise DataError(f"dataset {name!r} is empty")
    X = _as_matrix(dataset)
    xx = _finite_row_norms(X)
    counts = np.zeros(model.K, dtype=np.int64)
    for lo in range(0, len(X), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        counts += np.bincount(assign_batch(model, X[lo:hi], xx[lo:hi]), minlength=model.K)
    return ClusterHistogram(dataset_name=name, counts=counts)


def histogram_distance(a: ClusterHistogram, b: ClusterHistogram) -> float:
    """Total variation distance between the two normalized histograms."""
    if len(a.counts) != len(b.counts):
        raise DataError(f"K mismatch: {len(a.counts)} vs {len(b.counts)}")
    if a.total == 0 or b.total == 0:
        raise DataError("cannot compare an empty histogram")
    pa = a.counts / a.total
    pb = b.counts / b.total
    return 0.5 * float(np.abs(pa - pb).sum())


def save_cluster_model(model: ClusterModel, path: str) -> None:
    write_json(path, {
        "K": model.K,
        "dim": model.dim,
        "seed": model.seed,
        "capacity": model.capacity,
        "centroids": model.centroids.ravel().tolist(),
    }, indent=None)


def load_cluster_model(path: str) -> ClusterModel:
    rec = load_json_object(path, "cluster model", {
        "K": int, "dim": int, "capacity": int, "seed": int, "centroids": [float]})
    K, dim, centroids = rec["K"], rec["dim"], rec["centroids"]
    if K < 1 or dim < 1 or len(centroids) != K * dim:
        raise DataError(f"cluster model {path}: 'centroids' holds {len(centroids)} numbers, "
                        f"not K * dim = {K} * {dim}, with K and dim at least 1")
    return ClusterModel(**{**rec, "centroids": np.reshape(centroids, (K, dim))})
