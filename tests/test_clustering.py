import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusfilter.clustering import (
    _BLOCK_ROWS,
    ClusterHistogram,
    ClusterModel,
    _balanced_assign,
    _cluster_means,
    _direct_sq_distances,
    _kmeans_pp_init,
    _row_norms,
    _sq_distances,
    assign_batch,
    fit_balanced_kmeans,
    histogram_distance,
    histogram_over_clusters,
    load_cluster_model,
    save_cluster_model,
)
from corpusfilter.errors import ConfigError, DataError, DimensionMismatchError


def two_blobs(n, separation=8.0, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = rng.normal(size=(n, dim))
    X[:half, 0] -= separation / 2
    X[half:, 0] += separation / 2
    truth = np.array([0] * half + [1] * (n - half))
    return X, truth


def reference_fit(X, K, seed, max_iters=50):
    """Balanced k-means with every distance summed directly over the
    (n, K, d) differences; returns (labels, centroids, wcss history)."""
    n = X.shape[0]
    capacity = math.ceil(n / K)
    rng = np.random.default_rng(seed)
    C = np.empty((K, X.shape[1]))
    C[0] = X[rng.integers(n)]
    d2 = np.sum((X - C[0]) ** 2, axis=1)
    for k in range(1, K):
        total = d2.sum()
        C[k] = X[rng.integers(n)] if total <= 0 else X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - C[k]) ** 2, axis=1))
    labels, best, history = None, np.inf, []
    for _ in range(max_iters):
        D = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        ranked = np.argsort(D, axis=1, kind="stable")
        sizes = np.zeros(K, dtype=np.int64)
        new_labels = np.full(n, -1, dtype=np.int64)
        for i in np.argsort(D.min(axis=1), kind="stable"):
            k = next(k for k in ranked[i] if sizes[k] < capacity)
            new_labels[i] = k
            sizes[k] += 1
        new_C = C.copy()
        for k in range(K):
            if np.any(new_labels == k):
                new_C[k] = X[new_labels == k].mean(axis=0)
        wcss = float(np.sum((X - new_C[new_labels]) ** 2))
        if labels is not None and wcss >= best - 1e-12:
            break
        converged = labels is not None and np.array_equal(new_labels, labels)
        labels, C, best = new_labels, new_C, wcss
        history.append(wcss)
        if converged:
            break
    return labels, C, history


def criterion_07_inputs():
    for seed in range(5):
        yield np.random.default_rng(seed).normal(size=(157, 4)), 9, seed
    yield np.random.default_rng(77).normal(size=(64, 3)) * 5, 64, 0
    for seed in range(20):
        X = np.random.default_rng(seed).normal(size=(200, 4))
        X[:100, 0] -= 4.0
        X[100:, 0] += 4.0
        yield X, 2, seed


def k64_inputs():
    """Unit rows around 16 topic centres, shaped like the perfbench
    clusters_k64 fit set: 512 points, d=384, K=64."""
    for seed in range(2):
        rng = np.random.default_rng(100 + seed)
        centers = rng.standard_normal((16, 384))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        X = centers[rng.integers(16, size=512)]
        X += 0.6 * rng.standard_normal((512, 384)) / np.sqrt(384)
        yield X / np.linalg.norm(X, axis=1, keepdims=True), 64, seed


def tie_inputs():
    """Integer-valued points, many of them repeated: exact distance ties
    between points and centroids, and clusters that fill before their points
    are placed. Power-of-two scales keep every distance exact in both forms."""
    for seed in range(6):
        rng = np.random.default_rng(200 + seed)
        yield rng.integers(-2, 3, size=(90, 3)).astype(float), 7, seed
        yield rng.integers(0, 2, size=(40, 2)).astype(float) * 10.0 ** (seed - 3), 5, seed
        base = rng.integers(-4, 5, size=(9, 4)) * 2.0 ** (6 * seed - 15)
        yield base[rng.integers(9, size=100)], 12, seed


# ------------------------------------------------- fitting


def test_singletons_when_n_equals_k():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(64, 3)) * 10
    model = fit_balanced_kmeans(X, K=64, seed=1)
    sizes = np.bincount(model.labels_, minlength=64)
    assert np.all(sizes == 1)
    assert model.capacity == 1


def test_capacity_arithmetic_10_points_3_clusters():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(10, 2))
    model = fit_balanced_kmeans(X, K=3, seed=0)
    sizes = sorted(np.bincount(model.labels_, minlength=3), reverse=True)
    assert model.capacity == math.ceil(10 / 3) == 4
    assert max(sizes) <= 4
    assert sum(sizes) == 10


@pytest.mark.parametrize("seed", range(20))
def test_two_blob_recovery(seed):
    X, truth = two_blobs(200, seed=seed)
    model = fit_balanced_kmeans(X, K=2, seed=seed)
    labels = model.labels_
    agree = np.mean(labels == truth)
    purity = max(agree, 1 - agree)
    assert purity >= 0.95


def test_capacity_cap_over_seeds():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n, K = 101, 7
        X = rng.normal(size=(n, 3))
        model = fit_balanced_kmeans(X, K=K, seed=seed)
        sizes = np.bincount(model.labels_, minlength=K)
        assert sizes.max() <= math.ceil(n / K)


def test_wcss_non_increasing():
    X, _ = two_blobs(300, separation=3.0, seed=3)
    model = fit_balanced_kmeans(X, K=8, seed=3, max_iters=30)
    hist = model.wcss_history_
    assert len(hist) >= 1
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_duplicates_allowed_capacity_enforced():
    X = np.zeros((12, 2))
    model = fit_balanced_kmeans(X, K=3, seed=0)
    sizes = np.bincount(model.labels_, minlength=3)
    assert sizes.max() <= 4


def test_fit_equals_direct_form_reference():
    cases = [(X, K, seed, 50) for X, K, seed in criterion_07_inputs()]
    cases += [(X, K, seed, iters) for X, K, seed in k64_inputs() for iters in (3, 50)]
    cases += [(X, K, seed, 50) for X, K, seed in tie_inputs()]
    for X, K, seed, iters in cases:
        model = fit_balanced_kmeans(X, K=K, seed=seed, max_iters=iters)
        labels, centroids, history = reference_fit(X, K, seed, max_iters=iters)
        assert np.array_equal(model.labels_, labels)
        assert np.array_equal(model.centroids, centroids)
        assert model.wcss_history_ == history


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_balanced_assign_takes_the_first_ranked_cluster_with_room(n, K, seed):
    # small integer distances: many exact ties, and clusters that fill up
    rng = np.random.default_rng(seed)
    D = rng.integers(0, 4, size=(n, K)).astype(float)
    capacity = math.ceil(n / K)
    ranked = np.argsort(D, axis=1, kind="stable")
    sizes = np.zeros(K, dtype=np.int64)
    want = np.full(n, -1, dtype=np.int64)
    for i in np.argsort(D.min(axis=1), kind="stable"):
        want[i] = next(k for k in ranked[i] if sizes[k] < capacity)
        sizes[want[i]] += 1
    assert np.array_equal(_balanced_assign(D, capacity), want)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2 * _BLOCK_ROWS + 3), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_direct_sq_distances_over_rows_equal_the_full_pass(n, d, seed):
    # the seeding runs the direct form on a subset of the rows and must get
    # the bits a full pass gives them, whichever blocks they fall in
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4)
    c = X[rng.integers(n)] + rng.normal(size=d)
    rows = np.flatnonzero(rng.random(n) < rng.random())
    full = ((X - c) ** 2).sum(axis=1)
    assert _direct_sq_distances(X, c, rows).tobytes() == full[rows].tobytes()
    assert _direct_sq_distances(X, c, np.arange(n)).tobytes() == full.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(
           lambda K: st.tuples(st.just(K), st.lists(st.integers(0, K - 1), min_size=1, max_size=60))),
       st.integers(0, 2**32 - 1))
@example((1, [0] * 9), 0)  # K = 1
@example((5, [3] * 12), 1)  # one cluster holds every row, four are empty
@example((6, [4, 0, 5, 2, 1, 3]), 2)  # singletons
@example((4, [0, 0, 2, 2, 2, 0, 2]), 3)  # empty clusters between full ones
def test_cluster_means_equal_the_masked_means(case, seed):
    K, labels = case
    labels = np.array(labels)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(len(labels), 5)) * 10.0 ** rng.integers(-3, 4, size=(len(labels), 1))
    X[rng.random(X.shape) < 0.2] = -0.0  # signed zeros must sum as numpy's mean sums them
    old = rng.normal(size=(K, 5))
    means = _cluster_means(X, labels, old)
    for k in range(K):
        want = X[labels == k].mean(axis=0) if np.any(labels == k) else old[k]
        assert means[k].tobytes() == want.tobytes()


def reference_seeds(X, K, seed):
    """k-means++ seeds drawn with Generator.choice over direct-form distances."""
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    C = np.empty((K, X.shape[1]))
    C[0] = X[rng.integers(n)]
    d2 = np.sum((X - C[0]) ** 2, axis=1)
    for k in range(1, K):
        total = d2.sum()
        C[k] = X[rng.integers(n)] if total <= 0 else X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - C[k]) ** 2, axis=1))
    return C


def seeding_inputs():
    rng = np.random.default_rng(300)
    base = rng.normal(size=(6, 3))
    yield base[rng.integers(6, size=200)], 10  # repeated points, zeros in d2, then total 0
    yield np.full((50, 4), 3.7), 5  # all points equal: every draw takes the total <= 0 branch
    for n in (_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3):
        # in two dimensions a new seed can bring more than a block of rows closer
        yield rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-3, 4), 6
    for X, K, _ in k64_inputs():
        yield X, K


def test_kmeans_pp_init_equals_the_choice_reference():
    for X, K in seeding_inputs():
        for seed in range(3):
            got = _kmeans_pp_init(X, K, np.random.default_rng(seed), _row_norms(X))
            assert got.tobytes() == reference_seeds(X, K, seed).tobytes()


@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_is_a_data_error(K, bad):
    X, _ = two_blobs(40, seed=2)
    X[17, 2] = bad
    with pytest.raises(DataError, match="point 17 "):
        fit_balanced_kmeans(X, K=K, seed=0)


@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_fails_assignment_and_histogram(K, bad):
    X, _ = two_blobs(40, seed=2)
    model = fit_balanced_kmeans(X, K=K, seed=0)
    X[17, 2] = bad
    with pytest.raises(DataError, match="point 17 "):
        assign_batch(model, X)
    with pytest.raises(DataError, match="point 17 "):
        histogram_over_clusters(model, X, "bad")
    # a histogram names the row of its dataset, not of the block it is in
    X = np.tile(X[:16], (_BLOCK_ROWS // 16 + 2, 1))
    X[_BLOCK_ROWS + 3, 1] = bad
    with pytest.raises(DataError, match=f"point {_BLOCK_ROWS + 3} "):
        histogram_over_clusters(model, X, "bad")


def not_matrices():
    yield np.zeros(4)  # one point, not a matrix of one row
    yield np.zeros((2, 3, 4))
    yield [[0.0, 1.0, 2.0, 3.0], [0.0, 1.0]]  # ragged


@pytest.mark.parametrize("points", list(not_matrices()), ids=["1d", "3d", "ragged"])
def test_points_that_do_not_form_a_matrix_fail(points):
    X, _ = two_blobs(20, seed=3)
    model = fit_balanced_kmeans(X, K=2, seed=0)
    with pytest.raises(DimensionMismatchError, match="matrix|2-D"):
        fit_balanced_kmeans(points, K=1, seed=0)
    with pytest.raises(DimensionMismatchError, match="matrix|2-D"):
        assign_batch(model, points)
    with pytest.raises(DimensionMismatchError, match="matrix|2-D"):
        histogram_over_clusters(model, points, "bad")


def test_fit_and_histogram_memory_is_linear():
    n, K, d = 8000, 64, 384
    X = np.random.default_rng(0).standard_normal((n, d))
    tracemalloc.start()
    try:
        model = fit_balanced_kmeans(X, K=K, seed=0, max_iters=1)
        histogram_over_clusters(model, X, "fit")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (n, K, d) float64 temporary alone would be 1.5 GB here
    assert peak < 2 * 8 * n * (d + K)


def test_too_few_points():
    with pytest.raises(DataError, match="3 points cannot fill 5 clusters"):
        fit_balanced_kmeans(np.zeros((3, 2)), K=5, seed=0)


@pytest.mark.parametrize("K", [0, -2])
def test_k_below_one_is_a_config_error(K):
    X, _ = two_blobs(20, seed=3)
    with pytest.raises(ConfigError, match=f"K must be at least 1, not {K}"):
        fit_balanced_kmeans(X, K=K, seed=0)


@pytest.mark.parametrize("max_iters", [0, -1])
def test_max_iters_below_one_is_a_config_error(max_iters):
    X, _ = two_blobs(20, seed=3)
    with pytest.raises(ConfigError, match=f"max_iters must be at least 1, not {max_iters}"):
        fit_balanced_kmeans(X, K=2, seed=0, max_iters=max_iters)


def test_fit_deterministic():
    X, _ = two_blobs(100, seed=4)
    a = fit_balanced_kmeans(X, K=4, seed=9)
    b = fit_balanced_kmeans(X, K=4, seed=9)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.labels_, b.labels_)


# ------------------------------------------------- assignment


def test_assign_centroid_maps_to_itself():
    X, _ = two_blobs(50, seed=5)
    model = fit_balanced_kmeans(X, K=5, seed=5)
    for j in range(5):
        assert assign_batch(model, model.centroids[j : j + 1])[0] == j


def test_assign_tie_breaks_to_lowest_id():
    centroids = np.array(
        [[0.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [0.0, 7.0], [0.0, 3.0], [2.0, 0.0]]
    )
    model = ClusterModel(centroids=centroids, K=6, dim=2, capacity=1, seed=0)
    # equidistant from clusters 1 and 5 (identical centroids)
    assert assign_batch(model, np.array([[2.0, 1.0]]))[0] == 1


def test_sq_distances_match_direct_form():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(_BLOCK_ROWS + 37, 7)) * 3 + 1
    C = rng.normal(size=(5, 7))
    direct = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    scale = (X * X).sum(axis=1)[:, None] + (C * C).sum(axis=1)[None, :]
    assert np.all(np.abs(_sq_distances(X, C, _row_norms(X)) - direct) <= 1e-12 * scale)


def test_near_tie_goes_to_lowest_id():
    # x is equidistant from x + v and x - v; at this offset the expanded
    # form's rounding alone prefers cluster 1
    rng = np.random.default_rng(0)
    x = 100.0 + rng.normal(size=8)
    v = rng.normal(size=8)
    C = np.stack([x + v, x - v])
    direct = ((x - C) ** 2).sum(axis=1)
    assert direct[0] <= direct[1]
    assert np.argmin(_sq_distances(x[None, :], C, _row_norms(x[None, :]))[0]) == 1
    model = ClusterModel(centroids=C, K=2, dim=8, capacity=1, seed=0)
    assert assign_batch(model, x[None, :])[0] == 0


def test_assign_interior_points_stable():
    X, truth = two_blobs(200, separation=10.0, seed=6)
    model = fit_balanced_kmeans(X, K=2, seed=6)
    reassigned = assign_batch(model, X)
    agree = np.mean(reassigned == model.labels_)
    assert agree >= 0.95


def test_assign_dim_mismatch():
    X, _ = two_blobs(20, seed=7)
    model = fit_balanced_kmeans(X, K=2, seed=7)
    with pytest.raises(DimensionMismatchError):
        assign_batch(model, np.zeros((1, 9)))


# ------------------------------------------------- histograms


def test_histogram_self_consistency():
    X, _ = two_blobs(120, separation=10.0, seed=8)
    model = fit_balanced_kmeans(X, K=4, seed=8)
    hist = histogram_over_clusters(model, X, "self")
    assert hist.total == 120
    fit_sizes = np.bincount(model.labels_, minlength=4)
    # boundary points may flip once capacity stops applying
    assert np.all(np.abs(hist.counts - fit_sizes) <= model.capacity)


def test_histogram_copies_of_centroid():
    X, _ = two_blobs(40, seed=9)
    model = fit_balanced_kmeans(X, K=4, seed=9)
    hist = histogram_over_clusters(model, np.tile(model.centroids[0], (7, 1)), "c0")
    assert hist.counts[0] == 7 and hist.total == 7


def test_histogram_additivity():
    X, _ = two_blobs(100, seed=10)
    model = fit_balanced_kmeans(X, K=3, seed=10)
    h1 = histogram_over_clusters(model, X[:40], "a")
    h2 = histogram_over_clusters(model, X[40:], "b")
    h = histogram_over_clusters(model, X, "ab")
    assert np.array_equal(h1.counts + h2.counts, h.counts)


def test_histogram_over_blocks_equals_one_assignment():
    X, _ = two_blobs(2 * _BLOCK_ROWS + 5, seed=12)
    model = fit_balanced_kmeans(X[:200], K=5, seed=12)
    from_array = histogram_over_clusters(model, X, "array")
    assert from_array.total == len(X)
    assert np.array_equal(from_array.counts, np.bincount(assign_batch(model, X), minlength=5))


def test_histogram_empty_dataset():
    X, _ = two_blobs(20, seed=11)
    model = fit_balanced_kmeans(X, K=2, seed=11)
    with pytest.raises(DataError, match="dataset 'empty' is empty"):
        histogram_over_clusters(model, [], "empty")
    with pytest.raises(DataError, match="dataset 'empty' is empty"):
        histogram_over_clusters(model, np.empty((0, 4)), "empty")


# ------------------------------------------------- TV distance


def test_tv_identical_zero():
    a = ClusterHistogram("a", [3, 1, 6])
    assert histogram_distance(a, a) == 0.0


def test_tv_disjoint_one():
    a = ClusterHistogram("a", [5, 0])
    b = ClusterHistogram("b", [0, 9])
    assert histogram_distance(a, b) == 1.0


def test_tv_hand_case():
    a = ClusterHistogram("a", [3, 1])
    b = ClusterHistogram("b", [1, 3])
    assert histogram_distance(a, b) == pytest.approx(0.5)


def test_tv_metric_properties():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = ClusterHistogram("a", rng.integers(1, 50, size=8))
        b = ClusterHistogram("b", rng.integers(1, 50, size=8))
        c = ClusterHistogram("c", rng.integers(1, 50, size=8))
        dab = histogram_distance(a, b)
        assert dab == pytest.approx(histogram_distance(b, a))
        assert 0.0 <= dab <= 1.0
        assert dab <= histogram_distance(a, c) + histogram_distance(c, b) + 1e-12


def test_tv_errors():
    a = ClusterHistogram("a", [1, 2])
    b = ClusterHistogram("b", [1, 2, 3])
    with pytest.raises(DataError, match="K mismatch: 2 vs 3"):
        histogram_distance(a, b)
    with pytest.raises(DataError, match="cannot compare an empty histogram"):
        histogram_distance(a, ClusterHistogram("z", [0, 0]))


def test_same_distribution_closer_than_shifted():
    """Two samples of one mixture look alike; a shifted mixture does not."""
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(4, 8)) * 3

        def draw(shift, n=1500):
            comps = rng.integers(0, 4, size=n)
            return centers[comps] + rng.normal(size=(n, 8)) + shift

        fit = draw(0.0, n=2000)
        model = fit_balanced_kmeans(fit, K=16, seed=seed)
        h_a = histogram_over_clusters(model, draw(0.0), "same_a")
        h_b = histogram_over_clusters(model, draw(0.0), "same_b")
        h_shift = histogram_over_clusters(model, draw(2.5), "shifted")
        if histogram_distance(h_a, h_b) < histogram_distance(h_a, h_shift):
            wins += 1
    assert wins >= 18


# ------------------------------------------------- persistence


def test_cluster_model_roundtrip(tmp_path):
    X, _ = two_blobs(60, seed=13)
    model = fit_balanced_kmeans(X, K=4, seed=13)
    path = str(tmp_path / "model.json")
    save_cluster_model(model, path)
    back = load_cluster_model(path)
    assert np.array_equal(back.centroids, model.centroids)
    assert back.K == 4 and back.capacity == model.capacity and back.seed == 13
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"  # one compact line


MODEL = {"K": 2, "dim": 2, "capacity": 3, "seed": 0, "centroids": [0.0, 1.0, 2.0, 3.0]}
BAD_MODELS = {
    # name: (file content, what the error names)
    "not_json": ("{not json", "not valid JSON"),
    "not_an_object": ("[]", "not a JSON object"),
    "missing_key": (json.dumps({k: v for k, v in MODEL.items() if k != "capacity"}),
                    "'capacity'"),
    "K_not_an_integer": (json.dumps({**MODEL, "K": 2.5}), "'K' must be an integer"),
    "K_a_bool": (json.dumps({**MODEL, "K": True}), "'K' must be an integer"),
    "K_zero": (json.dumps({**MODEL, "K": 0, "centroids": []}), "not K * dim = 0 * 2"),
    "centroids_not_numbers": (json.dumps({**MODEL, "centroids": ["a", 1, 2, 3]}),
                              "'centroids' must be a list of numbers"),
    "wrong_centroid_count": (json.dumps({**MODEL, "centroids": [0.0, 1.0, 2.0]}),
                             "'centroids' holds 3 numbers, not K * dim = 2 * 2"),
}


@pytest.mark.parametrize("name", list(BAD_MODELS))
def test_bad_cluster_model_is_a_data_error(tmp_path, name):
    content, named = BAD_MODELS[name]
    path = tmp_path / "model.json"
    path.write_text(content)
    with pytest.raises(DataError) as err:
        load_cluster_model(str(path))
    assert str(path) in str(err.value) and named in str(err.value)


def test_save_cluster_model_error_mid_dump_keeps_old_file(tmp_path, monkeypatch):
    X, _ = two_blobs(20, seed=13)
    model = fit_balanced_kmeans(X, K=2, seed=13)
    path = tmp_path / "model.json"
    path.write_text("old\n")

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"K": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError):
        save_cluster_model(model, str(path))
    assert path.read_text() == "old\n"
    assert not list(tmp_path.glob("*.tmp"))
