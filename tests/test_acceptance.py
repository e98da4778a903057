"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Failures surface as normal pytest failures.
"""

import json
import os
import random
import time

import numpy as np
import pytest

from corpusfilter import classifier as clf_mod
from corpusfilter.classifier import (
    LinearClassifier,
    TrainConfig,
    binarize_fwe_annotations,
    evaluate,
    loss_and_gradient,
    train_logistic,
)
from corpusfilter.clustering import (
    fit_balanced_kmeans,
    histogram_distance,
    histogram_over_clusters,
)
from corpusfilter.corpus_io import CorpusManifest, read_shard, write_shard
from corpusfilter.embedding import embed_batch
from corpusfilter.errors import DimensionMismatchError, MissingScoreError
from corpusfilter.planner import plan_mix, tokens_for_steps
from corpusfilter.thresholds import (
    apply_filter,
    compare_sampling_strategies,
    estimate_percentile_threshold,
    load_scores,
    score_corpus,
)

from conftest import hashed_config, make_corpus, make_docs
from test_classifier import finite_difference_grad, random_xy
from test_cli import build_workspace, run
from test_embedding import MockEmbedHandler, mock_server, remote_config  # noqa: F401
from test_planner import bilingual_plan


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 10))
        n = int(rng.integers(2, 40))
        lam = float(rng.uniform(0, 0.5))
        X, y = random_xy(rng, n, dim)
        w = rng.normal(size=dim)
        b = float(rng.normal())
        clf = LinearClassifier(w=w, b=b, dim=dim, normalize_inputs=False)
        _, gw, gb = loss_and_gradient(clf, X, y, lam)
        fw, fb = finite_difference_grad(w, b, X, y, lam)
        scale = max(np.max(np.abs(fw)), abs(fb), 1e-8)
        worst = max(worst, np.max(np.abs(gw - fw)) / scale, abs(gb - fb) / scale)
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 10.0
    report(1, f"analytic gradient vs finite differences, max rel err {worst:.2e} "
              f"over 50 instances in {elapsed:.2f}s")


def test_criterion_02_separable_seed_training():
    from conftest import gaussian_examples

    start = time.perf_counter()
    X, y = gaussian_examples(n=200, separation=4.0, seed=0)
    clf = train_logistic(X, y, TrainConfig(seed=0, l2_lambda=1e-3))
    acc = evaluate(clf, X, y)["accuracy"]
    assert acc >= 0.95
    losses = [
        train_logistic(X, y, TrainConfig(seed=s, l2_lambda=1e-3)).train_loss
        for s in range(5)
    ]
    spread = max(losses) - min(losses)
    elapsed = time.perf_counter() - start
    assert spread < 1e-3
    assert elapsed < 5.0
    report(2, f"train accuracy {acc:.3f}, 5-seed loss spread {spread:.2e} "
              f"in {elapsed:.2f}s")


def test_criterion_03_selection_rule_exactness(tmp_path):
    start = time.perf_counter()
    from conftest import train_seed_classifier

    clf, _, _ = train_seed_classifier()
    manifest = make_corpus(tmp_path, n_shards=4, docs_per_shard=2500, seed=31)
    cfg = hashed_config()
    scores_path = str(tmp_path / "scores.jsonl")
    n = score_corpus(manifest, cfg, clf, scores_path)
    assert n == 10_000
    tau = estimate_percentile_threshold(load_scores(scores_path), 90)
    out_dir = str(tmp_path / "filtered")
    apply_filter(manifest, scores_path, tau, out_dir)

    kept = set()
    for path in manifest.shard_paths:
        kept |= {d.id for d in read_shard(os.path.join(out_dir, os.path.basename(path)))}
    mismatches = 0
    for path in manifest.shard_paths:
        for doc in read_shard(path):
            s = clf_mod.score(clf, embed_batch(cfg, [doc.text])[0])
            if (doc.id in kept) != (s > tau):
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 30.0

    # a document without a score fails the filter instead of vanishing from it
    with open(scores_path, "rb") as fh:
        lines = fh.readlines()
    dropped = json.loads(lines.pop(5000))["doc_id"]
    with open(scores_path, "wb") as fh:
        fh.writelines(lines)
    with pytest.raises(MissingScoreError, match=dropped):
        apply_filter(manifest, scores_path, tau, str(tmp_path / "unjoinable"))
    report(3, f"10k-doc corpus, filter output matches brute-force re-scoring "
              f"oracle exactly in {elapsed:.1f}s; a document without a score fails it")


def test_criterion_04_retention_calibration():
    failures = 0
    retentions = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        sample = rng.beta(2, 5, size=10_000)
        population = rng.beta(2, 5, size=100_000)
        tau = estimate_percentile_threshold(sample, 90)
        r = float(np.mean(population > tau))
        retentions.append(r)
        if abs(r - 0.10) > 0.01:
            failures += 1
    assert failures == 0
    report(4, f"p90 retention on disjoint 100k sample within 0.10 +- 0.01 "
              f"for all 10 seeds (range {min(retentions):.3f}-{max(retentions):.3f})")


def test_criterion_05_percentile_monotonicity():
    for corpus_seed in range(3):
        rng = np.random.default_rng(corpus_seed)
        scores = rng.beta(2 + corpus_seed, 5, size=5000)
        taus = [estimate_percentile_threshold(scores, p) for p in (30, 60, 90, 95)]
        assert all(b >= a for a, b in zip(taus, taus[1:]))
        rets = [float(np.mean(scores > t)) for t in taus]
        assert all(b <= a for a, b in zip(rets, rets[1:]))
    report(5, "tau non-decreasing and retention non-increasing over "
              "p in {30, 60, 90, 95} on every test corpus")


def test_criterion_06_sampling_strategy_agreement(tmp_path):
    from conftest import train_seed_classifier

    clf, _, _ = train_seed_classifier()
    cfg = hashed_config()
    agree = 0
    for seed in range(20):
        corpus_dir = tmp_path / f"c{seed}"
        corpus_dir.mkdir()
        manifest = make_corpus(corpus_dir, n_shards=10, docs_per_shard=300, seed=seed)
        result = compare_sampling_strategies(
            manifest, cfg, clf, 90, n_random=8, seed=seed, max_docs=2400
        )
        if result["rel_diff"] < 0.1:
            agree += 1
    assert agree >= 18

    # adversarial: lexicographically-first shard is systematically higher-scoring
    adv_dir = tmp_path / "adv"
    adv_dir.mkdir()
    paths = [str(adv_dir / "shard_000.jsonl")]
    write_shard(paths[0], make_docs(200, seed=1, prefix="hq_", quality=0.95))
    for s in range(1, 21):
        p = str(adv_dir / f"shard_{s:03d}.jsonl")
        write_shard(p, make_docs(200, seed=s + 1, prefix=f"lq{s}_", quality=0.05))
        paths.append(p)
    manifest = CorpusManifest(corpus_name="skew", lang="en", shard_paths=paths)
    result = compare_sampling_strategies(
        manifest, cfg, clf, 90, n_random=20, seed=0, max_docs=4000
    )
    assert result["flagged"] and result["rel_diff"] > 0.1
    report(6, f"first-file vs random-files tau agree within 10% in {agree}/20 "
              f"i.i.d. seeds; skewed fixture flagged at rel_diff "
              f"{result['rel_diff']:.2f}")


def test_criterion_07_balanced_kmeans():
    import math

    # capacity cap over random inputs
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n, K = 157, 9
        X = rng.normal(size=(n, 4))
        model = fit_balanced_kmeans(X, K=K, seed=seed)
        assert np.bincount(model.labels_, minlength=K).max() <= math.ceil(n / K)
        hist = model.wcss_history_
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    # N = K = 64 yields singletons
    rng = np.random.default_rng(77)
    model = fit_balanced_kmeans(rng.normal(size=(64, 3)) * 5, K=64, seed=0)
    assert np.all(np.bincount(model.labels_, minlength=64) == 1)

    # two-blob recovery over 20 seeds
    purities = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(200, 4))
        X[:100, 0] -= 4.0
        X[100:, 0] += 4.0
        truth = np.array([0] * 100 + [1] * 100)
        m = fit_balanced_kmeans(X, K=2, seed=seed)
        agree = np.mean(m.labels_ == truth)
        purities.append(max(agree, 1 - agree))
    assert min(purities) >= 0.95
    report(7, f"capacity cap, singleton case, WCSS monotone, 2-blob purity "
              f">= {min(purities):.3f} over 20 seeds")


def test_criterion_08_cluster_histogram_diagnostic():
    start = time.perf_counter()
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(6, 8)) * 3

        def draw(shift, n=5000):
            comps = rng.integers(0, 6, size=n)
            return centers[comps] + rng.normal(size=(n, 8)) + shift

        model = fit_balanced_kmeans(draw(0.0), K=64, seed=seed, max_iters=20)
        h_a = histogram_over_clusters(model, draw(0.0), "a")
        h_b = histogram_over_clusters(model, draw(0.0), "b")
        h_s = histogram_over_clusters(model, draw(2.0), "shifted")
        if histogram_distance(h_a, h_b) < histogram_distance(h_a, h_s):
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins >= 18
    assert elapsed < 60.0
    report(8, f"same-distribution TV < shifted-distribution TV in {wins}/20 "
              f"seeds (K=64, n=5k) in {elapsed:.1f}s")


def test_criterion_09_planner_anchors():
    assert tokens_for_steps(200_000, 1024, 1024) == 209_715_200_000
    rows = plan_mix(
        bilingual_plan(),
        [
            {"dataset": "en_data", "lang": "en", "available_tokens": 125e9},
            {"dataset": "fw2_fr_p90", "lang": "fr", "available_tokens": 34e9},
        ],
    )
    fr = next(r for r in rows if r.lang == "fr")
    assert fr.epochs == pytest.approx(3.08, abs=0.01)
    assert not fr.warn
    report(9, f"200K x 1024 x 1024 = 209,715,200,000 tokens exactly; FR share "
              f"vs 34B budget = {fr.epochs:.2f} epochs, under the 10-epoch limit")


def test_criterion_10_annotation_binarization():
    records = [{"text": f"t{s}", "score": s} for s in range(6)]
    labels = [y for _, y in binarize_fwe_annotations(records)]
    assert labels == [0, 0, 1, 1, 1, 1]
    report(10, "annotation scores {0..5} -> labels {0,0,1,1,1,1}")


def test_criterion_11_determinism_and_roundtrip(tmp_path):
    # byte-identical artifacts for identical config + seed
    cfg, cfg_path, _ = build_workspace(tmp_path)
    for cmd in ("train-filter", "score", "threshold"):
        assert run(cmd, cfg_path) == 0
    names = ("classifier.json", "scores.jsonl", "threshold_report.json")
    first = {
        n: open(os.path.join(cfg["output_dir"], n), "rb").read() for n in names
    }
    for cmd in ("train-filter", "score", "threshold"):
        assert run(cmd, cfg_path) == 0
    for n in names:
        assert open(os.path.join(cfg["output_dir"], n), "rb").read() == first[n]

    # lossless shard round-trip for 10k random documents
    docs = make_docs(10_000, seed=4242)
    rng = random.Random(5)
    for d in rng.sample(docs, 200):
        d.text += "\nsecond line\twith tabs and unicode: déjà 中文"
        d.meta = {"extra": "v"}
    path = str(tmp_path / "big.jsonl")
    assert write_shard(path, docs) == 10_000
    assert list(read_shard(path)) == docs
    report(11, "reruns byte-identical for classifier/scores/report; "
               "10k-doc shard round-trip lossless")


def test_criterion_12_remote_provider_contract(tmp_path, mock_server):  # noqa: F811
    from corpusfilter.thresholds import score_corpus as score_remote

    # 3-batch scoring job against the bit-exact mock protocol
    manifest = make_corpus(tmp_path, n_shards=1, docs_per_shard=6, seed=3)
    pcfg = remote_config(mock_server, batch_size=2)
    clf = LinearClassifier(w=np.zeros(384), b=0.0, dim=384)
    out = str(tmp_path / "remote_scores.jsonl")
    assert score_remote(manifest, pcfg, clf, out) == 6
    assert MockEmbedHandler.calls == [2, 2, 2]

    # wrong dimension is rejected
    MockEmbedHandler.dim = 100
    MockEmbedHandler.calls = []
    with pytest.raises(DimensionMismatchError):
        score_remote(manifest, pcfg, clf, out)

    # two transient failures then success completes via retry
    MockEmbedHandler.dim = 384
    MockEmbedHandler.fail_first = 2
    MockEmbedHandler.calls = []
    assert score_remote(manifest, pcfg, clf, out) == 6
    report(12, "mock /embed: 3-batch job completes, wrong dim rejected, "
               "retry-after-two-failures succeeds")
