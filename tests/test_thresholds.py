import json
import math
import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

from corpusfilter import classifier as clf_mod
from corpusfilter.classifier import LinearClassifier, score_batch
from corpusfilter.corpus_io import (
    CorpusManifest,
    Document,
    FirstFile,
    RandomFiles,
    doc_to_line,
    read_score_records,
    read_shard,
    sample_documents,
    write_score_records,
    write_shard,
)
from corpusfilter.embedding import HashedNgramProvider, embed_texts, get_provider
from corpusfilter.errors import ConfigError, DataError, MissingScoreError
from corpusfilter.thresholds import (
    PERCENTILE_PRESETS,
    apply_filter,
    compare_sampling_strategies,
    estimate_percentile_threshold,
    estimate_threshold,
    load_scores,
    percentile_thresholds,
    sample_scores,
    score_corpus,
    thresholds_from_scores,
)

from conftest import hashed_config, make_corpus, make_docs


# ------------------------------------------------- percentile estimation


def test_nearest_rank_by_hand():
    scores = [i / 10 for i in range(1, 11)]  # 0.1 .. 1.0
    assert estimate_percentile_threshold(scores, 90) == pytest.approx(0.9)


def test_single_score():
    assert estimate_percentile_threshold([0.42], 37.5) == 0.42


def test_all_equal_scores_retain_nothing():
    scores = [0.3] * 50
    tau = estimate_percentile_threshold(scores, 90)
    assert tau == 0.3
    assert sum(s > tau for s in scores) == 0


def test_percentile_errors():
    with pytest.raises(DataError, match="no scores to take a percentile of"):
        estimate_percentile_threshold([], 50)
    for p in (0, 100, -5, 120):
        with pytest.raises(ConfigError, match=rf"percentile {p} outside \(0, 100\)"):
            estimate_percentile_threshold([0.5], p)
        with pytest.raises(ConfigError, match=rf"percentile {p} outside \(0, 100\)"):
            percentile_thresholds([0.5], [50, p])


def test_percentiles_from_one_sort_are_the_nearest_ranks():
    scores = np.random.default_rng(3).random(999).tolist()
    percentiles = [95, 30, 60, 90, 0.1, 99.9]
    ranked = sorted(scores)
    assert percentile_thresholds(scores, percentiles) == [
        ranked[math.ceil(p / 100 * len(ranked)) - 1] for p in percentiles]


def test_percentile_monotone():
    rng = np.random.default_rng(0)
    scores = rng.random(1000)
    taus = [estimate_percentile_threshold(scores, p) for p in (30, 60, 90, 95)]
    assert taus == sorted(taus)
    retentions = [np.mean(scores > t) for t in taus]
    assert retentions == sorted(retentions, reverse=True)


# ------------------------------------------------- scoring


def test_score_corpus_deterministic(tmp_path, seed_classifier):
    clf, _, _ = seed_classifier
    manifest = make_corpus(tmp_path, n_shards=2, docs_per_shard=5)
    cfg = hashed_config()
    out1 = str(tmp_path / "s1.jsonl")
    out2 = str(tmp_path / "s2.jsonl")
    assert score_corpus(manifest, cfg, clf, out1) == 10
    assert score_corpus(manifest, cfg, clf, out2) == 10
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_score_corpus_worker_count_invariant(tmp_path, seed_classifier):
    clf, _, _ = seed_classifier
    manifest = make_corpus(tmp_path, n_shards=4, docs_per_shard=8)
    cfg = hashed_config()
    out1 = str(tmp_path / "w1.jsonl")
    out4 = str(tmp_path / "w4.jsonl")
    score_corpus(manifest, cfg, clf, out1, workers=1)
    score_corpus(manifest, cfg, clf, out4, workers=4)
    assert open(out1, "rb").read() == open(out4, "rb").read()


def test_a_documents_score_does_not_depend_on_its_batch(tmp_path, seed_classifier):
    clf, _, _ = seed_classifier
    manifest = make_corpus(tmp_path, n_shards=3, docs_per_shard=80)
    cfg = hashed_config()
    provider = get_provider(cfg)
    score_corpus(manifest, cfg, clf, str(tmp_path / "scores.jsonl"))
    in_shard = {doc_id: s for doc_id, s, _ in read_score_records(str(tmp_path / "scores.jsonl"))}
    docs = list(read_shard(manifest.shard_paths[0]))
    X = embed_texts(provider, [d.text for d in docs])
    for i, doc in enumerate(docs):
        alone = score_batch(clf, embed_texts(provider, [doc.text]))[0]
        assert alone == in_shard[doc.id] == clf_mod.score(clf, X[i])
        # the document at each offset 0-8 of a batch of each size 1-69
        for n in range(1, 70):
            for off in range(min(n, 9, i + 1)):
                if i - off + n <= len(docs):
                    assert score_batch(clf, X[i - off : i - off + n])[off] == alone
    first, rand = FirstFile(), RandomFiles(2, 5)
    sampled = sample_scores(manifest, cfg, clf, [first, rand], max_docs=100)
    for strategy in (first, rand):
        ids = [d.id for d in sample_documents(manifest, strategy, max_docs=100)]
        assert sampled[strategy].tolist() == [in_shard[i] for i in ids]


def test_filter_matches_the_rescoring_oracle_over_40_corpora(tmp_path, seed_classifier):
    # criterion 03's oracle over 40 corpora and four percentiles: each
    # document's row (its embedding alone is its row in the shard, as the
    # test above checks) scored alone
    clf, _, _ = seed_classifier
    cfg = hashed_config()
    provider = get_provider(cfg)
    mismatches = 0
    for seed in range(40):
        root = tmp_path / str(seed)
        root.mkdir()
        manifest = make_corpus(root, n_shards=4, docs_per_shard=500, seed=seed)
        scores_path = str(root / "scores.jsonl")
        score_corpus(manifest, cfg, clf, scores_path)
        oracle = {}
        for path in manifest.shard_paths:
            docs = list(read_shard(path))
            rows = embed_texts(provider, [doc.text for doc in docs])
            oracle.update((doc.id, clf_mod.score(clf, x)) for doc, x in zip(docs, rows))
        taus = percentile_thresholds(load_scores(scores_path), PERCENTILE_PRESETS)
        for p, tau in zip(PERCENTILE_PRESETS, taus):
            out = root / f"p{p:g}"
            apply_filter(manifest, scores_path, tau, str(out))
            kept = {doc.id for path in manifest.shard_paths
                    for doc in read_shard(str(out / os.path.basename(path)))}
            mismatches += sum((doc_id in kept) != (s > tau) for doc_id, s in oracle.items())
    assert mismatches == 0


def test_score_workers_run_a_bounded_window_ahead_of_the_writer(tmp_path, monkeypatch):
    # the first shard waits until every other shard is scored, or half a
    # second: with a window of 2 * workers shards, only 3 others can be
    from corpusfilter import thresholds

    manifest = make_corpus(tmp_path, n_shards=12, docs_per_shard=3)
    first = manifest.shard_paths[0]
    clf = LinearClassifier(w=np.linspace(-1.0, 1.0, 8), b=0.0, dim=8)
    score_shard = thresholds._score_shard
    scored, others_done, ahead = [], threading.Event(), []

    def first_slow(path, provider, clf):
        if path == first:
            others_done.wait(timeout=0.5)
            ahead.append(len(scored))  # scored, and not written: the first is not yet
        records = score_shard(path, provider, clf)
        scored.append(path)
        if len(scored) == len(manifest.shard_paths) - 1 and first not in scored:
            others_done.set()
        return records

    monkeypatch.setattr(thresholds, "_score_shard", first_slow)
    out2, out1 = str(tmp_path / "w2.jsonl"), str(tmp_path / "w1.jsonl")
    score_corpus(manifest, hashed_config(dim=8), clf, out2, workers=2)
    assert ahead == [3]
    monkeypatch.setattr(thresholds, "_score_shard", score_shard)
    score_corpus(manifest, hashed_config(dim=8), clf, out1, workers=1)
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_score_corpus_constant_classifier(tmp_path):
    from corpusfilter.classifier import LinearClassifier

    clf = LinearClassifier(w=np.zeros(64), b=0.0, dim=64)
    manifest = make_corpus(tmp_path, n_shards=1, docs_per_shard=7)
    out = str(tmp_path / "s.jsonl")
    score_corpus(manifest, hashed_config(), clf, out)
    assert load_scores(out).tolist() == [0.5] * 7


def test_seed_positives_score_higher(tmp_path, seed_classifier):
    clf, pos, _ = seed_classifier
    provider = get_provider(hashed_config())
    pos_scores = score_batch(clf, provider.embed_batch(pos[:50]))
    other = [d.text for d in make_docs(50, seed=99, quality=0.1)]
    other_scores = score_batch(clf, provider.embed_batch(other))
    assert pos_scores.mean() > other_scores.mean()


# ------------------------------------------------- filtering


def write_scores(path, records):
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_apply_filter_exhaustive_small_case(tmp_path):
    docs = make_docs(10)
    shard = str(tmp_path / "x.jsonl")
    write_shard(shard, docs)
    manifest = CorpusManifest(corpus_name="c", lang="en", shard_paths=[shard])
    scores_path = str(tmp_path / "scores.jsonl")
    write_scores(
        scores_path,
        [
            {"doc_id": d.id, "score": (i + 1) / 10, "shard": "x.jsonl"}
            for i, d in enumerate(docs)
        ],
    )
    out_dir = str(tmp_path / "out")
    stats = apply_filter(manifest, scores_path, 0.9, out_dir)
    kept = list(read_shard(os.path.join(out_dir, "x.jsonl")))
    assert [d.id for d in kept] == [docs[9].id]
    assert stats.docs_in == 10 and stats.docs_out == 1
    assert stats.retention == pytest.approx(0.1)
    assert sum(stats.score_histogram) == 10

    # tau = 0 keeps everything, tau = 1 keeps nothing
    assert apply_filter(manifest, scores_path, 0.0, out_dir).docs_out == 10
    assert apply_filter(manifest, scores_path, 1.0, out_dir).docs_out == 0


def test_apply_filter_strict_inequality(tmp_path):
    docs = make_docs(4)
    shard = str(tmp_path / "x.jsonl")
    write_shard(shard, docs)
    manifest = CorpusManifest(corpus_name="c", lang="en", shard_paths=[shard])
    scores_path = str(tmp_path / "s.jsonl")
    write_scores(
        scores_path,
        [{"doc_id": d.id, "score": 0.5, "shard": "x"} for d in docs],
    )
    stats = apply_filter(manifest, scores_path, 0.5, str(tmp_path / "o"))
    assert stats.docs_out == 0  # ties at tau are dropped


def test_apply_filter_missing_score(tmp_path):
    docs = make_docs(3)
    shard = str(tmp_path / "x.jsonl")
    write_shard(shard, docs)
    manifest = CorpusManifest(corpus_name="c", lang="en", shard_paths=[shard])
    scores_path = str(tmp_path / "s.jsonl")
    write_scores(
        scores_path,
        [{"doc_id": d.id, "score": 0.9, "shard": "x"} for d in docs[:2]],
    )
    with pytest.raises(MissingScoreError, match=docs[2].id):
        apply_filter(manifest, scores_path, 0.1, str(tmp_path / "o"))


def test_apply_filter_preserves_order(tmp_path, seed_classifier):
    clf, _, _ = seed_classifier
    manifest = make_corpus(tmp_path, n_shards=2, docs_per_shard=50)
    scores_path = str(tmp_path / "s.jsonl")
    score_corpus(manifest, hashed_config(), clf, scores_path)
    scores = {doc_id: score for doc_id, score, _ in read_score_records(scores_path)}
    tau = estimate_percentile_threshold(load_scores(scores_path), 50)
    out_dir = str(tmp_path / "o")
    apply_filter(manifest, scores_path, tau, out_dir)
    for path in manifest.shard_paths:
        original = [d.id for d in read_shard(path)]
        kept = [d.id for d in read_shard(os.path.join(out_dir, os.path.basename(path)))]
        expected = [i for i in original if scores[i] > tau]
        assert kept == expected


def test_score_write_error_keeps_the_old_scores(tmp_path, seed_classifier, monkeypatch):
    clf, _, _ = seed_classifier
    manifest = make_corpus(tmp_path, n_shards=2, docs_per_shard=5)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    path = out_dir / "scores.jsonl"
    assert score_corpus(manifest, hashed_config(), clf, str(path)) == 10
    before = path.read_bytes()
    second = os.path.basename(manifest.shard_paths[1])
    encode = json.JSONEncoder.encode
    encoded = []

    def encode_then_fail(self, obj):
        if obj == second:
            raise OSError("disk full")
        encoded.append(obj)
        return encode(self, obj)

    monkeypatch.setattr(json.JSONEncoder, "encode", encode_then_fail)
    with pytest.raises(OSError):
        score_corpus(manifest, hashed_config(), clf, str(path))
    assert len(encoded) == 6  # the first shard's name and its 5 ids; the second's name failed
    assert path.read_bytes() == before
    assert os.listdir(out_dir) == ["scores.jsonl"]


# ------------------------------------------------- sampling strategies


def test_compare_strategies_single_shard_identical(tmp_path, seed_classifier):
    clf, _, _ = seed_classifier
    manifest = make_corpus(tmp_path, n_shards=1, docs_per_shard=40)
    result = compare_sampling_strategies(
        manifest, hashed_config(), clf, 90, n_random=1, seed=0
    )
    assert result["tau_first"] == result["tau_random"]
    assert result["rel_diff"] == 0.0 and not result["flagged"]


def test_compare_strategies_iid_agrees(tmp_path, seed_classifier):
    clf, _, _ = seed_classifier
    manifest = make_corpus(tmp_path, n_shards=6, docs_per_shard=400, seed=11)
    result = compare_sampling_strategies(
        manifest, hashed_config(), clf, 90, n_random=4, seed=5, max_docs=1600
    )
    assert result["rel_diff"] < 0.1
    assert not result["flagged"]


def test_compare_strategies_skewed_first_shard_flagged(tmp_path, seed_classifier):
    clf, _, _ = seed_classifier
    # shard 0 (lexicographically first) is systematically high quality
    paths = []
    p0 = str(tmp_path / "shard_000.jsonl")
    write_shard(p0, make_docs(200, seed=1, prefix="hq_", quality=0.95))
    paths.append(p0)
    for s in range(1, 21):
        p = str(tmp_path / f"shard_{s:03d}.jsonl")
        write_shard(p, make_docs(200, seed=s + 1, prefix=f"lq{s}_", quality=0.05))
        paths.append(p)
    manifest = CorpusManifest(corpus_name="skew", lang="en", shard_paths=paths)
    result = compare_sampling_strategies(
        manifest, hashed_config(), clf, 90, n_random=20, seed=0, max_docs=4000
    )
    assert result["rel_diff"] > 0.1
    assert result["flagged"]


def test_estimate_threshold_reports_strategy(tmp_path, seed_classifier):
    clf, _, _ = seed_classifier
    manifest = make_corpus(tmp_path, n_shards=3, docs_per_shard=30)
    est = estimate_threshold(manifest, hashed_config(), clf, 90)
    assert est.strategy == "first_file"
    assert est.sample_size == 30
    assert 0.0 <= est.tau <= 1.0
    assert est.corpus_name == "syncorpus"


def test_sampled_scores_embed_the_sample_once(tmp_path, seed_classifier, monkeypatch):
    clf, _, _ = seed_classifier
    manifest = make_corpus(tmp_path, n_shards=3, docs_per_shard=30)
    singles = [estimate_threshold(manifest, hashed_config(), clf, p) for p in (30, 60, 90)]
    calls = []
    embed = HashedNgramProvider.embed_batch
    monkeypatch.setattr(
        HashedNgramProvider, "embed_batch", lambda self, texts: calls.append(1) or embed(self, texts)
    )
    first = FirstFile()
    scores = sample_scores(manifest, hashed_config(), clf, [first])[first]
    batch = thresholds_from_scores(scores, [30, 60, 90], first, manifest.corpus_name)
    assert [vars(e) for e in batch] == [vars(e) for e in singles]
    assert len(calls) == 1


# ------------------------------------------------- retention calibration


def test_retention_calibration_ten_percent():
    failures = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        sample = rng.beta(2, 5, size=10_000)
        population = rng.beta(2, 5, size=100_000)
        tau = estimate_percentile_threshold(sample, 90)
        retention = float(np.mean(population > tau))
        if abs(retention - 0.10) > 0.01:
            failures += 1
    assert failures == 0


def test_histogram_counts_score_of_one_in_last_bin(tmp_path):
    docs = make_docs(2)
    shard = str(tmp_path / "x.jsonl")
    write_shard(shard, docs)
    manifest = CorpusManifest(corpus_name="c", lang="en", shard_paths=[shard])
    scores_path = str(tmp_path / "s.jsonl")
    write_scores(
        scores_path,
        [
            {"doc_id": docs[0].id, "score": 1.0, "shard": "x"},
            {"doc_id": docs[1].id, "score": 0.0, "shard": "x"},
        ],
    )
    stats = apply_filter(manifest, scores_path, 0.5, str(tmp_path / "o"))
    assert stats.score_histogram[-1] == 1
    assert stats.score_histogram[0] == 1


def test_duplicate_doc_id_across_shards_is_a_data_error(tmp_path):
    # id x scored 0.9 in shard a and 0.1 in shard b: no score can stand for both
    doc = make_docs(1)[0]
    doc.id = "x"
    paths = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
    for path in paths:
        write_shard(path, [doc])
    manifest = CorpusManifest(corpus_name="c", lang="en", shard_paths=paths)
    scores_path = str(tmp_path / "scores.jsonl")
    write_scores(
        scores_path,
        [
            {"doc_id": "x", "score": 0.9, "shard": "a.jsonl"},
            {"doc_id": "x", "score": 0.1, "shard": "b.jsonl"},
        ],
    )
    with pytest.raises(DataError, match="a.jsonl.*b.jsonl"):
        load_scores(scores_path)
    with pytest.raises(DataError):
        apply_filter(manifest, scores_path, 0.5, str(tmp_path / "out"))


def test_filter_counts_malformed_lines(tmp_path):
    shard = str(tmp_path / "x.jsonl")
    docs = make_docs(2)
    with open(shard, "w", encoding="utf-8") as fh:
        fh.write(doc_to_line(docs[0]) + "\n")
        fh.write("{not json at all\n")
        fh.write(doc_to_line(docs[1]) + "\n")
    manifest = CorpusManifest(corpus_name="c", lang="en", shard_paths=[shard])
    scores_path = str(tmp_path / "scores.jsonl")
    write_scores(scores_path, [{"doc_id": d.id, "score": 0.7, "shard": "x.jsonl"} for d in docs])
    stats = apply_filter(manifest, scores_path, 0.5, str(tmp_path / "out"))
    assert (stats.docs_in, stats.docs_out, stats.docs_malformed) == (2, 2, 1)


def test_score_file_skips_blank_lines_and_accepts_leading_whitespace(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_bytes(
        b"\n  \t\r\x0b\x0c\n"
        b'{"doc_id": "a", "score": 0.25, "shard": "x"}\n'
        b' \t\r{"doc_id": "b", "score": 1, "shard": "x"}\r\n'
        b"\n"
        b'{"doc_id": "c", "score": 0, "shard": "y"}'  # no newline at the end
    )
    records = list(read_score_records(str(path)))
    assert records == [("a", 0.25, "x"), ("b", 1.0, "x"), ("c", 0.0, "y")]
    assert [type(r[1]) for r in records] == [float] * 3
    assert load_scores(str(path)).tolist() == [0.25, 1.0, 0.0]


@pytest.mark.parametrize("garbage", [b" x", b"{}", b",", b"\x0c", b"\x00"])
def test_score_record_with_trailing_garbage_names_its_line(tmp_path, garbage):
    path = tmp_path / "s.jsonl"
    path.write_bytes(
        b'{"doc_id": "a", "score": 0.5, "shard": "x"}\n'
        b"\n"
        b'{"doc_id": "b", "score": 0.5, "shard": "x"}' + garbage + b"\n"
        b'{"doc_id": "c", "score": 0.5, "shard": "x"}\n'
    )
    records = read_score_records(str(path))
    assert next(records) == ("a", 0.5, "x")
    message = f"{path}:3: score record is not a JSON object"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        next(records)


# ------------------------------------------------- the ordered filter pass


def scores_for(manifest, score=0.7):
    """One record per document, in manifest order, as score_corpus writes them."""
    return [
        {"doc_id": d.id, "score": score, "shard": os.path.basename(path)}
        for path in manifest.shard_paths
        for d in read_shard(path)
    ]


def test_filter_copies_kept_lines_verbatim(tmp_path):
    docs = make_docs(4)
    lines = [
        doc_to_line(docs[0]).encode() + b"\n",
        # keys in another order, spaces after the separators
        b'{"text": "%s", "source": "syn",  "lang": "en", "id": "%s"}\n'
        % (docs[1].text.encode(), docs[1].id.encode()),
        doc_to_line(docs[2]).encode() + b"\r\n",
        doc_to_line(docs[3]).encode(),  # the last line has no newline
    ]
    shard = tmp_path / "x.jsonl"
    shard.write_bytes(b"".join(lines))
    manifest = CorpusManifest(corpus_name="c", lang="en", shard_paths=[str(shard)])
    scores_path = str(tmp_path / "s.jsonl")
    write_scores(scores_path, scores_for(manifest))
    stats = apply_filter(manifest, scores_path, 0.5, str(tmp_path / "o"))
    assert stats.docs_out == 4
    assert (tmp_path / "o" / "x.jsonl").read_bytes() == b"".join(lines) + b"\n"


def test_filter_rejects_scores_out_of_manifest_order(tmp_path):
    manifest = make_corpus(tmp_path, n_shards=2, docs_per_shard=5)
    records = scores_for(manifest)
    records[6], records[7] = records[7], records[6]
    scores_path = str(tmp_path / "s.jsonl")
    write_scores(scores_path, records)
    with pytest.raises(DataError, match=f"manifest order at document '{records[7]['doc_id']}'"):
        apply_filter(manifest, scores_path, 0.5, str(tmp_path / "o"))


def test_filter_writes_a_gz_shard_as_gz(tmp_path):
    docs = make_docs(6)
    shard = str(tmp_path / "x.jsonl.gz")
    write_shard(shard, docs)
    manifest = CorpusManifest(corpus_name="c", lang="en", shard_paths=[shard])
    records = scores_for(manifest)
    for i, rec in enumerate(records):
        rec["score"] = 0.9 if i % 2 else 0.1
    scores_path = str(tmp_path / "s.jsonl")
    write_scores(scores_path, records)
    out = str(tmp_path / "o" / "x.jsonl.gz")
    assert apply_filter(manifest, scores_path, 0.5, str(tmp_path / "o")).docs_out == 3
    with open(out, "rb") as fh:
        assert fh.read(2) == b"\x1f\x8b"
    assert list(read_shard(out)) == docs[1::2]


def test_filter_writes_the_same_gz_bytes_at_any_time(tmp_path, monkeypatch):
    shard = str(tmp_path / "x.jsonl.gz")
    write_shard(shard, make_docs(6))
    manifest = CorpusManifest(corpus_name="c", lang="en", shard_paths=[shard])
    scores_path = str(tmp_path / "s.jsonl")
    write_scores(scores_path, scores_for(manifest))
    shards = []
    for now in (1e9, 2e9):  # the gzip header held the write time
        monkeypatch.setattr(time, "time", lambda: now)
        apply_filter(manifest, scores_path, 0.5, str(tmp_path / f"{now:g}"))
        shards.append((tmp_path / f"{now:g}" / "x.jsonl.gz").read_bytes())
    assert shards[0] == shards[1]


def test_filter_error_leaves_no_partial_shard(tmp_path):
    manifest = make_corpus(tmp_path, n_shards=2, docs_per_shard=5)
    scores_path = str(tmp_path / "s.jsonl")
    out_dir = tmp_path / "o"
    write_scores(scores_path, scores_for(manifest))
    apply_filter(manifest, scores_path, 0.5, str(out_dir))
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    # the second shard's third document loses its score
    write_scores(scores_path, [r for i, r in enumerate(scores_for(manifest)) if i != 7])
    with pytest.raises(MissingScoreError, match="s001_000002"):
        apply_filter(manifest, scores_path, 0.1, str(out_dir))
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()}.keys() == before.keys()
    second = os.path.basename(manifest.shard_paths[1])
    assert (out_dir / second).read_bytes() == before[second]


def filter_peak_bytes(tmp_path, text_chars, n_docs=10_000, n_shards=4):
    root = tmp_path / f"chars{text_chars}"
    root.mkdir()
    paths, records = [], []
    per_shard = n_docs // n_shards
    for s in range(n_shards):
        path = root / f"shard_{s}.jsonl"
        docs = [
            Document(id=f"s{s}_{i:06d}", text=("word " * text_chars)[:text_chars],
                     lang="en", source="syn")
            for i in range(per_shard)
        ]
        path.write_text("".join(doc_to_line(d) + "\n" for d in docs), encoding="utf-8")
        paths.append(str(path))
        records += [{"doc_id": d.id, "score": (i % 100 + 0.5) / 100, "shard": path.name}
                    for i, d in enumerate(docs)]
    manifest = CorpusManifest(corpus_name="c", lang="en", shard_paths=paths)
    scores_path = str(root / "s.jsonl")
    write_scores(scores_path, records)
    del records
    tracemalloc.start()
    try:
        stats = apply_filter(manifest, scores_path, 0.5, str(root / "o"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.docs_out == n_docs // 2
    return peak


def test_filter_memory_does_not_grow_with_text_length(tmp_path):
    # the filter holds one shard line at a time, never a shard's documents
    short = filter_peak_bytes(tmp_path, 500)
    long = filter_peak_bytes(tmp_path, 5000)
    assert long <= 1.2 * short, (short, long)


def test_score_memory_does_not_grow_with_shard_count(tmp_path):
    # score writes each shard's records as that shard is scored, so one
    # worker holds one shard, never the corpus
    paths = []
    for s in range(8):
        path = tmp_path / f"shard_{s}.jsonl"
        path.write_text("".join(
            doc_to_line(Document(id=f"s{s}_{i}", text=f"doc {i} of shard {s}", lang="en",
                                 source="syn")) + "\n"
            for i in range(1500)
        ), encoding="utf-8")
        paths.append(str(path))
    clf = LinearClassifier(w=np.linspace(-1.0, 1.0, 8), b=0.0, dim=8)
    peaks = []
    for shards in (paths[:1], paths):
        manifest = CorpusManifest(corpus_name="c", lang="en", shard_paths=shards)
        tracemalloc.start()
        try:
            count = score_corpus(manifest, hashed_config(dim=8), clf, str(tmp_path / "s.jsonl"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert count == 1500 * len(shards)
    assert peaks[1] < 1.5 * peaks[0], peaks


def traced_peak(run) -> int:
    """The tracemalloc peak, in bytes, of calling `run`."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_scores_holds_two_numbers_a_record(tmp_path):
    # report takes percentiles of every score of a corpus: it holds an array
    # of scores and one of id hashes, not an object per record
    n = 80_000
    path = str(tmp_path / "s.jsonl")
    want = [(i % 997) / 997 for i in range(n)]
    write_score_records(path, [("a.jsonl", [f"doc-{i:06d}" for i in range(n)], want)])
    loaded = []
    peak = traced_peak(lambda: loaded.append(load_scores(path)))
    assert loaded[0].dtype == np.float64 and loaded[0].tolist() == want
    assert peak <= 24 * n + 256 * 1024, peak / n


@pytest.fixture(scope="module")
def corpora_by_shard_size(tmp_path_factory):
    """Two 4-shard corpora, of 1000 and of 4000 documents a shard."""
    return [make_corpus(tmp_path_factory.mktemp(f"docs{n}"), n_shards=4, docs_per_shard=n)
            for n in (1000, 4000)]


def test_score_memory_does_not_grow_with_shard_size(tmp_path, corpora_by_shard_size):
    # a worker holds one batch of rows, and the ids and scores of its shard
    clf = LinearClassifier(w=np.linspace(-1.0, 1.0, 384), b=0.0, dim=384)
    out = str(tmp_path / "s.jsonl")
    peaks = [traced_peak(lambda: score_corpus(manifest, hashed_config(dim=384), clf, out))
             for manifest in corpora_by_shard_size]
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_sampled_scores_hold_one_batch_of_rows(corpora_by_shard_size):
    # the sample's documents grow with it, but not its rows
    clf = LinearClassifier(w=np.linspace(-1.0, 1.0, 384), b=0.0, dim=384)
    strategy = RandomFiles(3, 0)
    peaks = [traced_peak(lambda: sample_scores(manifest, hashed_config(dim=384), clf, [strategy]))
             for manifest in corpora_by_shard_size]
    assert peaks[1] <= 2 * peaks[0], peaks


def test_a_shard_of_only_bad_lines_adds_no_score_records(tmp_path, seed_classifier):
    clf, _, _ = seed_classifier
    manifest = make_corpus(tmp_path, n_shards=3, docs_per_shard=5)
    bad = tmp_path / "shard_000_bad.jsonl"  # sorts between the first two shards
    bad.write_bytes(b'{not json at all\n\n  \n{"id": 5}\n')
    with_bad = CorpusManifest(corpus_name="c", lang="en",
                              shard_paths=manifest.shard_paths + [str(bad)])
    assert with_bad.shard_paths[1] == str(bad)
    outs = [str(tmp_path / "with_bad.jsonl"), str(tmp_path / "without.jsonl")]
    assert score_corpus(with_bad, hashed_config(), clf, outs[0]) == 15
    assert score_corpus(manifest, hashed_config(), clf, outs[1]) == 15
    assert open(outs[0], "rb").read() == open(outs[1], "rb").read()
