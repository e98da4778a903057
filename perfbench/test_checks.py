"""The benchmark's checks pass on the program's real outputs and fail on
planted faults: a perturbed score record, a document kept at score <= tau,
a cluster over capacity."""

import json
import os
import random

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailed


def test_reference_featurizer_reproduces_package_scores():
    from corpusfilter import classifier as clf_mod
    from corpusfilter.embedding import EmbeddingProviderConfig, embed_texts, get_provider

    rng = random.Random(3)
    texts = [workloads.make_text(rng, lang, rng.random(), n)
             for lang in workloads.LANGS for n in (30, 400, 2300)]
    emb = dict(workloads.EMBEDDING, dim=64)
    pcfg = EmbeddingProviderConfig(kind="hashed_ngram", dim=64, ngram_range=(2, 4),
                                   seed=emb["seed"], truncate_chars=emb["truncate_chars"])
    w = np.random.default_rng(0).normal(size=64)
    clf = clf_mod.LinearClassifier(w=w, b=0.1, dim=64)
    got = clf_mod.score_batch(clf, embed_texts(get_provider(pcfg), texts))
    rec = {"w": w.tolist(), "b": 0.1, "normalize_inputs": True}
    want = [checks.reference_score(t, emb, rec) for t in texts]
    assert np.max(np.abs(got - want)) <= checks.TOL


def test_score_records_catch_a_perturbed_record():
    expected = [("a", "s0", 0.25), ("b", "s0", 0.5), ("c", "s1", 0.75)]
    records = [{"doc_id": i, "shard": s, "score": v} for i, s, v in expected]
    checks.check_score_records(records, expected)
    records[1]["score"] += 1e-6
    with pytest.raises(CheckFailed, match="'b'"):
        checks.check_score_records(records, expected)
    with pytest.raises(CheckFailed):
        checks.check_score_records(records[:2], expected)


def test_nearest_rank():
    values = [0.5, 0.1, 0.9, 0.3, 0.7]
    assert checks.nearest_rank(values, 30) == 0.3  # rank ceil(1.5) = 2
    assert checks.nearest_rank(values, 95) == 0.9
    checks.check_tau(0.3, values, 30, "t")
    with pytest.raises(CheckFailed):
        checks.check_tau(0.5, values, 30, "t")


def test_filtered_shard_catches_a_document_kept_at_tau():
    lines = [f"line{i}\n" for i in range(5)]
    ids = list("abcde")
    scores = dict(zip(ids, (0.2, 0.6, 0.4, 0.9, 0.6)))
    tau = 0.6
    checks.check_filtered_shard("line3\n", lines, ids, scores, tau, "s")
    with pytest.raises(CheckFailed, match="kept 'b'"):
        checks.check_filtered_shard("line1\nline3\n", lines, ids, scores, tau, "s")
    with pytest.raises(CheckFailed, match="dropped 'd'"):
        checks.check_filtered_shard("", lines, ids, scores, tau, "s")
    scores["b"] = 0.7
    with pytest.raises(CheckFailed, match="order"):
        checks.check_filtered_shard("line3\nline1\n", lines, ids, scores, tau, "s")


def test_cluster_checks_catch_over_capacity_and_rising_wcss():
    K = 4
    labels = np.repeat(np.arange(K), 3)
    checks.check_cluster_fit(labels, K, [3.0, 2.0, 1.5])
    over = labels.copy()
    over[3] = 0  # cluster 0 now holds 4 > ceil(12/4)
    with pytest.raises(CheckFailed, match="capacity 3"):
        checks.check_cluster_fit(over, K, [3.0])
    with pytest.raises(CheckFailed, match="strictly fall"):
        checks.check_cluster_fit(labels, K, [3.0, 3.0])


def test_recount_gives_ties_to_the_lowest_id():
    C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    X = np.array([[1.0, 1.0], [0.9, 0.0], [0.0, 2.0]])
    # the first point is equidistant from all three, the second from 0 and 2
    assert checks.nearest_centroid_counts(X, C).tolist() == [2, 1, 0]
    checks.check_histogram([2, 1, 0], X, C, "d")
    with pytest.raises(CheckFailed):
        checks.check_histogram([1, 1, 1], X, C, "d")


class SmallRefilter(workloads.RefilterSweep):
    SHARDS = 2
    DOCS_PER_SHARD = 30
    LENGTHS = tuple(range(40, 70))


def test_refilter_pass_checks_and_catches_planted_faults(tmp_path):
    wl = SmallRefilter(str(tmp_path), seed=5)
    wl.generate()
    wl.clean()
    wl.run_pass()
    wl.check()

    # keep the p90 document whose score equals tau
    tau = wl.taus[90]
    at_tau = next(i for i, s in wl.scores.items() if s == tau)
    s = next(k for k, ids in enumerate(wl.corpus.ids) if at_tau in ids)
    path = os.path.join(wl.out, "p90", "filtered", wl.corpus.names[s])
    good = workloads.read_text(path)
    lines = wl.corpus.lines[s]
    ids = wl.corpus.ids[s]
    workloads.write_text(path, "".join(
        line for line, i in zip(lines, ids) if wl.scores[i] >= tau))
    with pytest.raises(CheckFailed, match=f"kept {at_tau!r}"):
        wl.check()
    workloads.write_text(path, good)

    table_path = os.path.join(wl.out, "report", "percentile_table.json")
    table = json.loads(workloads.read_text(table_path))
    table["table"]["corpus"]["60"] += 1e-6
    workloads.write_text(table_path, json.dumps(table))
    with pytest.raises(CheckFailed, match="p60"):
        wl.check()


def test_filter_pass_catches_a_perturbed_score_record(tmp_path):
    class Small(workloads.FilterMultilingual):
        LENGTHS = (60, 140)
        LONG = 300
        SEED_DOCS = 20

    wl = Small(str(tmp_path), seed=4)
    wl.generate()
    workloads.run_cli(*wl.setup_commands()[0])
    wl.prepare()
    wl.clean()
    wl.run_pass()
    wl.check()

    path = os.path.join(wl.out, "scores.jsonl")
    records = workloads.read_jsonl(path)
    records[7]["score"] += 1e-7
    workloads.write_text(path, "".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(CheckFailed, match=records[7]["doc_id"]):
        wl.check()


def test_self_time_counts_overlapping_children_once():
    from spans import Span, self_times

    def span(sid, parent, start, end, intervals=None):
        s = Span(sid, parent, f"s{sid}", "layer", start)
        s.end, s.busy, s.intervals = end, end - start, intervals
        if intervals:
            s.busy = sum(b - a for a, b in intervals)
        return s

    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),  # two workers' children overlap on [3, 4]
        span(3, 1, 3.0, 6.0),
        span(4, 1, 8.0, 9.5, intervals=[(8.0, 8.5), (9.0, 9.5)]),  # a generator
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[4] == pytest.approx(1.0)


def test_tracer_wraps_and_restores_the_program():
    import corpusfilter.cli
    from corpusfilter import embedding, kernels
    from spans import Tracer

    before = (corpusfilter.cli.main, embedding.hashed_ngram_counts,
              kernels.hashed_ngram_counts, embedding.HashedNgramProvider.embed_batch)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert corpusfilter.cli.main is not before[0]
        assert embedding.hashed_ngram_counts is not before[1]
        embedding.hashed_ngram_embed("some text", 16)
    finally:
        tracer.uninstall()
    after = (corpusfilter.cli.main, embedding.hashed_ngram_counts,
             kernels.hashed_ngram_counts, embedding.HashedNgramProvider.embed_batch)
    assert after == before
    spans = tracer.take()
    assert [s.name for s in spans] == ["hashed_ngram_embed", "hashed_ngram_counts"]
    assert spans[1].parent == spans[0].id and spans[1].count == len("some text")
