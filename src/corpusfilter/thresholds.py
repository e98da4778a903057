"""Corpus scoring, percentile threshold estimation, and filtering.

The selection rule is strict: a document survives only when its
classifier score is strictly greater than tau. Tau itself comes from a
percentile of sampled scores (nearest-rank, no interpolation), so
filtering at the p-th percentile retains on the order of (100-p)% of
the corpus. A score depends on its document alone, not on the documents
scored with it, so `recorded_sample_scores` can read a sample's scores
back from the file that `score_corpus` wrote.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import NoReturn

import numpy as np

from . import classifier as clf_mod
from .corpus_io import (
    CorpusManifest,
    FirstFile,
    RandomFiles,
    read_score_records,
    read_shard,
    sample_documents,
    sampled_shards,
    shard_writer,
    write_score_records,
)
from .embedding import EmbeddingProviderConfig, embed_texts, get_provider
from .errors import ConfigError, DataError, DimensionMismatchError, MissingScoreError

HISTOGRAM_BINS = 100
PERCENTILE_PRESETS = (30.0, 60.0, 90.0, 95.0)
FLAG_REL_DIFF = 0.1  # see compare_scores


@dataclass
class ThresholdEstimate:
    percentile: float
    tau: float
    sample_size: int
    strategy: str
    corpus_name: str


@dataclass
class FilterStats:
    docs_in: int
    docs_out: int
    docs_malformed: int
    retention: float
    score_histogram: list[int]
    tau: float


def percentile_thresholds(scores, percentiles) -> list[float]:
    """Nearest-rank percentiles from one sort: sorted ascending, the p-th
    is at 1-indexed rank ceil(p/100 * n)."""
    scores = np.sort(np.asarray(scores, dtype=np.float64))
    if scores.size == 0:
        raise DataError("no scores to take a percentile of")
    for percentile in percentiles:
        if not 0.0 < percentile < 100.0:
            raise ConfigError(f"percentile {percentile} outside (0, 100)")
    return [float(scores[math.ceil(p / 100.0 * scores.size) - 1]) for p in percentiles]


def estimate_percentile_threshold(scores, percentile: float) -> float:
    """The nearest-rank `percentile` of `scores`, as `percentile_thresholds`."""
    return percentile_thresholds(scores, [percentile])[0]


def _scored(docs, provider, clf):
    """(id, score) of each of `docs`, embedded and scored `batch_size` at a time."""
    docs = iter(docs)
    while batch := list(islice(docs, provider.config.batch_size)):
        scores = clf_mod.score_batch(clf, embed_texts(provider, [d.text for d in batch]))
        yield from zip([d.id for d in batch], scores.tolist())


def _score_shard(path: str, provider, clf) -> tuple[str, list[str], list[float]]:
    """(shard name, ids, scores) of the documents of the shard at `path`."""
    scored = list(_scored(read_shard(path), provider, clf))
    return os.path.basename(path), [i for i, _ in scored], [s for _, s in scored]


def _check_dim(provider_config: EmbeddingProviderConfig, clf: clf_mod.LinearClassifier) -> None:
    if provider_config.dim != clf.dim:
        raise DimensionMismatchError(
            f"provider dim {provider_config.dim} != classifier dim {clf.dim}"
        )


def score_corpus(
    manifest: CorpusManifest,
    provider_config: EmbeddingProviderConfig,
    clf: clf_mod.LinearClassifier,
    out_path: str,
    workers: int = 1,
) -> int:
    """Score every document in the corpus and write one record per line.

    Shards are scored on `workers` threads, at most `2 * workers` ahead of
    the writer, and each shard's records are written in manifest order as
    soon as it is scored, so the output is the same for any worker count and
    memory holds a batch of rows per worker and the ids and scores of that
    many shards. The file is written atomically: an error keeps the old one.
    """
    _check_dim(provider_config, clf)
    score = partial(_score_shard, provider=get_provider(provider_config), clf=clf)
    paths = iter(manifest.shard_paths)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only here: ~10 ms to import
        with ThreadPoolExecutor(max_workers=workers) as pool:
            ahead = deque(pool.submit(score, p) for p in islice(paths, 2 * workers))

            def in_order():
                while ahead:
                    yield ahead.popleft().result()
                    ahead.extend(pool.submit(score, p) for p in islice(paths, 1))

            return write_score_records(out_path, in_order())
    return write_score_records(out_path, map(score, paths))


def load_scores(path: str) -> np.ndarray:
    """The scores of a score file as float64, in file order. A doc_id seen twice
    is a DataError, since the filter could not tell the two documents apart.
    Memory holds 8 bytes of score and 8 of id hash per record; the hashes are
    sorted once, and only ids whose hashes repeat are read again and compared."""
    scores, hashes = array("d"), array("q")
    for doc_id, score, _ in read_score_records(path):
        scores.append(score)
        hashes.append(hash(doc_id))
    hashes = np.frombuffer(hashes, dtype=np.int64)
    hashes.sort()
    repeats = set(hashes[1:][hashes[1:] == hashes[:-1]].tolist())
    shards: dict[str, str] = {}  # the shard of each id whose hash repeats
    for doc_id, _, shard in read_score_records(path) if repeats else ():
        if hash(doc_id) in repeats:
            if doc_id in shards:
                raise DataError(f"{path}: document id {doc_id!r} is scored in shard "
                                f"{shards[doc_id]!r} and again in shard {shard!r}")
            shards[doc_id] = shard
    return np.frombuffer(scores)


def _unjoinable(scores_path: str, doc_id: str, shard_path: str) -> NoReturn:
    """The error for a document that the next score record does not match."""
    load_scores(scores_path)  # raises on an id scored twice
    if all(rec[0] != doc_id for rec in read_score_records(scores_path)):
        raise MissingScoreError(f"no score for document {doc_id!r} in {shard_path}")
    raise DataError(f"{scores_path}: score records are not in manifest order "
                    f"at document {doc_id!r} in {shard_path}")


def apply_filter(
    manifest: CorpusManifest, scores_path: str, tau: float, out_dir: str
) -> FilterStats:
    """Write filtered copies of every shard, keeping docs with score > tau.

    One ordered pass: the score records must come in manifest order, as
    score_corpus writes them, so each document takes the next record, and
    records left over after the last document are ignored. A kept
    document's line is copied byte for byte, and each shard is written
    atomically. Memory holds a block of shard lines and one of score lines,
    8 bytes of score per document of the current shard, and one 8-byte id
    hash per document of the corpus. The hashes are sorted once, after the
    last shard is written, so an id that repeats fails the run there.
    """
    records = read_score_records(scores_path)
    hashes = array("q")  # hash(doc_id) of every document, in manifest order
    hist = np.zeros(HISTOGRAM_BINS, dtype=np.int64)
    docs_out = 0
    docs_malformed = 0
    for path in manifest.shard_paths:
        shard_scores = array("d")
        stream = read_shard(path)
        add_score, add_hash = shard_scores.append, hashes.append
        with shard_writer(os.path.join(out_dir, os.path.basename(path))) as out:
            write = out.write
            for doc in stream:
                doc_id, score, _ = next(records, (None, None, None))
                if doc_id != doc.id:
                    _unjoinable(scores_path, doc.id, path)
                add_score(score)
                add_hash(hash(doc_id))
                if score > tau:
                    line = stream.line
                    write(line if line.endswith(b"\n") else line + b"\n")
                    docs_out += 1
        # int(s * 100) per score: astype truncates toward zero like int()
        bins = (np.asarray(shard_scores) * HISTOGRAM_BINS).astype(np.int64)
        hist += np.bincount(np.minimum(bins, HISTOGRAM_BINS - 1), minlength=HISTOGRAM_BINS)
        docs_malformed += stream.malformed
    hashes = np.sort(hashes)
    if np.any(hashes[1:] == hashes[:-1]):
        # every document took a record with its id, so a repeated id is
        # scored twice and this raises; else two ids only share a hash
        load_scores(scores_path)
    retention = docs_out / len(hashes) if len(hashes) else 0.0
    return FilterStats(
        docs_in=len(hashes),
        docs_out=docs_out,
        docs_malformed=docs_malformed,
        retention=retention,
        score_histogram=hist.tolist(),
        tau=tau,
    )


def sample_scores(
    manifest: CorpusManifest,
    provider_config: EmbeddingProviderConfig,
    clf: clf_mod.LinearClassifier,
    strategies: list[FirstFile | RandomFiles],
    max_docs: int = 100_000,
) -> dict[FirstFile | RandomFiles, np.ndarray]:
    """The classifier scores of each strategy's sample, keyed by strategy.
    Equal strategies draw the same sample, so each distinct one is embedded
    and scored once, in the order given, a batch of rows at a time; dims
    that differ fail before any text is embedded."""
    _check_dim(provider_config, clf)
    provider = get_provider(provider_config)
    return {
        strategy: np.fromiter((score for _, score in _scored(
            sample_documents(manifest, strategy, max_docs), provider, clf)), dtype=np.float64)
        for strategy in dict.fromkeys(strategies)
    }


def recorded_sample_scores(manifest: CorpusManifest, scores_path: str, strategies: list,
                           max_docs: int = 100_000) -> dict[FirstFile | RandomFiles, np.ndarray]:
    """What `sample_scores` gives, drawn by the same sampler from the records
    of the score file that `score_corpus` wrote for this manifest, classifier
    and embedding. Memory holds at most `max_docs` scores of a sampled shard."""
    strategies = list(dict.fromkeys(strategies))
    by_shard = {os.path.basename(path): array("d")
                for strategy in strategies for path in sampled_shards(manifest, strategy)}
    for _, score, shard in read_score_records(scores_path):
        if shard in by_shard and len(by_shard[shard]) < max_docs:
            by_shard[shard].append(score)
    return {strategy: np.array(sample_documents(
        manifest, strategy, max_docs, lambda path: by_shard[os.path.basename(path)]))
        for strategy in strategies}


def thresholds_from_scores(
    scores: np.ndarray,
    percentiles: list[float],
    strategy: FirstFile | RandomFiles,
    corpus_name: str,
) -> list[ThresholdEstimate]:
    """One estimate per percentile of the scores of `strategy`'s sample."""
    if isinstance(strategy, FirstFile):
        strat = "first_file"
    else:
        strat = f"random_files({strategy.n},{strategy.seed})"
    return [
        ThresholdEstimate(
            percentile=percentile,
            tau=tau,
            sample_size=int(scores.size),
            strategy=strat,
            corpus_name=corpus_name,
        )
        for percentile, tau in zip(percentiles, percentile_thresholds(scores, percentiles))
    ]


def estimate_threshold(
    manifest: CorpusManifest,
    provider_config: EmbeddingProviderConfig,
    clf: clf_mod.LinearClassifier,
    percentile: float,
    strategy: FirstFile | RandomFiles = FirstFile(),
    max_docs: int = 100_000,
) -> ThresholdEstimate:
    scores = sample_scores(manifest, provider_config, clf, [strategy], max_docs)[strategy]
    return thresholds_from_scores(scores, [percentile], strategy, manifest.corpus_name)[0]


def compare_scores(s_first: np.ndarray, s_random: np.ndarray, percentile: float) -> dict:
    """The first-file and random-files thresholds at `percentile`, from the
    scores of the two samples, and whether they differ by more than
    FLAG_REL_DIFF of the larger."""
    tau_first = estimate_percentile_threshold(s_first, percentile)
    tau_random = estimate_percentile_threshold(s_random, percentile)
    denom = max(tau_first, tau_random)
    rel_diff = abs(tau_first - tau_random) / denom if denom > 0 else 0.0
    return {
        "tau_first": tau_first,
        "tau_random": tau_random,
        "rel_diff": rel_diff,
        "flagged": rel_diff > FLAG_REL_DIFF,
    }


def compare_sampling_strategies(
    manifest: CorpusManifest,
    provider_config: EmbeddingProviderConfig,
    clf: clf_mod.LinearClassifier,
    percentile: float,
    n_random: int,
    seed: int,
    max_docs: int = 100_000,
) -> dict:
    """Check that the cheap first-file threshold agrees with a random-shard one.

    A large relative difference means the first shard is not representative
    of the corpus and first-file thresholding should not be trusted.
    """
    first, rand = FirstFile(), RandomFiles(n_random, seed)
    scores = sample_scores(manifest, provider_config, clf, [first, rand], max_docs)
    return compare_scores(scores[first], scores[rand], percentile)
