import random

import numpy as np
import pytest

from corpusfilter.classifier import TrainConfig, train_logistic
from corpusfilter.corpus_io import CorpusManifest, Document, write_json, write_shard
from corpusfilter.embedding import EmbeddingProviderConfig, get_provider

# two word pools with distinct character statistics so that hashed n-gram
# features separate them cleanly
HQ_WORDS = (
    "theory question answer explain evidence research method analysis "
    "result experiment measure observe compare conclude science detail"
).split()
LQ_WORDS = (
    "click buy free cheap deal winner prize casino offer bonus sale "
    "subscribe discount promo limited jackpot luck win now urgent"
).split()


def make_text(rng: random.Random, quality: float, n_words: int = 40) -> str:
    words = [
        rng.choice(HQ_WORDS) if rng.random() < quality else rng.choice(LQ_WORDS)
        for _ in range(n_words)
    ]
    return " ".join(words)


def make_docs(n, seed=0, lang="en", source="syn", prefix="d", quality=None):
    """Random documents; quality=None draws a per-doc quality level, which
    spreads classifier scores out continuously."""
    rng = random.Random(seed)
    docs = []
    for i in range(n):
        q = rng.random() if quality is None else quality
        docs.append(
            Document(
                id=f"{prefix}{i:06d}",
                text=make_text(rng, q),
                lang=lang,
                source=source,
            )
        )
    return docs


def make_corpus(tmp_path, n_shards, docs_per_shard, seed=0, name="syncorpus", quality=None):
    paths = []
    for s in range(n_shards):
        path = str(tmp_path / f"shard_{s:03d}.jsonl")
        docs = make_docs(
            docs_per_shard,
            seed=seed * 1000 + s,
            prefix=f"s{s:03d}_",
            quality=quality,
        )
        write_shard(path, docs)
        paths.append(path)
    return CorpusManifest(corpus_name=name, lang="en", shard_paths=paths)


def save_manifest(manifest: CorpusManifest, path: str) -> None:
    """Write `manifest` as the file that `corpus_io.load_manifest` reads."""
    write_json(path, {"corpus_name": manifest.corpus_name, "lang": manifest.lang,
                      "shards": manifest.shard_paths})


def hashed_config(dim=64, seed=0, **kw):
    return EmbeddingProviderConfig(
        kind="hashed_ngram", dim=dim, ngram_range=(2, 4), seed=seed, **kw
    )


def train_seed_classifier(dim=64, n_per_class=150, seed=0):
    """Classifier separating HQ_WORDS text from LQ_WORDS text."""
    rng = random.Random(seed)
    provider = get_provider(hashed_config(dim=dim))
    pos = [make_text(rng, 0.95) for _ in range(n_per_class)]
    neg = [make_text(rng, 0.05) for _ in range(n_per_class)]
    X = provider.embed_batch(pos + neg)
    y = np.repeat([1.0, 0.0], n_per_class)
    clf = train_logistic(X, y, TrainConfig(seed=seed, max_epochs=300))
    return clf, pos, neg


@pytest.fixture(scope="session")
def seed_classifier():
    return train_seed_classifier()


def gaussian_examples(n=200, separation=4.0, sigma=1.0, dim=2, seed=0):
    """Two Gaussian blobs on the first axis: (X, y) with labels 0/1."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X0 = rng.normal(0.0, sigma, size=(half, dim))
    X1 = rng.normal(0.0, sigma, size=(n - half, dim))
    X0[:, 0] -= separation / 2
    X1[:, 0] += separation / 2
    X = np.vstack([X0, X1])
    y = np.repeat([0.0, 1.0], [half, n - half])
    return X, y
