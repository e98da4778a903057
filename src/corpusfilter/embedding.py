"""Document-to-vector providers.

Two interchangeable providers produce fixed-dimension vectors: an HTTP
client for a remote multilingual sentence encoder, and a deterministic
local featurizer that hashes character n-grams with signs. The hashed
featurizer doubles as the feature extractor for the fasttext-style
baseline classifier.

Only the remote provider needs the HTTP stack, so `requests` is imported
where that provider is built and used, not with this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, DimensionMismatchError, RemoteProviderError
from .kernels import hashed_ngram_counts, hashed_ngram_matrix

MAX_RETRIES = 3  # attempts per remote batch
RETRY_WAIT = 0.5  # seconds before the second attempt, doubled before each later one


@dataclass
class EmbeddingProviderConfig:
    kind: str = "hashed_ngram"  # or "remote"
    dim: int = 384
    endpoint: str | None = None
    ngram_range: tuple[int, int] = (2, 4)
    seed: int = 0
    batch_size: int = 256
    truncate_chars: int = 2048
    headers: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("remote", "hashed_ngram"):
            raise ConfigError(f"config key embedding.kind: unknown provider kind {self.kind!r}")
        if self.dim <= 0:
            raise ConfigError("dim must be positive")
        if self.kind == "hashed_ngram":
            _check_hashed_dim(self.dim)
        if self.kind == "remote" and not self.endpoint:
            raise ConfigError("remote provider requires an endpoint")
        lo, hi = self.ngram_range
        if not (1 <= lo <= hi):
            raise ConfigError(f"config key embedding.ngram_range {[lo, hi]} is not 1 <= lo <= hi")
        if self.batch_size <= 0 or self.truncate_chars <= 0:
            raise ConfigError("batch_size and truncate_chars must be positive")


def _check_hashed_dim(dim: int) -> None:
    if dim < 8:
        raise ConfigError(
            f"config key embedding.dim: hashed embedding dim must be at least 8, not {dim}")


def _unit_rows(counts: np.ndarray, texts: Sequence[str], n_lo: int) -> np.ndarray:
    """L2-normalise each row of signed counts; row i was hashed from texts[i]
    (lowercased), whose shortest grams have n_lo characters."""
    # the counts are small integers, so each squared norm is an exact sum
    norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        text = texts[zero[0]]
        if len(text) < n_lo:
            raise DataError(
                f"text {text[:40]!r} has fewer than {n_lo} characters, the shortest n-gram")
        # all signed counts cancelled; vanishingly rare for real text
        raise DataError(f"signed hash counts cancelled for text {text[:40]!r}")
    return counts / norms[:, None]


def hashed_ngram_embed(
    text: str, dim: int, ngram_range: tuple[int, int] = (2, 4), seed: int = 0
) -> np.ndarray:
    """Signed feature hashing over character n-grams of the lowercased text.

    Pure function of (text, dim, ngram_range, seed); stable across
    platforms. Output is L2-normalized.
    """
    _check_hashed_dim(dim)
    if not text:
        raise DataError("cannot embed empty text")
    text = text.lower()
    counts = hashed_ngram_counts(text, dim, ngram_range[0], ngram_range[1], seed)
    return _unit_rows(counts[None, :], [text], ngram_range[0])[0]


class HashedNgramProvider:
    def __init__(self, config: EmbeddingProviderConfig):
        self.config = config

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Unit rows of a batch cut by `embed_texts`, lowercased, in one kernel call."""
        cfg = self.config
        lo, hi = cfg.ngram_range
        texts = [t.lower() for t in texts]
        return _unit_rows(hashed_ngram_matrix(texts, cfg.dim, lo, hi, cfg.seed), texts, lo)


class RemoteProvider:
    """HTTP client for a sentence embedding service.

    POST {endpoint}/embed with {"texts": [...]}; expects {"vectors": [...],
    "dim": d} aligned with the request. Retries transient failures with
    exponential backoff; a batch is never partially accepted.
    """

    def __init__(self, config: EmbeddingProviderConfig):
        import requests

        self.config = config
        self.session = requests.Session()

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Rows of a batch cut by `embed_texts`, sent as it is in one request."""
        import requests

        cfg = self.config
        url = cfg.endpoint.rstrip("/") + "/embed"
        last_err: Exception | None = None
        for attempt in range(MAX_RETRIES):
            if attempt:
                time.sleep(RETRY_WAIT * 2 ** (attempt - 1))
            try:
                resp = self.session.post(
                    url, json={"texts": texts}, headers=cfg.headers, timeout=60
                )
            except requests.RequestException as exc:
                last_err = exc
                continue
            if resp.status_code != 200:
                last_err = RemoteProviderError(f"{url} returned {resp.status_code}")
                continue
            try:
                body = resp.json()
                vectors = np.asarray(body["vectors"], dtype=np.float64)
            except (ValueError, TypeError, KeyError) as exc:
                raise RemoteProviderError(
                    f"{url} returned a body without a numeric 'vectors' array: {exc!r}"
                ) from exc
            if body.get("dim") != cfg.dim or vectors.shape != (len(texts), cfg.dim):
                raise DimensionMismatchError(
                    f"service returned dim {body.get('dim')} / shape {vectors.shape}, "
                    f"expected dim {cfg.dim}"
                )
            if not np.all(np.isfinite(vectors)):
                raise RemoteProviderError("service returned non-finite vectors")
            return vectors
        raise RemoteProviderError(
            f"embedding service failed after {MAX_RETRIES} attempts: {last_err}"
        )


def get_provider(config: EmbeddingProviderConfig):
    if config.kind == "remote":
        return RemoteProvider(config)
    return HashedNgramProvider(config)


def embed_batch(config: EmbeddingProviderConfig, texts: Sequence[str]) -> np.ndarray:
    return embed_texts(get_provider(config), texts)


def embed_texts(provider, texts: Sequence[str]) -> np.ndarray:
    """The rows of `texts`, in one preallocated array filled `batch_size` at a
    time; the one path from texts to rows. Each text is cut to `truncate_chars`
    once, before lowercasing (which can change the length); an empty list, or a
    text empty after the cut (named by its index), is a DataError."""
    cfg = provider.config
    if not texts:
        raise DataError("no texts to embed")
    X = np.empty((len(texts), cfg.dim))
    for start in range(0, len(texts), cfg.batch_size):
        batch = [text[: cfg.truncate_chars] for text in texts[start : start + cfg.batch_size]]
        if not all(batch):
            raise DataError(f"text {start + batch.index('')} empty after truncation")
        X[start : start + len(batch)] = provider.embed_batch(batch)
    return X
