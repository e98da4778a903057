import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from corpusfilter import embedding
from corpusfilter.embedding import (
    EmbeddingProviderConfig,
    RemoteProvider,
    embed_batch,
    embed_texts,
    get_provider,
    hashed_ngram_embed,
)
from corpusfilter.errors import (
    ConfigError,
    DataError,
    DimensionMismatchError,
    RemoteProviderError,
)

from conftest import hashed_config, make_text
from fnv_spec import spec_counts
from test_kernels import multibyte_texts
import random


# ---------------------------------------------------------------- hashed


def test_l2_normalize_345_triangle():
    # as unigrams at dim 8, "a" and "b" hash to two buckets: counts 3 and 4
    out = hashed_ngram_embed("aaabbbb", dim=8, ngram_range=(1, 1))
    assert np.allclose(sorted(np.abs(out[out != 0.0])), [0.6, 0.8])


def test_l2_normalize_idempotent():
    X = embed_batch(hashed_config(dim=48), ["alpha beta", "gamma", "delta epsilon zeta"])
    assert np.allclose(X / np.linalg.norm(X, axis=1, keepdims=True), X)


def test_l2_normalize_zero_vector():
    # found by search with the spec: as unigrams at dim 8 and seed 0, "!" and
    # "¡" hash to one bucket with opposite signs
    assert not spec_counts("!¡", 8, 1, 1, 0).any()
    with pytest.raises(DataError, match="signed hash counts cancelled for text '!¡'"):
        hashed_ngram_embed("!¡", dim=8, ngram_range=(1, 1))
    cfg = EmbeddingProviderConfig(kind="hashed_ngram", dim=8, ngram_range=(1, 1))
    with pytest.raises(DataError, match="signed hash counts cancelled for text '!¡'"):
        embed_batch(cfg, ["fine text", "!¡"])


def test_text_shorter_than_the_shortest_gram_is_named():
    with pytest.raises(DataError, match="text 'a' has fewer than 2 characters"):
        hashed_ngram_embed("a", dim=8, ngram_range=(2, 4))
    # the length counts after the cut and lowercasing: "İ" lowercases to two characters
    cfg = EmbeddingProviderConfig(kind="hashed_ngram", dim=8, truncate_chars=1)
    with pytest.raises(DataError, match="text 'x' has fewer than 2 characters"):
        embed_batch(cfg, ["İstanbul", "xyz"])
    assert embed_batch(cfg, ["İstanbul"]).any()


def test_hashed_unit_norm_small_case():
    v = hashed_ngram_embed("ab", dim=8, ngram_range=(1, 1), seed=0)
    assert v.shape == (8,)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    # two unigrams, each contributing +-1 before normalization
    assert np.count_nonzero(v) in (1, 2)


def test_hashed_deterministic():
    a = hashed_ngram_embed("the same text", 64, (1, 3), seed=5)
    b = hashed_ngram_embed("the same text", 64, (1, 3), seed=5)
    assert np.array_equal(a, b)


def test_hashed_distinct_texts():
    a = hashed_ngram_embed("aaaa", 64, (1, 3), seed=0)
    b = hashed_ngram_embed("zzzz", 64, (1, 3), seed=0)
    assert not np.array_equal(a, b)


def test_hashed_seed_changes_vectors():
    rng = random.Random(0)
    texts = [make_text(rng, rng.random()) for _ in range(100)]
    diff = sum(
        not np.array_equal(
            hashed_ngram_embed(t, 64, (2, 4), seed=1),
            hashed_ngram_embed(t, 64, (2, 4), seed=2),
        )
        for t in texts
    )
    assert diff == 100


def test_hashed_rejects_tiny_dim_and_empty_text():
    with pytest.raises(ConfigError):
        hashed_ngram_embed("abc", dim=4)
    with pytest.raises(DataError, match="cannot embed empty text"):
        hashed_ngram_embed("", dim=16)


def test_embed_batch_statelessness():
    cfg = hashed_config(dim=32)
    a = ["alpha beta", "gamma delta"]
    b = ["epsilon zeta", "eta theta", "iota kappa"]
    joined = embed_batch(cfg, a + b)
    split = np.vstack([embed_batch(cfg, a), embed_batch(cfg, b)])
    assert np.array_equal(joined, split)


def test_embed_batch_truncation_is_applied():
    cfg = hashed_config(dim=32, truncate_chars=10)
    long_text = "abcdefghij" + "SUFFIX" * 100
    a = embed_batch(cfg, [long_text])
    b = embed_batch(cfg, ["abcdefghij"])
    assert np.array_equal(a, b)


def test_embed_batch_all_finite_unit_norm():
    cfg = hashed_config(dim=48)
    rng = random.Random(1)
    X = embed_batch(cfg, [make_text(rng, rng.random()) for _ in range(50)])
    assert np.all(np.isfinite(X))
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0)


def test_embed_batch_empty_input():
    with pytest.raises(DataError, match="no texts to embed"):
        embed_batch(hashed_config(), [])


def test_embed_texts_rows_do_not_depend_on_the_batch_size():
    # mixed-width texts, each longer than truncate_chars
    texts = [(t + " ") * 20 for t in multibyte_texts() if t]
    texts += [make_text(random.Random(i), 0.5) for i in range(300)]
    rows = [embed_texts(get_provider(hashed_config(dim=64, truncate_chars=20, batch_size=b)),
                        texts) for b in (1, 7, 256)]
    assert all(len(t) > 20 for t in texts)
    assert np.array_equal(rows[0], rows[1]) and np.array_equal(rows[0], rows[2])


# ---------------------------------------------------------------- remote


class MockEmbedHandler(BaseHTTPRequestHandler):
    dim = 384
    fail_first = 0
    calls = []
    texts = []  # the texts of each request
    auth = []  # the Authorization header of each request, or None
    mode = "vectors"  # or "not_json", "no_vectors", "nan": a bad 200 response

    def do_POST(self):
        cls = type(self)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        cls.calls.append(len(body["texts"]))
        cls.texts.append(body["texts"])
        cls.auth.append(self.headers.get("Authorization"))
        if cls.fail_first > 0:
            cls.fail_first -= 1
            self.send_response(503)
            self.end_headers()
            return
        vectors = [
            [float((i + j) % 7) / 7.0 for j in range(cls.dim)]
            for i in range(len(body["texts"]))
        ]
        if cls.mode == "nan":
            vectors[0][0] = float("nan")
        payload = json.dumps({"vectors": vectors, "dim": cls.dim}).encode()
        if cls.mode == "not_json":
            payload = b"<html>gateway says hello</html>"
        elif cls.mode == "no_vectors":
            payload = json.dumps({"embeddings": vectors, "dim": cls.dim}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_server(monkeypatch):
    monkeypatch.setattr(embedding, "RETRY_WAIT", 0.01)
    MockEmbedHandler.dim = 384
    MockEmbedHandler.fail_first = 0
    MockEmbedHandler.calls = []
    MockEmbedHandler.texts = []
    MockEmbedHandler.auth = []
    MockEmbedHandler.mode = "vectors"
    server = HTTPServer(("127.0.0.1", 0), MockEmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def remote_config(endpoint, **kw):
    return EmbeddingProviderConfig(kind="remote", dim=384, endpoint=endpoint, **kw)


def test_remote_returns_aligned_vectors(mock_server):
    provider = RemoteProvider(remote_config(mock_server))
    X = provider.embed_batch(["one text", "two text"])
    assert X.shape == (2, 384)


def test_remote_wrong_dim_rejected(mock_server):
    MockEmbedHandler.dim = 100
    provider = RemoteProvider(remote_config(mock_server))
    with pytest.raises(DimensionMismatchError):
        provider.embed_batch(["a text"])


def test_remote_retries_then_succeeds(mock_server):
    MockEmbedHandler.fail_first = 2
    provider = RemoteProvider(remote_config(mock_server))
    X = provider.embed_batch(["retry me"])
    assert X.shape == (1, 384)
    assert len(MockEmbedHandler.calls) == 3


def test_remote_gives_up_after_retries(mock_server):
    MockEmbedHandler.fail_first = 99
    provider = RemoteProvider(remote_config(mock_server))
    with pytest.raises(RemoteProviderError, match="embedding service failed after 3 attempts"):
        provider.embed_batch(["never works"])


@pytest.mark.parametrize("mode", ["not_json", "no_vectors"])
def test_remote_bad_body_is_unavailable(mock_server, mode):
    MockEmbedHandler.mode = mode
    provider = RemoteProvider(remote_config(mock_server))
    with pytest.raises(RemoteProviderError, match=f"{mock_server}/embed"):
        provider.embed_batch(["a text"])
    assert len(MockEmbedHandler.calls) == 1


def test_remote_requires_endpoint():
    with pytest.raises(ConfigError):
        EmbeddingProviderConfig(kind="remote", dim=16)


def test_embed_texts_batches(mock_server):
    provider = RemoteProvider(remote_config(mock_server, batch_size=2))
    X = embed_texts(provider, ["a", "b", "c", "d", "e"])
    assert X.shape == (5, 384)
    assert MockEmbedHandler.calls == [2, 2, 1]


def test_remote_batch_reaches_the_service_already_cut(mock_server):
    provider = RemoteProvider(remote_config(mock_server, batch_size=2, truncate_chars=5))
    X = embed_texts(provider, ["abcdefgh", "xy", "éèêëēėę"])
    assert X.shape == (3, 384)
    assert MockEmbedHandler.texts == [["abcde", "xy"], ["éèêëē"]]


@pytest.mark.parametrize("kind", ["hashed_ngram", "remote"])
def test_embed_texts_owns_the_input_rule(mock_server, kind):
    cfg = EmbeddingProviderConfig(kind=kind, dim=384, endpoint=mock_server, batch_size=256)
    provider = get_provider(cfg)
    with pytest.raises(DataError, match="no texts to embed"):
        embed_texts(provider, [])
    texts = [make_text(random.Random(i), 0.5) for i in range(400)]
    texts[300] = ""
    # the index is in the whole list, not in its batch (300 - 256 = 44)
    with pytest.raises(DataError, match="text 300 empty after truncation"):
        embed_texts(provider, texts)
    assert sum(MockEmbedHandler.calls) == (256 if kind == "remote" else 0)
