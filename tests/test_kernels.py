import random
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusfilter import kernels
from corpusfilter.embedding import (
    EmbeddingProviderConfig,
    embed_texts,
    get_provider,
    hashed_ngram_embed,
)

from conftest import make_text
from fnv_spec import spec_counts

MULTIBYTE_TEXTS = [
    "héllo wörld",
    "拼音漢字テストです",
    "смесь кириллицы and ascii",
    "emoji \U0001f600 mixed \U0001f680 text",
    "aé中\U0001f600z",  # 1-, 2-, 3-, 4-byte chars adjacent
    "\U0001f600\U0001f680\U0001f4a9",  # emoji only
    "İstanbul İİ",  # lowercases to a longer string
    "a",  # shorter than most n
    "",  # an empty row inside a batch
    "ab",
]
CASES = [(16, 1, 1, 0), (64, 2, 4, 3), (128, 1, 5, 2**63), (384, 2, 4, 0)]


def ascii_texts(n=50):
    rng = random.Random(0)
    return [make_text(rng, rng.random()).lower() for _ in range(n)]


def multibyte_texts():
    return MULTIBYTE_TEXTS + [t.lower() for t in MULTIBYTE_TEXTS]


def test_backend_is_reported():
    assert kernels.HASH_BACKEND == "python"


@pytest.mark.parametrize("dim,lo,hi,seed", CASES)
def test_batch_kernel_matches_spec(dim, lo, hi, seed):
    texts = multibyte_texts() + ascii_texts(10)
    mat = kernels.hashed_ngram_matrix(texts, dim, lo, hi, seed)
    assert mat.shape == (len(texts), dim) and mat.dtype == np.float64
    for text, row in zip(texts, mat):
        assert np.array_equal(row, spec_counts(text, dim, lo, hi, seed)), (text, dim, lo, hi, seed)


def test_numpy_kernel_matches_spec_on_random_mixed_width_text():
    rng = random.Random(3)
    alphabet = "ab cdé ßж中文\U0001f600İ"
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 30))) for _ in range(200)]
    mat = kernels.hashed_ngram_matrix(texts, 32, 1, 4, 11)
    for text, row in zip(texts, mat):
        assert np.array_equal(row, spec_counts(text, 32, 1, 4, 11)), text


def test_batch_row_equals_text_alone():
    texts = multibyte_texts() + ascii_texts(5)
    mat = kernels.hashed_ngram_matrix(texts, 64, 2, 4, 0)
    for i, text in enumerate(texts):
        assert np.array_equal(mat[i], kernels.hashed_ngram_matrix([text], 64, 2, 4, 0)[0])
        assert np.array_equal(mat[i], kernels.hashed_ngram_counts(text, 64, 2, 4, 0))


def test_provider_batch_equals_single_text_embedding():
    cfg = EmbeddingProviderConfig(kind="hashed_ngram", dim=64, truncate_chars=12)
    texts = [t for t in multibyte_texts() if len(t) > 2] + ascii_texts(5)
    X = embed_texts(get_provider(cfg), texts)
    for text, row in zip(texts, X):
        assert np.array_equal(row, hashed_ngram_embed(text[:12], 64, cfg.ngram_range, cfg.seed))
        counts = spec_counts(text[:12].lower(), 64, 2, 4, 0)
        assert np.array_equal(row, counts / np.linalg.norm(counts))


def test_counts_are_integers_with_signs():
    counts = kernels.hashed_ngram_counts("abcabc", 32, 1, 2, 0)
    assert np.array_equal(counts, np.round(counts))
    # 6 unigrams + 5 bigrams = 11 signed increments
    assert np.abs(counts).sum() <= 11


def test_gram_shorter_than_text_skipped():
    # text shorter than n yields nothing for that n
    counts = kernels.hashed_ngram_counts("ab", 16, 3, 5, 0)
    assert np.all(counts == 0)


# characters of 1, 2, 3 and 4 UTF-8 bytes
WIDTHS = "ab é ж中文\U0001f600\U0001f680"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(alphabet=WIDTHS, max_size=20), max_size=8),
    st.sampled_from([8, 16, 384]),
    st.integers(1, 5).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 5))),
    st.sampled_from([0, 7, 2**64 - 1]),
)
@example([], 384, (2, 4), 0)
@example(["", "", ""], 16, (1, 3), 0)  # all texts empty
@example(["ab", "", "c"], 16, (2, 5), 7)  # n_hi above the batch's 3 characters
@example(["a", "é", "中", "\U0001f600", "b"], 8, (1, 5), 2**64 - 1)  # every n >= 2 straddles
def test_kernel_matches_spec_on_any_batch(texts, dim, ngrams, seed):
    mat = kernels.hashed_ngram_matrix(texts, dim, *ngrams, seed)
    assert mat.shape == (len(texts), dim) and mat.dtype == np.float64
    for text, row in zip(texts, mat):
        assert np.array_equal(row, spec_counts(text, dim, *ngrams, seed)), text


def test_kernel_peak_memory_per_character():
    rng = random.Random(0)
    alphabet = string.ascii_lowercase + "     éàüö漢字"
    texts = ["".join(rng.choices(alphabet, k=1500)) for _ in range(256)]
    tracemalloc.start()
    try:
        kernels.hashed_ngram_matrix(texts, 384, 2, 4, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * 256 * 1500
