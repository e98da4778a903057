import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from corpusfilter.classifier import (
    VERSION,
    LinearClassifier,
    TrainConfig,
    binarize_fwe_annotations,
    evaluate,
    load_classifier,
    loss_and_gradient,
    save_classifier,
    score,
    score_batch,
    sigmoid,
    train_logistic,
)
from corpusfilter.errors import ConfigError, DataError, DimensionMismatchError

from conftest import gaussian_examples


def zero_clf(dim):
    return LinearClassifier(w=np.zeros(dim), b=0.0, dim=dim, normalize_inputs=False)


def random_xy(rng, n, dim):
    """n normal rows with coin-flip labels, drawn row by row."""
    rows = [(rng.normal(size=dim), rng.integers(2)) for _ in range(n)]
    X, y = zip(*rows)
    return np.array(X), np.array(y, dtype=np.float64)


def finite_difference_grad(w, b, X, y, lam, h=1e-5):
    """Central finite differences on the loss; independent oracle."""

    def loss_at(wv, bv):
        clf = LinearClassifier(w=wv, b=bv, dim=len(wv), normalize_inputs=False)
        return loss_and_gradient(clf, X, y, lam)[0]

    gw = np.zeros_like(w)
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = h
        gw[i] = (loss_at(w + e, b) - loss_at(w - e, b)) / (2 * h)
    gb = (loss_at(w, b + h) - loss_at(w, b - h)) / (2 * h)
    return gw, gb


def test_loss_at_origin_is_ln2():
    X, y = gaussian_examples(n=50, seed=1)
    loss, _, _ = loss_and_gradient(zero_clf(2), X, y, 0.0)
    assert abs(loss - math.log(2)) < 1e-12


def test_hand_gradient_single_example():
    loss, gw, gb = loss_and_gradient(zero_clf(2), np.array([[1.0, 0.0]]), np.array([1.0]), 0.0)
    assert np.allclose(gw, [-0.5, 0.0])
    assert abs(gb + 0.5) < 1e-12
    assert abs(loss - math.log(2)) < 1e-12


@pytest.mark.parametrize("trial", range(10))
def test_gradient_matches_finite_differences(trial):
    rng = np.random.default_rng(trial)
    dim = int(rng.integers(2, 8))
    n = int(rng.integers(3, 30))
    lam = float(rng.choice([0.0, 1e-4, 1e-2, 0.5]))
    X, y = random_xy(rng, n, dim)
    w = rng.normal(size=dim)
    b = float(rng.normal())
    clf = LinearClassifier(w=w, b=b, dim=dim, normalize_inputs=False)
    _, gw, gb = loss_and_gradient(clf, X, y, lam)
    fw, fb = finite_difference_grad(w, b, X, y, lam)
    scale = max(np.max(np.abs(fw)), abs(fb), 1e-8)
    assert np.max(np.abs(gw - fw)) / scale < 1e-4
    assert abs(gb - fb) / scale < 1e-4


def test_train_separable_blobs():
    X, y = gaussian_examples(n=200, separation=4.0, seed=0)
    clf = train_logistic(X, y, TrainConfig(seed=0))
    assert evaluate(clf, X, y)["accuracy"] >= 0.95


@pytest.mark.parametrize("bad", [{"max_epochs": 0}, {"l2_lambda": -1.0}, {"learning_rate": 0.0},
                                 {"tolerance": 0.0}, {"learning_rate": math.nan},
                                 {"tolerance": math.nan}, {"l2_lambda": math.nan}])
def test_bad_train_config_is_a_config_error(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)


def test_train_single_class_error():
    with pytest.raises(DataError, match="training data contains a single class"):
        train_logistic(np.tile([1.0, 2.0], (10, 1)), np.ones(10), TrainConfig())


@pytest.mark.parametrize(
    "X, y, error, match",
    [
        (np.empty((0, 2)), np.empty(0), DataError, "no labeled examples"),
        ([], [], DataError, "no labeled examples"),
        (np.ones((3, 2)), np.array([0.0, 1.0]), DimensionMismatchError, None),
        (np.ones((2, 2)), np.array([0.0, 1.0, 1.0]), DimensionMismatchError, None),
        (np.ones(4), np.array([0.0, 1.0, 0.0, 1.0]), DimensionMismatchError, None),
        (np.ones((2, 2)), np.array([0.0, 2.0]), DataError, "labels must be 0 or 1"),
    ],
    ids=["no-rows", "empty-list", "fewer-labels", "more-labels", "1-d", "label-2"],
)
@pytest.mark.parametrize("entry", ["train", "evaluate", "loss"])
def test_array_inputs_rejected(X, y, error, match, entry):
    with pytest.raises(error, match=match):
        if entry == "train":
            train_logistic(X, y, TrainConfig())
        elif entry == "evaluate":
            evaluate(zero_clf(2), X, y)
        else:
            loss_and_gradient(zero_clf(2), X, y, 0.0)


def test_train_deterministic():
    X, y = gaussian_examples(n=100, seed=2)
    a = train_logistic(X, y, TrainConfig(seed=3))
    b = train_logistic(X, y, TrainConfig(seed=3))
    assert np.array_equal(a.w, b.w) and a.b == b.b


def test_seeds_converge_to_same_loss():
    # lambda > 0 makes the optimum unique, so seeds only move the start
    X, y = gaussian_examples(n=200, seed=4)
    losses = [
        train_logistic(X, y, TrainConfig(seed=s, l2_lambda=1e-3)).train_loss
        for s in range(5)
    ]
    assert max(losses) - min(losses) < 1e-3


def test_score_closed_forms():
    clf = zero_clf(3)
    assert score(clf, np.array([5.0, -1.0, 2.0])) == 0.5
    clf1 = LinearClassifier(w=np.array([1.0]), b=0.0, dim=1, normalize_inputs=False)
    assert abs(score(clf1, np.array([math.log(3)])) - 0.75) < 1e-12
    assert abs(score(clf1, np.array([-math.log(3)])) - 0.25) < 1e-12


def test_score_monotone_in_logit():
    rng = np.random.default_rng(0)
    clf = LinearClassifier(w=rng.normal(size=4), b=0.3, dim=4, normalize_inputs=False)
    X = rng.normal(size=(100, 4))
    logits = X @ clf.w + clf.b
    scores = score_batch(clf, X)
    order = np.argsort(logits)
    assert np.all(np.diff(scores[order]) >= 0)


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    """The masked two-pass form: each sign's exp over a gathered copy."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid_matches_the_reference() -> bool:
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.normal(0.0, s, 20_000) for s in (1, 4, 40, 700)]
                       + [np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])])
    return np.array_equal(sigmoid(z).view(np.int64), reference_sigmoid(z).view(np.int64))


# numpy 2.4.6 dispatches float64 exp by CPU above its X86_V2 baseline: these
# turn off its AVX512 targets, then its AVX2 one too. On a CPU without AVX512
# the first setting changes nothing, and numpy ignores names it cannot turn off
@pytest.mark.parametrize("disabled", [None, "X86_V4 AVX512_ICL AVX512_SPR",
                                      "X86_V4 AVX512_ICL AVX512_SPR X86_V3"])
def test_sigmoid_gives_the_bits_of_the_masked_form(disabled):
    if disabled is None:
        assert sigmoid_matches_the_reference()
        return
    here = os.path.dirname(__file__)
    src = os.path.join(here, "..", "src")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
           "PYTHONPATH": os.pathsep.join([src, here])}
    code = "import test_classifier as t; assert t.sigmoid_matches_the_reference()"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_normalising_classifier_normalises_each_row_once():
    rng = np.random.default_rng(2)
    clf = LinearClassifier(w=rng.normal(size=64), b=0.1, dim=64)
    X = rng.normal(size=(20, 64))
    unit = X / np.linalg.norm(X, axis=1, keepdims=True)
    # a unit row, as the hashed provider gives, is scored as it is
    assert np.array_equal(score_batch(clf, unit), sigmoid(np.einsum("ij,j->i", unit, clf.w) + 0.1))
    # a raw row, as the remote provider gives, is scaled to unit norm first
    assert np.allclose(score_batch(clf, 7.0 * X), score_batch(clf, unit), rtol=0, atol=1e-15)


def test_score_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        score(zero_clf(3), np.array([1.0, 2.0]))


def test_rescaling_preserves_ranking():
    rng = np.random.default_rng(1)
    clf = LinearClassifier(w=rng.normal(size=4), b=-0.2, dim=4, normalize_inputs=False)
    big = LinearClassifier(w=3.0 * clf.w, b=3.0 * clf.b, dim=4, normalize_inputs=False)
    X = rng.normal(size=(50, 4))
    assert np.array_equal(
        np.argsort(score_batch(clf, X)), np.argsort(score_batch(big, X))
    )


def test_evaluate_perfect_separation():
    X = np.array([[-3.0], [-2.0], [2.0], [3.0]])
    clf = LinearClassifier(w=np.array([5.0]), b=0.0, dim=1, normalize_inputs=False)
    result = evaluate(clf, X, np.array([0.0, 0.0, 1.0, 1.0]))
    assert result["auc"] == 1.0 and result["accuracy"] == 1.0


def test_evaluate_all_ties_auc_half():
    result = evaluate(zero_clf(2), np.zeros((10, 2)), np.arange(10) % 2)
    assert result["auc"] == 0.5


def test_evaluate_enumerated_case():
    # scores 0.9(y=1), 0.8(y=0), 0.7(y=1), 0.1(y=0)
    xs = [math.log(s / (1 - s)) for s in (0.9, 0.8, 0.7, 0.1)]
    ys = [1, 0, 1, 0]
    clf = LinearClassifier(w=np.array([1.0]), b=0.0, dim=1, normalize_inputs=False)
    result = evaluate(clf, np.array(xs)[:, None], np.array(ys))
    assert abs(result["accuracy"] - 0.75) < 1e-12
    assert abs(result["auc"] - 0.75) < 1e-12


def test_evaluate_single_class_reports_no_auc():
    clf = LinearClassifier(w=np.array([1.0]), b=0.0, dim=1, normalize_inputs=False)
    result = evaluate(clf, np.arange(4.0)[:, None], np.ones(4))
    assert result["auc"] is None and result["n"] == 4


def test_evaluate_auc_with_ties_matches_pair_count():
    # AUC is P(pos scores above neg) with ties counting half; few distinct
    # inputs force many tied scores
    rng = np.random.default_rng(7)
    X = rng.integers(-3, 4, size=(300, 1)).astype(np.float64)
    y = (rng.random(300) < 0.4).astype(np.float64)
    clf = LinearClassifier(w=np.array([1.0]), b=0.0, dim=1, normalize_inputs=False)
    s = score_batch(clf, X)
    pos, neg = s[y == 1.0], s[y == 0.0]
    pairs = (pos[:, None] > neg[None, :]) + 0.5 * (pos[:, None] == neg[None, :])
    assert abs(evaluate(clf, X, y)["auc"] - pairs.mean()) < 1e-12


def test_binarize_fwe_annotations():
    records = [{"text": f"t{s}", "score": s} for s in range(6)]
    labels = [y for _, y in binarize_fwe_annotations(records)]
    assert labels == [0, 0, 1, 1, 1, 1]


def test_binarize_rejects_out_of_range():
    with pytest.raises(DataError, match="annotation score 6 outside 0..5"):
        binarize_fwe_annotations([{"text": "t", "score": 6}])
    with pytest.raises(DataError, match="annotation score -1 outside 0..5"):
        binarize_fwe_annotations([{"text": "t", "score": -1}])
    with pytest.raises(DataError, match="annotation score True outside 0..5"):  # a bool
        binarize_fwe_annotations([{"text": "t", "score": True}])


def test_classifier_file_roundtrip(tmp_path):
    X, y = gaussian_examples(n=60, seed=6)
    clf = train_logistic(X, y, TrainConfig(seed=1))
    clf.trained_on = "synthetic blobs"
    path = str(tmp_path / "clf.json")
    save_classifier(clf, path)
    back = load_classifier(path)
    assert np.array_equal(back.w, clf.w)
    assert back.b == clf.b
    assert back.trained_on == clf.trained_on
    # saving again is byte-identical
    path2 = str(tmp_path / "clf2.json")
    save_classifier(back, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_classifier_file_null_optional_fields_take_their_defaults(tmp_path):
    path = tmp_path / "clf.json"
    path.write_text(json.dumps({"w": [0.5, -0.5], "b": 0.1, "dim": 2, "normalize_inputs": False,
                                "seed": None, "trained_on": None, "l2_lambda": None}))
    clf = load_classifier(str(path))
    assert (clf.seed, clf.trained_on, clf.version, clf.l2_lambda, clf.train_loss) == (
        0, "", VERSION, 0.0, None)
    assert clf.normalize_inputs is False and clf.w.tolist() == [0.5, -0.5]


def test_save_classifier_error_mid_dump_keeps_old_file(tmp_path, monkeypatch):
    X, y = gaussian_examples(n=20, seed=7)
    clf = train_logistic(X, y, TrainConfig(seed=1))
    path = tmp_path / "clf.json"
    path.write_text("old\n")

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"b": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError):
        save_classifier(clf, str(path))
    assert path.read_text() == "old\n"
    assert not list(tmp_path.glob("*.tmp"))
