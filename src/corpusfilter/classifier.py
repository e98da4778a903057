"""Binary quality classifier: L2-regularized logistic regression.

Trained once on English-only labeled seed embeddings, then applied to
score documents in any language the embedding provider covers. Training
takes an (n, dim) matrix and its 0/1 labels, normalises the rows and runs
full-batch gradient descent with backtracking line search, deterministic
given the seed. A score depends on its document alone: `score_batch`
reduces each row on its own, so a document scores the same bits alone, in
any batch, in its shard and in a threshold sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus_io import load_json_object, write_json
from .errors import ConfigError, DataError, DimensionMismatchError

VERSION = "0.1.0"
# A row whose norm is this close to 1 is unit already, as the hashed provider's are,
# and is not normalised again: its norm is off by rounding, about dim * 2**-53.
UNIT_TOL = 1e-9


@dataclass
class LinearClassifier:
    w: np.ndarray
    b: float
    dim: int
    normalize_inputs: bool = True
    trained_on: str = ""
    seed: int = 0
    version: str = VERSION
    l2_lambda: float = 0.0
    train_loss: float | None = None

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.shape != (self.dim,):
            raise DimensionMismatchError(
                f"weight length {self.w.shape} does not match dim {self.dim}"
            )
        if not np.all(np.isfinite(self.w)) or not np.isfinite(self.b):
            raise DataError("classifier weights contain NaN/Inf")


@dataclass
class TrainConfig:
    l2_lambda: float = 1e-4
    max_epochs: int = 500
    learning_rate: float = 1.0
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.l2_lambda >= 0 and self.max_epochs >= 1 and self.learning_rate > 0
                and self.tolerance > 0):  # NaN fails too
            raise ConfigError("invalid training configuration: l2_lambda must be at least 0, "
                              "max_epochs at least 1, learning_rate and tolerance above 0")


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))  # exp(-|z|) never overflows; a NaN keeps its sign
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Return X as an (n, dim) float64 matrix and y as its n labels in {0, 1}."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[:1] == (0,):
        raise DataError("no labeled examples")
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise DimensionMismatchError(
            f"expected an (n, dim) matrix and n labels, got {X.shape} and {y.shape}"
        )
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("labels must be 0 or 1")
    return X, y


def _loss_grad(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2_lambda: float
) -> tuple[float, np.ndarray, float]:
    n = X.shape[0]
    z = X @ w + b
    # mean BCE, numerically stable: log(1+e^z) - y z
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2_lambda * float(w @ w)
    resid = sigmoid(z) - y
    grad_w = X.T @ resid / n + l2_lambda * w
    grad_b = float(np.mean(resid))
    return loss, grad_w, grad_b


def loss_and_gradient(
    clf: LinearClassifier, X: np.ndarray, y: np.ndarray, l2_lambda: float
) -> tuple[float, np.ndarray, float]:
    X, y = _check_xy(X, y)
    if X.shape[1] != clf.dim:
        raise DimensionMismatchError(f"examples have dim {X.shape[1]}, classifier {clf.dim}")
    return _loss_grad(clf.w, clf.b, X, y, l2_lambda)


def train_logistic(X: np.ndarray, y: np.ndarray, config: TrainConfig) -> LinearClassifier:
    X, y = _check_xy(X, y)
    if len(np.unique(y)) < 2:
        raise DataError("training data contains a single class")
    X = _normalize_rows(X)
    dim = X.shape[1]
    rng = np.random.default_rng(config.seed)
    w = rng.normal(0.0, 0.01, size=dim)
    w, b = _train_full_batch(X, y, w, 0.0, config)

    loss, _, _ = _loss_grad(w, b, X, y, config.l2_lambda)
    return LinearClassifier(
        w=w,
        b=b,
        dim=dim,
        seed=config.seed,
        l2_lambda=config.l2_lambda,
        train_loss=loss,
    )


def _train_full_batch(X, y, w, b, config: TrainConfig):
    step = config.learning_rate
    loss, grad_w, grad_b = _loss_grad(w, b, X, y, config.l2_lambda)
    for _ in range(config.max_epochs):
        gnorm = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
        if gnorm < config.tolerance:
            break
        # backtracking line search with Armijo condition
        step = min(step * 2.0, 1e6)
        while True:
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            loss_new, gw_new, gb_new = _loss_grad(w_new, b_new, X, y, config.l2_lambda)
            if loss_new <= loss - 1e-4 * step * gnorm * gnorm:
                break
            step *= 0.5
            if step < 1e-12:
                return w, b
        w, b, loss, grad_w, grad_b = w_new, b_new, loss_new, gw_new, gb_new
    return w, b


def _normalize_rows(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return X / norms


def score(clf: LinearClassifier, x: np.ndarray) -> float:
    return float(score_batch(clf, np.atleast_2d(x))[0])


def score_batch(clf: LinearClassifier, X: np.ndarray) -> np.ndarray:
    """The score of each row of X, reduced on its own (`einsum`: a BLAS product's
    order of sums depends on the other rows). A classifier that normalises its
    inputs divides a row's product by its norm, unless that is within UNIT_TOL of 1."""
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    if X.shape[1] != clf.dim:
        raise DimensionMismatchError(f"input dim {X.shape[1]} != classifier dim {clf.dim}")
    z = np.einsum("ij,j->i", X, clf.w)
    if clf.normalize_inputs:
        norms = np.sqrt(np.einsum("ij,ij->i", X, X))
        np.divide(z, norms, out=z, where=(np.abs(norms - 1.0) > UNIT_TOL) & (norms > 0.0))
    return sigmoid(z + clf.b)


def evaluate(clf: LinearClassifier, X: np.ndarray, y: np.ndarray) -> dict:
    X, y = _check_xy(X, y)
    scores = score_batch(clf, X)
    accuracy = float(np.mean((scores > 0.5) == (y == 1.0)))
    result = {"accuracy": accuracy, "n": int(len(y)), "auc": None}
    n_pos = int(np.sum(y == 1.0))
    n_neg = int(len(y)) - n_pos
    if n_pos and n_neg:
        # Mann-Whitney rank statistic; ties share average rank
        _, inv, cnt = np.unique(scores, return_inverse=True, return_counts=True)
        ranks = (np.cumsum(cnt) - (cnt - 1) / 2)[inv]
        auc = (float(np.sum(ranks[y == 1.0])) - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
        result["auc"] = auc
    return result


def binarize_fwe_annotations(records: list[dict]) -> list[tuple[str, int]]:
    """Convert 0..5 educational-quality annotations to binary labels.

    A record is high quality when its annotation score, a JSON integer in
    0..5, is 2 or above.
    """
    out = []
    for rec in records:
        s = rec["score"]
        if type(s) is not int or not 0 <= s <= 5:
            raise DataError(f"annotation score {s!r} outside 0..5")
        out.append((rec["text"], 1 if s >= 2 else 0))
    return out


def save_classifier(clf: LinearClassifier, path: str) -> None:
    write_json(path, {
        "version": clf.version,
        "dim": clf.dim,
        "normalize_inputs": clf.normalize_inputs,
        "w": clf.w.tolist(),
        "b": clf.b,
        "trained_on": clf.trained_on,
        "seed": clf.seed,
        "l2_lambda": clf.l2_lambda,
        "train_loss": clf.train_loss,
    }, indent=None)


def load_classifier(path: str) -> LinearClassifier:
    return LinearClassifier(**load_json_object(
        path, "classifier", {"w": [float], "b": float, "dim": int, "normalize_inputs": bool},
        {"trained_on": str, "seed": int, "version": str, "l2_lambda": float, "train_loss": float},
    ))
