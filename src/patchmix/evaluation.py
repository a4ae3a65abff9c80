"""Evaluation protocols over frozen backbone features.

A ``FeatureBank`` holds L2-normalised class-token representations with
labels. On top of it sit a weighted kNN classifier (cosine top-k, votes
exp(sim / tau)), a linear probe trained with softmax cross-entropy on
frozen features, and attention-map extraction from the last block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from . import patch_ops as po
from .autodiff import Tape, Tensor
from .kvconfig import is_int, is_real

__all__ = [
    "FeatureBank",
    "extract_features",
    "check_tau",
    "check_k",
    "check_probe",
    "knn_classify",
    "linear_probe",
    "attention_maps",
]


@dataclass(frozen=True)
class FeatureBank:
    """Unit-norm feature rows with integer labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if f.ndim != 2 or f.shape[0] != y.shape[0]:
            raise ValueError(
                f"features [N, D] and labels [N] must agree, got {f.shape} "
                f"and {y.shape}"
            )
        if f.shape[0] == 0:
            raise ValueError("feature bank is empty")
        norms = np.linalg.norm(f, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-6):  # a NaN row fails too
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise ValueError(
                f"feature rows must be unit-norm within 1e-6; row {worst} has "
                f"norm {norms[worst]:.8f}"
            )
        if y.size and (y.min() < 0 or y.max() >= self.num_classes):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), got "
                f"[{y.min()}, {y.max()}]"
            )
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)

    @property
    def count(self) -> int:
        return self.features.shape[0]


def extract_features(
    params: enc.EncoderParams, images: np.ndarray, batch_size: int = 256
) -> np.ndarray:
    """Backbone class-token representations, L2-normalised, heads unused.

    The patches are cast once to the encoder's precision, so an f32
    encoder computes in f32 and returns f32 rows; for an f64 encoder the
    cast is a no-op.
    """
    cfg = params.config
    dtype = params.params.flat.dtype
    tv = enc.bind(params.params)
    chunks = []
    for lo in range(0, images.shape[0], batch_size):
        batch = po.ImageBatch(images[lo : lo + batch_size])
        patches = po.patchify(batch, cfg.patch_side).patches
        rep = enc.forward_backbone(cfg, tv, patches.astype(dtype, copy=False))
        chunks.append(rep.data)
    feats = np.concatenate(chunks, axis=0)
    return feats / np.linalg.norm(feats, axis=1, keepdims=True)


def build_bank(params: enc.EncoderParams, dataset) -> FeatureBank:
    """Feature bank for a LabeledDataset."""
    feats = extract_features(params, dataset.images)
    return FeatureBank(feats, dataset.labels, dataset.num_classes)


def check_tau(tau: float) -> None:
    """Reject a kNN vote temperature outside [0.0015, inf): a zero,
    negative, infinite or NaN ``tau`` turns the votes exp(sim / tau) into
    infinities, inverted weights, equal weights or NaNs, and one below
    1 / log(float64 max) ~ 0.00141 overflows the vote of sim 1, which ties
    every class that such a vote reaches. Bank rows are unit-norm within
    1e-6, so at tau >= 0.0015 no vote exceeds exp(667) ~ 3.4e289, and even
    a sum of 10**18 votes is finite."""
    # written as "not (ok)" so that a NaN fails
    if not (0.0015 <= tau < math.inf):
        raise ValueError(f"tau must be finite and at least 0.0015, got {tau}")


def check_k(k: int, count: float) -> None:
    """Reject a kNN neighbour count that is not an integer in [1, count],
    ``count`` being the bank's row count (``math.inf`` before a bank)."""
    if not (is_int(k) and 1 <= k <= count):
        raise ValueError(f"k must be an integer in [1, {count}], got {k!r}")


def check_probe(epochs: int, lr: float) -> None:
    """Reject linear-probe settings: ``epochs`` must be an integer >= 1
    and ``lr`` a finite positive real. No epoch leaves the random probe,
    and a NaN, negative or infinite rate no descent."""
    if not (is_int(epochs) and epochs >= 1):
        raise ValueError(f"probe epochs must be an integer >= 1, got {epochs!r}")
    # written as "not (ok)" so that a NaN fails
    if not (is_real(lr) and 0 < lr < math.inf):
        raise ValueError(f"probe lr must be a finite positive real, got {lr!r}")


def knn_classify(
    bank: FeatureBank,
    queries: np.ndarray,
    k: int = 20,
    tau: float = 0.07,
    query_labels: np.ndarray | None = None,
) -> tuple[np.ndarray, float | None]:
    """Weighted k-nearest-neighbour classification by cosine similarity.

    Votes are exp(sim / tau) over each query's top-k bank rows; the
    predicted class maximises the summed vote, with exact ties resolved
    toward the smaller class index (argmax convention). Queries are
    normalised defensively, so any positive per-row rescaling of raw
    features leaves predictions unchanged; a zero or non-finite row has no
    direction and is rejected, and so are a ``tau`` and a ``k`` that
    ``check_tau`` and ``check_k`` reject. Returns (predictions, accuracy)
    with accuracy None when no labels are given.
    """
    check_tau(tau)
    check_k(k, bank.count)
    q = np.asarray(queries, dtype=np.float64)
    norms = np.linalg.norm(q, axis=1)
    bad = ~(np.isfinite(norms) & (norms > 0.0))
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            f"query rows must have a finite, non-zero norm; row {row} has "
            f"norm {norms[row]:.8f}"
        )
    q = q / norms[:, None]
    sims = q @ bank.features.T  # [Nq, Ntrain]

    if k < bank.count:
        top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    else:
        top = np.broadcast_to(np.arange(bank.count), (q.shape[0], bank.count))
    rows = np.arange(q.shape[0])[:, None]
    weights = np.exp(sims[rows, top] / tau)
    votes = np.zeros((q.shape[0], bank.num_classes))
    np.add.at(votes, (rows, bank.labels[top]), weights)
    preds = votes.argmax(axis=1)

    accuracy = None
    if query_labels is not None:
        accuracy = float((preds == np.asarray(query_labels)).mean())
    return preds, accuracy


def linear_probe(
    train_bank: FeatureBank,
    val_bank: FeatureBank,
    epochs: int = 100,
    lr: float = 0.1,
    seed: int = 0,
) -> float:
    """Train one linear layer with softmax cross-entropy on frozen features.

    Full-batch gradient descent is plenty at desk scale; returns accuracy
    on the validation bank. ``epochs`` and ``lr`` that ``check_probe``
    rejects are a ``ValueError``.
    """
    check_probe(epochs, lr)
    x = train_bank.features
    y = train_bank.labels
    classes = train_bank.num_classes
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.01, size=(x.shape[1], classes))
    b = np.zeros(classes)
    onehot = np.eye(classes)[y]

    for _ in range(epochs):
        tape = Tape()
        tw, tb = tape.var(w), tape.var(b)
        logits = ad.linear(Tensor(x), tw, tb)
        logp = ad.log_softmax(logits, axis=1)
        loss = ad.neg(ad.mean(ad.asum(ad.mul(logp, onehot), axis=1)))
        tape.backward(loss)
        w = w - lr * tape.grad(tw)
        b = b - lr * tape.grad(tb)

    val_logits = val_bank.features @ w + b
    preds = val_logits.argmax(axis=1)
    return float((preds == val_bank.labels).mean())


def attention_maps(params: enc.EncoderParams, image: np.ndarray) -> np.ndarray:
    """Class-token attention of the last block, one grid map per head.

    Returns [heads, grid, grid]; entries are the softmax mass the class
    token places on each patch, so a map sums to at most 1 (the remainder
    is the class token's own share). Computed in the encoder's precision.
    """
    cfg = params.config
    img = np.asarray(image, dtype=params.params.flat.dtype)
    if img.ndim == 3:
        img = img[None]
    pb = po.patchify(po.ImageBatch(img), cfg.patch_side)
    tv = enc.bind(params.params)
    _, attention = enc.forward_backbone(cfg, tv, pb, capture_attention=True)
    last = attention[-1]  # [1, heads, T+1, T+1]
    cls_to_patch = last[0, :, 0, 1:]  # drop the class token's self column
    g = cfg.grid_side
    return cls_to_patch.reshape(cfg.heads, g, g)
