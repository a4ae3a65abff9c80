"""The three contrastive losses over cosine similarities.

All three share one shape: similarities between a gradient-carrying batch
of predictions and a detached batch of targets are scaled by 1/tau,
log-softmaxed per row over all N keys (positives included in the
denominator), and the positive entries are picked out and averaged.

- mix-to-origin: each mixed prediction has M positives, the original
  images its groups were sourced from; every positive weighs 1/(N*M).
- mix-to-mix: each mixed prediction is compared against the other view's
  mixed targets; positives are the 2M-1 cyclic neighbours that share
  source images, weighted by the shared-source fraction (weights are used
  unnormalised, summing to M per row; a normalised variant is available
  behind a flag). Duplicate target indices, which occur when the window
  wraps around a small batch, each contribute their own weight.
- origin-to-origin: standard InfoNCE with diagonal positives.

The total objective detaches every momentum-branch input itself, so its
gradient reaches only the prediction inputs regardless of what the caller
recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .mixing import MixPlan

__all__ = [
    "ContrastBatch",
    "LossReport",
    "cosine_sim_matrix",
    "loss_mto",
    "loss_mtm",
    "loss_oto",
    "loss_total",
]


@dataclass
class ContrastBatch:
    """Embeddings entering the total objective.

    ``h_*`` are prediction-head outputs of the trained encoder (gradients
    flow); ``z_*`` are projection-head outputs of the momentum twin
    (detached inside ``loss_total``). ``plan`` supplies targets/weights for
    the mixed terms; it is the plan of the first view's mix.
    """

    h_mix1: Tensor
    h_view2: Tensor
    z_view1: Tensor
    z_view2: Tensor
    z_mix2: Tensor
    plan: MixPlan
    temperature: float = 0.2

    def __post_init__(self):
        n = self.plan.config.images
        for name in ("h_mix1", "h_view2", "z_view1", "z_view2", "z_mix2"):
            t = getattr(self, name)
            if not isinstance(t, Tensor):
                t = Tensor(t)
                setattr(self, name, t)
            if t.data.ndim != 2 or t.data.shape[0] != n:
                raise ValueError(
                    f"{name} must be [N, D] with N={n}, got shape {t.data.shape}"
                )
            if not np.all(np.isfinite(t.data)):
                raise ValueError(f"{name} contains non-finite values")
        if not self.temperature > 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


@dataclass(frozen=True)
class LossReport:
    """Per-step loss values in nats; total equals the sum of the parts."""

    l_mto: float
    l_mtm: float
    l_oto: float
    l_total: float


def cosine_sim_matrix(a, b) -> Tensor:
    """All-pairs cosine similarity between rows of ``a`` and rows of ``b``;
    ``l2_normalize`` rejects a zero row, naming its index."""
    an = ad.l2_normalize(a, axis=-1)
    bn = ad.l2_normalize(b, axis=-1)
    return ad.matmul(an, ad.transpose(bn))


def _check_finite(name: str, t: Tensor) -> Tensor:
    if not np.all(np.isfinite(t.data)):
        raise ValueError(f"non-finite intermediate in {name}")
    return t


def loss_mto(h_mix1, z_view2, y_mto: np.ndarray, tau: float) -> Tensor:
    """Mix-to-origin loss: mean negative log-probability of the M sources.

    Row i of the similarity matrix is softmaxed over all N original
    targets; entries y_mto[i] are the positives, each weighted equally, so
    the result is -(1/(N*M)) of the summed log-probabilities.
    """
    y = np.asarray(y_mto, dtype=np.int64)
    sim = cosine_sim_matrix(h_mix1, z_view2)
    logp = ad.log_softmax(ad.scale(sim, 1.0 / tau), axis=1)
    picked = ad.gather(logp, y)
    return _check_finite("loss_mto", ad.neg(ad.mean(picked)))


def loss_mtm(
    h_mix1,
    z_mix2,
    y_mtm: np.ndarray,
    w_mtm: np.ndarray,
    tau: float,
    normalize_weights: bool = False,
) -> Tensor:
    """Mix-to-mix loss: weighted negative log-probability over the window.

    Weights are applied as given (rows summing to M); pass
    ``normalize_weights`` to divide them by M for the normalised ablation.
    """
    y = np.asarray(y_mtm, dtype=np.int64)
    w = np.asarray(w_mtm, dtype=np.float64)
    if y.shape != w.shape:
        raise ValueError(
            f"target shape {y.shape} does not match weight shape {w.shape}"
        )
    if normalize_weights:
        m = (y.shape[1] + 1) // 2
        w = w / m
    sim = cosine_sim_matrix(h_mix1, z_mix2)
    logp = ad.log_softmax(ad.scale(sim, 1.0 / tau), axis=1)
    picked = ad.mul(ad.gather(logp, y), w.astype(logp.dtype, copy=False))
    n = y.shape[0]
    return _check_finite("loss_mtm", ad.scale(ad.asum(picked), -1.0 / n))


def loss_oto(h_view2, z_view1, tau: float) -> Tensor:
    """Origin-to-origin InfoNCE with diagonal positives."""
    sim = cosine_sim_matrix(h_view2, z_view1)
    n = sim.data.shape[0]
    logp = ad.log_softmax(ad.scale(sim, 1.0 / tau), axis=1)
    diag = ad.gather(logp, np.arange(n, dtype=np.int64)[:, None])
    return _check_finite("loss_oto", ad.neg(ad.mean(diag)))


def loss_total(
    cb: ContrastBatch,
    normalize_weights: bool = False,
    term_weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[LossReport, Tensor]:
    """Total objective; returns the per-part report and the scalar tensor.

    Momentum-branch embeddings (z terms) are detached here, so gradients
    of the returned tensor reach only h_mix1 and h_view2.

    ``term_weights`` scales (mto, mtm, oto) for ablations; the report
    carries the raw per-term values but a weighted total. At the default
    (1, 1, 1) the total equals the plain sum bit for bit.
    """
    plan = cb.plan
    tau = cb.temperature
    w_mto, w_mtm, w_oto = term_weights
    mto = loss_mto(
        cb.h_mix1, ad.stop_gradient(cb.z_view2), plan.origin_targets, tau
    )
    mtm = loss_mtm(
        cb.h_mix1,
        ad.stop_gradient(cb.z_mix2),
        plan.mixed_targets,
        plan.mixed_weights,
        tau,
        normalize_weights=normalize_weights,
    )
    oto = loss_oto(cb.h_view2, ad.stop_gradient(cb.z_view1), tau)
    total = ad.add(
        ad.add(ad.scale(mto, w_mto), ad.scale(mtm, w_mtm)),
        ad.scale(oto, w_oto),
    )
    report = LossReport(
        l_mto=float(mto.data),
        l_mtm=float(mtm.data),
        l_oto=float(oto.data),
        l_total=float(total.data),
    )
    return report, total
