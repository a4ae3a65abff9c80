"""The three contrastive losses over cosine similarities.

All three share one shape: similarities between a gradient-carrying batch
of predictions and a detached batch of targets are scaled by 1/tau,
log-softmaxed per row over all N keys (positives included in the
denominator), and the positive entries are picked out and averaged.

- mix-to-origin: each mixed prediction has M positives, the original
  images its groups were sourced from; every positive weighs 1/(N*M).
- mix-to-mix: each mixed prediction is compared against the other view's
  mixed targets; positives are the 2M-1 cyclic neighbours that share
  source images, weighted by the shared-source fraction (weights sum to M
  per row). Duplicate target indices, which occur when the window wraps
  around a small batch, each contribute their own weight.
- origin-to-origin: standard InfoNCE with diagonal positives.

The total objective detaches every momentum-branch input itself, so its
gradient reaches only the prediction inputs regardless of what the caller
recorded.

The total is a sum of separable parts: mix-to-origin and mix-to-mix read
only the mixed prediction ``h_mix1``, and origin-to-origin reads only the
second view's prediction ``h_view2``. ``origin_term`` evaluates the
origin part on its own, so a caller can back-propagate it (and free its
graph) before recording ``h_mix1``, then hand the evaluated term to
``loss_total`` as ``origin``; the report and the total are those of the
call without it, bit for bit.
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
    "origin_term",
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
            setattr(self, name, _embedding(name, getattr(self, name), n))
        if not self.temperature > 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


def _embedding(name: str, t, n: int | None = None) -> Tensor:
    """``t`` as a tensor, checked to be a finite [N, D] embedding, with
    N = ``n`` when given."""
    if not isinstance(t, Tensor):
        t = Tensor(t)
    if t.data.ndim != 2 or (n is not None and t.data.shape[0] != n):
        rows = "" if n is None else f" with N={n}"
        raise ValueError(f"{name} must be [N, D]{rows}, got shape {t.data.shape}")
    if not np.all(np.isfinite(t.data)):
        raise ValueError(f"{name} contains non-finite values")
    return t


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
    h_mix1, z_mix2, y_mtm: np.ndarray, w_mtm: np.ndarray, tau: float
) -> Tensor:
    """Mix-to-mix loss: weighted negative log-probability over the window.

    Weights are applied as given (rows summing to M). Rows normalised to
    sum to 1 give this loss times 1/M: a mix-to-mix term weight of 1/M in
    ``loss_total``.
    """
    y = np.asarray(y_mtm, dtype=np.int64)
    w = np.asarray(w_mtm, dtype=np.float64)
    if y.shape != w.shape:
        raise ValueError(
            f"target shape {y.shape} does not match weight shape {w.shape}"
        )
    sim = cosine_sim_matrix(h_mix1, z_mix2)
    logp = ad.log_softmax(ad.scale(sim, 1.0 / tau), axis=1)
    picked = ad.mul(ad.gather(logp, y), w.astype(logp.dtype, copy=False))
    n = y.shape[0]
    return _check_finite("loss_mtm", ad.scale(ad.asum(picked), -1.0 / n))


def loss_oto(h_view2, z_view1, tau: float) -> Tensor:
    """Origin-to-origin InfoNCE with diagonal positives: the mix-to-origin
    loss whose one positive per row is the image itself."""
    n = len(h_view2.data if isinstance(h_view2, Tensor) else h_view2)
    return loss_mto(h_view2, z_view1, np.arange(n)[:, None], tau)


def origin_term(h_view2, z_view1, tau: float, weight: float) -> tuple[Tensor, Tensor]:
    """The origin-to-origin part of the total objective: the pair ``(oto,
    weight * oto)``, as ``loss_total`` computes it.

    ``z_view1`` is detached here, so the weighted term's gradient reaches
    only ``h_view2``. Both embeddings must be finite [N, D] arrays with the
    same N, as in a ``ContrastBatch``.
    """
    h_view2 = _embedding("h_view2", h_view2)
    z_view1 = _embedding("z_view1", z_view1, h_view2.data.shape[0])
    oto = loss_oto(h_view2, ad.stop_gradient(z_view1), tau)
    return oto, ad.scale(oto, weight)


def loss_total(
    cb: ContrastBatch,
    term_weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
    origin: tuple | None = None,
) -> tuple[LossReport, Tensor]:
    """Total objective; returns the per-part report and the scalar tensor.

    Momentum-branch embeddings (z terms) are detached here, so gradients
    of the returned tensor reach only h_mix1 and h_view2.

    ``term_weights`` scales (mto, mtm, oto) for ablations; the report
    carries the raw per-term values but a weighted total. At the default
    (1, 1, 1) the total equals the plain sum bit for bit.

    ``origin`` is the pair that ``origin_term(cb.h_view2, cb.z_view1,
    cb.temperature, term_weights[2])`` returned (its tensors or their
    values), for a caller that has evaluated, and back-propagated, that
    part already. Its values are taken as constants, so the returned
    tensor's gradient reaches only h_mix1; the report and the total's value
    are those of the call without ``origin``, bit for bit. Without it, the
    part is evaluated here.
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
    )
    if origin is None:
        oto, weighted = origin_term(cb.h_view2, cb.z_view1, tau, w_oto)
    else:
        oto, weighted = (ad.stop_gradient(t) for t in origin)
    total = ad.add(ad.add(ad.scale(mto, w_mto), ad.scale(mtm, w_mtm)), weighted)
    report = LossReport(
        l_mto=float(mto.data),
        l_mtm=float(mtm.data),
        l_oto=float(oto.data),
        l_total=float(total.data),
    )
    return report, total
