"""The pretraining loop: schedules, AdamW, and the per-step procedure.

One training step runs, in this order: augment the batch into two views;
patch-mix each view under its own fresh permutation; push the first view,
second view, and second view's mix through the momentum twin, projection
only, gradients off; push the first view's mix and the second view's
original through the trained encoder with both heads (gradients on);
evaluate the three-part loss; update the encoder with AdamW; finally
advance the momentum twin by EMA. The twin runs before the taped passes,
so its transient arrays are freed before the tape's activations pile up;
it is read strictly before the optimizer update and written strictly
after it. No forward pass draws randomness, so their order changes no
value.

Randomness is counter-based: every consumer derives its generator from
(seed, purpose, step) or (seed, purpose, epoch), so a resumed run replays
the identical stream without serialising generator state (a checkpoint
records its seed, and resuming under another is rejected), and the whole
trajectory is reproducible bit for bit, in either precision, on one
machine and BLAS build. Training computes in 32-bit floats by default
(augmentation stays in 64 bits and each view is cast once); 64-bit
precision is the reference path, for bit-level comparison with earlier
runs. The CSV log is written from the loss history that a checkpoint
carries, so a resumed run leaves the log of the uninterrupted one. A run
whose weights turn non-finite stops with an error.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import augment as au
from . import encoder as enc
from . import mixing as mx
from . import objectives as ob
from . import patch_ops as po
from .autodiff import Tape

__all__ = [
    "TrainConfig",
    "TrainState",
    "schedule",
    "optimizer_update",
    "decay_exempt",
    "decay_mask",
    "train_step",
    "pretrain",
    "state_from_checkpoint",
    "encoder_from_checkpoint",
    "save_state",
    "CSV_COLUMNS",
]

log = logging.getLogger(__name__)

CSV_COLUMNS = ("step", "l_mto", "l_mtm", "l_oto", "l_total", "lr", "mu", "wd")

# purpose tags for counter-based RNG streams
_RNG_INIT = 1
_RNG_ORDER = 2
_RNG_AUG1 = 3
_RNG_AUG2 = 4
_RNG_MIX1 = 5
_RNG_MIX2 = 6


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one pretraining run."""

    vit: enc.ViTConfig
    aug: au.AugConfig = field(default_factory=au.AugConfig)
    epochs: int = 100
    warmup_epochs: int = 10
    base_lr: float = 2e-3
    batch_size: int = 32
    mix_count: int = 3
    temperature: float = 0.2
    weight_decay: tuple[float, float] = (0.04, 0.4)
    momentum_mu: tuple[float, float] = (0.996, 1.0)
    grad_clip: float | None = None
    seed: int = 0
    precision: str = "f32"  # f64: the bit-exact reference path
    checkpoint_every: int = 0  # epochs between periodic checkpoints; 0 = final only
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError(
                f"warmup epochs must satisfy 0 <= warmup < epochs, got "
                f"{self.warmup_epochs} vs {self.epochs}"
            )
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if not 1 <= self.mix_count <= self.batch_size:
            raise ValueError(
                f"mix count must lie in [1, batch size], got {self.mix_count} "
                f"with batch {self.batch_size}"
            )
        # written as "not (ok)" so that a NaN fails every check
        if not (self.base_lr >= 0):
            raise ValueError(f"base lr must be >= 0, got {self.base_lr}")
        if not (self.temperature > 0):
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if len(self.loss_weights) != 3 or not all(w >= 0 for w in self.loss_weights):
            raise ValueError(
                f"loss weights must be three nonnegative reals, got "
                f"{self.loss_weights}"
            )
        if not all(w >= 0 for w in self.weight_decay):
            raise ValueError(f"weight decay must be >= 0, got {self.weight_decay}")
        if not all(0 <= mu <= 1 for mu in self.momentum_mu):
            raise ValueError(
                f"momentum mu must lie in [0, 1], got {self.momentum_mu}"
            )
        if self.grad_clip is not None and not (self.grad_clip > 0):
            raise ValueError(
                f"grad clip must be None (off) or positive, got {self.grad_clip}"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint every must be >= 0 (0: final only), got "
                f"{self.checkpoint_every}"
            )
        if self.precision not in ("f64", "f32"):
            raise ValueError(f"precision must be f64 or f32, got {self.precision!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


@dataclass
class TrainState:
    """Everything that evolves during pretraining."""

    config: TrainConfig
    step: int
    epoch: int
    encoder: enc.EncoderParams
    momentum: enc.EncoderParams
    opt_m: enc.Packed  # AdamW moments, in the layout of encoder.params
    opt_v: enc.Packed
    decay: np.ndarray  # decay_mask(encoder.params)
    total_steps: int
    warmup_steps: int
    loss_history: list[tuple] = field(default_factory=list)
    aborted: int = 0  # steps aborted by train_step's rule; they leave no log row


def _derive_rng(seed: int, purpose: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, purpose, index)))


def schedule(
    step: int,
    total_steps: int,
    warmup_steps: int,
    start: float,
    end: float,
    kind: str,
) -> float:
    """Scalar schedules shared by lr, weight decay, and EMA momentum.

    ``warmup-cosine``: linear 0 -> start over the warmup, then a half
    cosine start -> end over the remainder (the learning-rate shape).
    ``cosine``: half cosine start -> end over all steps, no warmup. Both
    hit their endpoints exactly at step 0, the warmup boundary, and
    ``total_steps``.
    """
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if kind == "warmup-cosine":
        if warmup_steps > 0 and step < warmup_steps:
            return start * step / warmup_steps
        span = max(total_steps - warmup_steps, 1)
        progress = (step - warmup_steps) / span
    elif kind == "cosine":
        progress = step / max(total_steps, 1)
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")
    # the cosine blend re-rounds (start - end) at the ends of the range,
    # so the documented endpoints are returned verbatim
    if progress == 0.0:
        return start
    if progress == 1.0:
        return end
    return end + (start - end) * 0.5 * (1.0 + math.cos(math.pi * progress))


def decay_exempt(name: str) -> bool:
    """Parameters excluded from weight decay: biases (including batch-norm
    shifts), layer-norm gains and shifts, and the class token."""
    return name.endswith((".b", ".beta", ".g")) or name == "cls_token"


def decay_mask(params: enc.Packed) -> np.ndarray:
    """Which elements of ``params.flat`` take weight decay."""
    return np.concatenate(
        [np.full(v.size, not decay_exempt(k)) for k, v in params.items()]
    )


# AdamW's moment decay rates and the offset of its denominator
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def optimizer_update(
    theta: np.ndarray,
    grad: np.ndarray,
    lr: float,
    wd: float,
    moments: tuple[np.ndarray, np.ndarray],
    step: int,
    decay: np.ndarray,
) -> np.ndarray:
    """One AdamW step over a whole parameter array, in place, with
    ``ADAM_BETAS`` and ``ADAM_EPS``.

    ``grad``, both moments and the boolean ``decay`` mask share the layout
    of ``theta``. Decoupled weight decay (theta -= lr * wd * theta) applies
    alongside the adaptive step where ``decay`` is set; ``step`` is 1-based
    for the bias correction.
    """
    b1, b2 = ADAM_BETAS
    c1 = 1.0 - b1**step
    c2 = 1.0 - b2**step
    for b in enc.blocks(theta.size):
        t, g, m, v = theta[b], grad[b], moments[0][b], moments[1][b]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        if wd != 0.0:
            np.add(update, wd * t, out=update, where=decay[b])
        t -= lr * update
    return theta


def _clip_gradients(grad: np.ndarray, max_norm: float) -> None:
    total = math.sqrt(float((grad * grad).sum()))
    if total > max_norm:
        grad *= max_norm / total


def _schedules_at(state: TrainState) -> tuple[float, float, float]:
    cfg, step, total = state.config, state.step, state.total_steps
    lr = schedule(step, total, state.warmup_steps, cfg.base_lr, 0.0, "warmup-cosine")
    wd = schedule(step, total, 0, *cfg.weight_decay, "cosine")
    mu = schedule(step, total, 0, *cfg.momentum_mu, "cosine")
    return lr, wd, mu


def train_step(
    state: TrainState, batch: po.ImageBatch
) -> tuple[TrainState, ob.LossReport | None]:
    """Advance one step on one batch; see the module docstring for the order.

    One rule decides a step: it is aborted when the embeddings entering the
    loss or the loss itself are not finite, or when the loss raises a
    ``ValueError`` (such as a zero-norm embedding row). An aborted step
    logs a diagnostic, discards its graph, returns a report of None and
    increases ``state.aborted``; the rest of the state is untouched, since
    nothing writes to it before the loss is known to be finite.
    """
    cfg = state.config
    vit = cfg.vit
    n = batch.count
    if n != cfg.batch_size:
        raise ValueError(
            f"batch has {n} images but the configuration expects "
            f"{cfg.batch_size}"
        )
    seed, step = cfg.seed, state.step
    lr, wd, mu = _schedules_at(state)

    # two stochastic views
    x1 = au.augment_view(batch, cfg.aug, 1, _derive_rng(seed, _RNG_AUG1, step))
    x2 = au.augment_view(batch, cfg.aug, 2, _derive_rng(seed, _RNG_AUG2, step))
    pb1 = po.patchify(x1, vit.patch_side)
    pb2 = po.patchify(x2, vit.patch_side)

    # independent mixing permutations per view
    mix_cfg = mx.MixConfig(images=n, groups=cfg.mix_count, tokens=pb1.tokens)
    plan1 = mx.plan_mix(
        mix_cfg, po.sample_permutation(pb1.tokens, _derive_rng(seed, _RNG_MIX1, step))
    )
    plan2 = mx.plan_mix(
        mix_cfg, po.sample_permutation(pb2.tokens, _derive_rng(seed, _RNG_MIX2, step))
    )
    mixed1 = mx.apply_mix(pb1, plan1)
    mixed2 = mx.apply_mix(pb2, plan2)

    dtype = cfg.dtype

    def cast(pb: po.PatchBatch) -> np.ndarray:
        return pb.patches.astype(dtype, copy=False)

    # momentum branch, read before the optimizer touches the encoder and
    # run before the tape is filled
    mtv = enc.bind(state.momentum.params, None)

    def momentum_project(patches: np.ndarray):
        rep = enc.forward_backbone(vit, mtv, patches)
        return enc.forward_project(vit, mtv, rep)

    z_view1 = momentum_project(cast(pb1))
    z_view2 = momentum_project(cast(pb2))
    z_mix2 = momentum_project(cast(mixed2.patches))

    # gradient branch through the trained encoder
    tape = Tape()
    tv = enc.bind(state.encoder.params, tape)

    def predict(patches: np.ndarray):
        rep = enc.forward_backbone(vit, tv, patches)
        return enc.forward_heads(vit, tv, rep)[1]

    h_mix1 = predict(cast(mixed1.patches))
    h_view2 = predict(cast(pb2))

    try:
        cb = ob.ContrastBatch(
            h_mix1, h_view2, z_view1, z_view2, z_mix2, plan1, cfg.temperature
        )
        report, total = ob.loss_total(cb, term_weights=cfg.loss_weights)
        abort = None
        if not math.isfinite(report.l_total):
            abort = f"non-finite loss {report!r}, state unchanged"
    except ValueError as err:
        # the message, not the error: a handler that keeps log records would
        # keep its traceback, and through it this step's frame and graph
        abort = str(err)
    if abort is not None:
        tape.discard()
        state.aborted += 1
        log.warning("step %d aborted: %s", step, abort)
        return state, None

    tape.backward(total)
    # the gradient in the layout of the parameters
    grad = np.concatenate([tape.grad(t).ravel() for t in tv.values()])
    if cfg.grad_clip is not None:
        _clip_gradients(grad, cfg.grad_clip)

    optimizer_update(
        state.encoder.params.flat, grad, lr, wd,
        (state.opt_m.flat, state.opt_v.flat), step + 1, state.decay,
    )
    enc.ema_update(state.encoder, state.momentum, mu)

    state.step += 1
    state.loss_history.append(
        (step, report.l_mto, report.l_mtm, report.l_oto, report.l_total, lr, mu, wd)
    )
    return state, report


def _run_length(cfg: TrainConfig, dataset_size: int) -> tuple[int, int]:
    """The (total, warmup) step counts of a run over ``dataset_size`` images."""
    steps_per_epoch = dataset_size // cfg.batch_size
    if steps_per_epoch < 1:
        raise ValueError(
            f"dataset of {dataset_size} images yields no full batch of "
            f"{cfg.batch_size}"
        )
    return cfg.epochs * steps_per_epoch, cfg.warmup_epochs * steps_per_epoch


def init_state(cfg: TrainConfig, dataset_size: int) -> TrainState:
    """Fresh state: seeded weights, twin equal to encoder, zero moments."""
    total_steps, warmup_steps = _run_length(cfg, dataset_size)
    encoder = enc.init_encoder(cfg.vit, _derive_rng(cfg.seed, _RNG_INIT, 0), cfg.dtype)
    flat = encoder.params.flat
    return TrainState(
        config=cfg,
        step=0,
        epoch=0,
        encoder=encoder,
        momentum=enc.init_momentum(encoder),
        # np.zeros leaves fresh pages unwritten, where zeros_like fills them
        opt_m=enc.Packed(encoder.params.shapes, np.zeros(flat.shape, flat.dtype)),
        opt_v=enc.Packed(encoder.params.shapes, np.zeros(flat.shape, flat.dtype)),
        decay=decay_mask(encoder.params),
        total_steps=total_steps,
        warmup_steps=warmup_steps,
    )


def _state_blobs(state: TrainState) -> dict[str, np.ndarray]:
    sets = {
        "theta.": state.encoder.params,
        "xi.": state.momentum.params,
        "adam_m.": state.opt_m,
        "adam_v.": state.opt_v,
    }
    return {pre + k: v for pre, packed in sets.items() for k, v in packed.items()}


def save_state(state: TrainState, path) -> None:
    """Write a checkpoint holding both parameter sets and the loop counters."""
    meta = {
        "step": state.step,
        "epoch": state.epoch,
        "total_steps": state.total_steps,
        "warmup_steps": state.warmup_steps,
        "aborted": state.aborted,
        "seed": state.config.seed,
        "precision": state.config.precision,
        "loss_history": [list(row) for row in state.loss_history],
    }
    enc.write_checkpoint(path, state.config.vit, _state_blobs(state), meta)


def _read_set(path, blobs, prefix: str, shapes: dict[str, tuple]) -> enc.Packed:
    """The parameter set written under ``prefix`` by ``_state_blobs``, packed
    in the layout ``shapes``. A set that is absent, or whose names and
    shapes differ from ``shapes``, is a ``ValueError`` naming ``path``."""
    arrays = {k[len(prefix) :]: v for k, v in blobs.items() if k.startswith(prefix)}
    if not arrays:
        raise ValueError(f"{path}: checkpoint holds no {prefix!r} parameter set")
    if {k: v.shape for k, v in arrays.items()} != shapes:
        raise ValueError(
            f"{path}: the checkpoint's {prefix!r} set does not match the "
            f"names and shapes of its layout"
        )
    return enc.pack(arrays, shapes)


# the meta keys that state_from_checkpoint cannot do without
_STATE_META = (
    "precision", "step", "epoch", "total_steps", "warmup_steps", "loss_history",
    "seed",
)


def state_from_checkpoint(path, cfg: TrainConfig) -> TrainState:
    """Rebuild a TrainState from a checkpoint written by ``save_state``.

    The provided config must describe the same backbone, precision and
    seed; loop counters, the loss history, both parameter sets and the
    optimizer moments come from the file, each read by name into its
    ``enc.layout``: the twin's, the others the encoder's. A checkpoint whose
    meta lacks a loop counter, the loss history, the precision or the seed
    (one not written by ``save_state``), or whose parameter sets do not
    each hold exactly the names and shapes of their layout, is a
    ``ValueError`` naming the file.
    """
    vit_cfg, blobs, meta = enc.read_checkpoint(path)
    missing = [k for k in _STATE_META if k not in meta]
    if missing:
        raise ValueError(
            f"{path}: checkpoint meta lacks {', '.join(missing)}; it does not "
            f"hold a training state"
        )
    if vit_cfg != cfg.vit:
        raise ValueError(
            f"{path}: checkpoint backbone {vit_cfg} does not match the "
            f"configured backbone {cfg.vit}"
        )
    if meta["precision"] != cfg.precision:
        raise ValueError(
            f"{path}: checkpoint precision {meta['precision']} does not match "
            f"the configured precision {cfg.precision}"
        )
    if meta["seed"] != cfg.seed:
        raise ValueError(
            f"{path}: checkpoint seed {meta['seed']} does not match the "
            f"configured seed {cfg.seed}"
        )
    shapes = enc.layout(vit_cfg)
    encoder = enc.EncoderParams(vit_cfg, _read_set(path, blobs, "theta.", shapes))
    twin = _read_set(path, blobs, "xi.", enc.layout(vit_cfg, twin=True))
    return TrainState(
        config=cfg,
        step=int(meta["step"]),
        epoch=int(meta["epoch"]),
        encoder=encoder,
        momentum=enc.EncoderParams(vit_cfg, twin),
        opt_m=_read_set(path, blobs, "adam_m.", shapes),
        opt_v=_read_set(path, blobs, "adam_v.", shapes),
        decay=decay_mask(encoder.params),
        total_steps=int(meta["total_steps"]),
        warmup_steps=int(meta["warmup_steps"]),
        loss_history=[tuple(row) for row in meta["loss_history"]],
        aborted=int(meta.get("aborted", 0)),  # older checkpoints lack it
    )


def encoder_from_checkpoint(path) -> enc.EncoderParams:
    """The trained encoder of a checkpoint, with the backbone stored in it;
    a ``theta.`` set that does not fit that backbone is a ``ValueError``
    naming the file."""
    vit_cfg, blobs, _meta = enc.read_checkpoint(path)
    return enc.EncoderParams(
        vit_cfg, _read_set(path, blobs, "theta.", enc.layout(vit_cfg))
    )


def _write_log(path: Path, mode: str, rows: list[tuple]) -> None:
    """Write loss-history ``rows`` to the CSV log: mode "w" starts the file
    with its header, mode "a" appends."""
    with open(path, mode, newline="") as f:
        writer = csv.writer(f)
        if mode == "w":
            writer.writerow(CSV_COLUMNS)
        writer.writerows([r[0]] + [format(v, ".17g") for v in r[1:]] for r in rows)


def pretrain(cfg: TrainConfig, data, out_dir, resume_from=None) -> Path:
    """Run the full loop over a LabeledDataset; returns the final checkpoint.

    Each epoch visits floor(dataset / batch) full batches of a fresh
    without-replacement shuffle. The CSV log and periodic checkpoints land
    in ``out_dir``. The log is written from ``state.loss_history``: a new
    file holds the header and the rows the state starts with (the
    checkpoint's, on resume), and each epoch appends its own. So a resumed
    run leaves the uninterrupted run's log, whatever ``out_dir`` held. A
    checkpoint whose total or warmup step count differs from the one
    ``cfg`` and ``data`` give is a ``ValueError`` naming it, raised before
    any step.

    A run stops as soon as the encoder holds a non-finite weight, checked
    after every step, completed or aborted: the epoch's completed steps are
    logged, no checkpoint is written, and a ``ValueError`` names the last
    completed step. So no checkpoint ever holds a diverged encoder, and a
    resume from one written before this rule stops at its first step. A
    step aborted with finite weights is skipped and counted.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    images = data.images
    n_total = images.shape[0]

    if resume_from is not None:
        state = state_from_checkpoint(resume_from, cfg)
        want = _run_length(cfg, n_total)
        if (state.total_steps, state.warmup_steps) != want:
            raise ValueError(
                f"{resume_from}: the checkpoint's run has {state.total_steps} "
                f"steps ({state.warmup_steps} warmup), but the configuration "
                f"and data give {want[0]} ({want[1]} warmup)"
            )
    else:
        state = init_state(cfg, n_total)

    steps_per_epoch = n_total // cfg.batch_size
    csv_path = out_dir / "train_log.csv"
    _write_log(csv_path, "w", state.loss_history)

    for epoch in range(state.epoch, cfg.epochs):
        order = _derive_rng(cfg.seed, _RNG_ORDER, epoch).permutation(n_total)
        first = len(state.loss_history)
        for b in range(steps_per_epoch):
            idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            state, _ = train_step(state, po.ImageBatch(images[idx]))
            if not np.isfinite(state.encoder.params.flat).all():
                _write_log(csv_path, "a", state.loss_history[first:])
                raise ValueError(
                    f"step {state.step - 1} left non-finite weights: the run "
                    f"has diverged"
                )
        _write_log(csv_path, "a", state.loss_history[first:])
        state.epoch = epoch + 1
        if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
            save_state(state, out_dir / f"checkpoint_epoch{epoch + 1:04d}.bin")

    final = out_dir / "checkpoint_final.bin"
    save_state(state, final)
    return final
