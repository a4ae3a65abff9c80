"""The pretraining loop: schedules, AdamW, and the per-step procedure.

One training step runs, in this order: augment the batch into two views;
patch-mix each view under its own fresh permutation; push the first view's
mix and the second view's original through the trained encoder with both
heads (gradients on); push the first view, second view, and second view's
mix through the momentum twin, projection only, gradients off; evaluate
the three-part loss; update the encoder with AdamW; finally advance the
momentum twin by EMA. The twin is read strictly before the optimizer
update and written strictly after it.

Randomness is counter-based: every consumer derives its generator from
(seed, purpose, step) or (seed, purpose, epoch), so a resumed run replays
the identical stream without serialising generator state, and the whole
trajectory is reproducible bit for bit at 64-bit precision.
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
    betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    grad_clip: float | None = None
    seed: int = 0
    precision: str = "f64"
    checkpoint_every: int = 0  # epochs between periodic checkpoints; 0 = final only
    normalize_mix_weights: bool = False
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
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if len(self.loss_weights) != 3 or any(w < 0 for w in self.loss_weights):
            raise ValueError(
                f"loss weights must be three nonnegative reals, got "
                f"{self.loss_weights}"
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
    momentum: enc.MomentumParams
    opt_m: dict[str, np.ndarray]
    opt_v: dict[str, np.ndarray]
    total_steps: int
    warmup_steps: int
    loss_history: list[tuple] = field(default_factory=list)
    aborted: int = 0  # steps aborted on a bad loss; they leave no log row


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


def optimizer_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    wd: float,
    moments: tuple[dict[str, np.ndarray], dict[str, np.ndarray]],
    step: int,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> dict[str, np.ndarray]:
    """One AdamW step over a parameter dict, in place.

    Decoupled weight decay (theta -= lr * wd * theta) applies alongside the
    adaptive step to every non-exempt parameter; ``step`` is 1-based for
    the bias correction.
    """
    b1, b2 = betas
    m_dict, v_dict = moments
    c1 = 1.0 - b1**step
    c2 = 1.0 - b2**step
    for name, theta in params.items():
        g = grads[name]
        m = m_dict[name]
        v = v_dict[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        if wd != 0.0 and not decay_exempt(name):
            update = update + wd * theta
        theta -= lr * update
    return params


def _clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> None:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor


def _schedules_at(state: TrainState) -> tuple[float, float, float]:
    cfg = state.config
    lr = schedule(
        state.step, state.total_steps, state.warmup_steps, cfg.base_lr, 0.0,
        "warmup-cosine",
    )
    wd = schedule(
        state.step, state.total_steps, 0, cfg.weight_decay[0],
        cfg.weight_decay[1], "cosine",
    )
    mu = schedule(
        state.step, state.total_steps, 0, cfg.momentum_mu[0],
        cfg.momentum_mu[1], "cosine",
    )
    return lr, wd, mu


def train_step(
    state: TrainState, batch: po.ImageBatch
) -> tuple[TrainState, ob.LossReport | None]:
    """Advance one step on one batch; see the module docstring for the order.

    On a non-finite loss the step is aborted: a diagnostic is logged,
    ``state.aborted`` is increased, the rest of the state (including
    batch-norm buffers) is left untouched, the step's graph is discarded,
    and the report is None.
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

    # batch-norm buffers may be rolled back if the step aborts
    buffer_backup = {k: v.copy() for k, v in state.encoder.buffers.items()}

    # gradient branch through the trained encoder
    tape = Tape()
    tv = enc.bind(state.encoder.params, tape)
    rep_mix1 = enc.forward_backbone(vit, tv, cast(mixed1.patches))
    _, h_mix1 = enc.forward_heads(
        vit, tv, state.encoder.buffers, rep_mix1, train=True, update_stats=True
    )
    rep_v2 = enc.forward_backbone(vit, tv, cast(pb2))
    _, h_view2 = enc.forward_heads(
        vit, tv, state.encoder.buffers, rep_v2, train=True, update_stats=True
    )

    # momentum branch, read before the optimizer touches the encoder
    mtv = enc.bind(state.momentum.params, None)
    mbuf = state.momentum.buffers

    def momentum_project(patches: np.ndarray):
        rep = enc.forward_backbone(vit, mtv, patches)
        return enc.forward_project(
            vit, mtv, mbuf, rep, train=True, update_stats=False
        )

    z_view1 = momentum_project(cast(pb1))
    z_view2 = momentum_project(cast(pb2))
    z_mix2 = momentum_project(cast(mixed2.patches))

    cb = ob.ContrastBatch(
        h_mix1=h_mix1,
        h_view2=h_view2,
        z_view1=z_view1,
        z_view2=z_view2,
        z_mix2=z_mix2,
        plan=plan1,
        temperature=cfg.temperature,
    )
    try:
        report, total = ob.loss_total(
            cb,
            normalize_weights=cfg.normalize_mix_weights,
            term_weights=cfg.loss_weights,
        )
    except ValueError as err:
        tape.discard()
        state.encoder.buffers.update(buffer_backup)
        state.aborted += 1
        # the message, not the error: a handler that keeps log records would
        # keep its traceback, and through it this step's frame and graph
        log.warning("step %d aborted: %s", step, str(err))
        return state, None
    if not math.isfinite(report.l_total):
        tape.discard()
        state.encoder.buffers.update(buffer_backup)
        state.aborted += 1
        log.warning(
            "step %d aborted: non-finite loss %r, state unchanged", step, report
        )
        return state, None

    tape.backward(total)
    grads = {k: tape.grad(v) for k, v in tv.items()}
    if cfg.grad_clip is not None:
        _clip_gradients(grads, cfg.grad_clip)

    optimizer_update(
        state.encoder.params, grads, lr, wd, (state.opt_m, state.opt_v),
        step + 1, cfg.betas, cfg.adam_eps,
    )
    state.momentum = enc.ema_update(state.encoder, state.momentum, mu)

    state.step += 1
    state.loss_history.append(
        (step, report.l_mto, report.l_mtm, report.l_oto, report.l_total, lr, mu, wd)
    )
    return state, report


def init_state(cfg: TrainConfig, dataset_size: int) -> TrainState:
    """Fresh state: seeded weights, twin equal to encoder, zero moments."""
    steps_per_epoch = dataset_size // cfg.batch_size
    if steps_per_epoch < 1:
        raise ValueError(
            f"dataset of {dataset_size} images yields no full batch of "
            f"{cfg.batch_size}"
        )
    encoder = enc.init_encoder(
        cfg.vit, _derive_rng(cfg.seed, _RNG_INIT, 0), dtype=cfg.dtype
    )
    momentum = enc.init_momentum(encoder)
    opt_m = {k: np.zeros_like(v) for k, v in encoder.params.items()}
    opt_v = {k: np.zeros_like(v) for k, v in encoder.params.items()}
    return TrainState(
        config=cfg,
        step=0,
        epoch=0,
        encoder=encoder,
        momentum=momentum,
        opt_m=opt_m,
        opt_v=opt_v,
        total_steps=cfg.epochs * steps_per_epoch,
        warmup_steps=cfg.warmup_epochs * steps_per_epoch,
    )


def _state_blobs(state: TrainState) -> dict[str, np.ndarray]:
    blobs: dict[str, np.ndarray] = {}
    for k, v in state.encoder.params.items():
        blobs["theta." + k] = v
    for k, v in state.encoder.buffers.items():
        blobs["theta_buf." + k] = v
    for k, v in state.momentum.params.items():
        blobs["xi." + k] = v
    for k, v in state.momentum.buffers.items():
        blobs["xi_buf." + k] = v
    for k, v in state.opt_m.items():
        blobs["adam_m." + k] = v
    for k, v in state.opt_v.items():
        blobs["adam_v." + k] = v
    return blobs


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


def _strip(blobs: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """The blobs written under ``prefix`` by ``_state_blobs``, prefix removed."""
    return {k[len(prefix) :]: v for k, v in blobs.items() if k.startswith(prefix)}


def state_from_checkpoint(path, cfg: TrainConfig) -> TrainState:
    """Rebuild a TrainState from a checkpoint written by ``save_state``.

    The provided config must describe the same backbone; loop counters,
    both parameter sets, buffers, and optimizer moments come from the file.
    """
    vit_cfg, blobs, meta = enc.read_checkpoint(path)
    if vit_cfg != cfg.vit:
        raise ValueError(
            f"{path}: checkpoint backbone {vit_cfg} does not match the "
            f"configured backbone {cfg.vit}"
        )
    encoder = enc.EncoderParams(
        vit_cfg, _strip(blobs, "theta."), _strip(blobs, "theta_buf.")
    )
    momentum = enc.MomentumParams(
        vit_cfg, _strip(blobs, "xi."), _strip(blobs, "xi_buf.")
    )
    return TrainState(
        config=cfg,
        step=int(meta["step"]),
        epoch=int(meta["epoch"]),
        encoder=encoder,
        momentum=momentum,
        opt_m=_strip(blobs, "adam_m."),
        opt_v=_strip(blobs, "adam_v."),
        total_steps=int(meta["total_steps"]),
        warmup_steps=int(meta["warmup_steps"]),
        loss_history=[tuple(row) for row in meta.get("loss_history", [])],
        aborted=int(meta.get("aborted", 0)),  # older checkpoints lack it
    )


def encoder_from_checkpoint(path) -> enc.EncoderParams:
    """The trained encoder of a checkpoint, with the backbone stored in it."""
    vit_cfg, blobs, _meta = enc.read_checkpoint(path)
    params = _strip(blobs, "theta.")
    if not params:
        raise ValueError(f"{path}: checkpoint holds no encoder parameters")
    return enc.EncoderParams(vit_cfg, params, _strip(blobs, "theta_buf."))


def _append_csv(path: Path, rows: list[tuple], write_header: bool) -> None:
    with open(path, "a", newline="") as f:
        writer = csv.writer(f)
        if write_header:
            writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [row[0]] + [format(v, ".17g") for v in row[1:]]
            )


def _truncate_csv(path: Path, step: int) -> None:
    """Keep the header and the rows of steps before ``step``.

    Rows are matched by their step value, not counted, because aborted
    steps write no row.
    """
    with open(path, newline="") as f:
        lines = f.read().splitlines(keepends=True)
    kept = lines[:1] + [ln for ln in lines[1:] if int(ln.split(",", 1)[0]) < step]
    with open(path, "w", newline="") as f:
        f.writelines(kept)


def pretrain(
    cfg: TrainConfig,
    data,
    out_dir,
    resume_from=None,
) -> Path:
    """Run the full loop over a LabeledDataset; returns the final checkpoint.

    Each epoch visits floor(dataset / batch) full batches of a fresh
    without-replacement shuffle. The CSV log and periodic checkpoints land
    in ``out_dir``; resuming from a checkpoint replays the remaining epochs
    exactly as the uninterrupted run would have, and an existing log in
    ``out_dir`` is first cut back to the checkpoint's step.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    images = data.images
    n_total = images.shape[0]

    if resume_from is not None:
        state = state_from_checkpoint(resume_from, cfg)
    else:
        state = init_state(cfg, n_total)

    steps_per_epoch = n_total // cfg.batch_size
    csv_path = out_dir / "train_log.csv"
    if resume_from is None:
        csv_path.unlink(missing_ok=True)
    elif csv_path.exists():
        _truncate_csv(csv_path, state.step)

    for epoch in range(state.epoch, cfg.epochs):
        order = _derive_rng(cfg.seed, _RNG_ORDER, epoch).permutation(n_total)
        epoch_rows: list[tuple] = []
        for b in range(steps_per_epoch):
            idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            batch = po.ImageBatch(images[idx])
            state, report = train_step(state, batch)
            if report is not None:
                epoch_rows.append(state.loss_history[-1])
        _append_csv(csv_path, epoch_rows, write_header=not csv_path.exists())
        state.epoch = epoch + 1
        if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
            save_state(state, out_dir / f"checkpoint_epoch{epoch + 1:04d}.bin")

    final = out_dir / "checkpoint_final.bin"
    save_state(state, final)
    return final
