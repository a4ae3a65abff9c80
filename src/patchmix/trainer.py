"""The pretraining loop: schedules, AdamW, and the per-step procedure.

One training step runs, in this order: augment the batch into two views;
patch-mix each view under its own fresh permutation; push the first view,
second view, and second view's mix through the momentum twin, projection
only, gradients off; then the two taped passes through the trained
encoder with both heads, one tape each, because the loss is separable.
The step's one flat gradient, zeros in the layout of the encoder, is made
before the first tape. Each part records its prediction on a tape whose
leaves add their gradients in place into it (``Tape.var_into``),
evaluates its part of the loss, and back-propagates, which frees the tape
with its activations before the next part records anything:

1. the origin part: the second view's original (``h_view2``) and the
   weighted origin-to-origin term over it;
2. the mix part: the first view's mix (``h_mix1``) and the total loss,
   with the origin part's values handed in as constants.

Then update the encoder with AdamW, and finally advance the momentum twin
by EMA. Each parameter is used once per pass, so each gradient is the
same two-term sum, in the same order, that one tape over both passes
would give, bit for bit (that tape's leaves add into zeros too), and peak
memory holds one pass's activations, not two. The twin runs before the
taped passes, so its transient arrays are freed before the activations
pile up; it is read strictly before the optimizer update and written
strictly after it. No forward pass draws randomness, so their order
changes no value.

Randomness is counter-based: every consumer derives its generator from
(seed, purpose, step) or (seed, purpose, epoch), so a resumed run replays
the identical stream without serialising generator state (a checkpoint
records its config, data, steps per epoch and position, whence its epoch
and schedules follow, and refuses to resume another), and the whole
trajectory is reproducible bit for bit, in either precision, on one
machine and BLAS build. Training computes in 32-bit floats by default
(augmentation stays in 64 bits and each view is cast once, before it is
mixed, so its mix is gathered in the run's precision); 64-bit
precision is the reference path, for bit-level comparison with earlier
runs. The CSV log is written from the loss history that a checkpoint
carries, so a resumed run leaves the log of the uninterrupted one. A run
whose weights turn non-finite stops with an error.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import augment as au
from . import encoder as enc
from . import mixing as mx
from . import objectives as ob
from . import patch_ops as po
from .autodiff import Tape
from .kvconfig import are_reals, is_int, is_real

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
    """Hyperparameters of one pretraining run.

    A field out of range is a ``ValueError``. A batch of at most
    2 * mix_count - 2 images is allowed but warned about (``UserWarning``,
    reported at the line that builds the config): a mixed view's 2M-1
    mix-to-mix neighbours then wrap around the batch and repeat targets
    within a row, each repeat counted with its own weight.
    """

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
        for name in ("epochs", "warmup_epochs", "batch_size", "mix_count", "seed",
                     "checkpoint_every"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(
                    f"{name.replace('_', ' ')} must be an integer, got {value!r}"
                )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError(
                f"warmup epochs must satisfy 0 <= warmup < epochs, got "
                f"{self.warmup_epochs} vs {self.epochs}"
            )
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if not 1 <= self.mix_count <= min(self.batch_size, self.vit.tokens):
            raise ValueError(
                f"mix count must lie in [1, min(batch size, tokens)], got "
                f"{self.mix_count} with batch {self.batch_size} and "
                f"{self.vit.tokens} tokens"
            )
        # written as "not (ok)" so that a NaN fails every check
        if not (is_real(self.base_lr) and self.base_lr >= 0):
            raise ValueError(f"base lr must be >= 0, got {self.base_lr!r}")
        if not (is_real(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be positive, got {self.temperature!r}")
        weights = self.loss_weights
        if not (are_reals(weights, 3) and all(w >= 0 for w in weights)):
            raise ValueError(
                f"loss weights must be three nonnegative reals, got "
                f"{weights!r}"
            )
        for name, pair, top in (
            ("weight decay", self.weight_decay, math.inf),
            ("momentum mu", self.momentum_mu, 1),
        ):
            if not (are_reals(pair, 2) and all(0 <= v <= top for v in pair)):
                raise ValueError(
                    f"{name} must be a (start, end) pair in [0, {top}], got {pair}"
                )
        clip = self.grad_clip
        if clip is not None and not (is_real(clip) and clip > 0):
            raise ValueError(f"grad clip must be None (off) or positive, got {clip!r}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint every must be >= 0 (0: final only), got "
                f"{self.checkpoint_every}"
            )
        if self.precision not in ("f64", "f32"):
            raise ValueError(f"precision must be f64 or f32, got {self.precision!r}")
        n, m = self.batch_size, self.mix_count
        if n <= 2 * m - 2:
            warnings.warn(
                f"batch size {n} <= 2*{m} - 2: mix-to-mix targets contain "
                f"duplicate indices within a row",
                stacklevel=3,
            )

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


@dataclass
class TrainState:
    """Everything that evolves during pretraining, and its steps per epoch."""

    config: TrainConfig
    step: int  # completed steps
    encoder: enc.EncoderParams
    momentum: enc.EncoderParams
    opt_m: enc.Packed  # AdamW moments, in the layout of encoder.params
    opt_v: enc.Packed
    decay: np.ndarray  # decay_mask(encoder.params)
    steps_per_epoch: int  # full batches in the training images
    loss_history: list[tuple] = field(default_factory=list)
    aborted: int = 0  # steps aborted by train_step's rule; they leave no log row
    data: str | None = None  # the training images' _fingerprint, set by pretrain


def _derive_rng(seed: int, purpose: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, purpose, index)))


def schedule(
    step: int, total_steps: int, warmup_steps: int, start: float, end: float
) -> float:
    """The scalar schedule shared by lr, weight decay, and EMA momentum:
    linear 0 -> start over the warmup, then a half cosine start -> end over
    the remainder. The learning rate warms up; weight decay and momentum
    take no warmup, so their cosine spans every step. It hits its
    endpoints exactly at step 0, the warmup boundary, and ``total_steps``.
    """
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if warmup_steps > 0 and step < warmup_steps:
        return start * step / warmup_steps
    progress = (step - warmup_steps) / max(total_steps - warmup_steps, 1)
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
    cfg, step, spe = state.config, state.step, state.steps_per_epoch
    total = cfg.epochs * spe
    lr = schedule(step, total, cfg.warmup_epochs * spe, cfg.base_lr, 0.0)
    wd = schedule(step, total, 0, *cfg.weight_decay)
    mu = schedule(step, total, 0, *cfg.momentum_mu)
    return lr, wd, mu


def _predict(vit: enc.ViTConfig, tv, patches: np.ndarray):
    """The prediction-head output of the trained encoder's parameters ``tv``."""
    rep = enc.forward_backbone(vit, tv, patches)
    return enc.forward_heads(vit, tv, rep)[1]


def _zeros(params: enc.Packed) -> enc.Packed:
    """A set of zeros in the layout and dtype of ``params``."""
    # np.zeros leaves fresh pages unwritten, where zeros_like fills them
    return enc.Packed(params.shapes, np.zeros(params.flat.shape, params.flat.dtype))


class _Aborted(Exception):
    """A part of a step's loss raised a ``ValueError`` or was not finite."""


def _view(
    state: TrainState, batch: po.ImageBatch, view: int, rng_aug: int, rng_mix: int
) -> tuple[np.ndarray, np.ndarray, mx.MixPlan]:
    """View ``view`` of ``batch``: its patches, cast once to the run's
    precision, their mix under a fresh permutation, and the mix's plan."""
    cfg, step = state.config, state.step
    x = au.augment_view(batch, cfg.aug, view, _derive_rng(cfg.seed, rng_aug, step))
    pb = po.patchify(x, cfg.vit.patch_side)
    pb = pb.with_patches(pb.patches.astype(cfg.dtype, copy=False))
    perm = po.sample_permutation(pb.tokens, _derive_rng(cfg.seed, rng_mix, step))
    plan = mx.plan_mix(mx.MixConfig(batch.count, cfg.mix_count, pb.tokens), perm)
    return pb.patches, mx.apply_mix(pb, plan).patches.patches, plan


def _taped_part(state: TrainState, grad: enc.Packed, patches, loss, part: str):
    """Record the trained encoder's prediction ``h`` for ``patches`` on a
    tape of its own, and back-propagate ``loss(h)``, which returns the
    part's scalar loss tensor, its value and what the step keeps of the
    part, adding each parameter's gradient in place into its view of
    ``grad``. Returns what is kept; the tape is freed on return. When
    ``loss`` raises a ``ValueError`` or its value is not finite, raises
    ``_Aborted`` with a message naming ``part``, before any backward
    sweep; the tape goes with the exception."""
    tape = Tape()
    tv = {k: tape.var_into(v, grad[k]) for k, v in state.encoder.params.items()}
    h = _predict(state.config.vit, tv, patches)
    try:
        total, value, kept = loss(h)
    except ValueError as err:
        reason = str(err)
    else:
        if math.isfinite(value):
            tape.backward(total)
            return kept
        reason = f"non-finite loss {value!r}"
    raise _Aborted(f"{part} part: {reason}; state unchanged")


def train_step(
    state: TrainState, batch: po.ImageBatch
) -> tuple[TrainState, ob.LossReport | None]:
    """Advance one step on one batch; see the module docstring for the order.

    One rule decides a step: it is aborted when the embeddings entering the
    loss or the loss itself are not finite, or when the loss raises a
    ``ValueError`` (such as a zero-norm embedding row). An aborted step
    logs a diagnostic that names the part of the loss it aborted in,
    drops its graph, returns a report of None and increases
    ``state.aborted``; the rest of the state is untouched, since nothing
    writes to it before both parts of the loss are known to be finite. An
    abort in the origin part skips the mixed view's pass.
    """
    cfg = state.config
    vit = cfg.vit
    n = batch.count
    if n != cfg.batch_size:
        raise ValueError(
            f"batch has {n} images but the configuration expects "
            f"{cfg.batch_size}"
        )
    step = state.step
    lr, wd, mu = _schedules_at(state)

    # two stochastic views, each mixed under its own fresh permutation
    view1, mix1, plan1 = _view(state, batch, 1, _RNG_AUG1, _RNG_MIX1)
    view2, mix2, _plan2 = _view(state, batch, 2, _RNG_AUG2, _RNG_MIX2)

    # momentum branch, read before the optimizer touches the encoder and
    # run before either tape is filled
    mtv = enc.bind(state.momentum.params)

    def momentum_project(patches: np.ndarray):
        rep = enc.forward_backbone(vit, mtv, patches)
        return enc.forward_project(vit, mtv, rep)

    z_view1, z_view2, z_mix2 = map(momentum_project, (view1, view2, mix2))

    tau, weights = cfg.temperature, cfg.loss_weights

    def origin_loss(h_view2):
        oto, weighted = ob.origin_term(h_view2, z_view1, tau, weights[2])
        kept = h_view2.data, (oto.data, weighted.data)
        return weighted, float(weighted.data), kept

    def mix_loss(h_mix1):
        cb = ob.ContrastBatch(h_mix1, h_view2, z_view1, z_view2, z_mix2, plan1, tau)
        report, total = ob.loss_total(cb, term_weights=weights, origin=origin)
        return total, report.l_total, report

    # gradient branch: one tape per part of the loss, both adding into one
    # flat gradient, the first swept and freed before the second records
    grad = _zeros(state.encoder.params)
    try:
        h_view2, origin = _taped_part(state, grad, view2, origin_loss, "origin")
        report = _taped_part(state, grad, mix1, mix_loss, "mix")
    except _Aborted as abort:
        # the message, not the exception: a handler that keeps log records
        # would keep its traceback, and through it this step's graph
        state.aborted += 1
        log.warning("step %d aborted: %s", step, str(abort))
        return state, None

    grad = grad.flat
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


def init_state(cfg: TrainConfig, dataset_size: int) -> TrainState:
    """Fresh state: seeded weights, twin equal to encoder, zero moments."""
    steps_per_epoch = dataset_size // cfg.batch_size
    if steps_per_epoch < 1:
        raise ValueError(
            f"dataset of {dataset_size} images yields no full batch of "
            f"{cfg.batch_size}"
        )
    encoder = enc.init_encoder(cfg.vit, _derive_rng(cfg.seed, _RNG_INIT, 0), cfg.dtype)
    return TrainState(
        config=cfg,
        step=0,
        encoder=encoder,
        momentum=enc.init_momentum(encoder),
        opt_m=_zeros(encoder.params),
        opt_v=_zeros(encoder.params),
        decay=decay_mask(encoder.params),
        steps_per_epoch=steps_per_epoch,
    )


def _record(cfg: TrainConfig) -> dict:
    """Every field of ``cfg`` but ``checkpoint_every``, in the JSON form that
    reads back equal, with nested fields named as in ``aug.flip_prob``."""
    record = json.loads(json.dumps(asdict(cfg)))
    del record["checkpoint_every"]
    for k in ("vit", "aug"):
        record |= {f"{k}.{n}": x for n, x in record.pop(k).items()}
    return record


def _fingerprint(images: np.ndarray) -> str:
    """SHA-256 of the images' shape, dtype and bytes."""
    digest = hashlib.sha256(f"{images.shape} {images.dtype.str}".encode())
    digest.update(np.ascontiguousarray(images))  # hashed in place, no copy
    return digest.hexdigest()


def _check_same_run(path, recorded: dict, configured: dict) -> None:
    """The one rule of a resume: a ``ValueError`` naming ``path`` and every
    field whose recorded and configured values differ, with both values."""
    differ = [
        f"{k} {recorded.get(k)} recorded, {configured.get(k)} configured"
        for k in sorted(recorded.keys() | configured.keys())
        if k not in recorded or k not in configured or recorded[k] != configured[k]
    ]
    if differ:
        raise ValueError(f"{path}: checkpoint of another run; {'; '.join(differ)}")


# the meta keys that save_state writes and state_from_checkpoint requires:
# the state's counts, loss history and data fingerprint, and the run
_STATE_META = ("step", "steps_per_epoch", "loss_history", "aborted", "data", "run")
_COUNTERS = {"step": 0, "steps_per_epoch": 1, "aborted": 0}  # each count's least value


def save_state(state: TrainState, path) -> None:
    """Write a checkpoint: the counts, the run, and each of the four
    parameter sets as one blob, its ``flat``."""
    meta = {k: getattr(state, k) for k in _STATE_META if k != "run"}
    meta["run"] = _record(state.config)
    blobs = {
        "theta": state.encoder.params.flat,
        "xi": state.momentum.params.flat,
        "adam_m": state.opt_m.flat,
        "adam_v": state.opt_v.flat,
    }
    enc.write_checkpoint(path, state.config.vit, blobs, meta)


def _read_set(
    path, blobs, name: str, shapes: dict[str, tuple], dtype=None
) -> enc.Packed:
    """The parameter set that ``save_state`` wrote as the blob ``name``,
    copied into a new set laid out by ``shapes``. A blob that is absent,
    whose shape is not ``(size of shapes,)``, or, where ``dtype`` is given,
    not of ``dtype``, is a ``ValueError`` naming ``path``."""
    if name not in blobs:
        raise ValueError(f"{path}: checkpoint holds no {name!r} parameter set")
    blob = blobs[name]
    out = enc.Packed(shapes, dtype=blob.dtype)
    if blob.shape != out.flat.shape:
        raise ValueError(
            f"{path}: the checkpoint's {name!r} set has shape {blob.shape}, but "
            f"its layout holds {out.flat.shape}"
        )
    if dtype is not None and blob.dtype != dtype:
        raise ValueError(
            f"{path}: the checkpoint's {name!r} set is {blob.dtype}, but the "
            f"run computes in {np.dtype(dtype)}"
        )
    out.flat[...] = blob
    return out


def _read_encoder(path, blobs, vit_cfg, dtype=None) -> enc.EncoderParams:
    """The ``theta`` set, read by ``_read_set`` into ``layout(vit_cfg)``. A
    non-finite weight is a ``ValueError`` naming ``path``: the run that
    wrote it had diverged, and every step from it would abort."""
    params = _read_set(path, blobs, "theta", enc.layout(vit_cfg), dtype)
    if not np.isfinite(params.flat).all():
        raise ValueError(
            f"{path}: the checkpoint's encoder holds non-finite weights; the "
            f"run that wrote it had diverged"
        )
    return enc.EncoderParams(vit_cfg, params)


def state_from_checkpoint(path, cfg: TrainConfig) -> TrainState:
    """Rebuild a TrainState from a checkpoint written by ``save_state`` in
    a run of ``cfg``, each parameter set read from its one blob into its
    ``enc.layout``: the twin's, the others the encoder's. A checkpoint whose
    meta lacks a key of ``_STATE_META``, whose counts are below their
    ``_COUNTERS`` value or not integers, whose loss history is not ``step``
    rows of ``CSV_COLUMNS`` reals (a completed step appends one row), whose
    run is not an object or differs from ``cfg`` in a field but
    ``checkpoint_every``, whose steps and aborted steps exceed the run's,
    whose header backbone is not ``cfg.vit``, that
    lacks one of the four blobs ``theta``, ``xi``, ``adam_m`` and
    ``adam_v``, whose blob is not 1-D of its layout's size in ``cfg``'s
    precision, or whose encoder holds a non-finite weight, is a
    ``ValueError`` naming the file.
    """
    vit, blobs, meta = enc.read_checkpoint(path)
    missing = [k for k in _STATE_META if k not in meta]
    if missing:
        raise ValueError(
            f"{path}: checkpoint meta lacks {', '.join(missing)}; it does not "
            f"hold a training state"
        )
    for k, least in _COUNTERS.items():
        v = meta[k]
        if isinstance(v, bool) or not (isinstance(v, int) and v >= least):
            raise ValueError(
                f"{path}: checkpoint meta {k} is {v!r}, not an integer >= {least}"
            )
    step, spe, aborted = (meta[k] for k in _COUNTERS)
    history = meta["loss_history"]
    if not (isinstance(history, list) and len(history) == step and all(
        are_reals(row, len(CSV_COLUMNS)) for row in history
    )):
        raise ValueError(
            f"{path}: checkpoint meta loss_history is not a list of {step} rows "
            f"(one per step) of {len(CSV_COLUMNS)} reals"
        )
    if not isinstance(meta["run"], dict):
        raise ValueError(f"{path}: checkpoint meta run is not a JSON object")
    _check_same_run(path, meta["run"], _record(cfg))
    if step + aborted > cfg.epochs * spe:
        raise ValueError(
            f"{path}: checkpoint meta step {step} plus aborted {aborted} is "
            f"above the run's {cfg.epochs} epochs of {spe} steps"
        )
    if vit != cfg.vit:
        raise ValueError(f"{path}: the checkpoint's header backbone is not its run's")
    shapes = enc.layout(cfg.vit)
    encoder = _read_encoder(path, blobs, cfg.vit, cfg.dtype)
    twin = _read_set(path, blobs, "xi", enc.layout(cfg.vit, twin=True), cfg.dtype)
    return TrainState(
        config=cfg,
        encoder=encoder,
        momentum=enc.EncoderParams(cfg.vit, twin),
        opt_m=_read_set(path, blobs, "adam_m", shapes, cfg.dtype),
        opt_v=_read_set(path, blobs, "adam_v", shapes, cfg.dtype),
        decay=decay_mask(encoder.params),
        loss_history=[tuple(row) for row in history],
        data=meta["data"],
        **{k: meta[k] for k in _COUNTERS},
    )


def encoder_from_checkpoint(path) -> enc.EncoderParams:
    """The trained encoder of a checkpoint, with the backbone stored in it;
    a ``theta`` set that is absent, does not fit that backbone, or holds a
    non-finite weight, is a ``ValueError`` naming the file."""
    vit_cfg, blobs, _meta = enc.read_checkpoint(path)
    return _read_encoder(path, blobs, vit_cfg)


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
    resume under another ``cfg`` (see ``state_from_checkpoint``), images or
    steps per epoch, or from inside an epoch, is a ``ValueError`` naming
    the file, raised before any step or log row.

    A run stops as soon as the encoder holds a non-finite weight, checked
    after every step, completed or aborted: the epoch's completed steps are
    logged, no checkpoint is written, and a ``ValueError`` names the last
    completed step. So no checkpoint ever holds a diverged encoder, and one
    written before this rule is rejected when it is read. A step aborted
    with finite weights is skipped and counted.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    images = data.images
    n_total = images.shape[0]
    spe = n_total // cfg.batch_size

    if resume_from is not None:
        state = state_from_checkpoint(resume_from, cfg)
        now = {"data": _fingerprint(images), "steps_per_epoch": spe}  # hashed once
        _check_same_run(resume_from, {k: getattr(state, k) for k in now}, now)
    else:
        state = init_state(cfg, n_total)

    # every attempted step completes or aborts, and checkpoints end epochs
    first_epoch, inside = divmod(state.step + state.aborted, spe)
    if inside:
        raise ValueError(
            f"{resume_from}: checkpoint meta step {state.step} plus aborted "
            f"{state.aborted} ends inside epoch {first_epoch + 1}"
        )
    csv_path = out_dir / "train_log.csv"
    _write_log(csv_path, "w", state.loss_history)

    for epoch in range(first_epoch, cfg.epochs):
        order = _derive_rng(cfg.seed, _RNG_ORDER, epoch).permutation(n_total)
        first = len(state.loss_history)
        for b in range(spe):
            idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            state, _ = train_step(state, po.ImageBatch(images[idx]))
            if not np.isfinite(state.encoder.params.flat).all():
                _write_log(csv_path, "a", state.loss_history[first:])
                raise ValueError(
                    f"step {state.step - 1} left non-finite weights: the run "
                    f"has diverged"
                )
        _write_log(csv_path, "a", state.loss_history[first:])
        state.data = state.data or _fingerprint(images)  # fresh: after epoch 1
        if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
            save_state(state, out_dir / f"checkpoint_epoch{epoch + 1:04d}.bin")

    final = out_dir / "checkpoint_final.bin"
    save_state(state, final)
    return final
