"""A from-scratch vision transformer with projection/prediction heads.

The backbone is a standard pre-norm ViT over flattened patches: linear
patch embedding, a learned class token and position table, ``depth``
blocks of multi-head self-attention and a GELU MLP, and a final layer
norm; the class-token row is the representation. Since nothing else is
read after the last block, that block attends from the class token alone
and its MLP and the final norm see only that row.

Two MLP heads sit on top, mirroring momentum-contrastive practice: a
3-layer projection (hidden 4096 by default, output 256) whose final batch
norm carries no affine parameters, and a 2-layer prediction head of the
same flavour. The momentum twin tracks the backbone and projection head
only (the prediction head has no twin) and is advanced exclusively by
``ema_update``.

Parameters live in flat name -> array dicts so the optimizer, the EMA and
the checkpoint format can treat them uniformly. Batch-norm running
statistics are kept in a separate ``buffers`` dict: they are updated by
training-mode forward passes, not by the optimizer.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .patch_ops import PatchBatch

__all__ = [
    "ViTConfig",
    "EncoderParams",
    "MomentumParams",
    "vit_tiny",
    "vit_micro",
    "init_encoder",
    "init_momentum",
    "bind",
    "forward_backbone",
    "forward_project",
    "forward_predict",
    "forward_heads",
    "ema_update",
    "momentum_tracks",
    "write_checkpoint",
    "read_checkpoint",
    "CHECKPOINT_MAGIC",
]


@dataclass(frozen=True)
class ViTConfig:
    """Backbone and head geometry.

    ``validate`` enforces the training-time contract (at least one block,
    head-divisible width, patch-divisible image). Degenerate depth-0
    configs are constructible for tests, where the forward pass reduces to
    embedding + final layer norm.
    """

    image_side: int
    patch_side: int
    channels: int = 3
    depth: int = 12
    heads: int = 3
    dim: int = 192
    mlp_ratio: float = 4.0
    head_hidden: int = 4096
    head_out: int = 256
    ln_eps: float = 1e-6
    bn_eps: float = 1e-5
    bn_momentum: float = 0.9

    @property
    def grid_side(self) -> int:
        return self.image_side // self.patch_side

    @property
    def tokens(self) -> int:
        return self.grid_side * self.grid_side

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_side * self.patch_side

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def mlp_dim(self) -> int:
        return int(self.dim * self.mlp_ratio)

    def validate(self) -> "ViTConfig":
        if self.image_side < 1 or self.patch_side < 1:
            raise ValueError("image_side and patch_side must be positive")
        if self.image_side % self.patch_side != 0:
            raise ValueError(
                f"image side {self.image_side} is not divisible by patch side "
                f"{self.patch_side}"
            )
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if self.dim % self.heads != 0:
            raise ValueError(
                f"token dim {self.dim} is not divisible by head count {self.heads}"
            )
        if self.head_hidden < 1 or self.head_out < 1:
            raise ValueError("head widths must be positive")
        return self


def vit_tiny(image_side: int = 32, channels: int = 3, **overrides) -> ViTConfig:
    """ViT-Tiny with 2-pixel patches: 12 blocks, 3 heads, width 192."""
    kw = dict(
        image_side=image_side,
        patch_side=2,
        channels=channels,
        depth=12,
        heads=3,
        dim=192,
    )
    kw.update(overrides)
    return ViTConfig(**kw).validate()


def vit_micro(image_side: int = 8, channels: int = 3, **overrides) -> ViTConfig:
    """Test-scale backbone: 2 blocks, 2 heads, width 32, slim heads."""
    kw = dict(
        image_side=image_side,
        patch_side=2,
        channels=channels,
        depth=2,
        heads=2,
        dim=32,
        head_hidden=256,
        head_out=64,
    )
    kw.update(overrides)
    return ViTConfig(**kw).validate()


@dataclass
class EncoderParams:
    """Learnable parameters plus batch-norm running statistics."""

    config: ViTConfig
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray]


@dataclass
class MomentumParams:
    """EMA twin of the backbone and projection head (no prediction head)."""

    config: ViTConfig
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray]


def _trunc_normal(
    rng: np.random.Generator, shape, std: float = 0.02, dtype=np.float64
) -> np.ndarray:
    """Normal(0, std) with resampling of draws outside two deviations."""
    out = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(out) > 2.0 * std
        n_bad = int(bad.sum())
        if n_bad == 0:
            break
        out[bad] = rng.normal(0.0, std, size=n_bad)
    return out.astype(dtype, copy=False)


def init_encoder(
    config: ViTConfig, rng: np.random.Generator, dtype=np.float64
) -> EncoderParams:
    """Initialise all weights: truncated normal (std 0.02) for matrices and
    tokens, zeros for biases, ones/zeros for norm gains and shifts."""
    d = config.dim
    p: dict[str, np.ndarray] = {}

    def tn(*shape):
        return _trunc_normal(rng, shape, 0.02, dtype)

    def zeros(*shape):
        return np.zeros(shape, dtype=dtype)

    def ones(*shape):
        return np.ones(shape, dtype=dtype)

    p["patch_embed.w"] = tn(config.patch_dim, d)
    p["patch_embed.b"] = zeros(d)
    p["cls_token"] = tn(1, 1, d)
    p["pos_embed"] = tn(1, config.tokens + 1, d)
    for i in range(config.depth):
        pre = f"blocks.{i}."
        p[pre + "ln1.g"] = ones(d)
        p[pre + "ln1.b"] = zeros(d)
        p[pre + "attn.qkv.w"] = tn(d, 3 * d)
        p[pre + "attn.qkv.b"] = zeros(3 * d)
        p[pre + "attn.out.w"] = tn(d, d)
        p[pre + "attn.out.b"] = zeros(d)
        p[pre + "ln2.g"] = ones(d)
        p[pre + "ln2.b"] = zeros(d)
        p[pre + "mlp.fc1.w"] = tn(d, config.mlp_dim)
        p[pre + "mlp.fc1.b"] = zeros(config.mlp_dim)
        p[pre + "mlp.fc2.w"] = tn(config.mlp_dim, d)
        p[pre + "mlp.fc2.b"] = zeros(d)
    p["norm.g"] = ones(d)
    p["norm.b"] = zeros(d)

    hid, out = config.head_hidden, config.head_out
    # projection: linear -> BN -> relu, twice, then linear -> BN (no affine)
    p["proj.fc1.w"] = tn(d, hid)
    p["proj.bn1.gamma"] = ones(hid)
    p["proj.bn1.beta"] = zeros(hid)
    p["proj.fc2.w"] = tn(hid, hid)
    p["proj.bn2.gamma"] = ones(hid)
    p["proj.bn2.beta"] = zeros(hid)
    p["proj.fc3.w"] = tn(hid, out)
    # prediction: linear -> BN -> relu, then linear -> BN (no affine)
    p["pred.fc1.w"] = tn(out, hid)
    p["pred.bn1.gamma"] = ones(hid)
    p["pred.bn1.beta"] = zeros(hid)
    p["pred.fc2.w"] = tn(hid, out)

    buffers: dict[str, np.ndarray] = {}
    for name, width in (
        ("proj.bn1", hid),
        ("proj.bn2", hid),
        ("proj.bn3", out),
        ("pred.bn1", hid),
        ("pred.bn2", out),
    ):
        buffers[name + ".mean"] = zeros(width)
        buffers[name + ".var"] = ones(width)

    return EncoderParams(config=config, params=p, buffers=buffers)


def momentum_tracks(name: str) -> bool:
    """Whether a parameter or buffer belongs to the momentum twin."""
    return not name.startswith("pred.")


def init_momentum(encoder: EncoderParams) -> MomentumParams:
    """Deep-copy the tracked subset; the twin starts equal to the encoder."""
    return MomentumParams(
        config=encoder.config,
        params={k: v.copy() for k, v in encoder.params.items() if momentum_tracks(k)},
        buffers={
            k: v.copy() for k, v in encoder.buffers.items() if momentum_tracks(k)
        },
    )


def ema_update(
    encoder: EncoderParams, momentum: MomentumParams, mu: float
) -> MomentumParams:
    """One exponential-moving-average step: xi' = mu * xi + (1 - mu) * theta.

    Applied to every tracked parameter and buffer. ``mu`` must lie in
    [0, 1]; mu=1 leaves the twin bit-identical, mu=0 copies the encoder.
    """
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"momentum coefficient must lie in [0, 1], got {mu}")
    new_params = {
        k: mu * v + (1.0 - mu) * encoder.params[k]
        for k, v in momentum.params.items()
    }
    new_buffers = {
        k: mu * v + (1.0 - mu) * encoder.buffers[k]
        for k, v in momentum.buffers.items()
    }
    return MomentumParams(momentum.config, new_params, new_buffers)


def bind(params: Mapping[str, np.ndarray], tape: Tape | None) -> dict[str, Tensor]:
    """Wrap a parameter dict as tensors, attached to ``tape`` when given."""
    if tape is None:
        return {k: Tensor(v) for k, v in params.items()}
    return {k: tape.var(v) for k, v in params.items()}


def _patch_array(patches) -> np.ndarray:
    if isinstance(patches, PatchBatch):
        return patches.patches
    return np.asarray(patches)


def forward_backbone(
    config: ViTConfig,
    tv: Mapping[str, Tensor],
    patches,
    capture_attention: bool = False,
):
    """Run the ViT trunk; returns the class-token representation [N, dim].

    With ``capture_attention`` also returns, per block, the softmaxed
    attention weights as plain arrays [N, heads, T+1, T+1].
    """
    x = _patch_array(patches)
    n, t, dpatch = x.shape
    if t != config.tokens:
        raise ValueError(
            f"got {t} patches per image but the position table covers "
            f"{config.tokens}"
        )
    if dpatch != config.patch_dim:
        raise ValueError(
            f"patch dimension {dpatch} does not match configured "
            f"{config.patch_dim}"
        )
    d, heads, dh = config.dim, config.heads, config.head_dim
    tk = t + 1
    inv_sqrt_dh = 1.0 / np.sqrt(dh)

    h = ad.add(ad.matmul(Tensor(x), tv["patch_embed.w"]), tv["patch_embed.b"])
    cls = ad.broadcast_to(tv["cls_token"], (n, 1, d))
    h = ad.concat([cls, h], axis=1)
    h = ad.add(h, tv["pos_embed"])

    attention: list[np.ndarray] = []
    for i in range(config.depth):
        pre = f"blocks.{i}."
        # only the class token is read after the last block, so there the
        # queries, the MLP and the final norm run on it alone; every token
        # still gives keys and values. Captured attention needs all rows.
        rows = 1 if i == config.depth - 1 and not capture_attention else tk
        y = ad.layer_norm(h, tv[pre + "ln1.g"], tv[pre + "ln1.b"], config.ln_eps)
        qkv = ad.add(ad.matmul(y, tv[pre + "attn.qkv.w"]), tv[pre + "attn.qkv.b"])

        def heads_view(part):
            return ad.transpose(ad.reshape(part, (n, -1, heads, dh)), (0, 2, 1, 3))

        q = heads_view(qkv[:, :rows, 0 * d : 1 * d])
        k = heads_view(qkv[:, :, 1 * d : 2 * d])
        v = heads_view(qkv[:, :, 2 * d : 3 * d])
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), inv_sqrt_dh)
        attn = ad.softmax(scores, axis=-1)
        if capture_attention:
            attention.append(attn.data.copy())
        ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)), (n, rows, d))
        proj = ad.add(ad.matmul(ctx, tv[pre + "attn.out.w"]), tv[pre + "attn.out.b"])
        h = ad.add(h if rows == tk else h[:, :rows], proj)

        y = ad.layer_norm(h, tv[pre + "ln2.g"], tv[pre + "ln2.b"], config.ln_eps)
        m = ad.add(ad.matmul(y, tv[pre + "mlp.fc1.w"]), tv[pre + "mlp.fc1.b"])
        m = ad.gelu(m)
        m = ad.add(ad.matmul(m, tv[pre + "mlp.fc2.w"]), tv[pre + "mlp.fc2.b"])
        h = ad.add(h, m)

    h = ad.layer_norm(h, tv["norm.g"], tv["norm.b"], config.ln_eps)
    rep = h[:, 0, :]
    if capture_attention:
        return rep, attention
    return rep


def _batch_norm(
    x: Tensor,
    gamma: Tensor | None,
    beta: Tensor | None,
    buffers: dict[str, np.ndarray],
    name: str,
    config: ViTConfig,
    train: bool,
    update_stats: bool,
) -> Tensor:
    """1-D batch norm over axis 0.

    Training mode normalises by batch statistics; eval mode by the stored
    running statistics. ``update_stats`` folds the fresh batch statistics
    into the buffers (momentum ``bn_momentum``, unbiased variance), and is
    kept off for momentum-twin forwards so only ``ema_update`` moves the
    twin.
    """
    eps = config.bn_eps
    if train:
        mu = ad.mean(x, axis=0, keepdims=True)
        xc = ad.sub(x, mu)
        var = ad.mean(ad.mul(xc, xc), axis=0, keepdims=True)
        xhat = ad.div(xc, ad.sqrt(ad.add(var, eps)))
        if update_stats:
            n = x.data.shape[0]
            correction = n / (n - 1) if n > 1 else 1.0
            mom = config.bn_momentum
            buffers[name + ".mean"] = (
                mom * buffers[name + ".mean"] + (1.0 - mom) * mu.data.reshape(-1)
            )
            buffers[name + ".var"] = (
                mom * buffers[name + ".var"]
                + (1.0 - mom) * correction * var.data.reshape(-1)
            )
    else:
        mean_c = buffers[name + ".mean"]
        var_c = buffers[name + ".var"]
        xhat = ad.div(ad.sub(x, mean_c), np.sqrt(var_c + eps))
    if gamma is not None:
        xhat = ad.add(ad.mul(xhat, gamma), beta)
    return xhat


def forward_project(
    config: ViTConfig,
    tv: Mapping[str, Tensor],
    buffers: dict[str, np.ndarray],
    rep: Tensor,
    train: bool = True,
    update_stats: bool = False,
) -> Tensor:
    """Projection head: two linear+BN+ReLU stages, then linear+BN (no affine)."""
    x = ad.matmul(rep, tv["proj.fc1.w"])
    x = _batch_norm(
        x, tv["proj.bn1.gamma"], tv["proj.bn1.beta"], buffers, "proj.bn1",
        config, train, update_stats,
    )
    x = ad.relu(x)
    x = ad.matmul(x, tv["proj.fc2.w"])
    x = _batch_norm(
        x, tv["proj.bn2.gamma"], tv["proj.bn2.beta"], buffers, "proj.bn2",
        config, train, update_stats,
    )
    x = ad.relu(x)
    x = ad.matmul(x, tv["proj.fc3.w"])
    x = _batch_norm(x, None, None, buffers, "proj.bn3", config, train, update_stats)
    return x


def forward_predict(
    config: ViTConfig,
    tv: Mapping[str, Tensor],
    buffers: dict[str, np.ndarray],
    z: Tensor,
    train: bool = True,
    update_stats: bool = False,
) -> Tensor:
    """Prediction head: linear+BN+ReLU, then linear+BN (no affine)."""
    x = ad.matmul(z, tv["pred.fc1.w"])
    x = _batch_norm(
        x, tv["pred.bn1.gamma"], tv["pred.bn1.beta"], buffers, "pred.bn1",
        config, train, update_stats,
    )
    x = ad.relu(x)
    x = ad.matmul(x, tv["pred.fc2.w"])
    x = _batch_norm(x, None, None, buffers, "pred.bn2", config, train, update_stats)
    return x


def forward_heads(
    config: ViTConfig,
    tv: Mapping[str, Tensor],
    buffers: dict[str, np.ndarray],
    rep: Tensor,
    train: bool = True,
    update_stats: bool = False,
) -> tuple[Tensor, Tensor]:
    """Both heads in sequence: returns (projection z, prediction h)."""
    z = forward_project(config, tv, buffers, rep, train, update_stats)
    h = forward_predict(config, tv, buffers, z, train, update_stats)
    return z, h


CHECKPOINT_MAGIC = b"PMIXCKPT"
_CHECKPOINT_VERSION = 1
_DTYPE_TAGS = {"<f8": np.dtype("<f8"), "<f4": np.dtype("<f4")}


def write_checkpoint(
    path, config: ViTConfig, blobs: Mapping[str, np.ndarray], meta: dict
) -> None:
    """Binary checkpoint: magic, version, JSON header, named raw blobs.

    Each blob is stored little-endian in its own precision (64- or 32-bit
    reals), recorded per name in the header so loading is bit-exact for
    either training precision. ``meta`` must be JSON-serialisable.
    """
    entries = []
    payload = []
    for name, arr in blobs.items():
        arr = np.asarray(arr)
        tag = "<f4" if arr.dtype == np.float32 else "<f8"
        data = np.ascontiguousarray(arr, dtype=_DTYPE_TAGS[tag])
        entries.append([name, list(arr.shape), tag])
        payload.append(data.tobytes())
    header = json.dumps(
        {
            "version": _CHECKPOINT_VERSION,
            "config": asdict(config),
            "meta": meta,
            "blobs": entries,
        }
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", _CHECKPOINT_VERSION, len(header)))
        f.write(header)
        for chunk in payload:
            f.write(chunk)


def read_checkpoint(path) -> tuple[ViTConfig, dict[str, np.ndarray], dict]:
    """Inverse of ``write_checkpoint``; returns (config, blobs, meta)."""
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        version, hlen = struct.unpack("<II", f.read(8))
        if version != _CHECKPOINT_VERSION:
            raise ValueError(
                f"{path}: unsupported checkpoint version {version}"
            )
        header = json.loads(f.read(hlen).decode("utf-8"))
        config = ViTConfig(**header["config"])
        blobs: dict[str, np.ndarray] = {}
        for name, shape, tag in header["blobs"]:
            dtype = _DTYPE_TAGS[tag]
            count = int(np.prod(shape)) if shape else 1
            raw = f.read(count * dtype.itemsize)
            if len(raw) != count * dtype.itemsize:
                raise ValueError(f"{path}: truncated blob {name!r}")
            blobs[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return config, blobs, header["meta"]
