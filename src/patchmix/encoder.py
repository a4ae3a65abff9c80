"""A from-scratch vision transformer with projection/prediction heads.

The backbone is a standard pre-norm ViT over flattened patches: linear
patch embedding, a learned class token and position table, ``depth``
blocks of multi-head self-attention and a GELU MLP, and a final layer
norm; the class-token row is the representation. Since nothing else is
read after the last block, that block attends from the class token alone
and its MLP and the final norm see only that row. Every biased
projection is one ``autodiff.linear`` node; a block's pre-norm layer
norms and the projections they feed are ``autodiff.norm_linear`` calls,
which keep the normalised input but not the norm's output. The queries,
keys and values of a block are views of its one qkv array, split by head
without a copy.

Two MLP heads sit on top, mirroring momentum-contrastive practice: a
3-layer projection (hidden 4096 by default, output 256) whose final batch
norm carries no affine parameters, and a 2-layer prediction head of the
same flavour. The momentum twin tracks the backbone and projection head
only (the prediction head has no twin) and is advanced exclusively by
``ema_update``.

Each parameter set is a ``Packed`` dict of named views into one contiguous
array: the optimizer and the EMA act on the array, the forward pass and the
checkpoint on the names. The heads only ever run in training mode and are
discarded after pretraining, so their batch norms normalise by the batch
statistics and keep no running statistics: an encoder is one parameter
set. Every set is built in, or read into, a ``layout`` of ``param_table``;
the twin's layout, the tracked names, is the leading part of the encoder's.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .patch_ops import PatchBatch

__all__ = [
    "ViTConfig",
    "Packed",
    "pack",
    "EncoderParams",
    "vit_tiny",
    "vit_micro",
    "param_table",
    "layout",
    "init_encoder",
    "init_momentum",
    "bind",
    "forward_backbone",
    "forward_project",
    "forward_heads",
    "ema_update",
    "momentum_tracks",
    "blocks",
    "write_checkpoint",
    "read_checkpoint",
    "CHECKPOINT_MAGIC",
]


@dataclass(frozen=True)
class ViTConfig:
    """Backbone and head geometry.

    Construction enforces the training contract: at least one block, a
    width the head count divides, an image the patch side divides,
    positive sizes (the MLP width included) and finite positive norm
    offsets. A geometry that cannot train cannot be built, whether from a
    preset or from a checkpoint header.
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

    def __post_init__(self):
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
        # written as "not (ok)" so that a NaN fails every check
        if not (self.channels >= 1):
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if not (math.isfinite(self.mlp_ratio) and self.mlp_dim >= 1):
            raise ValueError(
                f"mlp width dim * mlp_ratio must be >= 1, got {self.dim} * "
                f"{self.mlp_ratio}"
            )
        for name, eps in (("ln_eps", self.ln_eps), ("bn_eps", self.bn_eps)):
            if not (0 < eps < math.inf):
                raise ValueError(f"{name} must be finite and positive, got {eps}")

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


def vit_tiny(image_side: int = 32, channels: int = 3, **overrides) -> ViTConfig:
    """ViT-Tiny with 2-pixel patches: 12 blocks, 3 heads, width 192."""
    kw = dict(patch_side=2, channels=channels, depth=12, heads=3, dim=192)
    return ViTConfig(image_side, **(kw | overrides))


def vit_micro(image_side: int = 8, channels: int = 3, **overrides) -> ViTConfig:
    """Test-scale backbone: 2 blocks, 2 heads, width 32, slim heads."""
    kw = dict(patch_side=2, channels=channels, depth=2, heads=2, dim=32,
              head_hidden=256, head_out=64)
    return ViTConfig(image_side, **(kw | overrides))


# elements per slice of a whole-set update, so that its operands and
# temporaries stay in cache: AdamW over 2.9M elements took ~38 ms in slices
# and ~74 ms in one pass (Xeon, 4 MiB L2)
BLOCK = 1 << 15


def blocks(size: int):
    """Slices of at most ``BLOCK`` elements that cover ``range(size)``."""
    return (slice(i, min(i + BLOCK, size)) for i in range(0, size, BLOCK))


class Packed(dict):
    """Named views, in name order, into one contiguous 1-D array ``flat``.

    Whole-set operations act on ``flat``; a name is read, and written in
    place (``p[name][...] = x``), through its view. Rebinding a name would
    detach it from ``flat``, so nothing does.
    """

    def __init__(self, shapes: Mapping[str, tuple], flat=None, dtype=np.float64):
        super().__init__()
        if flat is None:
            flat = np.empty(sum(math.prod(s) for s in shapes.values()), dtype)
        self.flat = flat
        start = 0
        for name, shape in shapes.items():
            stop = start + math.prod(shape)
            self[name] = flat[start:stop].reshape(shape)
            start = stop

    @property
    def shapes(self) -> dict[str, tuple]:
        return {name: view.shape for name, view in self.items()}


def pack(arrays: Mapping[str, np.ndarray], shapes: Mapping[str, tuple]) -> Packed:
    """Copy the ``arrays`` that ``shapes`` names into one new contiguous
    array, laid out by ``shapes``."""
    dtype = np.result_type(*arrays.values()) if arrays else np.float64
    out = Packed(shapes, dtype=dtype)
    for name, view in out.items():
        view[...] = arrays[name]
    return out


@dataclass
class EncoderParams:
    """Learnable parameters as one ``Packed`` set; also the momentum twin,
    which lacks the prediction head."""

    config: ViTConfig
    params: Packed


def _trunc_normal(rng: np.random.Generator, out: np.ndarray, std: float) -> None:
    """Fill ``out`` with Normal(0, std) draws in 64 bits, resampling those
    outside two deviations.

    The stream order fixes every value: standard normals for the whole
    tensor, scaled by ``std``, then redraw rounds over the entries still out
    of range, in ascending flat order, one ``rng.normal(0, std, k)`` call per
    round for its k entries. Only the first scan reads the whole tensor; a
    round checks just the values it drew.
    """
    direct = out.dtype == np.float64 and out.flags.c_contiguous
    draw = out if direct else np.empty(out.shape)
    rng.standard_normal(out=draw)  # the stream of rng.normal(0.0, 1.0)
    draw *= std
    flat = draw.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2.0 * std]
    if not direct:
        out[...] = draw


def param_table(config: ViTConfig) -> dict[str, tuple[tuple, float | None]]:
    """The encoder's parameters as name -> (shape, fill), in the order they
    are drawn and packed: truncated normal (fill None) for matrices and
    tokens, zeros for biases, ones/zeros for norm gains and shifts."""
    d = config.dim
    p: dict[str, tuple] = {}

    def tn(*shape):
        return shape, None

    def zeros(*shape):
        return shape, 0.0

    def ones(*shape):
        return shape, 1.0

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
    return p


def momentum_tracks(name: str) -> bool:
    """Whether a parameter belongs to the momentum twin: all but the
    prediction head, which ``param_table`` puts last."""
    return not name.startswith("pred.")


def layout(config: ViTConfig, twin: bool = False) -> dict[str, tuple]:
    """The encoder's parameter set as name -> shape, in ``param_table``
    order; with ``twin``, the momentum twin's: the tracked names, which
    lead that order."""
    return {name: shape for name, (shape, _) in param_table(config).items()
            if not twin or momentum_tracks(name)}


def init_encoder(
    config: ViTConfig, rng: np.random.Generator, dtype=np.float64
) -> EncoderParams:
    """Initialise all weights in ``layout(config)``, drawn in its order."""
    out = Packed(layout(config), dtype=dtype)
    for name, (_, fill) in param_table(config).items():
        if fill is None:
            _trunc_normal(rng, out[name], 0.02)
        else:
            out[name].fill(fill)
    return EncoderParams(config, out)


def init_momentum(encoder: EncoderParams) -> EncoderParams:
    """Copy the tracked part into the twin's layout; the twin starts equal
    to the encoder."""
    config = encoder.config
    return EncoderParams(config, pack(encoder.params, layout(config, twin=True)))


def ema_update(
    encoder: EncoderParams, momentum: EncoderParams, mu: float
) -> EncoderParams:
    """One exponential-moving-average step: xi' = mu * xi + (1 - mu) * theta.

    Applied in place to every tracked parameter, as one array; returns the
    twin. The twin is paired with the encoder by position, which is right
    because both sets are laid out by ``layout`` and the twin's layout is
    the leading part of the encoder's. ``mu`` must lie in [0, 1]; mu=1
    leaves the twin bit-identical, mu=0 copies the encoder.
    """
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"momentum coefficient must lie in [0, 1], got {mu}")
    twin, base = momentum.params.flat, encoder.params.flat
    for b in blocks(twin.size):
        xi = twin[b]
        xi *= mu
        xi += (1.0 - mu) * base[b]
    return momentum


def bind(params: Mapping[str, np.ndarray]) -> dict[str, Tensor]:
    """Wrap a parameter dict as tensors on no tape, for a pass that takes no
    gradient."""
    return {k: Tensor(v) for k, v in params.items()}


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
    x = patches.patches if isinstance(patches, PatchBatch) else np.asarray(patches)
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

    h = ad.linear(Tensor(x), tv["patch_embed.w"], tv["patch_embed.b"])
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
        qkv = ad.norm_linear(
            h, tv[pre + "ln1.g"], tv[pre + "ln1.b"],
            tv[pre + "attn.qkv.w"], tv[pre + "attn.qkv.b"], config.ln_eps,
        )
        # [3, n, heads, T+1, dh]: q, k and v are views of the one array
        qkv = ad.transpose(ad.reshape(qkv, (n, tk, 3, heads, dh)), (2, 0, 3, 1, 4))
        q, k, v = qkv[0, :, :, :rows], qkv[1], qkv[2]
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), inv_sqrt_dh)
        attn = ad.softmax(scores, axis=-1)
        if capture_attention:
            attention.append(attn.data.copy())
        ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)), (n, rows, d))
        proj = ad.linear(ctx, tv[pre + "attn.out.w"], tv[pre + "attn.out.b"])
        h = ad.add(h if rows == tk else h[:, :rows], proj)

        m = ad.gelu(ad.norm_linear(
            h, tv[pre + "ln2.g"], tv[pre + "ln2.b"],
            tv[pre + "mlp.fc1.w"], tv[pre + "mlp.fc1.b"], config.ln_eps,
        ))
        m = ad.linear(m, tv[pre + "mlp.fc2.w"], tv[pre + "mlp.fc2.b"])
        h = ad.add(h, m)

    h = ad.layer_norm(h, tv["norm.g"], tv["norm.b"], config.ln_eps)
    rep = h[:, 0, :]
    if capture_attention:
        return rep, attention
    return rep


def _batch_norm(x: Tensor, tv: Mapping[str, Tensor], name: str, eps: float) -> Tensor:
    """1-D batch norm over axis 0 by the batch statistics, with the affine
    ``name.gamma`` and ``name.beta`` where ``tv`` holds them."""
    mu = ad.mean(x, axis=0, keepdims=True)
    xc = ad.sub(x, mu)
    var = ad.mean(ad.mul(xc, xc), axis=0, keepdims=True)
    xhat = ad.div(xc, ad.sqrt(ad.add(var, eps)))
    if name + ".gamma" in tv:
        xhat = ad.add(ad.mul(xhat, tv[name + ".gamma"]), tv[name + ".beta"])
    return xhat


def _mlp_head(config, tv, x, head: str, layers: int):
    """``layers`` stages of linear+BN, each but the last followed by ReLU."""
    for i in range(1, layers + 1):
        x = ad.matmul(x, tv[f"{head}.fc{i}.w"])
        x = _batch_norm(x, tv, f"{head}.bn{i}", config.bn_eps)
        if i < layers:
            x = ad.relu(x)
    return x


def forward_project(config: ViTConfig, tv: Mapping[str, Tensor], rep: Tensor) -> Tensor:
    """Projection head: two linear+BN+ReLU stages, then linear+BN (no affine)."""
    return _mlp_head(config, tv, rep, "proj", 3)


def forward_heads(
    config: ViTConfig, tv: Mapping[str, Tensor], rep: Tensor
) -> tuple[Tensor, Tensor]:
    """Both heads in sequence: returns (projection z, prediction h). The
    prediction head is linear+BN+ReLU, then linear+BN (no affine)."""
    z = forward_project(config, tv, rep)
    return z, _mlp_head(config, tv, z, "pred", 2)


CHECKPOINT_MAGIC = b"PMIXCKPT"
_CHECKPOINT_VERSION = 2
_DTYPE_TAGS = {"<f8": np.dtype("<f8"), "<f4": np.dtype("<f4")}


def write_checkpoint(
    path, config: ViTConfig, blobs: Mapping[str, np.ndarray], meta: dict
) -> None:
    """Binary checkpoint: magic, version, JSON header, named raw blobs, and a
    CRC-32 of all the bytes before it.

    Each blob is stored little-endian in its own precision (64- or 32-bit
    reals), recorded per name in the header so loading is bit-exact for
    either training precision. ``meta`` must be JSON-serialisable.

    The file is written beside ``path``, synced and then renamed onto it, so
    ``path`` holds either the previous checkpoint or the complete new one.
    """
    arrays = [np.asarray(arr) for arr in blobs.values()]
    tags = ["<f4" if arr.dtype == np.float32 else "<f8" for arr in arrays]
    header = json.dumps(
        {
            "version": _CHECKPOINT_VERSION,
            "config": asdict(config),
            "meta": meta,
            "blobs": [
                [name, list(arr.shape), tag]
                for name, arr, tag in zip(blobs, arrays, tags)
            ],
        }
    ).encode("utf-8")
    head = CHECKPOINT_MAGIC + struct.pack("<II", _CHECKPOINT_VERSION, len(header))
    head += header
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(head)
            crc = zlib.crc32(head)
            for arr, tag in zip(arrays, tags):
                # written and summed from one buffer, with no bytes copy
                buf = np.ascontiguousarray(arr, dtype=_DTYPE_TAGS[tag])
                f.write(buf)
                crc = zlib.crc32(buf, crc)
            f.write(struct.pack("<I", crc))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_checkpoint(path) -> tuple[ViTConfig, dict[str, np.ndarray], dict]:
    """Inverse of ``write_checkpoint``; returns (config, blobs, meta).

    The blobs are read-only views of the one buffer the file is read into.
    A short prefix, a version other than 2 (version 1, which had no
    checksum, is not read), a header that does not parse or lacks a field,
    a truncated blob, stray bytes and a checksum mismatch each raise a
    ``ValueError`` naming ``path``.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    start = len(CHECKPOINT_MAGIC) + 8
    if len(data) < start:
        raise ValueError(f"{path}: truncated checkpoint header")
    version, hlen = struct.unpack_from("<II", data, len(CHECKPOINT_MAGIC))
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    end = len(data) - 4  # where the blobs must stop: the checksum follows
    if start + hlen > end:
        raise ValueError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(data[start : start + hlen].decode("utf-8"))
        config = ViTConfig(**header["config"])
        specs = [(name, tuple(shape), _DTYPE_TAGS[tag])
                 for name, shape, tag in header["blobs"]]
        meta = header["meta"]
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed checkpoint header: {err!r}") from None
    offset = start + hlen
    blobs: dict[str, np.ndarray] = {}
    for name, shape, dtype in specs:
        count = math.prod(shape)
        if offset + count * dtype.itemsize > end:
            raise ValueError(f"{path}: truncated blob {name!r}")
        blobs[name] = np.frombuffer(data, dtype, count, offset).reshape(shape)
        offset += count * dtype.itemsize
    if offset != end:
        raise ValueError(f"{path}: {end - offset} stray bytes after the last blob")
    if zlib.crc32(memoryview(data)[:end]) != struct.unpack_from("<I", data, end)[0]:
        raise ValueError(f"{path}: checksum mismatch, the checkpoint is corrupted")
    return config, blobs, meta
