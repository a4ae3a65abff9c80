"""Patch-sequence views of image batches and batch-shared patch shuffles.

Images are carried as ``[N, C, H, W]`` arrays with pixel values in [0, 1].
``patchify`` cuts every image into a row-major grid of square patches and
flattens each patch, giving a ``[N, T, D]`` sequence with ``T`` patches of
dimension ``D = C * P * P``. All operations here are pure functions over
immutable inputs: arrays handed in are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImageBatch",
    "PatchBatch",
    "Permutation",
    "patchify",
    "unpatchify",
    "sample_permutation",
    "shuffle",
]


@dataclass(frozen=True)
class ImageBatch:
    """A batch of images, axes [N, C, H, W], values finite and in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data)
        if d.ndim != 4:
            raise ValueError(
                f"image batch must have axes [N, C, H, W], got {d.ndim} axes "
                f"with shape {d.shape}"
            )
        if d.shape[0] < 1:
            raise ValueError("image batch must contain at least one image (axis N)")
        if not np.all(np.isfinite(d)):
            raise ValueError("image batch contains non-finite values")
        if d.min() < 0.0 or d.max() > 1.0:
            raise ValueError(
                f"pixel values must lie in [0, 1], got range "
                f"[{d.min():.6g}, {d.max():.6g}]"
            )
        object.__setattr__(self, "data", d)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[2]

    @property
    def width(self) -> int:
        return self.data.shape[3]


@dataclass(frozen=True)
class PatchBatch:
    """Per-image patch sequences [N, T, D] plus the grid they came from.

    ``grid`` is (rows, cols) of the patch grid; ``patch_side`` is the square
    patch edge in pixels. ``D = channels * patch_side**2`` with the patch
    flattened in (C, P, P) row-major order.
    """

    patches: np.ndarray
    patch_side: int
    grid: tuple[int, int]
    channels: int

    def __post_init__(self):
        p = np.asarray(self.patches)
        if p.ndim != 3:
            raise ValueError(
                f"patch batch must have axes [N, T, D], got shape {p.shape}"
            )
        gh, gw = self.grid
        if p.shape[1] != gh * gw:
            raise ValueError(
                f"patch count {p.shape[1]} does not match grid {gh}x{gw}"
            )
        d_expect = self.channels * self.patch_side**2
        if p.shape[2] != d_expect:
            raise ValueError(
                f"patch dimension {p.shape[2]} does not match "
                f"channels*patch_side^2 = {d_expect}"
            )
        object.__setattr__(self, "patches", p)

    @property
    def count(self) -> int:
        return self.patches.shape[0]

    @property
    def tokens(self) -> int:
        return self.patches.shape[1]

    @property
    def dim(self) -> int:
        return self.patches.shape[2]

    def with_patches(self, patches: np.ndarray) -> "PatchBatch":
        """Same geometry, new patch values."""
        return PatchBatch(patches, self.patch_side, self.grid, self.channels)


@dataclass(frozen=True)
class Permutation:
    """A bijection on patch positions with its precomputed inverse."""

    forward: np.ndarray
    inverse: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.forward, dtype=np.int64)
        inv = np.asarray(self.inverse, dtype=np.int64)
        t = f.shape[0]
        if f.ndim != 1 or inv.shape != f.shape:
            raise ValueError("permutation arrays must be 1-D and equally long")
        if not np.array_equal(np.sort(f), np.arange(t)):
            raise ValueError("forward permutation is not a bijection on [0, T)")
        if not np.array_equal(f[inv], np.arange(t)):
            raise ValueError("inverse does not invert the forward permutation")
        object.__setattr__(self, "forward", f)
        object.__setattr__(self, "inverse", inv)

    @classmethod
    def from_forward(cls, forward: np.ndarray) -> "Permutation":
        f = np.asarray(forward, dtype=np.int64)
        return cls(f, np.argsort(f, kind="stable"))

    @classmethod
    def identity(cls, length: int) -> "Permutation":
        idx = np.arange(length, dtype=np.int64)
        return cls(idx, idx.copy())

    def __len__(self) -> int:
        return self.forward.shape[0]


def patchify(batch: ImageBatch, patch_side: int) -> PatchBatch:
    """Cut each image into non-overlapping square patches, row-major.

    Requires the image side lengths to be divisible by ``patch_side``.
    Output patch ``j`` of image ``i`` is grid cell (j // cols, j % cols).
    """
    if patch_side < 1:
        raise ValueError(f"patch_side must be >= 1, got {patch_side}")
    n, c, h, w = batch.data.shape
    if h % patch_side != 0:
        raise ValueError(
            f"image height {h} is not divisible by patch_side {patch_side}"
        )
    if w % patch_side != 0:
        raise ValueError(
            f"image width {w} is not divisible by patch_side {patch_side}"
        )
    gh, gw = h // patch_side, w // patch_side
    x = batch.data.reshape(n, c, gh, patch_side, gw, patch_side)
    x = x.transpose(0, 2, 4, 1, 3, 5)  # [N, gh, gw, C, P, P]
    patches = x.reshape(n, gh * gw, c * patch_side * patch_side)
    return PatchBatch(patches, patch_side, (gh, gw), c)


def unpatchify(pb: PatchBatch) -> ImageBatch:
    """Reassemble images from a patch sequence; exact inverse of patchify."""
    n, t, d = pb.patches.shape
    gh, gw = pb.grid
    p, c = pb.patch_side, pb.channels
    x = pb.patches.reshape(n, gh, gw, c, p, p)
    x = x.transpose(0, 3, 1, 4, 2, 5)  # [N, C, gh, P, gw, P]
    return ImageBatch(x.reshape(n, c, gh * p, gw * p))


def sample_permutation(length: int, rng: np.random.Generator) -> Permutation:
    """Draw a uniformly random permutation of [0, length) (Fisher-Yates)."""
    if length < 1:
        raise ValueError(f"permutation length must be >= 1, got {length}")
    return Permutation.from_forward(rng.permutation(length))


def shuffle(pb: PatchBatch, perm: Permutation) -> PatchBatch:
    """Reorder every image's patches by the shared permutation.

    Output position j holds input patch perm.forward[j], identically for
    all images in the batch.
    """
    if len(perm) != pb.tokens:
        raise ValueError(
            f"permutation length {len(perm)} does not match patch count "
            f"{pb.tokens}"
        )
    return pb.with_patches(pb.patches[:, perm.forward, :])

