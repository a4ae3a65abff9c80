"""Dataset ingestion: CIFAR binary records and synthetic blob images.

The CIFAR binary layout is the classic one: fixed-size records, one image
each, pixel planes stored R then G then B in row-major 32x32 order. The
10-class variant prefixes each record with one label byte; the 100-class
variant with two (coarse then fine; the fine label is used). Pixels map
to [0, 1] by division with 255, so loading is bit-deterministic.

``synth_blobs`` generates a desk-scale stand-in: each class is a fixed
spatial template plus per-pixel Gaussian noise. Templates are built with
equal mean intensity and left-right mirror symmetry, so class identity is
carried purely by spatial arrangement rather than brightness, and survives
horizontal flips. Pairwise template L2 distances are reported in the
result so tests can anchor chance-versus-learned margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "LabeledDataset",
    "load_cifar_binary",
    "synth_blobs",
    "export_cifar_binary",
    "CIFAR_SIDE",
]

CIFAR_SIDE = 32
_CIFAR_PIXELS = 3 * CIFAR_SIDE * CIFAR_SIDE  # 3072
_LABEL_BYTES = {"cifar10": 1, "cifar100": 2}
_CLASS_COUNT = {"cifar10": 10, "cifar100": 100}


@dataclass
class LabeledDataset:
    """Images [N, C, H, W] in [0, 1] with integer labels."""

    images: np.ndarray
    labels: np.ndarray
    split: str
    num_classes: int
    template_margin: float | None = field(default=None)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be [N, C, H, W], got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("labels must be one integer per image")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ValueError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def count(self) -> int:
        return self.images.shape[0]


def _reject_imagenet(path: Path) -> None:
    if "imagenet" in str(path).lower():
        raise ValueError(
            f"{path}: ImageNet ingestion is out of scope; use CIFAR binaries "
            f"or the synthetic generator"
        )


def _parse_records(raw: bytes, variant: str, path: Path) -> tuple[np.ndarray, np.ndarray]:
    label_bytes = _LABEL_BYTES[variant]
    record = label_bytes + _CIFAR_PIXELS
    if len(raw) == 0 or len(raw) % record != 0:
        complete = len(raw) // record
        raise ValueError(
            f"{path}: expected a multiple of {record} bytes per record "
            f"({label_bytes} label + {_CIFAR_PIXELS} pixel), got {len(raw)} "
            f"bytes; record boundary breaks after {complete} complete records "
            f"with {len(raw) - complete * record} trailing bytes"
        )
    data = np.frombuffer(raw, dtype=np.uint8).reshape(-1, record)
    labels = data[:, label_bytes - 1].astype(np.int64)  # fine label for cifar100
    pixels = data[:, label_bytes:].reshape(-1, 3, CIFAR_SIDE, CIFAR_SIDE)
    images = pixels.astype(np.float64) / 255.0
    return images, labels


def load_cifar_binary(
    path, variant: str = "cifar10", split: str | None = None
) -> LabeledDataset:
    """Load CIFAR records from one binary file or a directory of them.

    For a directory, ``split`` selects the conventional file set
    ("train" or "val"/"test"); for a single file the split defaults from
    the filename. Wrong-sized files are rejected with byte counts.
    """
    if variant not in _LABEL_BYTES:
        raise ValueError(f"unknown variant {variant!r}; use cifar10 or cifar100")
    if split not in (None, "train", "val", "test"):
        raise ValueError(f"unknown split {split!r}; use train, val or test")
    path = Path(path)
    _reject_imagenet(path)

    if path.is_dir():
        split = split or "train"
        if variant == "cifar10":
            names = (
                [f"data_batch_{i}.bin" for i in range(1, 6)]
                if split == "train"
                else ["test_batch.bin"]
            )
        else:
            names = ["train.bin"] if split == "train" else ["test.bin"]
        files = [path / n for n in names]
    else:
        files = [path]
        if split is None:
            split = "val" if "test" in path.name.lower() else "train"

    images_parts, labels_parts = [], []
    for f in files:
        if not f.exists():
            raise FileNotFoundError(f"{f}: CIFAR binary file not found")
        imgs, labs = _parse_records(f.read_bytes(), variant, f)
        images_parts.append(imgs)
        labels_parts.append(labs)
    split_name = "val" if split in ("val", "test") else "train"
    return LabeledDataset(
        np.concatenate(images_parts),
        np.concatenate(labels_parts),
        split_name,
        _CLASS_COUNT[variant],
    )


def _blob_templates(
    classes: int, image_side: int, channels: int, patch_structured: bool
) -> np.ndarray:
    """One template per class: equal-mean band patterns keyed to orientation.

    Even classes use horizontal structure, odd classes the same structure
    turned vertical; successive pairs double the band frequency. Patterns
    depend only on distance from the image center line, so every template
    is invariant under left-right mirroring, and exactly half of each
    template is bright, so per-class mean intensity is identical: class
    identity lives purely in spatial arrangement. Patch-structured
    templates are piecewise-constant with band edges on even pixel
    boundaries; otherwise smooth cosine gratings of the same orientation
    and frequency.
    """
    s = image_side
    yy, xx = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    templates = np.empty((classes, channels, s, s), dtype=np.float64)
    for c in range(classes):
        freq = 1 + c // 2
        coord = yy if c % 2 == 0 else xx
        centered = np.abs((coord + 0.5) / s - 0.5)  # mirror-symmetric in [0, .5)
        if patch_structured:
            band = np.floor(centered * 4.0 * freq).astype(np.int64) % 2
            plane = 0.25 + 0.5 * band.astype(np.float64)
        else:
            plane = 0.5 + 0.25 * np.cos(2.0 * math.pi * freq * 2.0 * centered)
        templates[c] = plane[None, :, :]
    return templates


def synth_blobs(
    classes: int,
    per_class: int,
    image_side: int,
    patch_structured: bool,
    seed: int,
    noise_sigma: float = 0.1,
    channels: int = 3,
    split: str = "train",
) -> LabeledDataset:
    """Deterministic synthetic dataset: class templates plus pixel noise.

    Every image is its class template with i.i.d. Gaussian noise of the
    given sigma, clamped to [0, 1]. Class order is interleaved and the
    result carries the minimal pairwise template L2 distance so callers
    can reason about separability. Any two band templates differ by 0.5
    on half their pixels, giving a margin of
    0.5 * image_side * sqrt(channels / 2), about 4.9 for 8x8 RGB: large
    against the noise scale sigma * image_side * sqrt(channels) when
    sigma is the default 0.1.
    """
    if classes < 1 or per_class < 1:
        raise ValueError("need at least one class and one image per class")
    if image_side % 2 != 0:
        raise ValueError(f"image_side must be even, got {image_side}")
    rng = np.random.default_rng(seed)
    templates = _blob_templates(classes, image_side, channels, patch_structured)
    diffs = [
        float(np.linalg.norm(templates[a] - templates[b]))
        for a in range(classes)
        for b in range(a + 1, classes)
    ]
    margin = min(diffs) if diffs else float("inf")
    if margin < 1e-6:
        # band frequencies alias on a coarse pixel grid
        raise ValueError(
            f"{classes} classes need more than {image_side} pixels per side "
            f"to stay distinct; reduce classes or enlarge the images"
        )

    n = classes * per_class
    labels = np.tile(np.arange(classes, dtype=np.int64), per_class)
    noise = rng.normal(0.0, noise_sigma, size=(n, channels, image_side, image_side))
    images = np.clip(templates[labels] + noise, 0.0, 1.0)
    return LabeledDataset(images, labels, split, classes, template_margin=margin)


def export_cifar_binary(ds: LabeledDataset, path, variant: str = "cifar10") -> None:
    """Write a dataset in the CIFAR binary layout (for loader round-trips).

    Images must be 3x32x32; pixels are quantised by round(v * 255). The
    100-class variant writes a zero coarse-label byte before the fine one.
    """
    if variant not in _LABEL_BYTES:
        raise ValueError(f"unknown variant {variant!r}; use cifar10 or cifar100")
    n, c, h, w = ds.images.shape
    if (c, h, w) != (3, CIFAR_SIDE, CIFAR_SIDE):
        raise ValueError(
            f"CIFAR layout requires 3x{CIFAR_SIDE}x{CIFAR_SIDE} images, got "
            f"{c}x{h}x{w}"
        )
    pixels = np.round(ds.images * 255.0).astype(np.uint8).reshape(n, -1)
    with open(path, "wb") as f:
        for i in range(n):
            if variant == "cifar100":
                f.write(bytes([0, int(ds.labels[i])]))
            else:
                f.write(bytes([int(ds.labels[i])]))
            f.write(pixels[i].tobytes())
