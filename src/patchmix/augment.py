"""Two-view stochastic augmentation pipelines.

Each view applies, in this fixed order: random resized crop (bilinear),
horizontal flip, color jitter, grayscale, Gaussian blur, solarization,
then a clamp to [0, 1]. ``AugConfig`` holds what a run may set: the crop
area range, the probability of each op and ``color_ops``. The two views
share every setting except the blur and solarize probabilities, which are
per-view pairs (view 1 defaults to blur always / never solarize, view 2 to
rare blur / occasional solarize). The rest of the recipe is fixed, as in
momentum-contrastive practice (MoCo v3, Chen et al. 2021; per-view blur
and solarize from BYOL, Grill et al. 2020): crops of aspect ratio
``CROP_ASPECT``, jitter strengths ``JITTER`` and ``HUE``, blur sigmas
drawn from ``BLUR_SIGMA`` and solarization at ``SOLARIZE_THRESHOLD``.

``augment_view`` runs in two phases. First it draws every image's
parameters from the caller's generator, image by image in pipeline order:
crop box (with its retries), flip, jitter flag, jitter order and factors,
grayscale flag, blur flag and sigma, solarize flag. Then it applies them:
the crop and bilinear resize as one gather over the batch, the flip as one
reversed slice, jitter, grayscale and blur per image over the images that
drew them, then solarization and the clamp over the batch. A fixed seed
reproduces the batch bit for bit, and the result equals drawing and
applying image by image, to the bit.

Color operations assume 3-channel input and are skipped for other channel
counts; ``color_ops=False`` disables jitter and grayscale entirely for
data without color semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import convolve1d

from .kvconfig import are_reals, is_real
from .patch_ops import ImageBatch

__all__ = ["AugConfig", "augment_view", "CROP_ASPECT", "JITTER", "HUE", "BLUR_SIGMA",
           "SOLARIZE_THRESHOLD"]

CROP_ASPECT = (3.0 / 4.0, 4.0 / 3.0)  # range of a crop's width / height
JITTER = (0.4, 0.4, 0.2)  # brightness, contrast, saturation: factors 1 +- s
HUE = 0.1  # the largest hue shift, in turns
BLUR_SIGMA = (0.1, 2.0)  # range of the blur's sigma, in pixels
SOLARIZE_THRESHOLD = 0.5  # pixels at or above it are inverted


@dataclass(frozen=True)
class AugConfig:
    """Pipeline settings; blur/solarize probabilities are (view1, view2).
    Each probability is a real in [0, 1], each pair a tuple or list of two,
    ``crop_area`` an ordered range of image fractions in (0, 1], and
    ``color_ops`` a bool."""

    crop_area: tuple[float, float] = (0.1, 1.0)
    flip_prob: float = 0.5
    jitter_prob: float = 0.8
    grayscale_prob: float = 0.2
    blur_prob: tuple[float, float] = (1.0, 0.1)
    solarize_prob: tuple[float, float] = (0.0, 0.2)
    color_ops: bool = True

    def __post_init__(self):
        # written as "not (ok)" so that a NaN fails every check
        for name in ("flip_prob", "jitter_prob", "grayscale_prob"):
            v = getattr(self, name)
            if not (is_real(v) and 0 <= v <= 1):
                raise ValueError(f"{name} must be a real in [0, 1], got {v!r}")
        for name in ("blur_prob", "solarize_prob"):
            pair = getattr(self, name)
            if not (are_reals(pair, 2) and all(0 <= v <= 1 for v in pair)):
                raise ValueError(
                    f"{name} must be a (view 1, view 2) pair of reals in [0, 1], "
                    f"got {pair!r}"
                )
        area = self.crop_area
        if not (are_reals(area, 2) and 0 < area[0] <= area[1] <= 1):
            raise ValueError(
                f"crop_area must be a non-empty range in (0, 1], got {area!r}"
            )
        if not isinstance(self.color_ops, bool):
            raise ValueError(f"color_ops must be a bool, got {self.color_ops!r}")


def _draw_crop_box(
    h: int, w: int, cfg: AugConfig, rng: np.random.Generator
) -> tuple[int, int, int, int]:
    """(top, left, height, width) of a random resized crop of an h x w image."""
    for _ in range(10):
        area = h * w * rng.uniform(*cfg.crop_area)
        aspect = rng.uniform(*CROP_ASPECT)
        ch = int(round(math.sqrt(area / aspect)))
        cw = int(round(math.sqrt(area * aspect)))
        if 0 < ch <= h and 0 < cw <= w:
            top = int(rng.integers(0, h - ch + 1))
            left = int(rng.integers(0, w - cw + 1))
            return top, left, ch, cw
    # fallback: centered square of the smaller side
    side = min(h, w)
    return (h - side) // 2, (w - side) // 2, side, side


def _resample_axis(
    start: np.ndarray, size: np.ndarray, out: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear source indices and weights along one axis, one row per image.

    Resamples each window [start, start + size) to ``out`` samples; returns
    the lower and upper source index and the upper sample's weight, all
    [n, out]. At size == out the weights are zero: an exact identity.
    """
    pos = (np.arange(out) + 0.5) * (size / out)[:, None] - 0.5
    i0 = np.clip(np.floor(pos).astype(np.int64), 0, size[:, None] - 1)
    i1 = np.minimum(i0 + 1, size[:, None] - 1)
    frac = np.clip(pos - i0, 0.0, 1.0)
    return start[:, None] + i0, start[:, None] + i1, frac


def _resized_crops(data: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Bilinear resample of every image's crop box back to full size.

    ``data`` is [N, C, H, W]; ``boxes`` is [N, 4] of (top, left, height,
    width). All four corner reads are batched gathers over the whole batch.
    """
    n, c, h, w = data.shape
    y0, y1, wy = _resample_axis(boxes[:, 0], boxes[:, 2], h)
    x0, x1, wx = _resample_axis(boxes[:, 1], boxes[:, 3], w)
    img = np.arange(n)[:, None, None, None]
    chan = np.arange(c)[None, :, None, None]
    y0, y1 = y0[:, None, :, None], y1[:, None, :, None]
    x0, x1 = x0[:, None, None, :], x1[:, None, None, :]
    wy, wx = wy[:, None, :, None], wx[:, None, None, :]
    top = data[img, chan, y0, x0] * (1 - wx) + data[img, chan, y0, x1] * wx
    bot = data[img, chan, y1, x0] * (1 - wx) + data[img, chan, y1, x1] * wx
    return top * (1 - wy) + bot * wy


def _rgb_to_hsv(img: np.ndarray) -> np.ndarray:
    r, g, b = img[0], img[1], img[2]
    maxc = np.maximum(np.maximum(r, g), b)
    minc = np.minimum(np.minimum(r, g), b)
    v = maxc
    spread = maxc - minc
    s = np.where(maxc > 0, spread / np.where(maxc > 0, maxc, 1.0), 0.0)
    safe = np.where(spread > 0, spread, 1.0)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    hue = np.where(
        maxc == r, bc - gc, np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc)
    )
    hue = np.where(spread > 0, (hue / 6.0) % 1.0, 0.0)
    return np.stack([hue, s, v])


def _hsv_to_rgb(img: np.ndarray) -> np.ndarray:
    h, s, v = img[0], img[1], img[2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b])


_LUMA = np.array([0.299, 0.587, 0.114])


def _grayscale(img: np.ndarray) -> np.ndarray:
    y = np.tensordot(_LUMA, img, axes=(0, 0))
    return np.broadcast_to(y, img.shape).copy()


def _draw_jitter(rng: np.random.Generator) -> list[tuple[int, float]]:
    """A random order of the four jitter ops, each with its factor.

    Ops are 0 brightness, 1 contrast, 2 saturation (a factor within
    ``JITTER`` of 1), 3 hue (a shift of at most ``HUE``).
    """
    return [
        (op, rng.uniform(1.0 - JITTER[op], 1.0 + JITTER[op]) if op < 3
         else rng.uniform(-HUE, HUE))
        for op in rng.permutation(4)
    ]


def _color_jitter(img: np.ndarray, steps: list[tuple[int, float]]) -> np.ndarray:
    """Brightness/contrast/saturation/hue in the drawn order."""
    for op, f in steps:
        if op == 0:
            img = np.clip(img * f, 0.0, 1.0)
        elif op == 1:
            anchor = _grayscale(img).mean()
            img = np.clip(img * f + anchor * (1.0 - f), 0.0, 1.0)
        elif op == 2:
            img = np.clip(img * f + _grayscale(img) * (1.0 - f), 0.0, 1.0)
        else:
            hsv = _rgb_to_hsv(img)
            hsv[0] = (hsv[0] + f) % 1.0
            img = np.clip(_hsv_to_rgb(hsv), 0.0, 1.0)
    return img


def _gaussian_blur(img: np.ndarray, image_side: int, sigma: float) -> np.ndarray:
    ksize = max(3, int(round(image_side / 10)) | 1)
    half = ksize // 2
    xs = np.arange(-half, half + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()
    out = convolve1d(img, kernel, axis=1, mode="reflect")
    return convolve1d(out, kernel, axis=2, mode="reflect")


def augment_view(
    batch: ImageBatch, cfg: AugConfig, view: int, rng: np.random.Generator
) -> ImageBatch:
    """Apply one view's pipeline to every image independently.

    ``view`` selects which element of the per-view probability pairs is
    used (1 or 2). Randomness is consumed per image in pipeline order.
    """
    if view not in (1, 2):
        raise ValueError(f"view must be 1 or 2, got {view}")
    vi = view - 1
    data = batch.data
    n, c, h, w = data.shape
    color = cfg.color_ops and c == 3

    # draw: every image's parameters, in the order the pipeline uses them
    boxes = np.empty((n, 4), dtype=np.int64)
    flip = np.zeros(n, dtype=bool)
    solarize = np.zeros(n, dtype=bool)
    per_image: list[tuple[int, list | None, bool, float | None]] = []
    for i in range(n):
        boxes[i] = _draw_crop_box(h, w, cfg, rng)
        flip[i] = rng.random() < cfg.flip_prob
        jitter = sigma = None
        if color and rng.random() < cfg.jitter_prob:
            jitter = _draw_jitter(rng)
        gray = color and rng.random() < cfg.grayscale_prob
        if rng.random() < cfg.blur_prob[vi]:
            sigma = rng.uniform(*BLUR_SIGMA)
        solarize[i] = rng.random() < cfg.solarize_prob[vi]
        if jitter is not None or gray or sigma is not None:
            per_image.append((i, jitter, gray, sigma))

    # apply: batched crop, flip, solarize and clamp; the rest per image
    out = _resized_crops(data.astype(np.float64, copy=False), boxes)
    out[flip] = out[flip, :, :, ::-1]
    for i, jitter, gray, sigma in per_image:
        img = out[i]
        if jitter is not None:
            img = _color_jitter(img, jitter)
        if gray:
            img = _grayscale(img)
        if sigma is not None:
            img = _gaussian_blur(img, max(h, w), sigma)
        out[i] = img
    sel = out[solarize]
    out[solarize] = np.where(sel < SOLARIZE_THRESHOLD, sel, 1.0 - sel)
    np.clip(out, 0.0, 1.0, out=out)
    return ImageBatch(out)
