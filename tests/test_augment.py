import math

import numpy as np
import pytest
from scipy.ndimage import convolve1d

from patchmix import augment as ag
from patchmix import patch_ops as po

IDENTITY = ag.AugConfig(
    crop_area=(1.0, 1.0),
    flip_prob=0.0,
    jitter_prob=0.0,
    grayscale_prob=0.0,
    blur_prob=(0.0, 0.0),
    solarize_prob=(0.0, 0.0),
)


@pytest.fixture
def square_crops(monkeypatch):
    """Crops of aspect ratio 1: a crop of the whole area is then the whole
    image, on the first draw."""
    monkeypatch.setattr(ag, "CROP_ASPECT", (1.0, 1.0))


def rgb_batch(n: int = 3, side: int = 16, seed: int = 0) -> po.ImageBatch:
    rng = np.random.default_rng(seed)
    return po.ImageBatch(rng.random((n, 3, side, side)))


class TestConfig:
    def test_defaults_valid(self):
        ag.AugConfig()

    @pytest.mark.parametrize("field", ["flip_prob", "jitter_prob", "grayscale_prob"])
    def test_probability_bounds(self, field):
        with pytest.raises(ValueError, match=field):
            ag.AugConfig(**{field: 1.5})

    @pytest.mark.parametrize("field", ["blur_prob", "solarize_prob"])
    def test_pair_probability_bounds(self, field):
        with pytest.raises(ValueError, match=field):
            ag.AugConfig(**{field: (0.5, -0.1)})

    def test_crop_area_must_be_positive_and_ordered(self):
        with pytest.raises(ValueError, match="crop_area"):
            ag.AugConfig(crop_area=(0.8, 0.2))
        with pytest.raises(ValueError, match="crop_area"):
            ag.AugConfig(crop_area=(0.0, 1.0))

    @pytest.mark.parametrize("area", [(0.5, 50.0), (0.5, 1.0 + 1e-9), (2.0, 3.0)])
    def test_crop_area_above_the_whole_image_rejected(self, area):
        # most such draws fail every retry and fall back to the full image,
        # which would turn cropping silently off
        with pytest.raises(ValueError, match=r"^crop_area must be .* in \(0, 1\]"):
            ag.AugConfig(crop_area=area)

    def test_crop_area_up_to_the_whole_image_accepted(self):
        assert ag.AugConfig(crop_area=(1.0, 1.0)).crop_area == (1.0, 1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("flip_prob", "0.5"),
            ("flip_prob", True),
            ("jitter_prob", None),
            ("grayscale_prob", math.nan),
            ("blur_prob", 0.5),
            ("blur_prob", (0.5,)),
            ("solarize_prob", (0.0, 0.1, 0.2)),
            ("solarize_prob", (0.0, "0.2")),
            ("blur_prob", (1.0, False)),
            ("blur_prob", (1.0, math.nan)),
            ("crop_area", 0.5),
            ("crop_area", (0.1, "1")),
            ("crop_area", (math.nan, 1.0)),
            ("color_ops", "yes"),
        ],
    )
    def test_value_of_another_type_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ag.AugConfig(**{field: value})

    def test_bad_view_rejected(self):
        with pytest.raises(ValueError, match="view"):
            ag.augment_view(rgb_batch(), IDENTITY, 3, np.random.default_rng(0))


@pytest.mark.usefixtures("square_crops")
class TestIdentityConfig:
    def test_exact_passthrough(self):
        batch = rgb_batch()
        out = ag.augment_view(batch, IDENTITY, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, batch.data)

    def test_single_channel_passthrough(self):
        rng = np.random.default_rng(1)
        batch = po.ImageBatch(rng.random((2, 1, 8, 8)))
        out = ag.augment_view(batch, IDENTITY, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, batch.data)


@pytest.mark.usefixtures("square_crops")
class TestSingleOps:
    def test_certain_flip_mirrors_width(self):
        cfg = ag.AugConfig(
            crop_area=(1.0, 1.0),
            flip_prob=1.0,
            jitter_prob=0.0,
            grayscale_prob=0.0,
            blur_prob=(0.0, 0.0),
            solarize_prob=(0.0, 0.0),
        )
        batch = rgb_batch()
        out = ag.augment_view(batch, cfg, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, batch.data[:, :, :, ::-1])

    def test_certain_solarize_flips_bright_pixels(self):
        cfg = ag.AugConfig(
            crop_area=(1.0, 1.0),
            flip_prob=0.0,
            jitter_prob=0.0,
            grayscale_prob=0.0,
            blur_prob=(0.0, 0.0),
            solarize_prob=(0.0, 1.0),
        )
        batch = rgb_batch()
        out = ag.augment_view(batch, cfg, 2, np.random.default_rng(0))
        x = batch.data
        t = ag.SOLARIZE_THRESHOLD
        np.testing.assert_allclose(out.data, np.where(x < t, x, 1.0 - x))

    def test_solarize_probability_is_per_view(self):
        cfg = ag.AugConfig(
            crop_area=(1.0, 1.0),
            flip_prob=0.0,
            jitter_prob=0.0,
            grayscale_prob=0.0,
            blur_prob=(0.0, 0.0),
            solarize_prob=(0.0, 1.0),
        )
        batch = rgb_batch()
        v1 = ag.augment_view(batch, cfg, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(v1.data, batch.data)
        v2 = ag.augment_view(batch, cfg, 2, np.random.default_rng(0))
        assert np.any(v2.data != batch.data)

    def test_certain_grayscale_equalizes_channels(self):
        cfg = ag.AugConfig(
            crop_area=(1.0, 1.0),
            flip_prob=0.0,
            jitter_prob=0.0,
            grayscale_prob=1.0,
            blur_prob=(0.0, 0.0),
            solarize_prob=(0.0, 0.0),
        )
        out = ag.augment_view(rgb_batch(), cfg, 1, np.random.default_rng(0))
        np.testing.assert_allclose(out.data[:, 0], out.data[:, 1])
        np.testing.assert_allclose(out.data[:, 1], out.data[:, 2])

    def test_certain_blur_reduces_variance(self, monkeypatch):
        monkeypatch.setattr(ag, "BLUR_SIGMA", (2.0, 2.0))
        cfg = ag.AugConfig(
            crop_area=(1.0, 1.0),
            flip_prob=0.0,
            jitter_prob=0.0,
            grayscale_prob=0.0,
            blur_prob=(1.0, 1.0),
            solarize_prob=(0.0, 0.0),
        )
        batch = rgb_batch(n=4, side=32, seed=3)
        out = ag.augment_view(batch, cfg, 1, np.random.default_rng(0))
        assert out.data.var() < batch.data.var()
        # blur must conserve mean up to boundary-reflection effects
        assert abs(out.data.mean() - batch.data.mean()) < 1e-2

    def test_color_ops_flag_disables_jitter_and_grayscale(self):
        cfg = ag.AugConfig(
            crop_area=(1.0, 1.0),
            flip_prob=0.0,
            jitter_prob=1.0,
            grayscale_prob=1.0,
            blur_prob=(0.0, 0.0),
            solarize_prob=(0.0, 0.0),
            color_ops=False,
        )
        batch = rgb_batch()
        out = ag.augment_view(batch, cfg, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, batch.data)


class TestPipeline:
    def test_same_rng_state_reproduces(self):
        batch = rgb_batch(n=4, seed=5)
        cfg = ag.AugConfig()
        a = ag.augment_view(batch, cfg, 1, np.random.default_rng(42))
        b = ag.augment_view(batch, cfg, 1, np.random.default_rng(42))
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        batch = rgb_batch(n=4, seed=5)
        cfg = ag.AugConfig()
        a = ag.augment_view(batch, cfg, 1, np.random.default_rng(1))
        b = ag.augment_view(batch, cfg, 1, np.random.default_rng(2))
        assert np.any(a.data != b.data)

    def test_output_in_unit_range_and_same_shape(self):
        batch = rgb_batch(n=6, side=12, seed=7)
        cfg = ag.AugConfig()
        for view in (1, 2):
            out = ag.augment_view(batch, cfg, view, np.random.default_rng(view))
            assert out.data.shape == batch.data.shape
            assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_images_augmented_independently(self):
        # duplicate image rows must receive different crops/flips
        rng = np.random.default_rng(8)
        one = rng.random((1, 3, 16, 16))
        batch = po.ImageBatch(np.concatenate([one] * 4, axis=0))
        out = ag.augment_view(batch, ag.AugConfig(), 1, np.random.default_rng(0))
        assert any(
            np.any(out.data[i] != out.data[0]) for i in range(1, 4)
        )


# ---------------------------------------------------------------- reference
# The pipeline as a per-image loop that draws and applies each op in one
# pass: the bit-for-bit reference of the batched ``augment_view``, which
# must consume the same random stream and produce the same pixels.


def _ref_bilinear_resize(img, out_h, out_w):
    c, h, w = img.shape
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[None, :, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, None, :]
    top = img[:, y0][:, :, x0] * (1 - wx) + img[:, y0][:, :, x1] * wx
    bot = img[:, y1][:, :, x0] * (1 - wx) + img[:, y1][:, :, x1] * wx
    return top * (1 - wy) + bot * wy


def _ref_random_resized_crop(img, cfg, rng):
    c, h, w = img.shape
    for _ in range(10):
        area = h * w * rng.uniform(*cfg.crop_area)
        aspect = rng.uniform(*ag.CROP_ASPECT)
        ch = int(round(math.sqrt(area / aspect)))
        cw = int(round(math.sqrt(area * aspect)))
        if 0 < ch <= h and 0 < cw <= w:
            top = int(rng.integers(0, h - ch + 1))
            left = int(rng.integers(0, w - cw + 1))
            crop = img[:, top : top + ch, left : left + cw]
            return _ref_bilinear_resize(crop, h, w)
    side = min(h, w)
    top, left = (h - side) // 2, (w - side) // 2
    return _ref_bilinear_resize(img[:, top : top + side, left : left + side], h, w)


def _ref_color_jitter(img, rng):
    brightness, contrast, saturation = ag.JITTER
    order = rng.permutation(4)
    for op in order:
        if op == 0:
            f = rng.uniform(1.0 - brightness, 1.0 + brightness)
            img = np.clip(img * f, 0.0, 1.0)
        elif op == 1:
            f = rng.uniform(1.0 - contrast, 1.0 + contrast)
            anchor = ag._grayscale(img).mean()
            img = np.clip(img * f + anchor * (1.0 - f), 0.0, 1.0)
        elif op == 2:
            f = rng.uniform(1.0 - saturation, 1.0 + saturation)
            img = np.clip(img * f + ag._grayscale(img) * (1.0 - f), 0.0, 1.0)
        else:
            shift = rng.uniform(-ag.HUE, ag.HUE)
            hsv = ag._rgb_to_hsv(img)
            hsv[0] = (hsv[0] + shift) % 1.0
            img = np.clip(ag._hsv_to_rgb(hsv), 0.0, 1.0)
    return img


def _ref_gaussian_blur(img, image_side, rng):
    sigma = rng.uniform(*ag.BLUR_SIGMA)
    ksize = max(3, int(round(image_side / 10)) | 1)
    half = ksize // 2
    xs = np.arange(-half, half + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    kernel /= kernel.sum()
    out = convolve1d(img, kernel, axis=1, mode="reflect")
    return convolve1d(out, kernel, axis=2, mode="reflect")


def reference_augment_view(batch, cfg, view, rng):
    vi = view - 1
    data = batch.data
    n, c, h, w = data.shape
    color = cfg.color_ops and c == 3
    out = np.empty_like(data, dtype=np.float64)
    for i in range(n):
        img = data[i].astype(np.float64, copy=True)
        img = _ref_random_resized_crop(img, cfg, rng)
        if rng.random() < cfg.flip_prob:
            img = img[:, :, ::-1]
        if color and rng.random() < cfg.jitter_prob:
            img = _ref_color_jitter(img, rng)
        if color and rng.random() < cfg.grayscale_prob:
            img = ag._grayscale(img)
        if rng.random() < cfg.blur_prob[vi]:
            img = _ref_gaussian_blur(img, max(h, w), rng)
        if rng.random() < cfg.solarize_prob[vi]:
            img = np.where(img < ag.SOLARIZE_THRESHOLD, img, 1.0 - img)
        out[i] = np.clip(img, 0.0, 1.0)
    return po.ImageBatch(out)


REFERENCE_CONFIGS = {
    "default": ag.AugConfig(),
    # the smoke-learning augmentation of acceptance criteria 08 and 09
    "smoke": ag.AugConfig(
        crop_area=(0.9, 1.0),
        jitter_prob=0.0,
        grayscale_prob=0.0,
        blur_prob=(0.0, 0.0),
        solarize_prob=(0.0, 0.0),
    ),
    "no_color_ops": ag.AugConfig(color_ops=False),
    "one_channel": ag.AugConfig(),
    "all_certain": ag.AugConfig(
        flip_prob=1.0,
        jitter_prob=1.0,
        grayscale_prob=1.0,
        blur_prob=(1.0, 1.0),
        solarize_prob=(1.0, 1.0),
    ),
}


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("side", [8, 13, 16, 32])
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_bit_identical(self, name, side):
        cfg = REFERENCE_CONFIGS[name]
        channels = 1 if name == "one_channel" else 3
        for seed in range(5):
            data = np.random.default_rng(100 + seed).random((6, channels, side, side))
            batch = po.ImageBatch(data)
            for view in (1, 2):
                got = ag.augment_view(batch, cfg, view, np.random.default_rng(seed))
                want = reference_augment_view(
                    batch, cfg, view, np.random.default_rng(seed)
                )
                assert got.data.tobytes() == want.data.tobytes(), (seed, view)

    def test_consumes_the_same_random_stream(self):
        batch = rgb_batch(n=5, seed=9)
        cfg = REFERENCE_CONFIGS["all_certain"]
        rng_new, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
        ag.augment_view(batch, cfg, 1, rng_new)
        reference_augment_view(batch, cfg, 1, rng_ref)
        assert rng_new.random() == rng_ref.random()

    def test_float32_input(self):
        data = np.random.default_rng(3).random((4, 3, 16, 16)).astype(np.float32)
        batch = po.ImageBatch(data)
        got = ag.augment_view(batch, ag.AugConfig(), 2, np.random.default_rng(0))
        want = reference_augment_view(
            batch, ag.AugConfig(), 2, np.random.default_rng(0)
        )
        assert got.data.dtype == np.float64
        assert got.data.tobytes() == want.data.tobytes()
