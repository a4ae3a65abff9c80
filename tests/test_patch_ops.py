import numpy as np
import pytest

from patchmix import patch_ops as po


def grid_image(side: int, channels: int = 1) -> np.ndarray:
    """One image whose pixel value encodes its (channel, row, col)."""
    total = channels * side * side
    return np.arange(total, dtype=np.float64).reshape(channels, side, side) / total


class TestImageBatch:
    def test_accepts_valid(self):
        b = po.ImageBatch(np.zeros((2, 3, 4, 4)))
        assert b.count == 2 and b.channels == 3
        assert b.height == 4 and b.width == 4

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match=r"\[N, C, H, W\]"):
            po.ImageBatch(np.zeros((3, 4, 4)))

    def test_rejects_out_of_range(self):
        data = np.zeros((1, 1, 2, 2))
        data[0, 0, 0, 0] = 1.5
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            po.ImageBatch(data)

    def test_rejects_non_finite(self):
        data = np.zeros((1, 1, 2, 2))
        data[0, 0, 1, 1] = np.nan
        with pytest.raises(ValueError):
            po.ImageBatch(data)


class TestPatchify:
    def test_hand_layout(self):
        # 4x4 single-channel image holding 0..15 row-major, patch side 2:
        # patch j of the 2x2 grid is cell (j // 2, j % 2), flattened row-major
        img = grid_image(4)[None]
        pb = po.patchify(po.ImageBatch(img), 2)
        assert pb.grid == (2, 2)
        expect = (
            np.array(
                [[0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15]],
                dtype=np.float64,
            )
            / 16.0
        )
        np.testing.assert_array_equal(pb.patches[0], expect)

    def test_multichannel_flatten_order(self):
        # flattening is (C, P, P) row-major: all of channel 0 first
        img = grid_image(2, channels=3)[None]
        pb = po.patchify(po.ImageBatch(img), 2)
        np.testing.assert_array_equal(pb.patches[0, 0], img[0].reshape(-1))

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        imgs = po.ImageBatch(rng.random((3, 3, 8, 8)))
        for p in (1, 2, 4, 8):
            back = po.unpatchify(po.patchify(imgs, p))
            np.testing.assert_array_equal(back.data, imgs.data)

    def test_indivisible_side_rejected(self):
        imgs = po.ImageBatch(np.zeros((1, 1, 6, 6)))
        with pytest.raises(ValueError, match="divisible"):
            po.patchify(imgs, 4)

    def test_patch_dim_property(self):
        pb = po.patchify(po.ImageBatch(np.zeros((1, 3, 8, 8))), 2)
        assert pb.tokens == 16 and pb.dim == 12


class TestPatchBatch:
    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            po.PatchBatch(np.zeros((1, 5, 4)), 2, (2, 2), 1)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="patch dimension"):
            po.PatchBatch(np.zeros((1, 4, 5)), 2, (2, 2), 1)

    def test_non_square_grid_allowed(self):
        pb = po.PatchBatch(np.zeros((2, 8, 3)), 1, (2, 4), 3)
        assert pb.tokens == 8


class TestPermutation:
    def test_from_forward_inverse(self):
        rng = np.random.default_rng(1)
        for t in (1, 2, 7, 40):
            perm = po.sample_permutation(t, rng)
            np.testing.assert_array_equal(
                perm.forward[perm.inverse], np.arange(t)
            )
            np.testing.assert_array_equal(
                perm.inverse[perm.forward], np.arange(t)
            )

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            po.Permutation(np.array([0, 0, 1]), np.array([0, 1, 2]))

    def test_rejects_wrong_inverse(self):
        with pytest.raises(ValueError, match="invert"):
            po.Permutation(np.array([1, 2, 0]), np.array([0, 1, 2]))

    def test_identity(self):
        perm = po.Permutation.identity(5)
        np.testing.assert_array_equal(perm.forward, np.arange(5))

    def test_sampling_deterministic_under_seed(self):
        a = po.sample_permutation(32, np.random.default_rng(7))
        b = po.sample_permutation(32, np.random.default_rng(7))
        np.testing.assert_array_equal(a.forward, b.forward)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            po.sample_permutation(0, np.random.default_rng(0))


class TestShuffle:
    def test_shared_across_batch_and_invertible(self):
        rng = np.random.default_rng(3)
        pb = po.patchify(po.ImageBatch(rng.random((4, 3, 8, 8))), 2)
        perm = po.sample_permutation(pb.tokens, rng)
        shuffled = po.shuffle(pb, perm)
        # every image is reordered by the same permutation
        for i in range(pb.count):
            np.testing.assert_array_equal(
                shuffled.patches[i], pb.patches[i, perm.forward]
            )
        # the inverse permutation puts every patch back
        np.testing.assert_array_equal(shuffled.patches[:, perm.inverse], pb.patches)

    def test_length_mismatch_rejected(self):
        pb = po.patchify(po.ImageBatch(np.zeros((1, 1, 4, 4))), 2)
        perm = po.Permutation.identity(9)
        with pytest.raises(ValueError):
            po.shuffle(pb, perm)
