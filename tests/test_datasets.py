import numpy as np
import pytest

from patchmix import datasets as ds
from patchmix import evaluation as ev

RECORD10 = 1 + 3072
RECORD100 = 2 + 3072


def write_record10(path, label: int, pixels: bytes):
    assert len(pixels) == 3072
    path.write_bytes(bytes([label]) + pixels)


class TestCifarLoader:
    def test_single_white_record(self, tmp_path):
        f = tmp_path / "one.bin"
        write_record10(f, 7, b"\xff" * 3072)
        out = ds.load_cifar_binary(f)
        assert out.count == 1
        assert out.labels.tolist() == [7]
        assert out.images.shape == (1, 3, 32, 32)
        np.testing.assert_array_equal(out.images, 1.0)

    def test_plane_order_is_r_then_g_then_b(self, tmp_path):
        f = tmp_path / "rgb.bin"
        pixels = b"\xff" * 1024 + b"\x00" * 1024 + b"\x33" * 1024
        write_record10(f, 0, pixels)
        out = ds.load_cifar_binary(f)
        np.testing.assert_array_equal(out.images[0, 0], 1.0)
        np.testing.assert_array_equal(out.images[0, 1], 0.0)
        np.testing.assert_array_equal(out.images[0, 2], 0x33 / 255.0)

    def test_row_major_pixel_position(self, tmp_path):
        f = tmp_path / "pos.bin"
        pixels = bytearray(3072)
        pixels[32 * 2 + 5] = 255  # red plane, row 2, column 5
        write_record10(f, 3, bytes(pixels))
        out = ds.load_cifar_binary(f)
        assert out.images[0, 0, 2, 5] == 1.0
        assert out.images.sum() == 1.0

    def test_cifar100_uses_fine_label(self, tmp_path):
        f = tmp_path / "c100.bin"
        f.write_bytes(bytes([13, 42]) + b"\x00" * 3072)
        out = ds.load_cifar_binary(f, variant="cifar100")
        assert out.labels.tolist() == [42]
        assert out.num_classes == 100

    def test_truncated_file_names_record_boundary(self, tmp_path):
        f = tmp_path / "cut.bin"
        f.write_bytes(bytes(RECORD10 * 2 + 100))
        with pytest.raises(ValueError, match="2 complete records"):
            ds.load_cifar_binary(f)
        with pytest.raises(ValueError, match="100 trailing"):
            ds.load_cifar_binary(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.bin"
        f.write_bytes(b"")
        with pytest.raises(ValueError, match="0 bytes"):
            ds.load_cifar_binary(f)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not found"):
            ds.load_cifar_binary(tmp_path / "absent.bin")

    def test_imagenet_paths_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="out of scope"):
            ds.load_cifar_binary(tmp_path / "imagenet_train.bin")

    def test_unknown_variant_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="variant"):
            ds.load_cifar_binary(tmp_path / "x.bin", variant="cifar20")

    def test_split_inferred_from_filename(self, tmp_path):
        f = tmp_path / "test_batch.bin"
        write_record10(f, 0, bytes(3072))
        assert ds.load_cifar_binary(f).split == "val"
        g = tmp_path / "data_batch_1.bin"
        write_record10(g, 0, bytes(3072))
        assert ds.load_cifar_binary(g).split == "train"

    @pytest.mark.parametrize("split", ["Train", "validation", ""])
    def test_unknown_split_rejected(self, tmp_path, split):
        write_record10(tmp_path / "test_batch.bin", 0, bytes(3072))
        for path in (tmp_path, tmp_path / "test_batch.bin"):
            with pytest.raises(ValueError, match=f"split {split!r}"):
                ds.load_cifar_binary(path, split=split)

    def test_directory_train_split_concatenates_batches(self, tmp_path):
        for i in range(1, 6):
            write_record10(tmp_path / f"data_batch_{i}.bin", i % 10, bytes(3072))
        write_record10(tmp_path / "test_batch.bin", 9, bytes(3072))
        train = ds.load_cifar_binary(tmp_path, split="train")
        assert train.count == 5
        assert train.labels.tolist() == [1, 2, 3, 4, 5]
        val = ds.load_cifar_binary(tmp_path, split="val")
        assert val.count == 1 and val.split == "val"

    def test_full_train_split_is_50000_records(self, tmp_path):
        # golden count from the real archive; exercised here on a
        # generated stand-in of the same record layout
        rng = np.random.default_rng(0)
        per_file = 10000
        for i in range(1, 6):
            blob = bytearray()
            for _ in range(per_file):
                blob.append(int(rng.integers(0, 10)))
                blob.extend(bytes(3072))
            (tmp_path / f"data_batch_{i}.bin").write_bytes(bytes(blob))
        out = ds.load_cifar_binary(tmp_path, split="train")
        assert out.count == 50000

    def test_loading_is_bit_deterministic(self, tmp_path):
        rng = np.random.default_rng(1)
        f = tmp_path / "det.bin"
        blob = bytearray()
        for label in (0, 4, 9):
            blob.append(label)
            blob.extend(rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes())
        f.write_bytes(bytes(blob))
        a = ds.load_cifar_binary(f)
        b = ds.load_cifar_binary(f)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestExportRoundTrip:
    @pytest.mark.parametrize("variant", ["cifar10", "cifar100"])
    def test_export_then_load_round_trips(self, tmp_path, variant):
        rng = np.random.default_rng(2)
        # quantised values round-trip exactly through round(v*255)/255
        images = rng.integers(0, 256, size=(4, 3, 32, 32)) / 255.0
        labels = np.array([0, 3, 7, 9])
        data = ds.LabeledDataset(images, labels, "train", 10)
        f = tmp_path / "rt.bin"
        ds.export_cifar_binary(data, f, variant=variant)
        assert f.stat().st_size == 4 * (RECORD10 if variant == "cifar10" else RECORD100)
        back = ds.load_cifar_binary(f, variant=variant)
        np.testing.assert_array_equal(back.images, data.images)
        np.testing.assert_array_equal(back.labels, labels)

    def test_wrong_geometry_rejected(self, tmp_path):
        data = ds.synth_blobs(2, 2, 8, True, seed=0)
        with pytest.raises(ValueError, match="3x32x32"):
            ds.export_cifar_binary(data, tmp_path / "x.bin")


class TestLabeledDataset:
    def test_label_range_checked(self):
        with pytest.raises(ValueError, match="labels"):
            ds.LabeledDataset(np.zeros((2, 3, 4, 4)), np.array([0, 5]), "train", 2)

    def test_label_count_checked(self):
        with pytest.raises(ValueError, match="one integer per image"):
            ds.LabeledDataset(np.zeros((2, 3, 4, 4)), np.array([0]), "train", 2)


class TestSynthBlobs:
    def test_zero_noise_collapses_to_templates(self):
        data = ds.synth_blobs(3, 4, 8, True, seed=0, noise_sigma=0.0)
        for c in range(3):
            cls = data.images[data.labels == c]
            for img in cls[1:]:
                np.testing.assert_array_equal(img, cls[0])

    def test_seed_reproducibility(self):
        a = ds.synth_blobs(2, 8, 8, True, seed=5)
        b = ds.synth_blobs(2, 8, 8, True, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        c = ds.synth_blobs(2, 8, 8, True, seed=6)
        assert np.any(a.images != c.images)

    def test_labels_interleaved_and_counted(self):
        data = ds.synth_blobs(3, 4, 8, True, seed=0)
        assert data.count == 12
        np.testing.assert_array_equal(data.labels, np.tile([0, 1, 2], 4))

    def test_images_clamped_to_unit_range(self):
        data = ds.synth_blobs(2, 8, 8, True, seed=1, noise_sigma=2.0)
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0

    def test_two_class_margin_closed_form(self):
        # classes 0/1 are the same band pattern in the two orientations;
        # they differ by 0.5 on half of all pixels
        data = ds.synth_blobs(2, 1, 8, True, seed=0, noise_sigma=0.0)
        expect = 0.5 * 8 * np.sqrt(3 / 2)
        assert abs(data.template_margin - expect) <= 1e-12

    def test_template_collision_guard(self):
        # too many frequencies for the pixel grid must be refused, not aliased
        with pytest.raises(ValueError, match="distinct"):
            ds.synth_blobs(20, 1, 4, True, seed=0)

    def test_odd_image_side_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ds.synth_blobs(2, 2, 7, True, seed=0)

    def test_mirror_symmetric_templates(self):
        data = ds.synth_blobs(4, 1, 8, True, seed=0, noise_sigma=0.0)
        for img in data.images:
            np.testing.assert_array_equal(img, img[:, :, ::-1])

    def test_smooth_variant_differs_from_structured(self):
        a = ds.synth_blobs(2, 1, 8, True, seed=0, noise_sigma=0.0)
        b = ds.synth_blobs(2, 1, 8, False, seed=0, noise_sigma=0.0)
        assert np.any(a.images != b.images)

    def test_raw_pixels_linearly_separable(self):
        train = ds.synth_blobs(2, 32, 8, True, seed=7, noise_sigma=0.1)
        val = ds.synth_blobs(2, 16, 8, True, seed=8, noise_sigma=0.1, split="val")

        def bank(d):
            flat = d.images.reshape(d.count, -1)
            return ev.FeatureBank(
                flat / np.linalg.norm(flat, axis=1, keepdims=True),
                d.labels,
                d.num_classes,
            )

        acc = ev.linear_probe(bank(train), bank(val), epochs=200, lr=0.5)
        assert acc >= 0.99
