import numpy as np
import pytest

from patchmix import mixing as mx
from patchmix import patch_ops as po

# small batches legitimately trigger the duplicate-window notice
pytestmark = pytest.mark.filterwarnings("ignore:batch size")


def random_patches(n: int, t: int, d: int, seed: int = 0) -> po.PatchBatch:
    rng = np.random.default_rng(seed)
    return po.PatchBatch(rng.random((n, t, d)), 1, (1, t), d)


def make_plan(n: int, m: int, t: int, seed: int = 0) -> mx.MixPlan:
    perm = po.sample_permutation(t, np.random.default_rng(seed))
    return mx.plan_mix(mx.MixConfig(images=n, groups=m, tokens=t), perm)


class TestFlatGroupGather:
    def test_worked_example(self):
        np.testing.assert_array_equal(
            mx.flat_group_gather(3, 4),
            [0, 5, 10, 3, 4, 9, 2, 7, 8, 1, 6, 11],
        )

    def test_single_group_is_identity(self):
        for n in (1, 2, 5):
            np.testing.assert_array_equal(
                mx.flat_group_gather(n, 1), np.arange(n)
            )

    def test_slot_semantics(self):
        # entry (i * M + m) must be slot m of image (i + m) mod N
        for n, m in ((2, 2), (5, 3), (4, 4), (3, 5)):
            q = mx.flat_group_gather(n, m)
            for i in range(n):
                for slot in range(m):
                    assert q[i * m + slot] == ((i + slot) % n) * m + slot

    def test_is_a_permutation(self):
        q = mx.flat_group_gather(6, 4)
        np.testing.assert_array_equal(np.sort(q), np.arange(24))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            mx.flat_group_gather(0, 3)


class TestMixConfig:
    def test_rejects_more_groups_than_images(self):
        with pytest.raises(ValueError, match="group count"):
            mx.MixConfig(images=3, groups=4, tokens=16)

    def test_rejects_fewer_tokens_than_groups(self):
        with pytest.raises(ValueError):
            mx.MixConfig(images=8, groups=4, tokens=3)

    def test_single_image_single_group(self):
        cfg = mx.MixConfig(images=1, groups=1, tokens=4)
        assert cfg.groups == 1


class TestGroupSizes:
    def test_leftover_rule(self):
        # first T mod M groups carry one extra patch
        np.testing.assert_array_equal(mx._group_sizes(7, 3), [3, 2, 2])
        np.testing.assert_array_equal(mx._group_sizes(9, 3), [3, 3, 3])
        np.testing.assert_array_equal(mx._group_sizes(10, 4), [3, 3, 2, 2])

    def test_sizes_sum_to_tokens(self):
        for t in (4, 7, 9, 16, 196):
            for m in (1, 2, 3, 4):
                assert mx._group_sizes(t, m).sum() == t


class TestMixWeights:
    def test_worked_example(self):
        w = mx.mix_weights(mx.MixConfig(images=9, groups=3, tokens=9))
        expect = np.array([1 / 3, 2 / 3, 1.0, 2 / 3, 1 / 3])
        assert w.shape == (9, 5)
        np.testing.assert_allclose(w[0], expect, rtol=0, atol=1e-12)

    def test_row_structure(self):
        for n, m in ((4, 2), (9, 3), (8, 4)):
            w = mx.mix_weights(mx.MixConfig(images=n, groups=m, tokens=16))
            row = w[0]
            assert row.shape == (2 * m - 1,)
            assert row[m - 1] == 1.0
            np.testing.assert_array_equal(row, row[::-1])
            assert abs(row.sum() - m) <= 1e-12 * m
            # every row identical
            np.testing.assert_array_equal(w, np.tile(row, (n, 1)))


class TestPlanMix:
    def test_origin_targets_cyclic(self):
        plan = make_plan(5, 3, 16)
        for i in range(5):
            for m in range(3):
                assert plan.origin_targets[i, m] == (i + m) % 5

    def test_mixed_targets_worked_example(self):
        plan = make_plan(9, 3, 9)
        np.testing.assert_array_equal(
            plan.mixed_targets[0], [7, 8, 0, 1, 2]
        )

    def test_mixed_targets_general_formula(self):
        plan = make_plan(6, 2, 8)
        for i in range(6):
            for j in range(3):
                assert plan.mixed_targets[i, j] == (i - 2 + 1 + j) % 6

    def test_perm_length_mismatch_rejected(self):
        perm = po.Permutation.identity(9)
        with pytest.raises(ValueError):
            mx.plan_mix(mx.MixConfig(images=4, groups=2, tokens=16), perm)

    def test_duplicate_window_warns(self):
        # N <= 2M - 2 makes the mix-to-mix window wrap onto itself
        perm = po.Permutation.identity(16)
        with pytest.warns(UserWarning, match="duplicate"):
            mx.plan_mix(mx.MixConfig(images=4, groups=3, tokens=16), perm)

    def test_group_bounds_cover_tokens(self):
        plan = make_plan(3, 3, 10)
        assert plan.group_bounds[0] == 0 and plan.group_bounds[-1] == 10
        np.testing.assert_array_equal(
            np.diff(plan.group_bounds), mx._group_sizes(10, 3)
        )


class TestApplyMix:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        for n, m, t in ((2, 1, 4), (3, 2, 9), (5, 3, 10), (4, 4, 16), (6, 3, 196)):
            cfg = mx.MixConfig(images=n, groups=m, tokens=t)
            for rep in range(3):
                perm = po.sample_permutation(t, rng)
                plan = mx.plan_mix(cfg, perm)
                pb = random_patches(n, t, 5, seed=100 * rep + n)
                fast = mx.apply_mix(pb, plan).patches.patches
                slow = mx.naive_mix_oracle(pb, cfg, perm)
                np.testing.assert_array_equal(fast, slow)

    def test_single_group_returns_originals(self):
        pb = random_patches(4, 9, 3)
        plan = make_plan(4, 1, 9)
        out = mx.apply_mix(pb, plan)
        np.testing.assert_array_equal(out.patches.patches, pb.patches)

    def test_position_preservation_via_source_map(self):
        # mixed patch j of image i is patch j of image source_map[i, j]
        pb = random_patches(5, 12, 4, seed=2)
        plan = make_plan(5, 3, 12, seed=3)
        mixed = mx.apply_mix(pb, plan).patches.patches
        expect = pb.patches[plan.source_map, np.arange(12)[None, :], :]
        np.testing.assert_array_equal(mixed, expect)

    def test_multiset_conservation_per_position(self):
        # at every grid position the batch's patches are only permuted
        plan = make_plan(6, 4, 17, seed=5)
        assert (
            np.sort(plan.source_map, axis=0) == np.arange(6)[:, None]
        ).all()

    def test_shape_mismatch_rejected(self):
        pb = random_patches(3, 16, 4)
        plan = make_plan(4, 2, 16)
        with pytest.raises(ValueError, match="does not match"):
            mx.apply_mix(pb, plan)

    def test_batch_shared_permutation(self):
        # all images are cut at identical shuffled group boundaries: mixing
        # with the identity permutation moves whole contiguous index bands
        pb = random_patches(3, 9, 2, seed=9)
        plan = mx.plan_mix(
            mx.MixConfig(images=3, groups=3, tokens=9),
            po.Permutation.identity(9),
        )
        mixed = mx.apply_mix(pb, plan).patches.patches
        np.testing.assert_array_equal(mixed[0, 0:3], pb.patches[0, 0:3])
        np.testing.assert_array_equal(mixed[0, 3:6], pb.patches[1, 3:6])
        np.testing.assert_array_equal(mixed[0, 6:9], pb.patches[2, 6:9])


class TestPlanText:
    def test_round_trip(self):
        plan = make_plan(5, 3, 11, seed=8)
        text = mx.plan_to_text(plan)
        back = mx.plan_from_text(text)
        assert back.config == plan.config
        np.testing.assert_array_equal(back.perm.forward, plan.perm.forward)
        np.testing.assert_array_equal(back.source_map, plan.source_map)
        np.testing.assert_array_equal(back.mixed_targets, plan.mixed_targets)
        np.testing.assert_allclose(
            back.mixed_weights, plan.mixed_weights, rtol=0, atol=0
        )

    def test_ignores_group_gather_row_of_older_plans(self):
        # older plan files carry a group_gather row; it is read and ignored
        plan = make_plan(5, 3, 11, seed=8)
        legacy = mx.plan_to_text(plan) + "group_gather " + " ".join(
            str(v) for v in mx.flat_group_gather(5, 3)
        ) + "\n"
        back = mx.plan_from_text(legacy)
        assert mx.plan_to_text(back) == mx.plan_to_text(plan)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            mx.plan_from_text("not a plan\n")

    def test_permutation_rows_alone_define_the_plan(self):
        plan = make_plan(5, 3, 11, seed=8)
        lines = mx.plan_to_text(plan).splitlines(keepends=True)
        back = mx.plan_from_text("".join(lines[:3]))  # header, perm rows
        assert mx.plan_to_text(back) == mx.plan_to_text(plan)

    @pytest.mark.parametrize(
        "row",
        ["group_bounds", "source_map", "origin_targets", "mixed_targets",
         "mixed_weights"],
    )
    def test_row_contradicting_the_permutation_rejected(self, row):
        plan = make_plan(5, 3, 11, seed=8)
        lines = mx.plan_to_text(plan).splitlines(keepends=True)
        at = next(i for i, ln in enumerate(lines) if ln.startswith(row + " "))
        name, first, rest = lines[at].split(" ", 2)
        lines[at] = f"{name} {float(first) + 1:g} {rest}"
        with pytest.raises(ValueError, match=f"row '{row}' .* contradicts"):
            mx.plan_from_text("".join(lines))

    def test_row_of_the_wrong_length_rejected(self):
        plan = make_plan(5, 3, 11, seed=8)
        text = mx.plan_to_text(plan).replace("mixed_targets ", "mixed_targets 0 ")
        with pytest.raises(ValueError, match="'mixed_targets'"):
            mx.plan_from_text(text)

    def test_non_number_rejected(self):
        text = mx.plan_to_text(make_plan(5, 3, 11, seed=8))
        with pytest.raises(ValueError, match="'source_map' .* non-int"):
            mx.plan_from_text(text.replace("source_map ", "source_map x "))


class TestPropertyGrid:
    @pytest.mark.filterwarnings("ignore:batch size")
    def test_random_instances_conserve_and_preserve(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, min(n, 4) + 1))
            t = int(rng.integers(m, 40))
            perm = po.sample_permutation(t, rng)
            plan = mx.plan_mix(mx.MixConfig(images=n, groups=m, tokens=t), perm)
            pb = po.PatchBatch(rng.random((n, t, 3)), 1, (1, t), 3)
            mixed = mx.apply_mix(pb, plan).patches.patches
            expect = pb.patches[plan.source_map, np.arange(t)[None, :], :]
            np.testing.assert_array_equal(mixed, expect)
            assert (
                np.sort(plan.source_map, axis=0) == np.arange(n)[:, None]
            ).all()
