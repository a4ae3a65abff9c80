"""Supervision targets for mixed views, and the degenerate loss values.

Prints the origin targets, the mixed-output windows with their triangular
weights, the repeated window of a small batch and its config's warning,
and checks the closed-form loss at indistinguishable embeddings. Run with
no arguments.
"""

import math
import warnings

import numpy as np

import patchmix.encoder as enc
import patchmix.mixing as mx
import patchmix.objectives as ob
import patchmix.patch_ops as po
import patchmix.trainer as tr

N, M, T = 9, 3, 18
cfg = mx.MixConfig(images=N, groups=M, tokens=T)
plan = mx.plan_mix(cfg, po.Permutation.identity(T))

# Mixed output i contains groups of images i, i+1, ..., i+M-1 (mod N), so
# the matching sources for the first term are a cyclic ramp per row.
print(f"origin targets for N={N}, M={M} (row i is (i + slot) mod N):")
print(plan.origin_targets)
print()

# Two mixed outputs share sources when their indices differ by less than
# M, which gives each output a window of 2M-1 neighbours with triangular
# overlap weights (the centre shares all M groups, the edges share one).
print("mixed-output window for image 0 and its weights:")
print("  targets:", [int(v) for v in plan.mixed_targets[0]])
print("  weights:", [round(float(v), 6) for v in plan.mixed_weights[0]])
assert [int(v) for v in plan.mixed_targets[0]] == [7, 8, 0, 1, 2]
assert np.allclose(plan.mixed_weights[0], [1 / 3, 2 / 3, 1.0, 2 / 3, 1 / 3])
row_sum = float(plan.mixed_weights[0].sum())
print(f"  row weight sum = {row_sum:.6f} (always M)")
print()

# Small batches make windows wrap onto themselves: at N <= 2M - 2 a row
# names some outputs twice, and the loss counts each repeat with its own
# weight. The plan builds silently; a run's config warns once.
small = mx.plan_mix(mx.MixConfig(images=4, groups=3, tokens=6), po.Permutation.identity(6))
print("N=4, M=3 window for image 0:", [int(v) for v in small.mixed_targets[0]])
assert [int(v) for v in small.mixed_targets[0]] == [2, 3, 0, 1, 2]
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    tr.TrainConfig(enc.vit_micro(8), batch_size=4, mix_count=3)
print("TrainConfig(batch_size=4, mix_count=3) warns:", str(caught[0].message))
print()

# With every embedding identical all similarities tie, each softmax is
# uniform, and the loss hits its ceiling exactly: ln N per plain term and
# M ln N for the window term (weights per row sum to M).
same = np.tile(np.full(6, 0.5), (N, 1))
report, _ = ob.loss_total(ob.ContrastBatch(same, same, same, same, same, plan))
ln = math.log(N)
print("losses at indistinguishable embeddings (nats):")
print(f"  mix-to-other {report.l_mto:.6f}  (ln N       = {ln:.6f})")
print(f"  mix-to-mix   {report.l_mtm:.6f}  (M ln N     = {M * ln:.6f})")
print(f"  other-to-oth {report.l_oto:.6f}  (ln N       = {ln:.6f})")
print(f"  total        {report.l_total:.6f}  ((M+2) ln N = {(M + 2) * ln:.6f})")
assert abs(report.l_total - (M + 2) * ln) <= 1e-9
print("closed forms match within 1e-9")
