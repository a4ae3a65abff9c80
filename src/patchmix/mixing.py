"""Multi-image patch mixing: plan construction and execution.

A mix over a batch of N patch sequences is defined by four steps, all
driven by one shared random permutation:

1. shuffle every image's T patches by the shared permutation;
2. divide the shuffled sequence into M contiguous groups (when M does not
   divide T, the first T mod M groups receive one extra patch);
3. route groups across the batch cyclically: group slot m of output i is
   taken from input (i + m) mod N;
4. unshuffle with the inverse permutation, restoring grid positions.

Because routing happens at whole-group granularity in the shuffled order
and is undone by the inverse permutation, every mixed patch sits at the
same grid position it occupied in its source image; only its source image
changes. ``plan_mix`` therefore folds all four steps into ``source_map``,
the [N, T] source image of every mixed patch in grid order, and
``apply_mix`` executes the mix as the single gather

    mixed[i, j] = patches[source_map[i, j], j].

``flat_group_gather`` is the paper's closed-form routing of step 3: over
the flattened (image, group) index l = i * M + m, its entry l is

    (l + (l mod M) * M) mod (N * M),

which routes slot l to source (i + m) mod N while keeping the group slot m
fixed. Acceptance criterion 02 checks it; execution does not read it.

``plan_mix`` also derives the supervision targets: for output i, group slot
m originates from image (i + m) mod N (the mix-to-origin targets), and two
mixed outputs share source images exactly when their indices are within
M - 1 of each other cyclically, with overlap count M - |offset| (the
mix-to-mix targets and weights).
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .patch_ops import PatchBatch, Permutation

__all__ = [
    "MixConfig",
    "MixPlan",
    "MixedBatch",
    "flat_group_gather",
    "plan_mix",
    "mix_weights",
    "apply_mix",
    "naive_mix_oracle",
    "plan_to_text",
    "plan_from_text",
]


@dataclass(frozen=True)
class MixConfig:
    """Mixing shape: batch size, group count, and patches per image."""

    images: int
    groups: int
    tokens: int

    def __post_init__(self):
        n, m, t = self.images, self.groups, self.tokens
        if m < 1:
            raise ValueError(f"group count must be >= 1, got {m}")
        if m > n:
            raise ValueError(
                f"group count {m} exceeds batch size {n}; each group slot "
                f"needs a distinct source image"
            )
        if t < m:
            raise ValueError(
                f"cannot divide {t} patches into {m} non-empty groups"
            )


@dataclass(frozen=True)
class MixPlan:
    """Everything needed to execute and supervise one mix.

    Fields:
        config: the (N, M, T) shape the plan was built for.
        perm: shared patch permutation with its inverse.
        group_bounds: M+1 offsets delimiting groups in the shuffled order.
        source_map: [N, T] source image of every mixed patch, in grid order.
        origin_targets: [N, M] source image of each group slot.
        mixed_targets: [N, 2M-1] indices of mixed outputs sharing sources
            with output i (the cyclic window around i).
        mixed_weights: [N, 2M-1] per-target weights 1 - |M-1-j| / M,
            proportional to the shared-source count; each row sums to M.
    """

    config: MixConfig
    perm: Permutation
    group_bounds: np.ndarray
    source_map: np.ndarray
    origin_targets: np.ndarray
    mixed_targets: np.ndarray
    mixed_weights: np.ndarray


@dataclass(frozen=True)
class MixedBatch:
    """A mixed patch batch together with the plan that produced it."""

    patches: PatchBatch
    plan: MixPlan


def _group_sizes(tokens: int, groups: int) -> np.ndarray:
    """Group sizes in shuffled order: first (tokens mod groups) get one extra."""
    base, extra = divmod(tokens, groups)
    sizes = np.full(groups, base, dtype=np.int64)
    sizes[:extra] += 1
    return sizes


def flat_group_gather(images: int, groups: int) -> np.ndarray:
    """The flattened cyclic gather over (image, group) slots.

    With slots flattened as l = i * groups + m, entry l is

        (l + (l mod groups) * groups) mod (images * groups),

    which is slot m of image (i + m) mod images. Pure index algebra, defined
    for any positive pair; e.g. images=3, groups=4 gives
    [0, 5, 10, 3, 4, 9, 2, 7, 8, 1, 6, 11].
    """
    if images < 1 or groups < 1:
        raise ValueError(
            f"need positive image and group counts, got {images}, {groups}"
        )
    total = images * groups
    l = np.arange(total, dtype=np.int64)
    return (l + (l % groups) * groups) % total


def mix_weights(config: MixConfig) -> np.ndarray:
    """Mix-to-mix target weights, one identical row per image.

    Entry j of a row is 1 - |M-1-j| / M for j in [0, 2M-1): a symmetric
    tent peaking at 1 for the self target (j = M-1) and decaying by 1/M per
    step of cyclic distance. Row sums equal M up to float rounding.
    """
    m = config.groups
    j = np.arange(2 * m - 1, dtype=np.float64)
    row = 1.0 - np.abs(m - 1 - j) / m
    return np.tile(row, (config.images, 1))


def plan_mix(config: MixConfig, perm: Permutation) -> MixPlan:
    """Build the full mixing plan for one batch under a shared permutation.

    Raises if the permutation length does not match ``config.tokens``.
    Warns when N <= 2M - 2, in which case the cyclic mix-to-mix window wraps
    far enough that some target indices repeat within a row.
    """
    n, m, t = config.images, config.groups, config.tokens
    if len(perm) != t:
        raise ValueError(
            f"permutation length {len(perm)} does not match token count {t}"
        )
    if n <= 2 * m - 2:
        warnings.warn(
            f"batch size {n} <= 2*{m} - 2: mix-to-mix targets contain "
            f"duplicate indices within a row",
            stacklevel=2,
        )

    sizes = _group_sizes(t, m)
    group_bounds = np.concatenate(([0], np.cumsum(sizes)))
    # group index of every position in the shuffled order
    group_of = np.repeat(np.arange(m, dtype=np.int64), sizes)

    i = np.arange(n, dtype=np.int64)[:, None]
    origin_targets = (i + np.arange(m, dtype=np.int64)[None, :]) % n

    # source image of the patch at grid position j: the patch travelled to
    # shuffled position inverse[j], whose group slot took it from
    # origin_targets[i, group_of[inverse[j]]]
    source_map = origin_targets[:, group_of[perm.inverse]]

    j = np.arange(2 * m - 1, dtype=np.int64)[None, :]
    mixed_targets = np.mod(i - m + 1 + j, n)

    return MixPlan(
        config=config,
        perm=perm,
        group_bounds=group_bounds,
        source_map=source_map,
        origin_targets=origin_targets,
        mixed_targets=mixed_targets,
        mixed_weights=mix_weights(config),
    )


def apply_mix(pb: PatchBatch, plan: MixPlan) -> MixedBatch:
    """Execute a plan as one gather over ``plan.source_map``.

    Patch j of mixed output i is patch j of input image source_map[i, j],
    so every patch keeps its grid position.
    """
    cfg = plan.config
    if pb.count != cfg.images or pb.tokens != cfg.tokens:
        raise ValueError(
            f"patch batch shape (N={pb.count}, T={pb.tokens}) does not match "
            f"plan (N={cfg.images}, T={cfg.tokens})"
        )
    mixed = pb.patches[plan.source_map, np.arange(cfg.tokens)[None, :], :]
    return MixedBatch(patches=pb.with_patches(mixed), plan=plan)


def naive_mix_oracle(
    pb: PatchBatch, config: MixConfig, perm: Permutation
) -> np.ndarray:
    """Reference mix by explicit loops; deliberately ignores the plan.

    Builds each mixed output patch-by-patch straight from the definition:
    shuffle, walk the M groups, copy group m of image (i + m) mod N, then
    place every patch back through the inverse permutation. Kept slow and
    literal as an independent cross-check of ``apply_mix``.
    """
    n, m, t = config.images, config.groups, config.tokens
    if pb.count != n or pb.tokens != t:
        raise ValueError("patch batch shape does not match mix config")
    if len(perm) != t:
        raise ValueError("permutation length does not match mix config")

    sizes = _group_sizes(t, m)
    bounds = np.concatenate(([0], np.cumsum(sizes)))

    shuffled = np.empty_like(pb.patches)
    for i in range(n):
        for j in range(t):
            shuffled[i, j] = pb.patches[i, perm.forward[j]]

    mixed_shuffled = np.empty_like(shuffled)
    for i in range(n):
        for slot in range(m):
            src = (i + slot) % n
            lo, hi = bounds[slot], bounds[slot + 1]
            for pos in range(lo, hi):
                mixed_shuffled[i, pos] = shuffled[src, pos]

    mixed = np.empty_like(mixed_shuffled)
    for i in range(n):
        for j in range(t):
            mixed[i, j] = mixed_shuffled[i, perm.inverse[j]]
    return mixed


# the rows of a plan text, in order, and the plan field each one holds
_ROWS = {
    "perm_forward": "perm.forward",
    "perm_inverse": "perm.inverse",
    "group_bounds": "group_bounds",
    "source_map": "source_map",
    "origin_targets": "origin_targets",
    "mixed_targets": "mixed_targets",
    "mixed_weights": "mixed_weights",
}


def _write_row(out: io.StringIO, name: str, arr: np.ndarray) -> None:
    flat = np.asarray(arr).reshape(-1)
    if flat.dtype.kind == "f":
        body = " ".join(format(v, ".17g") for v in flat)
    else:
        body = " ".join(str(int(v)) for v in flat)
    out.write(f"{name} {body}\n" if flat.size else f"{name}\n")


def plan_to_text(plan: MixPlan) -> str:
    """Serialise a plan to a line-oriented text block, one array per row."""
    cfg = plan.config
    out = io.StringIO()
    out.write(f"mixplan {cfg.images} {cfg.groups} {cfg.tokens}\n")
    for name, field in _ROWS.items():
        _write_row(out, name, attrgetter(field)(plan))
    return out.getvalue()


def plan_from_text(text: str) -> MixPlan:
    """Rebuild the plan of a ``plan_to_text`` block from its permutation.

    The header and the two permutation rows define the plan, which
    ``plan_mix`` derives again. Every other known row present must equal
    the derived one, or a ``ValueError`` names it; unknown rows (such as
    the ``group_gather`` row of older plans) are ignored.
    """
    rows: dict[str, list[str]] = {}
    header: list[str] | None = None
    for line in text.strip().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "mixplan":
            header = parts[1:]
        else:
            rows[parts[0]] = parts[1:]
    if header is None or len(header) != 3:
        raise ValueError("missing or malformed mixplan header line")
    n, m, t = (int(v) for v in header)

    def numbers(name: str, kind=int) -> np.ndarray:
        if name not in rows:
            raise ValueError(f"missing row {name!r} in mix plan text")
        try:
            return np.array([kind(v) for v in rows[name]])
        except ValueError:
            raise ValueError(
                f"row {name!r} of the mix plan text holds a non-{kind.__name__}"
            ) from None

    perm = Permutation(numbers("perm_forward"), numbers("perm_inverse"))
    plan = plan_mix(MixConfig(images=n, groups=m, tokens=t), perm)
    for name, field in _ROWS.items():
        want = attrgetter(field)(plan).reshape(-1)
        kind = float if want.dtype.kind == "f" else int
        if name in rows and not np.array_equal(numbers(name, kind), want):
            raise ValueError(
                f"row {name!r} of the mix plan text contradicts the plan its "
                f"permutation gives"
            )
    return plan
