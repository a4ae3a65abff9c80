"""Multi-image patch mixing with inter-instance contrastive pretraining.

The package is organised as a small numpy library:

- ``patch_ops``: image <-> patch-sequence views and batch-shared shuffles
- ``mixing``: the patch-mix plan (source map, targets, weights), its
  one-gather execution and the loop-literal oracle
- ``autodiff``: a minimal reverse-mode tape over numpy arrays
- ``encoder``: a from-scratch ViT backbone with projection/prediction heads
  and a momentum twin
- ``augment``: two-view augmentation pipeline
- ``objectives``: the three contrastive losses over cosine similarities
- ``trainer``: schedules, AdamW, the pretraining loop and checkpoints
- ``evaluation``: kNN / linear probes, attention maps
- ``datasets``: CIFAR binary loading and synthetic blob generation
- ``cli``: command-line entry points

Submodules are imported lazily so that process-level knobs (thread counts)
can be set by the CLI before numpy is first loaded.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "patch_ops",
    "mixing",
    "autodiff",
    "encoder",
    "augment",
    "objectives",
    "trainer",
    "evaluation",
    "datasets",
    "kvconfig",
    "imgio",
    "cli",
)

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
