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

The package imports none of its submodules: import the one you need
(``from patchmix import trainer``). So ``import patchmix.cli`` loads no
numpy, and the CLI can set process-level knobs (thread counts) before
numpy is first loaded.
"""

__version__ = "0.1.0"
