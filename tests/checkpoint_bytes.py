"""Checkpoint files edited byte by byte, for the tests that need a file
``write_checkpoint`` would not write: the JSON header split from the blob
bytes and put back under a valid checksum, and the per-name blob layout
checkpoints had before each parameter set became one blob."""

import json
import struct
import zlib

import numpy as np

from patchmix import encoder as enc

HEADER_START = len(enc.CHECKPOINT_MAGIC) + 8  # after the magic, version and length


def split(raw: bytes) -> tuple[dict, bytes]:
    """The parsed JSON header of the checkpoint bytes ``raw`` and the blob
    bytes between it and the checksum."""
    hlen = struct.unpack_from("<I", raw, HEADER_START - 4)[0]
    end = HEADER_START + hlen
    return json.loads(raw[HEADER_START:end]), raw[end:-4]


def assemble(header: dict, body: bytes = b"") -> bytes:
    """Version-2 checkpoint bytes of ``header`` and the blob bytes ``body``,
    under a valid checksum."""
    head = json.dumps(header).encode()
    raw = enc.CHECKPOINT_MAGIC + struct.pack("<II", 2, len(head)) + head + body
    return raw + struct.pack("<I", zlib.crc32(raw))


def per_name(vit_cfg: enc.ViTConfig, blobs) -> dict[str, np.ndarray]:
    """The parameter sets of ``blobs`` split into one blob per parameter,
    named as in ``theta.patch_embed.w``."""
    out = {}
    for name, flat in blobs.items():
        packed = enc.Packed(enc.layout(vit_cfg, twin=name == "xi"), flat)
        out |= {f"{name}.{k}": v for k, v in packed.items()}
    return out
