"""A seeded fuzz of checkpoint loading.

From one epoch-end micro checkpoint, every meta key and every header config
field is deleted or retyped, each loss-history row made one number short
or long, and each of the four parameter blobs dropped, shortened, made 2-D
or stored in the other float dtype. Every case must load or raise a
``ValueError`` that names the file, and a seeded sample of the rejected
cases must make the CLI exit 2 with the library's message.
"""

import contextlib
import copy
import dataclasses
import io

import numpy as np
import pytest

from patchmix import cli
from patchmix import datasets as ds
from patchmix import encoder as enc
from patchmix import trainer as tr

import checkpoint_bytes as cb

SEED = 23

# a micro run that the CLI builds from OVERRIDES, so that it resumes its
# checkpoints: 2 epochs of 2 steps over 8 synthetic images
CFG = tr.TrainConfig(
    enc.vit_micro(8), epochs=2, warmup_epochs=1, base_lr=1e-3, batch_size=4,
    mix_count=2, checkpoint_every=1,
)
OVERRIDES = [
    "train.epochs=2", "train.warmup_epochs=1", "train.base_lr=0.001",
    "train.batch_size=4", "train.mix_count=2", "data.train_per_class=4",
]
META_KEYS = ("step", "steps_per_epoch", "loss_history", "aborted", "data", "run")
SETS = ("theta", "xi", "adam_m", "adam_v")
KINDS = ("list", "object", "string", "float", "bool", "null", "negative")
DELETED = object()


def retyped(rng: np.random.Generator) -> dict:
    """A value of each of ``KINDS``, the JSON kinds that no meta key or
    config field holds as they are, drawn around one random integer."""
    k = int(rng.integers(1, 1000))
    values = [[k], {"k": k}, str(k), k + 0.5, bool(k % 2), None, -k]
    return dict(zip(KINDS, values))


def header_cases(rng: np.random.Generator, history_rows: int):
    """(case id, header section, key, value) for every header edit; a value
    of ``DELETED`` removes the key."""
    fields = [f.name for f in dataclasses.fields(enc.ViTConfig)]
    for section, keys in (("meta", META_KEYS), ("config", fields)):
        for key in keys:
            yield f"{section}-{key}-deleted", section, key, DELETED
            for kind, value in retyped(rng).items():
                yield f"{section}-{key}-{kind}", section, key, value
    for row in range(history_rows):  # a value of None drops the row's last number
        yield f"meta-loss_history-row{row}-short", "meta", row, None
        yield f"meta-loss_history-row{row}-long", "meta", row, rng.random()


def blob_cases():
    """(case id, set name, edit) for every blob edit."""
    for name in SETS:
        yield f"blob-{name}-dropped", name, None
        yield f"blob-{name}-shortened", name, lambda v: v[:-1]
        yield f"blob-{name}-2d", name, lambda v: v.reshape(1, -1)
        yield f"blob-{name}-f64", name, lambda v: v.astype(np.float64)


def outcome(load, path) -> str | None:
    """None when ``load(path)`` loads, else its message, which must be a
    ``ValueError`` naming ``path``."""
    try:
        load(path)
    except ValueError as err:
        assert str(err).startswith(f"{path}: "), str(err)
        return str(err)
    return None


def quiet_main(args, capsys) -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    return code, capsys.readouterr().err


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> bytes:
    """The epoch-1 checkpoint of CFG on the CLI's training images."""
    out = tmp_path_factory.mktemp("run")
    tr.pretrain(CFG, ds.synth_blobs(2, 4, 8, True, seed=0), out)
    return (out / "checkpoint_epoch0001.bin").read_bytes()


def test_every_malformed_checkpoint_loads_or_is_rejected_naming_it(
    base, tmp_path, capsys
):
    rng = np.random.default_rng(SEED)
    path = tmp_path / "case.bin"
    path.write_bytes(base)
    vit, blobs, meta = enc.read_checkpoint(path)
    assert list(blobs) == list(SETS)
    header, body = cb.split(base)

    def make_header_case(section, key, value):
        edited = copy.deepcopy(header)
        part = edited[section]
        if isinstance(key, int):  # a loss-history row, one number short or long
            row = part["loss_history"][key]
            row[:] = row[:-1] if value is None else row + [value]
        elif value is DELETED:
            del part[key]
        else:
            part[key] = value
        path.write_bytes(cb.assemble(edited, body))

    def make_blob_case(name, edit):
        edited = {k: v for k, v in blobs.items() if k != name or edit}
        if edit:
            edited[name] = edit(blobs[name])
        enc.write_checkpoint(path, vit, edited, meta)

    cases = [(case, make_header_case, rest)
             for case, *rest in header_cases(rng, len(meta["loss_history"]))]
    cases += [(case, make_blob_case, rest) for case, *rest in blob_cases()]
    sample = set()  # three cases of each kind, seeded, also run through the CLI
    for kind in ("meta-", "config-", "blob-"):
        ids = [i for i, (case, *_) in enumerate(cases) if case.startswith(kind)]
        sample |= set(rng.choice(ids, size=3, replace=False).tolist())
    outcomes = {}
    for i, (case, make, args) in enumerate(cases):
        make(*args)
        state = outcome(lambda p: tr.state_from_checkpoint(p, CFG), path)
        encoder = outcome(tr.encoder_from_checkpoint, path)
        outcomes[case] = state is None, encoder is None
        if i not in sample:
            continue
        # the CLI rejects what the library rejects, with its message and exit 2
        run = tmp_path / "run"
        resume = ["pretrain", "--out", str(run), "--override", f"train.resume={path}"]
        for command, message in ((resume, state), (["eval-knn"], encoder)):
            if message is not None:
                args = command + ["--override", f"eval.checkpoint={path}"]
                for item in OVERRIDES:
                    args += ["--override", item]
                code, err = quiet_main(args, capsys)
                assert (code, f"error: {message}") == (2, err.strip()), case
        assert not (run / "train_log.csv").exists(), case

    assert len(cases) == 132
    # the state reader checks every key but data, which a resume compares
    # with the images; no config field may be left to its default
    loads_state = {case for case, (state, _) in outcomes.items() if state}
    assert loads_state == {f"meta-data-{kind}" for kind in KINDS}
    # the encoder reader reads the header and theta, in any precision
    loads_encoder = {case for case, (_, encoder) in outcomes.items() if encoder}
    assert loads_encoder == {
        case for case in outcomes
        if case.startswith("meta-")
        or (case.startswith("blob-") and not case.startswith("blob-theta-"))
        or case == "blob-theta-f64"
    }


def test_the_cli_resumes_the_unedited_checkpoint(base, tmp_path, capsys):
    """So the exits of 2 above come from the edits alone."""
    path = tmp_path / "base.bin"
    path.write_bytes(base)
    args = ["pretrain", "--out", str(tmp_path / "run"), "--override",
            f"train.resume={path}"]
    for item in OVERRIDES:
        args += ["--override", item]
    code, err = quiet_main(args, capsys)
    assert code == 0, err
    assert (tmp_path / "run" / "checkpoint_final.bin").exists()
