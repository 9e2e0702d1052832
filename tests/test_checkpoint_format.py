"""Checkpoint array names are a file format.

Every fusion kind x generator variant must keep the exact set of array names
pinned in ``golden/checkpoint_names.txt``, and a checkpoint written by an
earlier release (``golden/sca_linear_bn_d8.ckpt``) must still restore to
bit-identical similarity scores.  So must the same model saved by a release
that also wrote the AdamW moments (``golden/sca_linear_bn_d8_moments.ckpt``:
``adam_m/``, ``adam_v/`` arrays and ``adam_step 3``).  And a fixed-seed
trained run must save the very bytes pinned in
``golden/checkpoint_sha256.txt``: header, config, index, parameters and
running stats.  Those runs cover every fusion kind x alignment mode with the
default generator, and every generator under sca fusion and biha alignment.

Regenerate that file with ``PYTHONPATH=src python
tests/test_checkpoint_format.py > tests/golden/checkpoint_sha256.txt``.
"""

import errno
import hashlib
import os
import tempfile

import numpy as np
import pytest

from spikefusion import checkpoint
from spikefusion.alignment import POOL_MODES
from spikefusion.checkpoint import load_checkpoint, restore_model, save_checkpoint
from spikefusion.config import RunConfig
from spikefusion.data import load_manifest, synth_dataset
from spikefusion.encoding import GENERATOR_VARIANTS
from spikefusion.model import RetrievalModel
from spikefusion.optim import AdamW
from spikefusion.tensor import Tensor, no_grad
from spikefusion.train import train

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
NAMES_PATH = os.path.join(GOLDEN, "checkpoint_names.txt")
FIXTURE_PATH = os.path.join(GOLDEN, "sca_linear_bn_d8.ckpt")
MOMENTS_FIXTURE_PATH = os.path.join(GOLDEN, "sca_linear_bn_d8_moments.ckpt")
FIXTURE_SIM_PATH = os.path.join(GOLDEN, "sca_linear_bn_d8_similarity.npy")
SHA256_PATH = os.path.join(GOLDEN, "checkpoint_sha256.txt")
FUSIONS = ("none", "scca", "sca", "scsa")
VARIANTS = [(f, g) for f in FUSIONS for g in GENERATOR_VARIANTS]
# (fusion, alignment, generator) of each pinned run
SAVED_RUNS = [(f, a, "repeat-ln") for f in FUSIONS for a in POOL_MODES] + [
    ("sca", "biha", g) for g in GENERATOR_VARIANTS if g != "repeat-ln"]
# biha is the default alignment, so its ids leave it out
SAVED_IDS = ["-".join(run if run[1] != "biha" else run[::2])
             for run in SAVED_RUNS]


def toy_batch(seed, b=3, k=4):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.standard_normal((b, k, 6)).astype(np.float32)),
            Tensor(rng.standard_normal((b, k, 5)).astype(np.float32)))


def array_names(fusion, generator):
    """Checkpoint array names of a model after batch-norm calibration and
    one recorded training pass (which initializes the fusion buffers)."""
    cfg = RunConfig(d=8, t=2, heads=2, batch=3, seed=0, fusion=fusion,
                    generator=generator)
    model = RetrievalModel(cfg, 6, 5, 4, 4)
    regions, words = toy_batch(seed=1)
    model.calibrate(regions, words)
    model.training_losses(regions, words)
    return sorted(model.state())


def read_golden_names():
    golden: dict[tuple[str, str], list[str]] = {}
    with open(NAMES_PATH, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("["):
                key = tuple(line.strip("[]").split())
                golden[key] = []
            elif line:
                golden[key].append(line)
    return golden


def fixture_model():
    """The model stored in the fixture: a few optimizer steps move every
    parameter and running stat away from a fresh model with the same seed."""
    cfg = RunConfig(d=8, t=2, heads=2, batch=3, seed=3, fusion="sca",
                    generator="linear-bn", temperature=0.2, alpha=0.5,
                    v_th=0.5)
    model = RetrievalModel(cfg, 6, 5, 4, 4)
    optimizer = AdamW(model.params(), lambda name: 1e-2)
    for step in range(3):
        total, _ = model.training_losses(*toy_batch(seed=10 + step))
        optimizer.zero_grad()
        total.backward()
        optimizer.step()
    return model


@pytest.mark.parametrize("fusion,generator", VARIANTS)
def test_array_names_match_golden(fusion, generator):
    assert array_names(fusion, generator) == read_golden_names()[
        (fusion, generator)]


def test_golden_covers_every_variant():
    golden = read_golden_names()
    assert sorted(golden) == sorted(VARIANTS)
    distinct = {n for names in golden.values() for n in names}
    assert len(distinct) == 141


def test_fixture_checkpoint_restores_bit_identical():
    model = restore_model(load_checkpoint(FIXTURE_PATH), 6, 5)
    with no_grad():
        sim = model.eval_similarity(*toy_batch(seed=99)).data
    np.testing.assert_array_equal(sim, np.load(FIXTURE_SIM_PATH))


def test_checkpoint_with_adam_moments_restores_bit_identical():
    checkpoint = load_checkpoint(MOMENTS_FIXTURE_PATH)
    assert any(name.startswith("adam_m/") for name in checkpoint.arrays)
    model = restore_model(checkpoint, 6, 5)
    with no_grad():
        sim = model.eval_similarity(*toy_batch(seed=99)).data
    np.testing.assert_array_equal(sim, np.load(FIXTURE_SIM_PATH))


def test_restored_running_stats_are_float32():
    model = restore_model(load_checkpoint(MOMENTS_FIXTURE_PATH), 6, 5)
    buffers = [a for n, a in model.state().items() if n.startswith("buffer/")]
    assert buffers
    assert all(a.dtype == np.float32 for a in buffers)


def test_restored_arrays_are_private_and_writable():
    checkpoint = load_checkpoint(FIXTURE_PATH)
    restored = restore_model(checkpoint, 6, 5).state()
    assert restored.keys() == checkpoint.arrays.keys()
    for name, array in restored.items():
        assert array.flags.writeable, name
        assert not any(np.shares_memory(array, stored)
                       for stored in checkpoint.arrays.values()), name


def test_trained_checkpoint_holds_no_optimizer_state(tmp_path):
    """``train`` saves what restoring reads: parameters and running stats."""
    dataset = load_manifest(synth_dataset(
        tmp_path / "data", seed=2, pairs=8, n_regions=4, n_words=4,
        region_width=6, word_width=5, noise=0.1))
    cfg = RunConfig(d=8, t=2, heads=2, batch=4, seed=0, epochs=1,
                    fusion="sca")
    result = train(cfg, dataset, out_dir=str(tmp_path / "run"))
    with open(result.checkpoint_path, "rb") as fh:
        assert fh.read().split(b"\n")[2] == b"adam_step 0"
    names = load_checkpoint(result.checkpoint_path).arrays
    assert not [n for n in names if n.startswith("adam_")]
    assert sorted(names) == sorted(result.model.state())


def test_fixture_header_rewritten_byte_for_byte(tmp_path):
    """Saving the same model now writes the fixture's index unchanged:
    names, shapes, offsets and order."""
    path = save_checkpoint(tmp_path / "now.ckpt", fixture_model(), epoch=3)
    with open(path, "rb") as fh:
        now = fh.read()
    with open(FIXTURE_PATH, "rb") as fh:
        old = fh.read()
    assert now.split(b"\n---\n")[0] == old.split(b"\n---\n")[0]


class TornFile:
    """A file whose second write stores half its bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            self.fh.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = save_checkpoint(tmp_path / "best.ckpt", fixture_model(), epoch=1)
    with open(path, "rb") as fh:
        before = fh.read()
    monkeypatch.setattr(checkpoint, "open",
                        lambda *args: TornFile(open(*args)), raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, fixture_model(), epoch=2)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["best.ckpt"]


def saved_sha256(root, fusion, alignment, generator):
    """sha256 of the ``best.ckpt`` a fixed-seed two-epoch run saves."""
    dataset = load_manifest(synth_dataset(
        os.path.join(root, "data"), seed=11, pairs=24, n_regions=4,
        n_words=4, region_width=12, word_width=10, noise=0.1))
    cfg = RunConfig(d=16, t=2, batch=8, heads=2, seed=5, epochs=2,
                    val_fraction=0.25, fusion=fusion, alignment=alignment,
                    generator=generator)
    result = train(cfg, dataset, out_dir=os.path.join(root, "run"))
    with open(result.checkpoint_path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_golden_sha256():
    with open(SHA256_PATH, encoding="utf-8") as fh:
        rows = (line.split() for line in fh if line.strip())
        return {tuple(row[:3]): row[3] for row in rows}


def test_golden_sha256_covers_every_saved_run():
    assert sorted(read_golden_sha256()) == sorted(SAVED_RUNS)


@pytest.mark.parametrize("run", SAVED_RUNS, ids=SAVED_IDS)
def test_saved_checkpoint_bytes_match_golden(tmp_path, run):
    assert saved_sha256(tmp_path, *run) == read_golden_sha256()[run]


if __name__ == "__main__":
    for run in SAVED_RUNS:
        with tempfile.TemporaryDirectory() as root:
            print(*run, saved_sha256(root, *run))
