"""Checkpoint array names are a file format.

Every fusion kind x generator variant must keep the exact set of array names
pinned in ``golden/checkpoint_names.txt``, and a checkpoint written by an
earlier release (``golden/sca_linear_bn_d8.ckpt``) must still restore to
bit-identical similarity scores.
"""

import os

import numpy as np
import pytest

from spikefusion.checkpoint import load_checkpoint, restore_model, save_checkpoint
from spikefusion.config import RunConfig
from spikefusion.encoding import GENERATOR_VARIANTS
from spikefusion.model import RetrievalModel
from spikefusion.optim import AdamW
from spikefusion.tensor import Tensor, no_grad

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
NAMES_PATH = os.path.join(GOLDEN, "checkpoint_names.txt")
FIXTURE_PATH = os.path.join(GOLDEN, "sca_linear_bn_d8.ckpt")
FIXTURE_SIM_PATH = os.path.join(GOLDEN, "sca_linear_bn_d8_similarity.npy")
FUSIONS = ("none", "scca", "sca", "scsa")
VARIANTS = [(f, g) for f in FUSIONS for g in GENERATOR_VARIANTS]


def toy_batch(seed, b=3, k=4):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.standard_normal((b, k, 6)).astype(np.float32)),
            Tensor(rng.standard_normal((b, k, 5)).astype(np.float32)))


def array_names(fusion, generator):
    """Checkpoint array names of a model after batch-norm calibration and
    one train-mode fusion pass (which initializes the fusion buffers)."""
    cfg = RunConfig(d=8, t=2, heads=2, batch=3, seed=0, fusion=fusion,
                    generator=generator)
    model = RetrievalModel(cfg, 6, 5, 4, 4)
    regions, words = toy_batch(seed=1)
    model.calibrate(regions, words)
    with no_grad():
        model.training_losses(regions, words)
    return sorted(list(model.params())
                  + [f"buffer/{n}" for n in model.buffers()])


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


def test_fixture_header_rewritten_byte_for_byte(tmp_path):
    """Saving the same model now writes the fixture's index unchanged:
    names, shapes, offsets and order."""
    path = save_checkpoint(tmp_path / "now.ckpt", fixture_model(), epoch=3)
    with open(path, "rb") as fh:
        now = fh.read()
    with open(FIXTURE_PATH, "rb") as fh:
        old = fh.read()
    assert now.split(b"\n---\n")[0] == old.split(b"\n---\n")[0]
