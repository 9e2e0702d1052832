"""The training objective is pinned by what it trains.

A tiny fixed-seed model is trained for two epochs for every fusion kind at
lambda 0, 0.5 and 1 under biha pooling, and at lambda 0.5 under each of the
other three alignments, and the sha256 of its parameters (sorted by name)
must match ``golden/objective_params.txt``.  Any change to which loss terms
are computed, their weights, their arithmetic or the pooling that feeds them
moves at least one hash.

Regenerate the golden file with ``PYTHONPATH=src python
tests/test_objective_golden.py > tests/golden/objective_params.txt``.
"""

import hashlib
import os
import tempfile

import pytest

from spikefusion.config import RunConfig
from spikefusion.data import load_manifest, synth_dataset
from spikefusion.train import train

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "objective_params.txt")
FUSIONS = ("none", "scca", "sca", "scsa")
LAMBDAS = (0.0, 0.5, 1.0)
ALIGNMENTS = ("lse", "vha", "tha")


def make_dataset(root):
    return load_manifest(synth_dataset(
        os.path.join(root, "d"), seed=11, pairs=24, n_regions=4, n_words=4,
        region_width=12, word_width=10, noise=0.1))


def param_hash(dataset, fusion, lam, alignment="biha"):
    cfg = RunConfig(d=16, t=2, batch=8, heads=2, seed=5, epochs=2,
                    lr_encoder=2e-3, lr_fusion=2e-3, temperature=0.05,
                    lr_decay_epochs=1, val_fraction=0.25, fusion=fusion,
                    lam=lam, alignment=alignment)
    params = train(cfg, dataset).model.params()
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(name.encode("utf-8"))
        digest.update(params[name].data.tobytes())
    return digest.hexdigest()


def read_golden():
    """Hash by case; a line is ``<fusion> <lambda> [<alignment>] <sha256>``,
    and a line without an alignment is biha."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        rows = (line.split() for line in fh if line.strip())
        return {tuple(row[:-1]): row[-1] for row in rows}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return make_dataset(tmp_path_factory.mktemp("objective"))


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("fusion", FUSIONS)
def test_trained_parameters_match_golden(dataset, fusion, lam):
    assert param_hash(dataset, fusion, lam) == read_golden()[(fusion, str(lam))]


@pytest.mark.parametrize("alignment", ALIGNMENTS)
@pytest.mark.parametrize("fusion", FUSIONS)
def test_alignment_parameters_match_golden(dataset, fusion, alignment):
    assert param_hash(dataset, fusion, 0.5, alignment) \
        == read_golden()[(fusion, "0.5", alignment)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        data = make_dataset(root)
        for f in FUSIONS:
            for lam in LAMBDAS:
                print(f"{f} {lam} {param_hash(data, f, lam)}")
        for f in FUSIONS:
            for a in ALIGNMENTS:
                print(f"{f} 0.5 {a} {param_hash(data, f, 0.5, a)}")
