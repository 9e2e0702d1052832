"""The benchmark's workloads, at seed 1, must give the outputs pinned in
``golden/bench_outputs.txt``.

The shapes come from ``WORKLOADS`` in ``perfbench/workloads.py``, so each
workload is defined once.  Each pinned value is one that the benchmark
checks, computed the way ``perfbench/workloads.py`` computes it:

* train-desk and train-wide: ``train()`` with a fresh model; the digest of
  its log lines, the saved ``best.ckpt``, R@Sum on the training split, and
  the energy totals on the first ``report_batch`` training pairs;
* eval-gallery: a model calibrated on three report batches, saved and
  restored; its score matrix, R@Sum and energy totals.

Regenerate the file with ``PYTHONPATH=src python tests/test_bench_golden.py
> tests/golden/bench_outputs.txt``.
"""

import hashlib
import os
import sys
import tempfile

import pytest

from spikefusion.checkpoint import load_checkpoint, restore_model, save_checkpoint
from spikefusion.config import RunConfig
from spikefusion.data import load_manifest, synth_dataset, train_val_split
from spikefusion.energy import energy_report
from spikefusion.model import RetrievalModel
from spikefusion.tensor import Tensor
from spikefusion.train import evaluate_recall, recall_from_similarity, train

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden", "bench_outputs.txt")
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SEED = 1


def workload(name):
    """A workload of the benchmark; ``workloads`` imports ``spans`` from
    its own directory."""
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    from workloads import WORKLOADS
    return WORKLOADS[name]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build(w, dataset):
    cfg = RunConfig(seed=SEED, **w.config).validate()
    return cfg, RetrievalModel(cfg, dataset.regions.shape[-1],
                               dataset.words.shape[-1], dataset.n_regions,
                               dataset.n_words)


def energy_totals(model, dataset, batch):
    report = energy_report(model, Tensor(dataset.regions[:batch]),
                           Tensor(dataset.words[:batch]))
    return f"{report.ac_ops} {report.mac_ops} {report.total_picojoules!r}"


def train_run(name, root):
    w = workload(name)
    dataset = load_manifest(synth_dataset(os.path.join(root, "data"),
                                          seed=SEED, **w.shape))
    cfg, model = build(w, dataset)
    lines = []
    result = train(cfg, dataset, out_dir=os.path.join(root, "out"),
                   log_fn=lines.append, model=model)
    with open(result.checkpoint_path, "rb") as fh:
        ckpt = fh.read()
    train_set, _ = train_val_split(dataset, cfg.val_fraction, cfg.seed)
    return {
        "loss_digest": sha256("\n".join(lines).encode())[:16],
        "best_ckpt_sha256": sha256(ckpt),
        "r_sum": repr(evaluate_recall(model, train_set)["r_sum"]),
        "energy": energy_totals(model, train_set, w.report_batch),
    }


def eval_run(name, root):
    w = workload(name)
    dataset = load_manifest(synth_dataset(os.path.join(root, "data"),
                                          seed=SEED, **w.shape))
    _, model = build(w, dataset)
    b = w.report_batch
    for lo in range(0, min(dataset.pairs, 3 * b), b):
        model.calibrate(Tensor(dataset.regions[lo:lo + b]),
                        Tensor(dataset.words[lo:lo + b]))
    path = save_checkpoint(os.path.join(root, "gallery.ckpt"), model)
    model = restore_model(load_checkpoint(path), dataset.regions.shape[-1],
                          dataset.words.shape[-1])
    scores = model.eval_similarity(Tensor(dataset.regions),
                                   Tensor(dataset.words)).data
    return {
        "score_sha256": sha256(scores.tobytes()),
        "r_sum": repr(recall_from_similarity(scores)["r_sum"]),
        "energy": energy_totals(model, dataset, b),
    }


RUNS = {"train-desk": train_run, "train-wide": train_run,
        "eval-gallery": eval_run}


def lines_of(name, outputs):
    return [f"{name} {key} {value}" for key, value in outputs.items()]


def read_golden(name):
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.startswith(name + " ")]


@pytest.mark.parametrize("name", RUNS)
def test_bench_outputs_match_golden(tmp_path, name):
    assert lines_of(name, RUNS[name](name, str(tmp_path))) == read_golden(name)


if __name__ == "__main__":
    for name, run in RUNS.items():
        with tempfile.TemporaryDirectory() as root:
            print(*lines_of(name, run(name, root)), sep="\n")
