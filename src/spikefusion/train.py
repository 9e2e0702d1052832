"""Training loop, recall evaluation, and ablation sweeps."""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import save_checkpoint
from .config import RunConfig
from .data import Dataset, split_indices
from .errors import UsageError
from .losses import LOSS_NAMES
from .model import RetrievalModel
from .optim import AdamW
from .tensor import Tensor

RECALL_KS = (1, 5, 10)


def recall_from_similarity(s: np.ndarray) -> dict[str, float]:
    """Recall@K in percent for both directions, ground truth on the diagonal,
    for each K in ``RECALL_KS``.

    ``s[i, j]`` scores image i against caption j.  A query's rank is the
    number of other candidates scoring at least as high as its true
    partner, so ties count against it: a constant matrix ranks every query
    last.  Non-finite scores raise ``FloatingPointError``.
    """
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.size == 0:
        raise UsageError(
            f"similarity matrix must be square and non-empty, got {s.shape}")
    n_bad = int((~np.isfinite(s)).sum())
    if n_bad:
        raise FloatingPointError(
            f"similarity matrix holds {n_bad} non-finite scores")
    m = s.shape[0]
    diag = np.diag(s)
    # the true partner ties with itself; the -1 leaves it out
    rank_i2t = (s >= diag[:, None]).sum(axis=1) - 1  # image query over captions
    rank_t2i = (s >= diag[None, :]).sum(axis=0) - 1  # caption query over images
    metrics: dict[str, float] = {}
    total = 0.0
    for k in RECALL_KS:
        if k > m:
            warnings.warn(f"recall@{k} clamped to {m} items")
        r_i2t = 100.0 * float((rank_i2t < min(k, m)).mean())
        r_t2i = 100.0 * float((rank_t2i < min(k, m)).mean())
        metrics[f"i2t_r@{k}"] = r_i2t
        metrics[f"t2i_r@{k}"] = r_t2i
        total += r_i2t + r_t2i
    metrics["r_sum"] = total
    return metrics


def evaluate_recall(model: RetrievalModel, dataset: Dataset,
                    rows: np.ndarray | None = None) -> dict[str, float]:
    """Rank ``dataset``'s pairs (those at ``rows``, in order) via the pooled
    similarity matrix, gathering one ``EVAL_BLOCK`` of rows at a time."""
    s = model.eval_similarity(Tensor(dataset.regions), Tensor(dataset.words),
                              rows)
    return recall_from_similarity(s.data)


@dataclass
class TrainResult:
    model: RetrievalModel
    history: list[dict] = field(default_factory=list)
    best_r_sum: float = 0.0
    best_epoch: int = -1
    checkpoint_path: str | None = None
    # "held-out", or "train" when the validation split had under 2 pairs
    # and recall was ranked on the training split instead
    val_source: str = "held-out"


def _lr_scale(config: RunConfig, epoch: int) -> float:
    decay_start = max(0, config.epochs - config.lr_decay_epochs)
    return config.lr_decay_factor if epoch >= decay_start else 1.0


def _batch_indices(n: int, batch: int, seed: int, epoch: int):
    perm = np.random.default_rng([seed, 7919, epoch]).permutation(n)
    for lo in range(0, n, batch):
        idx = perm[lo:lo + batch]
        if idx.size >= 2:  # contrastive loss needs at least one negative
            yield idx


def train(config: RunConfig, dataset: Dataset, out_dir: str | None = None,
          log_fn=None, model: RetrievalModel | None = None) -> TrainResult:
    """Minibatch optimization of the full objective, from epoch 0.

    Logs every loss component per step, evaluates recall on the validation
    split per epoch, and checkpoints at the best validation R@Sum (written
    under ``out_dir`` when given; it is created before the first step).  A
    validation split of under 2 pairs cannot be ranked; recall is then
    ranked on the training split, the result and every history record say
    ``val_source`` ``"train"``, and each epoch log line ends in
    ``val_source=train``.  Batches and ranked blocks are gathered from
    ``dataset``'s own arrays; no split is copied whole.  The checkpoint holds
    the parameters and batch-norm running stats, not the optimizer state: a
    run cannot be resumed.  ``model`` trains a caller-built model in place
    of a fresh one.
    """
    config.validate()
    train_idx, val_idx = split_indices(dataset.pairs, config.val_fraction,
                                       config.seed)
    if train_idx.size < 2:  # a contrastive step needs a negative
        raise UsageError(
            f"training split has {train_idx.size} pair(s) of "
            f"{dataset.pairs} at val_fraction = {config.val_fraction}; "
            f"a training step needs at least 2")
    val_source = "held-out"
    if val_idx.size < 2:
        val_idx, val_source = train_idx, "train"
    if model is None:
        model = RetrievalModel(config, dataset.regions.shape[-1],
                               dataset.words.shape[-1],
                               dataset.n_regions, dataset.n_words)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    params = model.params()

    def lr_for(name: str) -> float:
        return config.lr_fusion if name.startswith("fusion/") else config.lr_encoder

    optimizer = AdamW(params, lr_for, weight_decay=config.weight_decay)
    result = TrainResult(model=model, val_source=val_source)
    log_suffix = " val_source=train" if val_source == "train" else ""
    step = 0
    t_start = time.monotonic()
    for epoch in range(config.epochs):
        scale = _lr_scale(config, epoch)
        epoch_losses: dict[str, float] = {}
        n_steps = 0
        for idx in _batch_indices(train_idx.size, config.batch, config.seed,
                                  epoch):
            rows = train_idx[idx]  # the training split's rows idx, in order
            regions = Tensor(dataset.regions[rows])
            words = Tensor(dataset.words[rows])
            total, parts = model.training_losses(regions, words)
            if not np.isfinite(total.data):
                breakdown = ", ".join(
                    f"{k}={float(v.data):.6g}" for k, v in parts.items())
                raise FloatingPointError(
                    f"non-finite loss at step {step} ({breakdown})"
                )
            total.backward()
            optimizer.step(lr_scale=scale)
            optimizer.zero_grad()  # no gradient lives through a forward
            step += 1
            n_steps += 1
            if log_fn is not None:
                line = " ".join(f"{k}={float(parts[k].data):.6f}"
                                for k in LOSS_NAMES)
                log_fn(f"step={step} epoch={epoch} "
                       f"lr={config.lr_encoder * scale:.2e} {line}")
            for k, v in parts.items():
                epoch_losses[k] = epoch_losses.get(k, 0.0) + float(v.data)
        val_metrics = evaluate_recall(model, dataset, val_idx)
        record = {
            "epoch": epoch,
            "lr_scale": scale,
            "seconds": round(time.monotonic() - t_start, 3),
            "val_source": val_source,
        }
        record.update(
            {f"loss_{k}": v / max(n_steps, 1) for k, v in epoch_losses.items()})
        record.update({f"val_{k}": v for k, v in val_metrics.items()})
        result.history.append(record)
        if log_fn is not None:
            log_fn(f"epoch={epoch} val_r_sum={val_metrics['r_sum']:.2f}"
                   f"{log_suffix}")
        if val_metrics["r_sum"] >= result.best_r_sum:
            result.best_r_sum = val_metrics["r_sum"]
            result.best_epoch = epoch
            if out_dir is not None:
                result.checkpoint_path = os.path.join(out_dir, "best.ckpt")
                save_checkpoint(result.checkpoint_path, model, epoch=epoch)
    return result


# ablation axis -> (the RunConfig field it sweeps, that field's type)
ABLATION_AXES = {
    "alignment": ("alignment", str),
    "fusion": ("fusion", str),
    "time-steps": ("t", int),
    "heads": ("heads", int),
}


def ablation_sweep(axis: str, values, config: RunConfig, dataset: Dataset,
                   log_fn=None) -> list[dict]:
    """Train once per value of the swept axis; returns one metrics row each.

    Rows carry the training-split recall of the final model, mirroring the
    layout of the alignment / fusion / time-step / head-count comparisons.
    Every value (and its comb count against the token counts) is checked
    before the first model trains; a bad one raises ``UsageError`` naming it.
    """
    if axis not in ABLATION_AXES:
        raise UsageError(
            f"unknown ablation axis {axis!r}; expected one of "
            f"{tuple(ABLATION_AXES)}"
        )
    name, kind = ABLATION_AXES[axis]
    runs = []
    for value in values:
        try:
            cfg = replace(config, **{name: kind(value)}).validate()
            fusion = cfg.components().fusion
            if fusion is not None:
                fusion.check_token_counts(dataset.n_regions, dataset.n_words)
        except ValueError as exc:
            raise UsageError(f"--values entry {value!r}: {exc}") from exc
        runs.append((value, cfg))
    rows = []
    for value, cfg in runs:
        result = train(cfg, dataset, log_fn=log_fn)
        idx, _ = split_indices(dataset.pairs, cfg.val_fraction, cfg.seed)
        metrics = evaluate_recall(result.model, dataset, idx)
        row = {"axis": axis, "value": value}
        row.update(metrics)
        rows.append(row)
    return rows
