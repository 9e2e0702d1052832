"""Training loop, recall evaluation, and ablation sweeps."""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import save_checkpoint
from .config import RunConfig
from .data import Dataset, train_val_split
from .errors import UsageError
from .model import RetrievalModel
from .optim import AdamW
from .tensor import Tensor, no_grad

RECALL_KS = (1, 5, 10)


def recall_from_similarity(s: np.ndarray, ks=RECALL_KS) -> dict[str, float]:
    """Recall@K in percent for both directions, ground truth on the diagonal.

    ``s[i, j]`` scores image i against caption j.  A query's rank is the
    number of candidates scoring strictly higher than its true partner.
    """
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise UsageError(f"similarity matrix must be square, got {s.shape}")
    m = s.shape[0]
    diag = np.diag(s)
    rank_i2t = (s > diag[:, None]).sum(axis=1)   # image query over captions
    rank_t2i = (s > diag[None, :]).sum(axis=0)   # caption query over images
    metrics: dict[str, float] = {}
    total = 0.0
    for k in ks:
        kk = k
        if kk > m:
            warnings.warn(f"recall@{k} clamped to {m} items")
            kk = m
        r_i2t = 100.0 * float((rank_i2t < kk).mean())
        r_t2i = 100.0 * float((rank_t2i < kk).mean())
        metrics[f"i2t_r@{k}"] = r_i2t
        metrics[f"t2i_r@{k}"] = r_t2i
        total += r_i2t + r_t2i
    metrics["r_sum"] = total
    return metrics


def evaluate_recall(model: RetrievalModel, dataset: Dataset,
                    ks=RECALL_KS) -> dict[str, float]:
    """Rank the full evaluation set via the pooled similarity matrix."""
    with no_grad():
        s = model.eval_similarity(Tensor(dataset.regions),
                                  Tensor(dataset.words))
    return recall_from_similarity(s.data, ks)


@dataclass
class TrainResult:
    model: RetrievalModel
    history: list[dict] = field(default_factory=list)
    best_r_sum: float = 0.0
    best_epoch: int = -1
    checkpoint_path: str | None = None


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
          log_fn=None, start_epoch: int = 0,
          model: RetrievalModel | None = None,
          optimizer: AdamW | None = None) -> TrainResult:
    """Minibatch optimization of the full objective.

    Logs every loss component per step, evaluates recall on the validation
    split per epoch, and checkpoints at the best validation R@Sum (written
    under ``out_dir`` when given).  Pass ``model``/``optimizer``/
    ``start_epoch`` to resume.
    """
    config.validate()
    train_set, val_set = train_val_split(dataset, config.val_fraction,
                                         config.seed)
    if val_set.pairs < 2:
        val_set = train_set
    if model is None:
        model = RetrievalModel(config, dataset.regions.shape[-1],
                               dataset.words.shape[-1],
                               dataset.n_regions, dataset.n_words)
    params = model.params()

    def lr_for(name: str) -> float:
        return config.lr_fusion if name.startswith("fusion/") else config.lr_encoder

    if optimizer is None:
        optimizer = AdamW(params, lr_for, weight_decay=config.weight_decay)
    result = TrainResult(model=model)
    step = optimizer.step_count
    t_start = time.monotonic()
    for epoch in range(start_epoch, config.epochs):
        scale = _lr_scale(config, epoch)
        epoch_losses: dict[str, float] = {}
        n_steps = 0
        for idx in _batch_indices(train_set.pairs, config.batch, config.seed,
                                  epoch):
            regions = Tensor(train_set.regions[idx])
            words = Tensor(train_set.words[idx])
            total, parts = model.training_losses(regions, words)
            if not np.isfinite(total.data):
                breakdown = ", ".join(
                    f"{k}={float(v.data):.6g}" for k, v in parts.items())
                raise FloatingPointError(
                    f"non-finite loss at step {step} ({breakdown})"
                )
            optimizer.zero_grad()
            total.backward()
            optimizer.step(lr_scale=scale)
            step += 1
            n_steps += 1
            line = " ".join(
                f"{k}={float(parts[k].data):.6f}"
                for k in ("early", "basic", "fusion", "inter", "intra", "total"))
            if log_fn is not None:
                log_fn(f"step={step} epoch={epoch} "
                       f"lr={config.lr_encoder * scale:.2e} {line}")
            for k, v in parts.items():
                epoch_losses[k] = epoch_losses.get(k, 0.0) + float(v.data)
        val_metrics = evaluate_recall(model, val_set)
        record = {
            "epoch": epoch,
            "lr_scale": scale,
            "seconds": round(time.monotonic() - t_start, 3),
        }
        record.update(
            {f"loss_{k}": v / max(n_steps, 1) for k, v in epoch_losses.items()})
        record.update({f"val_{k}": v for k, v in val_metrics.items()})
        result.history.append(record)
        if log_fn is not None:
            log_fn(f"epoch={epoch} val_r_sum={val_metrics['r_sum']:.2f}")
        if val_metrics["r_sum"] >= result.best_r_sum:
            result.best_r_sum = val_metrics["r_sum"]
            result.best_epoch = epoch
            if out_dir is not None:
                os.makedirs(out_dir, exist_ok=True)
                result.checkpoint_path = os.path.join(out_dir, "best.ckpt")
                save_checkpoint(result.checkpoint_path, model, optimizer,
                                epoch=epoch)
    return result


ABLATION_AXES = ("alignment", "fusion", "time-steps", "heads")


def ablation_sweep(axis: str, values, config: RunConfig, dataset: Dataset,
                   log_fn=None) -> list[dict]:
    """Train once per value of the swept axis; returns one metrics row each.

    Rows carry the training-split recall of the final model, mirroring the
    layout of the alignment / fusion / time-step / head-count comparisons.
    """
    if axis not in ABLATION_AXES:
        raise UsageError(
            f"unknown ablation axis {axis!r}; expected one of {ABLATION_AXES}"
        )
    rows = []
    for value in values:
        if axis == "alignment":
            cfg = replace(config, alignment=str(value))
        elif axis == "fusion":
            cfg = replace(config, fusion=str(value))
        elif axis == "time-steps":
            cfg = replace(config, t=int(value))
        else:
            cfg = replace(config, heads=int(value))
        result = train(cfg, dataset, log_fn=log_fn)
        train_set, _ = train_val_split(dataset, cfg.val_fraction, cfg.seed)
        metrics = evaluate_recall(result.model, train_set)
        row = {"axis": axis, "value": value}
        row.update(metrics)
        rows.append(row)
    return rows
