"""Command-line entry points: synth-data, train, eval, energy, ablate."""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import data as data_mod
from .checkpoint import load_checkpoint, restore_model
from .config import RunConfig, load_config
from .energy import energy_report
from .errors import StateError, UsageError
from .tensor import Tensor
from .train import (ABLATION_AXES, RECALL_KS, ablation_sweep,
                    evaluate_recall, train)

# the keys ``recall_from_similarity`` builds, in table order
METRIC_COLUMNS = tuple(f"{side}_r@{k}" for side in ("i2t", "t2i")
                       for k in RECALL_KS) + ("r_sum",)


def _row_label(row: dict) -> str:
    return str(row.get("label", row.get("value", "")))


def metrics_table(rows: list[dict], label: str = "run") -> str:
    """Aligned text table over the standard recall columns."""
    header = f"{label:<14}" + "".join(f"{c:>10}" for c in METRIC_COLUMNS)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(f"{_row_label(row):<14}"
                     + "".join(f"{row[c]:>10.2f}" for c in METRIC_COLUMNS))
    return "\n".join(lines)


def metrics_csv(rows: list[dict], label: str = "run") -> str:
    lines = [",".join((label,) + METRIC_COLUMNS)]
    for row in rows:
        lines.append(",".join([_row_label(row)]
                              + [f"{row[c]:.4f}" for c in METRIC_COLUMNS]))
    return "\n".join(lines)


def _load_run_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        config.seed = args.seed
    return config.validate()


def _open_out(args):
    """``--out`` opened for writing, or a null context without one.

    Commands open it before any work, so an unusable path fails first.
    """
    if not args.out:
        return contextlib.nullcontext()
    return open(args.out, "w", encoding="utf-8")


def cmd_synth_data(args) -> int:
    path = data_mod.synth_dataset(
        args.out, seed=args.seed if args.seed is not None else 0,
        pairs=args.pairs, n_regions=args.regions, n_words=args.words,
        region_width=args.region_width, word_width=args.word_width,
        noise=args.noise)
    print(f"wrote {args.pairs} pairs to {path}")
    return 0


def cmd_train(args) -> int:
    config = _load_run_config(args)
    dataset = data_mod.load_manifest(args.data)
    out_dir = args.out or "."
    result = train(config, dataset, out_dir=out_dir, log_fn=print)
    history_path = os.path.join(out_dir, "history.csv")
    with open(history_path, "w", encoding="utf-8") as fh:
        if result.history:
            keys = list(result.history[0])
            fh.write(",".join(keys) + "\n")
            for rec in result.history:
                fh.write(",".join(str(rec[k]) for k in keys) + "\n")
    split = "train" if result.val_source == "train" else "val"
    print(f"best {split} r_sum {result.best_r_sum:.2f} at epoch "
          f"{result.best_epoch}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"history: {history_path}")
    return 0


def _model_from_checkpoint(args, dataset):
    ckpt = load_checkpoint(args.checkpoint)
    return restore_model(ckpt, dataset.regions.shape[-1],
                         dataset.words.shape[-1])


def cmd_eval(args) -> int:
    with _open_out(args) as out:
        dataset = data_mod.load_manifest(args.data)
        model = _model_from_checkpoint(args, dataset)
        metrics = evaluate_recall(model, dataset)
        row = dict(metrics, label="eval")
        print(metrics_table([row]))
        print(metrics_csv([row]))
        print(f"R@Sum {metrics['r_sum']:g}")
        if out:
            out.write(metrics_csv([row]) + "\n")
    return 0


def cmd_energy(args) -> int:
    if args.batch < 1:
        raise UsageError(f"--batch must be >= 1, got {args.batch}")
    with _open_out(args) as out:
        dataset = data_mod.load_manifest(args.data)
        model = _model_from_checkpoint(args, dataset)
        n = min(args.batch, dataset.pairs)
        regions = Tensor(dataset.regions[:n])
        words = Tensor(dataset.words[:n])
        text = energy_report(model, regions, words).render()
        # parameter count is informational; it depends on the feature widths
        n_params = sum(int(np.prod(p.data.shape))
                       for p in model.params().values())
        print(f"model parameters: {n_params}")
        print(text)
        if out:
            out.write(text + "\n")
    return 0


def cmd_ablate(args) -> int:
    config = _load_run_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise UsageError(f"--values names no value to sweep: {args.values!r}")
    with _open_out(args) as out:
        dataset = data_mod.load_manifest(args.data)
        rows = ablation_sweep(args.axis, values, config, dataset)
        print(metrics_table(rows, label=args.axis))
        if out:
            out.write(metrics_csv(rows, label=args.axis) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikefusion",
        description="Spiking cross-modal retrieval at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic paired dataset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--regions", type=int, default=36)
    p.add_argument("--words", type=int, default=36)
    p.add_argument("--region-width", type=int, default=2048)
    p.add_argument("--word-width", type=int, default=768)
    p.add_argument("--noise", type=float, default=0.1)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train", help="train from a config and a dataset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", default=None)
    p.add_argument("--data", required=True, help="dataset dir or manifest path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--out", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("energy", help="per-layer energy report for a checkpoint")
    p.add_argument("--out", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--batch", type=int, default=32,
                   help="calibration batch size")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("ablate", help="sweep one axis and tabulate recall")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--axis", required=True, choices=tuple(ABLATION_AXES))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FloatingPointError, OSError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
