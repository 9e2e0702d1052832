"""Benchmark workloads: seeded inputs, timed rounds, output checks, metrics.

A workload is a closed loop with one caller.  Each round repeats what a
user does in one sitting: set up (``load_manifest`` plus building or
restoring the model), then the workload's main call, then one ranking and
a few energy reports.  The program only ever sees the files that
``synth_dataset`` wrote for the seed.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from importlib import import_module

from spikefusion.config import RunConfig

from spans import Tracer

# The package re-exports functions named like its modules (``train``), so
# the modules are taken from the import system rather than as attributes.
sf_attention = import_module("spikefusion.attention")
sf_ckpt = import_module("spikefusion.checkpoint")
sf_data = import_module("spikefusion.data")
sf_encoding = import_module("spikefusion.encoding")
sf_energy = import_module("spikefusion.energy")
sf_fusion = import_module("spikefusion.fusion")
sf_model = import_module("spikefusion.model")
sf_neurons = import_module("spikefusion.neurons")
sf_optim = import_module("spikefusion.optim")
sf_tensor = import_module("spikefusion.tensor")
sf_train = import_module("spikefusion.train")

LOSS_KEYS = ("early", "basic", "fusion", "inter", "intra", "total")
# The determinism and repeat checks compare rounds, so every loop runs two.
MIN_ROUNDS = 2
SETUP_REPEATS = 5
# energy_report is short, so each round times several for a steadier median
REPORTS_PER_ROUND = 3

# name -> unit; the order is the print order
END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "pairs/s",
    "step_ms_p50": "ms",
    "eval_s": "s",
    "energy_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}
PER_LAYER = {
    "tensor.backward_ms": "ms/round",
    "tensor.tape_nodes": "nodes/step",
    "neurons.fold_ms": "ms/round",
    "neurons.fold_calls": "calls/round",
    "attention.encode_ms": "ms/round",
    "attention.ssa_ms": "ms/round",
    "attention.sgmlp_ms": "ms/round",
    "encoding.generator_ms": "ms/round",
    "alignment.similarity_ms": "ms/round",
    "alignment.similarity_calls": "calls/round",
    "alignment.fine_mib": "MiB",
    "fusion.fuse_ms": "ms/round",
    "fusion.calls": "calls/round",
    "losses.objective_ms": "ms/round",
    "model.forward_ms": "ms/round",
    "optim.step_ms": "ms/round",
    "train.fit_ms": "ms/round",
    "train.validate_ms": "ms/round",
    "train.rank_ms": "ms/round",
    "checkpoint.save_ms": "ms/round",
    "checkpoint.saves": "saves/round",
    "checkpoint.bytes": "B/round",
    "checkpoint.load_ms": "ms/round",
    "data.load_ms": "ms/round",
    "data.bytes_read": "B/round",
    "energy.report_ms": "ms/round",
    "energy.ac_ops": "ops/report",
    "energy.mac_ops": "ops/report",
    "trace.pairs_per_s_delta": "pairs/s",
    "trace.eval_s_delta": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "train": train() per round; "eval": a ranking
    shape: dict          # synth_dataset arguments other than the seed
    config: dict         # RunConfig fields other than the seed
    report_batch: int    # pairs in the energy_report batch


WORKLOADS = {
    # Arrays fit in cache: interpreter and tape overhead dominate a step.
    # The optimisation settings follow the desk-scale acceptance criteria.
    # Not gated in BENCHMARK.json: host contention moves its wall time by
    # up to 1.5x between runs (see README.md).
    "train-desk": Workload(
        "train-desk", "train",
        dict(pairs=200, n_regions=8, n_words=8, region_width=48,
             word_width=32, noise=0.1),
        dict(d=64, t=2, batch=16, heads=4, epochs=2, lr_decay_epochs=15,
             lam=0.5, fusion="scca", alignment="biha", temperature=0.05,
             lr_encoder=4e-3, lr_fusion=4e-3, comb_tau=1.0),
        64),
    # Array traffic dominates: seven (32, 32, 36, 36) similarity tensors and
    # the cross-attention fusion path.  107 pairs leave 96 training pairs,
    # three full batches.  d=128 keeps peak memory near 2.6 GiB.
    "train-wide": Workload(
        "train-wide", "train",
        dict(pairs=107, n_regions=36, n_words=36, region_width=2048,
             word_width=768, noise=0.1),
        dict(d=128, t=2, batch=32, heads=6, epochs=2, lr_decay_epochs=15,
             lam=0.5, fusion="sca", alignment="biha", temperature=0.05,
             lr_encoder=4e-3, lr_fusion=4e-3),
        32),
    # Inference only: scoring builds a (300, 300, 36, 36) tensor, larger
    # than the last-level cache; the model carries a fusion module that
    # the inference path must never call.
    "eval-gallery": Workload(
        "eval-gallery", "eval",
        dict(pairs=300, n_regions=36, n_words=36, region_width=2048,
             word_width=768, noise=0.1),
        dict(d=256, t=2, heads=6, fusion="scca", alignment="biha"),
        32),
}

# Tiny shapes for the benchmark's own tests: same code paths, a few steps.
SMOKE_WORKLOADS = {
    "train-desk": Workload(
        "train-desk", "train",
        dict(pairs=26, n_regions=4, n_words=4, region_width=12,
             word_width=10, noise=0.1),
        dict(d=16, t=2, batch=8, heads=2, epochs=1, lam=0.5, fusion="scca",
             alignment="biha", temperature=0.05, comb_tau=1.0),
        8),
    "train-wide": Workload(
        "train-wide", "train",
        dict(pairs=20, n_regions=6, n_words=6, region_width=24,
             word_width=16, noise=0.1),
        dict(d=16, t=2, batch=8, heads=2, epochs=1, lam=0.5, fusion="sca",
             alignment="biha", temperature=0.05),
        8),
    "eval-gallery": Workload(
        "eval-gallery", "eval",
        dict(pairs=24, n_regions=6, n_words=6, region_width=24,
             word_width=16, noise=0.1),
        dict(d=16, t=2, heads=2, fusion="scca", alignment="biha"),
        8),
}


@dataclass
class Round:
    setup_s: float
    wall_s: float = 0.0
    main_s: float = 0.0          # train() call or ranking
    pairs: int = 0               # pairs processed by the main call
    step_count: int = 0
    steps_s: list[float] = field(default_factory=list)   # clean steps only
    eval_s: float = math.nan
    energy_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str | None = None
    final_loss: float | None = None
    recall: dict | None = None
    energy: tuple | None = None
    fusion_calls: int = 0
    warmup: bool = False
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str, n: int = 1):
        self.failed += n
        self.problems.append(what)


def _parse_fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


class Bench:
    """Inputs and rounds of one workload for one seed."""

    def __init__(self, workload: Workload, seed: int, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.data_dir = os.path.join(work_dir, "data")
        self.out_dir = os.path.join(work_dir, "out")
        self.ckpt_path = os.path.join(work_dir, "gallery.ckpt")
        self.config = RunConfig(seed=seed, **workload.config).validate()
        self.reference: Round | None = None

    # -- inputs (not timed) ----------------------------------------------------

    def prepare(self):
        sf_data.synth_dataset(self.data_dir, seed=self.seed,
                              **self.workload.shape)
        if self.workload.kind == "eval":
            dataset = sf_data.load_manifest(self.data_dir)
            model = sf_model.RetrievalModel(
                self.config, dataset.regions.shape[-1],
                dataset.words.shape[-1], dataset.n_regions, dataset.n_words)
            b = self.workload.report_batch
            for lo in range(0, min(dataset.pairs, 3 * b), b):
                model.calibrate(sf_tensor.Tensor(dataset.regions[lo:lo + b]),
                                sf_tensor.Tensor(dataset.words[lo:lo + b]))
            sf_ckpt.save_checkpoint(self.ckpt_path, model)

    # -- one round ---------------------------------------------------------------

    def setup(self):
        """Load the dataset and build (train) or restore (eval) the model."""
        t0 = time.perf_counter()
        dataset = sf_data.load_manifest(self.data_dir)
        if self.workload.kind == "eval":
            checkpoint = sf_ckpt.load_checkpoint(self.ckpt_path)
            model = sf_ckpt.restore_model(checkpoint,
                                          dataset.regions.shape[-1],
                                          dataset.words.shape[-1])
        else:
            model = sf_model.RetrievalModel(
                self.config, dataset.regions.shape[-1],
                dataset.words.shape[-1], dataset.n_regions, dataset.n_words)
        return dataset, model, time.perf_counter() - t0

    def round(self) -> Round:
        t0 = time.perf_counter()
        dataset, model, setup_s = self.setup()
        rnd = Round(setup_s=setup_s)
        if self.workload.kind == "train":
            # rank and report on the training split, as a user checks a fit
            ranked = self._train(rnd, dataset, model)
        else:
            ranked = dataset
        self._rank(rnd, model, ranked)
        if self.workload.kind == "eval":
            rnd.main_s, rnd.pairs = rnd.eval_s, ranked.pairs
        self._report(rnd, model, ranked)
        if model.fusion is not None:
            rnd.fusion_calls = model.fusion.call_count
        rnd.wall_s = time.perf_counter() - t0
        self._check_repeats(rnd)
        return rnd

    def _train(self, rnd: Round, dataset, model):
        cfg = self.config
        lines: list[str] = []
        stamps: list[float] = []

        def log(line: str):
            stamps.append(time.perf_counter())
            lines.append(line)

        t1 = time.perf_counter()
        try:
            sf_train.train(cfg, dataset, out_dir=self.out_dir, log_fn=log,
                           model=model)
            raised = None
        except Exception:  # a failed step ends the train() call
            raised = traceback.format_exc(limit=3)
        rnd.main_s = time.perf_counter() - t1
        train_set, _ = sf_data.train_val_split(dataset, cfg.val_fraction,
                                               cfg.seed)
        step_lines = [ln for ln in lines if ln.startswith("step=")]
        rnd.step_count = len(step_lines)
        rnd.attempted += len(step_lines)
        for ln in step_lines:
            losses = _parse_fields(ln)
            if not all(math.isfinite(float(losses[k])) for k in LOSS_KEYS):
                rnd.fail(f"non-finite loss: {ln}")
        if raised is not None:
            rnd.attempted += 1
            rnd.fail(f"train() raised: {raised}")
            return train_set
        # Time between two step callbacks of one epoch is one step; the
        # first step of an epoch also carries validation and checkpointing.
        for i in range(1, len(lines)):
            if lines[i].startswith("step=") and lines[i - 1].startswith("step="):
                rnd.steps_s.append(stamps[i] - stamps[i - 1])
        used = train_set.pairs - (1 if train_set.pairs % cfg.batch == 1 else 0)
        rnd.pairs = used * cfg.epochs
        rnd.digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        if step_lines:
            rnd.final_loss = float(_parse_fields(step_lines[-1])["total"])
        return train_set

    def _rank(self, rnd: Round, model, dataset):
        rnd.attempted += 1
        t1 = time.perf_counter()
        try:
            recall = sf_train.evaluate_recall(model, dataset)
        except Exception:
            rnd.fail(f"evaluate_recall raised: {traceback.format_exc(limit=3)}")
            return
        rnd.eval_s = time.perf_counter() - t1
        rnd.recall = recall
        bad = {k: v for k, v in recall.items()
               if not 0.0 <= v <= (600.0 if k == "r_sum" else 100.0)}
        if bad:
            rnd.fail(f"recall out of range: {bad}")

    def _report(self, rnd: Round, model, dataset):
        b = self.workload.report_batch
        regions = sf_tensor.Tensor(dataset.regions[:b])
        words = sf_tensor.Tensor(dataset.words[:b])
        for _ in range(REPORTS_PER_ROUND):
            rnd.attempted += 1
            t1 = time.perf_counter()
            try:
                report = sf_energy.energy_report(model, regions, words)
            except Exception:
                rnd.fail(f"energy_report raised: {traceback.format_exc(limit=3)}")
                return
            rnd.energy_s.append(time.perf_counter() - t1)
            totals = (report.ac_ops, report.mac_ops, report.total_picojoules)
            if rnd.energy is not None and totals != rnd.energy:
                rnd.fail(f"energy totals {totals} != {rnd.energy} in one round")
            rnd.energy = totals

    def _check_repeats(self, rnd: Round):
        """Every round must reproduce the first one's outputs exactly."""
        if self.workload.kind == "eval" and rnd.fusion_calls != 0:
            rnd.fail(f"inference path called fusion {rnd.fusion_calls} times")
        ref = self.reference
        if ref is None:
            self.reference = rnd
            return
        if rnd.digest != ref.digest:
            rnd.fail(f"loss history digest {rnd.digest} != {ref.digest}",
                     n=rnd.step_count or 1)
        if rnd.recall != ref.recall:
            rnd.fail(f"recall {rnd.recall} != first ranking {ref.recall}")
        if rnd.energy != ref.energy:
            rnd.fail(f"energy totals {rnd.energy} != first report {ref.energy}")

    # -- loops -------------------------------------------------------------------

    def loop(self, seconds: float) -> list[Round]:
        """Run rounds until the next one would end well past ``seconds``.

        The first round of a process fills caches and the allocator's pools;
        it is checked like any other but excluded from the timings.
        """
        rounds: list[Round] = []
        start = time.perf_counter()
        while True:
            gc.collect()
            rounds.append(self.round())
            rounds[-1].warmup = self.reference is rounds[-1]
            elapsed = time.perf_counter() - start
            typical = statistics.median(r.wall_s for r in rounds)
            if len(rounds) >= MIN_ROUNDS and elapsed + 0.5 * typical >= seconds:
                return rounds

    def extra_setups(self) -> list[float]:
        times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            times.append(self.setup()[2])
        return times


# -- metrics -----------------------------------------------------------------


def _median(values):
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def timed(rounds: list[Round]) -> list[Round]:
    return [r for r in rounds if not r.warmup]


def main_throughput(rounds: list[Round]) -> float:
    """Pairs per second over all timed main calls of a loop."""
    done = [r for r in timed(rounds) if r.pairs]
    seconds = sum(r.main_s for r in done)
    return sum(r.pairs for r in done) / seconds if seconds else math.nan


def end_to_end(workload: Workload, rounds: list[Round], setups: list[float],
               peak_mib: float) -> tuple[dict, dict]:
    """Gated metrics, plus informational ones that are printed only."""
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    measured = timed(rounds)
    if workload.kind == "train":
        steps_ms = [1000.0 * s for r in measured for s in r.steps_s]
    else:  # one ranking is the unit of work a user waits on
        steps_ms = [1000.0 * r.main_s for r in measured if r.recall is not None]
    metrics = {
        "setup_s": _median(setups + [r.setup_s for r in rounds]),
        "pairs_per_s": main_throughput(rounds),
        "step_ms_p50": _median(steps_ms),
        "eval_s": _median([r.eval_s for r in measured]),
        "energy_s": _median([s for r in measured for s in r.energy_s]),
        "peak_rss_mib": peak_mib,
        "ok_frac": 1.0 - failed / attempted,
    }
    info = {
        "fail_frac": failed / attempted,
        "step_samples": len(steps_ms),
        "step_ms_p90": (statistics.quantiles(steps_ms, n=10)[-1]
                        if len(steps_ms) >= 2 else math.nan),
        "rounds": len(rounds),
    }
    return metrics, info


def checked_outputs(rounds: list[Round]) -> dict:
    first = rounds[0]
    return {
        "r_sum": first.recall["r_sum"] if first.recall else None,
        "final_loss": first.final_loss,
        "loss_digest": first.digest,
        "energy_ac_mac_pj": list(first.energy) if first.energy else None,
        "fusion_calls_per_round": sorted({r.fusion_calls for r in rounds}),
    }


# -- tracing -----------------------------------------------------------------


def _tape_nodes(loss) -> int:
    seen = {id(loss)}
    todo = [loss]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def install_tracer(tracer: Tracer):
    """Wrap each layer's entry points where the program looks them up.

    Names bound by ``from module import name`` are wrapped at the module
    that uses them (``similarity`` in ``spikefusion.model``, the LIF folds in
    ``spikefusion.neurons``); methods are wrapped on their class.
    """
    def tape(args, kwargs):
        with tracer.region("bench.tape_walk"):
            tracer.maximum("tensor.tape_nodes", _tape_nodes(args[0]))

    def fine(args, kwargs):
        e_tokens, r_tokens = args[0], args[1]
        b_e, n_l = e_tokens.shape[:2]
        b_r, n_n = r_tokens.shape[:2]
        tracer.maximum("alignment.fine_mib", b_e * b_r * n_l * n_n * 4 / 2**20)
        tracer.count("alignment.similarity_calls")

    def counter(key):
        return lambda args, kwargs, result: tracer.count(key)

    def saved(args, kwargs, path):
        tracer.count("checkpoint.saves")
        tracer.count("checkpoint.bytes", os.path.getsize(path))

    def loaded(args, kwargs, dataset):
        tracer.count("data.bytes_read",
                     dataset.regions.nbytes + dataset.words.nbytes)

    def reported(args, kwargs, report):
        tracer.maximum("energy.ac_ops", report.ac_ops)
        tracer.maximum("energy.mac_ops", report.mac_ops)

    wrap = tracer.wrap
    wrap(sf_tensor.Tensor, "backward", "tensor.backward", before=tape)
    for fold in ("lif_sequence", "tlsn_forward"):
        wrap(sf_neurons, fold, "neurons.fold",
             after=counter("neurons.fold_calls"))
    wrap(sf_attention.UnimodalEncoder, "__call__", "attention.encode")
    wrap(sf_attention.SpikeSelfAttention, "__call__", "attention.ssa")
    wrap(sf_attention.SpikeGatedMLP, "__call__", "attention.sgmlp")
    wrap(sf_encoding.SpikeGenerator, "__call__", "encoding.generator")
    wrap(sf_model, "similarity", "alignment.similarity", before=fine)
    wrap(sf_fusion.SpikeFusion, "fuse_and_pool", "fusion.fuse",
         after=counter("fusion.calls"))
    wrap(sf_model, "total_loss", "losses.objective")
    wrap(sf_model, "infonce_pair", "losses.objective")
    wrap(sf_model.RetrievalModel, "training_losses", "model.forward")
    wrap(sf_optim.AdamW, "step", "optim.step")
    wrap(sf_train, "train", "train.fit")
    wrap(sf_train, "evaluate_recall", "train.validate")
    wrap(sf_train, "recall_from_similarity", "train.rank")
    wrap(sf_train, "save_checkpoint", "checkpoint.save", after=saved)
    wrap(sf_ckpt, "load_checkpoint", "checkpoint.load")
    wrap(sf_ckpt, "restore_model", "checkpoint.load")
    wrap(sf_data, "load_manifest", "data.load", after=loaded)
    wrap(sf_energy, "energy_report", "energy.report", after=reported)


def per_layer(tracer: Tracer, n_rounds: int, untraced: list[Round],
              traced: list[Round]) -> dict:
    """``<span>_ms`` is the span's self time per round, a ``/round`` unit a
    count per round; the other counts are maxima."""
    self_ms = tracer.self_ms()
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name.endswith("_ms"):
            metrics[name] = self_ms.get(name[:-len("_ms")], 0.0) / n_rounds
        elif unit.endswith("/round"):
            metrics[name] = tracer.counts.get(name, 0) / n_rounds
        else:
            metrics[name] = tracer.maxima.get(name, 0)
    metrics["trace.pairs_per_s_delta"] = (main_throughput(traced)
                                          - main_throughput(untraced))
    metrics["trace.eval_s_delta"] = (
        _median([r.eval_s for r in timed(traced)])
        - _median([r.eval_s for r in timed(untraced)]))
    return metrics
