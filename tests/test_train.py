"""Recall metrics, training determinism, checkpointing, resume."""

import os

import numpy as np
import pytest

from spikefusion.checkpoint import load_checkpoint, restore_model, save_checkpoint
from spikefusion.config import RunConfig
from spikefusion.data import load_manifest, synth_dataset
from spikefusion.errors import UsageError
from spikefusion.model import RetrievalModel
from spikefusion.optim import AdamW
from spikefusion.tensor import Tensor, no_grad
from spikefusion.train import (
    evaluate_recall,
    recall_from_similarity,
    train,
)

RNG = np.random.default_rng(2323)


def tiny_dataset(tmp_path, pairs=16, noise=0.1, seed=4, nl=4):
    path = synth_dataset(tmp_path / "d", seed=seed, pairs=pairs, n_regions=nl,
                         n_words=nl, region_width=12, word_width=10,
                         noise=noise)
    return load_manifest(path)


def tiny_config(**kw):
    base = dict(d=16, t=2, batch=8, heads=2, seed=5, epochs=3,
                lr_encoder=2e-3, lr_fusion=2e-3, temperature=0.05,
                lr_decay_epochs=1, val_fraction=0.25)
    base.update(kw)
    return RunConfig(**base)


class TestRecallFromSimilarity:
    def test_identity_matrix_is_perfect(self):
        metrics = recall_from_similarity(np.eye(8, dtype=np.float32))
        for key in ("i2t_r@1", "t2i_r@1", "i2t_r@10", "t2i_r@10"):
            assert metrics[key] == 100.0
        assert metrics["r_sum"] == 600.0

    def test_anti_diagonal_truth_scores_zero_at_one(self):
        s = np.eye(6, dtype=np.float32)[::-1]  # each query prefers the wrong item
        metrics = recall_from_similarity(s)
        assert metrics["i2t_r@1"] == 0.0
        assert metrics["t2i_r@1"] == 0.0

    def test_random_scores_sit_at_chance(self):
        # E[R@1] = 1/200 items = 0.5%; check the 20-seed mean within 3 sigma
        rates = []
        for seed in range(20):
            s = np.random.default_rng(seed).standard_normal((200, 200))
            m = recall_from_similarity(s)
            rates.append((m["i2t_r@1"] + m["t2i_r@1"]) / 2)
        sigma_mean = 100 * np.sqrt(0.005 * 0.995 / 200) / np.sqrt(20)
        assert abs(np.mean(rates) - 0.5) <= 3 * sigma_mean

    def test_k_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            metrics = recall_from_similarity(np.eye(3, dtype=np.float32))
        assert metrics["r_sum"] == 600.0

    def test_non_square_rejected(self):
        with pytest.raises(UsageError):
            recall_from_similarity(np.zeros((3, 4)))


class TestTrainLoop:
    def test_history_has_loss_components_and_recall(self, tmp_path):
        data = tiny_dataset(tmp_path)
        result = train(tiny_config(), data)
        assert len(result.history) == 3
        rec = result.history[0]
        for name in ("early", "basic", "fusion", "inter", "intra", "total"):
            assert f"loss_{name}" in rec
        assert "val_r_sum" in rec

    def test_fixed_seed_reproduces_history_bitwise(self, tmp_path):
        data = tiny_dataset(tmp_path)
        h1 = train(tiny_config(), data).history
        h2 = train(tiny_config(), data).history
        for a, b in zip(h1, h2):
            for key in a:
                if key == "seconds":
                    continue
                assert a[key] == b[key], key

    def test_step_logs_carry_all_components(self, tmp_path):
        data = tiny_dataset(tmp_path)
        lines = []
        train(tiny_config(epochs=1), data, log_fn=lines.append)
        step_lines = [l for l in lines if l.startswith("step=")]
        assert step_lines
        for name in ("early=", "basic=", "fusion=", "inter=", "intra=",
                     "total=", "lr="):
            assert name in step_lines[0]

    def test_lambda_one_trains_projection_only(self, tmp_path):
        data = tiny_dataset(tmp_path)
        cfg = tiny_config(lam=1.0)
        model = RetrievalModel(cfg, 12, 10, 4, 4)
        total, parts = model.training_losses(Tensor(data.regions[:8]),
                                             Tensor(data.words[:8]))
        total.backward()
        assert float(parts["basic"].data) == 0.0
        for name, p in model.params().items():
            stage = name.split("/")[1] if "/" in name else name
            if "/proj/" in name:
                assert p.grad is not None and np.abs(p.grad).sum() > 0, name
            else:
                # everything past the projection gets no objective gradient
                assert p.grad is None or np.abs(p.grad).sum() == 0.0, name
        assert model.fusion.call_count == 0

    def test_divergence_aborts_with_breakdown(self, tmp_path):
        data = tiny_dataset(tmp_path)
        cfg = tiny_config()
        model = RetrievalModel(cfg, 12, 10, 4, 4)
        model.image.proj.w.data[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="early="):
            train(cfg, data, model=model)

    def test_eval_path_never_touches_fusion(self, tmp_path):
        data = tiny_dataset(tmp_path)
        cfg = tiny_config()
        model = RetrievalModel(cfg, 12, 10, 4, 4)
        model.calibrate(Tensor(data.regions[:8]), Tensor(data.words[:8]))
        assert model.fusion.call_count == 0
        evaluate_recall(model, data)
        assert model.fusion.call_count == 0

    def test_scca_divisibility_checked_before_training(self, tmp_path):
        data = tiny_dataset(tmp_path, nl=4)
        from spikefusion.errors import ConfigError
        with pytest.raises(ConfigError, match="divide"):
            train(tiny_config(heads=3), data)


class TestCheckpoint:
    def test_round_trip_reproduces_eval_bitwise(self, tmp_path):
        data = tiny_dataset(tmp_path)
        cfg = tiny_config(epochs=2)
        result = train(cfg, data)
        regions = Tensor(data.regions[:6])
        words = Tensor(data.words[:6])
        with no_grad():
            before = result.model.eval_similarity(regions, words).data.copy()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.model, epoch=1)
        restored = restore_model(load_checkpoint(path), 12, 10)
        with no_grad():
            after = restored.eval_similarity(regions, words).data
        assert np.array_equal(before, after)

    def test_checkpoint_keeps_config_snapshot(self, tmp_path):
        data = tiny_dataset(tmp_path)
        cfg = tiny_config(epochs=1, alignment="vha")
        result = train(cfg, data)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.model, epoch=0)
        ckpt = load_checkpoint(path)
        assert "alignment = vha" in ckpt.config_text

    def test_resume_with_moments_is_exact(self, tmp_path):
        data = tiny_dataset(tmp_path, pairs=16)

        def lr_for(cfg):
            return lambda n: (cfg.lr_fusion if n.startswith("fusion/")
                              else cfg.lr_encoder)

        # reference run: 3 epochs straight through
        cfg = tiny_config(epochs=3)
        ref_losses = []
        train(cfg, data, log_fn=lambda l: ref_losses.append(l)
              if l.startswith("step=") else None)

        # run A: stop after 2 epochs, save everything; decay epochs chosen so
        # its schedule matches the first 2 epochs of the reference run
        cfg_a = tiny_config(epochs=2, lr_decay_epochs=0)
        model_a = RetrievalModel(cfg_a, 12, 10, 4, 4)
        opt_a = AdamW(model_a.params(), lr_for(cfg_a),
                      weight_decay=cfg_a.weight_decay)
        train(cfg_a, data, model=model_a, optimizer=opt_a)
        path = tmp_path / "stop.ckpt"
        save_checkpoint(path, model_a, opt_a, epoch=2)

        # run B: restore and continue into epoch 2
        ckpt = load_checkpoint(path)
        model_b = restore_model(ckpt, 12, 10)
        opt_b = AdamW(model_b.params(), lr_for(cfg), weight_decay=cfg.weight_decay)
        opt_b.load_state_arrays(ckpt.adam_moments(), ckpt.adam_step)
        resumed_losses = []
        train(tiny_config(epochs=3), data, start_epoch=ckpt.epoch,
              model=model_b, optimizer=opt_b,
              log_fn=lambda l: resumed_losses.append(l)
              if l.startswith("step=") else None)

        def total_of(line):
            return float(line.split("total=")[1].split()[0])

        ref_epoch2 = [l for l in ref_losses if "epoch=2" in l]
        assert resumed_losses
        assert abs(total_of(resumed_losses[0]) - total_of(ref_epoch2[0])) < 1e-5

    def test_best_checkpoint_written(self, tmp_path):
        data = tiny_dataset(tmp_path)
        out = tmp_path / "run"
        result = train(tiny_config(epochs=2), data, out_dir=str(out))
        assert result.checkpoint_path is not None
        assert os.path.exists(result.checkpoint_path)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(UsageError):
            load_checkpoint(path)
