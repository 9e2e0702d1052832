"""Recall metrics, training determinism, checkpointing."""

import importlib
import os
import warnings

import numpy as np
import pytest

from spikefusion.checkpoint import load_checkpoint, restore_model, save_checkpoint
from spikefusion.config import RunConfig
from spikefusion.data import (
    Dataset,
    load_manifest,
    split_indices,
    synth_dataset,
)
from spikefusion.errors import UsageError
from spikefusion.model import RetrievalModel
from spikefusion.optim import AdamW
from spikefusion.tensor import Tensor, no_grad
from spikefusion.train import (
    ablation_sweep,
    evaluate_recall,
    recall_from_similarity,
    train,
)

from helpers import traced

train_module = importlib.import_module("spikefusion.train")

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

    def test_empty_matrix_rejected(self):
        # a 0 x 0 matrix is square, but its recall would read NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match="non-empty"):
                recall_from_similarity(np.zeros((0, 0)))

    def test_constant_matrix_scores_zero(self):
        # a silent network scores every pair alike: ties rank each query last
        assert recall_from_similarity(np.zeros((50, 50)))["r_sum"] == 0.0

    def test_tie_with_one_candidate_costs_one_rank(self, monkeypatch):
        monkeypatch.setattr(train_module, "RECALL_KS", (1, 2))
        s = np.eye(4, dtype=np.float32)
        s[0, 1] = 1.0
        metrics = recall_from_similarity(s)
        assert metrics["i2t_r@1"] == 75.0
        assert metrics["i2t_r@2"] == 100.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_raise(self, bad):
        with pytest.raises(FloatingPointError, match="non-finite"):
            recall_from_similarity(np.full((50, 50), bad))
        s = np.eye(5)
        s[2, 3] = bad
        with pytest.raises(FloatingPointError, match="1 non-finite"):
            recall_from_similarity(s)


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

    def test_tiny_validation_split_falls_back_to_train_and_says_so(
            self, tmp_path):
        # 4 pairs at 0.25 hold out 1 pair, too few to rank: recall is
        # ranked on the 3 training pairs and every record names that split
        data = tiny_dataset(tmp_path, pairs=4)
        lines = []
        result = train(tiny_config(epochs=2), data, log_fn=lines.append)
        assert result.val_source == "train"
        assert [r["val_source"] for r in result.history] == ["train", "train"]
        epoch_lines = [l for l in lines if l.startswith("epoch=")]
        assert len(epoch_lines) == 2
        assert all(l.endswith(" val_source=train") for l in epoch_lines)

    def test_held_out_validation_logs_keep_their_form(self, tmp_path):
        data = tiny_dataset(tmp_path)
        lines = []
        result = train(tiny_config(epochs=1), data, log_fn=lines.append)
        assert result.val_source == "held-out"
        assert result.history[0]["val_source"] == "held-out"
        assert not any("val_source" in l for l in lines)
        assert lines[-1].startswith("epoch=0 val_r_sum=")

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

    @pytest.mark.parametrize("axis, values, heads, bad", [
        ("heads", ["2", "3"], 2, "3"),
        ("fusion", ["none", "scca"], 3, "scca"),
        ("width", ["2"], 2, "width"),  # an axis the sweep does not know
    ])
    def test_ablation_checks_comb_counts_before_training(
            self, tmp_path, axis, values, heads, bad):
        data = tiny_dataset(tmp_path, nl=4)
        logs = []
        with pytest.raises(UsageError, match=repr(bad)):
            ablation_sweep(axis, values,
                           RunConfig(d=8, batch=4, epochs=1, heads=heads),
                           data, log_fn=logs.append)
        assert logs == []

    def test_held_loss_does_not_keep_its_graph_into_the_next_step(
            self, tmp_path):
        # train() holds `total` and `parts` until the next training_losses
        # returns; a tape they kept alive would stack two steps in memory
        data = tiny_dataset(tmp_path, pairs=8, nl=6)
        regions, words = Tensor(data.regions), Tensor(data.words)

        def peak_of_steps(n):
            model = RetrievalModel(tiny_config(fusion="sca"), 12, 10, 6, 6)
            optimizer = AdamW(model.params(), lambda name: 1e-3)

            def steps():
                for _ in range(n):
                    total, parts = model.training_losses(regions, words)
                    optimizer.zero_grad()
                    total.backward()
                    optimizer.step()

            return traced(steps)[2]

        one, three = peak_of_steps(1), peak_of_steps(3)
        assert three <= 1.15 * one, (one, three)

    @staticmethod
    def wide_split():
        """Wide features and a tiny model: the dataset dwarfs the tape, so a
        copy of the 90-pair training split would show in the peak; the
        10-pair validation split is ranked without clamping recall@10.
        Returns the data, the config and the training split's bytes."""
        rng = np.random.default_rng(9)
        data = Dataset(
            rng.standard_normal((100, 4, 1024)).astype(np.float32),
            rng.standard_normal((100, 4, 512)).astype(np.float32))
        cfg = tiny_config(d=8, batch=16, epochs=1, val_fraction=0.1)
        train_idx, _ = split_indices(data.pairs, cfg.val_fraction, cfg.seed)
        return data, cfg, (data.regions[train_idx].nbytes
                           + data.words[train_idx].nbytes)

    def test_train_holds_no_copy_of_its_training_split(self):
        data, cfg, split_bytes = self.wide_split()
        _, _, peak = traced(lambda: train(cfg, data))
        assert peak < split_bytes, peak / split_bytes

    def test_ranking_rows_gathers_one_block_at_a_time(self):
        # the 90 training rows are ranked as their gathered copy is, bit for
        # bit, while at most EVAL_BLOCK (32) of them are gathered at once
        data, cfg, split_bytes = self.wide_split()
        rows, _ = split_indices(data.pairs, cfg.val_fraction, cfg.seed)
        model = RetrievalModel(cfg, 1024, 512, 4, 4)
        model.calibrate(Tensor(data.regions[:8]), Tensor(data.words[:8]))
        gathered = Dataset(data.regions[rows], data.words[rows])
        metrics, _, peak = traced(lambda: evaluate_recall(model, data, rows))
        assert metrics == evaluate_recall(model, gathered)
        assert peak < 0.5 * split_bytes, peak / split_bytes

    def test_ablation_ranks_without_copying_a_split(self):
        # train()'s own peak (0.61 of the training split); a gathered copy
        # of the training split for ranking would add 1.0
        data, cfg, split_bytes = self.wide_split()
        _, _, peak = traced(lambda: ablation_sweep("time-steps", ["2"], cfg,
                                                   data))
        assert peak < 0.8 * split_bytes, peak / split_bytes


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
        assert ckpt.config.alignment == "vha"

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
