"""Full-model wiring: registries, gradient flow, toy finite differences."""

import tracemalloc

import numpy as np
import pytest

from spikefusion import model as model_module
from spikefusion.alignment import POOL_MODES, similarity
from spikefusion.config import RunConfig
from spikefusion.data import Dataset
from spikefusion.losses import infonce_pair
from spikefusion.model import EVAL_BLOCK, RetrievalModel
from spikefusion.tensor import Tensor, no_grad, smooth_spike_mode
from spikefusion.train import evaluate_recall

from helpers import smooth_fd_audit


def toy_model(fusion="scca", seed=8, **kw):
    base = dict(d=8, t=2, batch=2, heads=3, seed=seed, temperature=0.2,
                alpha=0.5, fusion=fusion)
    base.update(kw)
    return RetrievalModel(RunConfig(**base), region_width=6, word_width=5,
                          n_regions=3, n_words=3)


def toy_batch(seed=100, b=2, k=3):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.standard_normal((b, k, 6)).astype(np.float32)),
            Tensor(rng.standard_normal((b, k, 5)).astype(np.float32)))


class TestRegistry:
    def test_parameter_names_are_unique_and_prefixed(self):
        model = toy_model()
        names = list(model.params())
        assert len(names) == len(set(names))
        assert all(n.startswith(("image/", "text/", "fusion/")) for n in names)

    def test_buffers_appear_after_training_pass(self):
        model = toy_model()
        assert model.buffers() == {}
        regions, words = toy_batch()
        model.calibrate(regions, words)
        buffers = model.buffers()
        assert any(n.endswith("running_mean") for n in buffers)

    def test_load_rejects_missing_parameter(self):
        model = toy_model()
        arrays = {n: p.data for n, p in model.params().items()}
        arrays.pop(next(iter(arrays)))
        with pytest.raises(KeyError):
            model.load_params(arrays)

    def test_load_rejects_shape_mismatch(self):
        model = toy_model()
        arrays = {n: p.data.copy() for n, p in model.params().items()}
        first = next(iter(arrays))
        arrays[first] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            model.load_params(arrays)


class TestGradientFlow:
    def test_toy_forward_all_gradients_finite(self):
        # T=2, B=2, N=L=3, D=8 end-to-end backward
        model = toy_model()
        regions, words = toy_batch()
        total, _ = model.training_losses(regions, words)
        total.backward()
        for name, p in model.params().items():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name

    def test_toy_forward_finite_difference_spot_check(self):
        """10 random parameters of the N=L=3 toy agree with central FD on
        the surrogate-smoothed graph at <1e-2 relative."""
        model = toy_model(seed=8)
        regions, words = toy_batch(seed=101)

        with smooth_spike_mode():
            total, _ = model.training_losses(regions, words)
            total.backward()
        rels = smooth_fd_audit(
            lambda: float(model.training_losses(regions, words)[0].data),
            model.params())
        assert max(rels) < 1e-2, f"worst rel {max(rels):.4f}"

    @pytest.mark.parametrize("kind", ["scca", "sca", "scsa"])
    def test_inter_and_intra_losses_reach_fusion_parameters(self, kind):
        # comb_tau=1 and d=16 keep the fused path active at init; a silent
        # fused stream would zero these gradients through the outer product
        rng = np.random.default_rng(301)
        regions = Tensor(rng.standard_normal((3, 4, 8)).astype(np.float32))
        words = Tensor(rng.standard_normal((3, 4, 7)).astype(np.float32))
        model = RetrievalModel(
            RunConfig(d=16, t=2, batch=3, heads=2, seed=1, temperature=0.2,
                      alpha=0.5, fusion=kind, comb_tau=1.0), 8, 7, 4, 4)
        r_out, e_out = model.encode(regions, words, train=True)
        r_bar, e_bar = model.fusion.fuse_and_pool(r_out.spikes, e_out.spikes)
        tau = 0.2
        loss = (infonce_pair(similarity(e_out.pooled, r_bar, model.pool_cfg), tau)
                + infonce_pair(similarity(e_bar, r_out.pooled, model.pool_cfg), tau)
                + infonce_pair(similarity(e_out.pooled, e_bar, model.pool_cfg), tau)
                + infonce_pair(similarity(r_out.pooled, r_bar, model.pool_cfg), tau))
        loss.backward()
        fusion_hit = [n for n, p in model.params().items()
                      if n.startswith("fusion/") and p.grad is not None
                      and np.abs(p.grad).sum() > 0]
        encoder_hit = [n for n, p in model.params().items()
                       if not n.startswith("fusion/") and p.grad is not None
                       and np.abs(p.grad).sum() > 0]
        assert fusion_hit, kind
        assert encoder_hit, kind

    @pytest.mark.parametrize("fusion", ["none", "scca"])
    def test_zero_weight_terms_are_not_computed(self, fusion):
        regions, words = toy_batch()
        model = toy_model(fusion=fusion, lam=0.0)
        _, parts = model.training_losses(regions, words)
        assert float(parts["early"].data) == 0.0
        assert not parts["early"].requires_grad
        assert parts["basic"].requires_grad
        model = toy_model(fusion=fusion, lam=1.0)
        total, parts = model.training_losses(regions, words)
        assert float(parts["basic"].data) == 0.0
        assert not parts["basic"].requires_grad
        total.backward()
        # nothing past the projection gets a gradient, so weight decay
        # leaves it alone too
        for name, p in model.params().items():
            assert (p.grad is not None) == ("/proj/" in name), name
        if model.fusion is not None:
            assert model.fusion.call_count == 0

    def test_training_losses_component_keys(self):
        model = toy_model()
        regions, words = toy_batch()
        _, parts = model.training_losses(regions, words)
        assert set(parts) == {"early", "basic", "fusion", "inter", "intra",
                              "total"}


class TestEvalPath:
    def test_eval_similarity_shape_and_determinism(self):
        model = toy_model()
        regions, words = toy_batch()
        model.calibrate(regions, words)
        with no_grad():
            a = model.eval_similarity(regions, words)
            b = model.eval_similarity(regions, words)
        assert a.shape == (2, 2)
        assert np.array_equal(a.data, b.data)
        assert model.fusion.call_count == 0

    def test_fusion_none_config_trains_without_fusion_terms(self):
        model = toy_model(fusion="none")
        assert model.fusion is None
        regions, words = toy_batch()
        total, parts = model.training_losses(regions, words)
        assert float(parts["fusion"].data) == 0.0
        total.backward()
        assert np.isfinite(total.data)


class TestTiledScoring:
    """``eval_similarity`` fills the score matrix in EVAL_BLOCK tiles."""

    @pytest.mark.parametrize("mode", POOL_MODES)
    @pytest.mark.parametrize("pairs", [2 * EVAL_BLOCK + 3, EVAL_BLOCK - 5])
    def test_bit_identical_to_one_full_batch_call(self, mode, pairs):
        # 2 * EVAL_BLOCK + 3 leaves a ragged last tile on both axes
        model = toy_model(fusion="none", alignment=mode)
        regions, words = toy_batch(seed=5, b=pairs)
        model.calibrate(regions, words)
        with no_grad():
            r_out, e_out = model.encode(regions, words, train=False)
            full = similarity(e_out.pooled, r_out.pooled, model.pool_cfg)
        tiled = model.eval_similarity(regions, words)
        assert tiled.shape == (pairs, pairs)
        assert tiled.data.tobytes() == full.data.tobytes()

    def test_similarity_never_sees_more_than_a_block(self, monkeypatch):
        sides = []

        def spy(e_tokens, r_tokens, cfg):
            sides.append((e_tokens.shape[0], r_tokens.shape[0]))
            return similarity(e_tokens, r_tokens, cfg)

        monkeypatch.setattr(model_module, "similarity", spy)
        model = toy_model(fusion="none")
        pairs = 2 * EVAL_BLOCK + 3
        regions, words = toy_batch(seed=6, b=pairs)
        model.calibrate(regions, words)
        model.eval_similarity(regions, words)
        assert len(sides) == 3 * 3
        assert max(max(side) for side in sides) == EVAL_BLOCK
        assert sum(e for e, _ in sides) == 3 * pairs

    def test_ranking_peak_memory_is_below_the_full_fine_tensor(self):
        pairs, tokens = 4 * EVAL_BLOCK, 12
        rng = np.random.default_rng(7)
        data = Dataset(
            rng.standard_normal((pairs, tokens, 6)).astype(np.float32),
            rng.standard_normal((pairs, tokens, 5)).astype(np.float32))
        model = toy_model(fusion="none")
        model.calibrate(Tensor(data.regions[:8]), Tensor(data.words[:8]))
        full_fine_bytes = pairs * pairs * tokens * tokens * 4
        tracemalloc.start()
        try:
            evaluate_recall(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_fine_bytes
