"""Full-model wiring: registries, gradient flow, toy finite differences."""

import re
import weakref

import numpy as np
import pytest

from spikefusion import alignment as alignment_module
from spikefusion import losses as losses_module
from spikefusion import model as model_module
from spikefusion import neurons as neurons_module
from spikefusion.alignment import POOL_MODES, similarity
from spikefusion.config import RunConfig
from spikefusion.data import Dataset
from spikefusion.encoding import GENERATOR_VARIANTS
from spikefusion.errors import StateError, UsageError
from spikefusion.fusion import FUSION_KINDS
from spikefusion.losses import infonce_pair
from spikefusion.model import EVAL_BLOCK, RetrievalModel
from spikefusion.optim import AdamW
from spikefusion.tensor import Tensor, matmul, no_grad, smooth_spike_mode
from spikefusion.train import evaluate_recall

from helpers import (
    composed_fold,
    interior_nodes,
    reference_infonce_pair,
    reference_l2_normalize,
    reference_similarity,
    smooth_fd_audit,
    tape_bytes,
    traced,
)


def toy_model(fusion="scca", seed=8, **kw):
    base = dict(d=8, t=2, batch=2, heads=3, seed=seed, temperature=0.2,
                alpha=0.5, fusion=fusion)
    base.update(kw)
    return RetrievalModel(RunConfig(**base), region_width=6, word_width=5,
                          n_regions=3, n_words=3)


# the weights whose products feed a fold, as its weight stage
FOLD_WEIGHTS = ("/w_q/w", "/w_k/w", "/w_v/w", "/w_a/w", "/w_g/w", "/w_o/w",
                "/linear/w", "/out/w")


def buffer_names(model):
    return [n for n in model.state() if n.startswith("buffer/")]


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
        assert buffer_names(model) == []
        regions, words = toy_batch()
        model.calibrate(regions, words)
        buffers = buffer_names(model)
        assert any(n.endswith("running_mean") for n in buffers)

    def test_load_rejects_missing_parameter(self):
        model = toy_model()
        arrays = {n: p.data for n, p in model.params().items()}
        arrays.pop(next(iter(arrays)))
        with pytest.raises(UsageError, match="missing parameter"):
            model.load_state(arrays)

    def test_load_rejects_shape_mismatch(self):
        model = toy_model()
        arrays = {n: p.data.copy() for n, p in model.params().items()}
        first = next(iter(arrays))
        arrays[first] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(UsageError, match="shape"):
            model.load_state(arrays)

    @pytest.mark.parametrize("extra", ["image/attn/w_qq/w",
                                       "buffer/image/attn/bn_qq/running_mean"])
    def test_load_rejects_an_array_nothing_reads(self, extra):
        model = toy_model()
        model.calibrate(*toy_batch())
        arrays = model.state()
        arrays[extra] = np.zeros(8, dtype=np.float32)
        with pytest.raises(UsageError, match=f"'{extra}' is neither"):
            model.load_state(arrays)

    @pytest.mark.parametrize("fusion", FUSION_KINDS)
    def test_every_array_name_is_its_attribute_path(self, fusion):
        # past the buffer/ prefix of running stats, each name walks the
        # attributes to the array; a list child step0 is step[0]
        model = toy_model(fusion)
        total, _ = model.training_losses(*toy_batch())
        total.backward()
        AdamW(model.params(), lambda name: 1e-3).step()
        assert buffer_names(model)
        for name, array in model.state().items():
            node = model
            for part in name.removeprefix("buffer/").split("/"):
                if hasattr(node, part):
                    node = getattr(node, part)
                else:
                    match = re.fullmatch(r"(\w*?)(\d+)", part)
                    assert match, name
                    node = getattr(node, match[1])[int(match[2])]
            if isinstance(node, Tensor):
                node = node.data
            assert node is array, name

    def test_load_rejects_half_a_running_stats_pair(self):
        model = toy_model()
        model.calibrate(*toy_batch())
        arrays = model.state()
        arrays.pop("buffer/image/attn/bn_q/running_var")
        with pytest.raises(UsageError, match="bn_q/running_var"):
            toy_model().load_state(arrays)


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
        r_out, e_out = model.encode(regions, words)
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


class TestPooledSimilarityNode:
    """A training step through the one-node ``similarity`` against the same
    step through the composed chain of generic ops (``tests/helpers.py``)."""

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_step_is_bit_identical_to_composed_chain(self, lam, monkeypatch):
        # with model seed 3 a node that lists its parents (e_hat, r_hat)
        # moves 21 of the 71 gradients in the last bit (seed 8 moves none)
        regions, words = toy_batch(seed=102)

        def step():
            model = toy_model(fusion="sca", seed=3, lam=lam)
            total, _ = model.training_losses(regions, words)
            total.backward()
            return total.data.tobytes(), {
                name: None if p.grad is None else p.grad.tobytes()
                for name, p in model.params().items()}

        node_loss, node_grads = step()
        monkeypatch.setattr(model_module, "similarity", reference_similarity)
        chain_loss, chain_grads = step()
        assert node_loss == chain_loss
        assert all(g is not None for g in node_grads.values())
        moved = [n for n in node_grads if node_grads[n] != chain_grads[n]]
        assert moved == []


class TestOneNodeGlue:
    """A training step with norm→fold nodes, one-node normalisations and
    contrastive losses against the same step through their composed graphs
    (``helpers``): each norm there is its own graph, followed by a fold
    node."""

    @staticmethod
    def step(fusion, generator, lam):
        regions, words = toy_batch(seed=103)
        model = toy_model(fusion=fusion, seed=4, lam=lam, generator=generator)
        total, _ = model.training_losses(regions, words)
        total.backward()
        grads = {name: None if p.grad is None else p.grad.tobytes()
                 for name, p in model.params().items()}
        stats = {name: model.state()[name].tobytes()
                 for name in buffer_names(model)}
        return total.data.tobytes(), grads, stats

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("generator", ["repeat-ln", "linear-bn"])
    @pytest.mark.parametrize("fusion", ["sca", "scca", "scsa", "none"])
    def test_step_is_bit_identical_to_composed_graphs(
            self, fusion, generator, lam, monkeypatch):
        node = self.step(fusion, generator, lam)
        monkeypatch.setattr(neurons_module, "_fold",
                            composed_fold(neurons_module._fold))
        monkeypatch.setattr(alignment_module, "l2_normalize",
                            reference_l2_normalize)
        monkeypatch.setattr(losses_module, "infonce_pair",
                            reference_infonce_pair)
        composed = self.step(fusion, generator, lam)
        assert node[0] == composed[0], "loss"
        assert node[2] == composed[2], "running stats"
        moved = [n for n in node[1] if node[1][n] != composed[1][n]]
        assert moved == []

    @pytest.mark.parametrize("generator", GENERATOR_VARIANTS)
    @pytest.mark.parametrize("fusion", FUSION_KINDS + ("none",))
    def test_no_norm_output_is_an_interior_node(self, fusion, generator):
        # every norm's gamma and beta, and every weight that feeds a fold,
        # are parents of one fold node alone, so neither a norm output nor
        # such a product is on the tape: a norm or a Linear applied by
        # itself again (``self.lif(self.bn(x))``, ``self.lif(self.w_q(x))``)
        # fails here
        regions, words = toy_batch()
        model = toy_model(fusion=fusion, generator=generator, lam=0.5)
        total, _ = model.training_losses(regions, words)
        staged = {id(p): name for name, p in model.params().items()
                  if name.endswith(("/gamma", "/beta") + FOLD_WEIGHTS)}
        consumers = {name: [] for name in staged.values()}
        seen, todo = set(), [total]
        while todo:
            node = todo.pop()
            if id(node) in seen or not node._parents:
                continue
            seen.add(id(node))
            for p in node._parents:
                if id(p) in staged:
                    consumers[staged[id(p)]].append(
                        node._backward.__qualname__)
            todo.extend(node._parents)
        # six per encoder, and four per cross-attention block
        weights = [n for n in consumers if n.endswith(FOLD_WEIGHTS)]
        assert len(weights) == {"sca": 20, "scsa": 16}.get(fusion, 12)
        assert consumers and all(
            kinds == ["_fold.<locals>.bw"] for kinds in consumers.values()), \
            consumers

    def test_interior_node_count_is_pinned(self):
        # one node per weight→norm→fold site, l2 normalisation, similarity
        # and contrastive loss: 116 interior nodes (the 12 norms and the 12
        # fold-feeding weight products of this model have no node of their
        # own), 428 with their composed graphs.  A change that composes one
        # of them again changes this count.
        regions, words = toy_batch()
        total, _ = toy_model().training_losses(regions, words)
        assert interior_nodes(total) == 116


class TestTapeBytes:
    """The bytes the tape behind a loss holds (``helpers.tape_bytes``), the
    yardstick of a training step's memory."""

    def test_counts_each_buffer_once(self):
        x = Tensor(np.ones((4, 8), dtype=np.float32))
        w = Tensor.param(np.ones((8, 2), dtype=np.float32))
        y = matmul(x.reshape((2, 2, 8)), w)
        # x (its reshape a view of it), y, y * y and the sum; w is a
        # parameter, which the model holds
        assert tape_bytes((y * y).sum()) == 128 + 32 + 32 + 4

    def test_toy_step_tape_is_bounded(self):
        # an sca step keeps 27128 bytes after its forward, 76136 with the
        # composed graphs of its folds' weight and norm stages
        regions, words = toy_batch()
        total, _ = toy_model(fusion="sca").training_losses(regions, words)
        assert tape_bytes(total) <= 27128


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


class TestGradModeStats:
    """Grad mode picks the batch norms' statistics: a recorded forward
    uses and folds in the batch's, ``no_grad()`` uses the running stats."""

    def test_training_losses_under_no_grad_needs_running_stats(self):
        with no_grad(), pytest.raises(StateError, match="running stats"):
            toy_model().training_losses(*toy_batch())

    def test_calibrate_is_a_recorded_forward_it_drops(self, monkeypatch):
        model = toy_model()
        encode, outputs = model.encode, []

        def spy(regions, words):
            out = encode(regions, words)
            outputs.extend(weakref.ref(o.pooled) for o in out)
            assert all(o.pooled.requires_grad for o in out)
            return out

        monkeypatch.setattr(model, "encode", spy)
        model.calibrate(*toy_batch())
        assert len(outputs) == 2
        assert all(ref() is None for ref in outputs)
        assert buffer_names(model)


class TestTiledScoring:
    """``eval_similarity`` scores the gallery in one ``similarity`` call,
    whose node walks the fine tensor in blocks."""

    @pytest.mark.parametrize("mode", POOL_MODES)
    @pytest.mark.parametrize(
        "pairs", [2 * EVAL_BLOCK + 3, 2 * EVAL_BLOCK + 1, EVAL_BLOCK - 5])
    def test_bit_identical_to_one_full_batch_call(self, mode, pairs):
        # 2 * EVAL_BLOCK + 1 once left a one-caption tile, whose lse sums
        # ran in another order; the oracle is the composed chain over the
        # whole gallery
        model = toy_model(fusion="none", alignment=mode)
        regions, words = toy_batch(seed=5, b=pairs)
        model.calibrate(regions, words)
        with no_grad():
            r_out, e_out = model.encode(regions, words)
            full = reference_similarity(e_out.pooled, r_out.pooled,
                                        model.pool_cfg)
        scores = model.eval_similarity(regions, words)
        assert scores.shape == (pairs, pairs)
        assert scores.data.tobytes() == full.data.tobytes()

    def test_rows_score_as_their_gathered_copy(self):
        # unsorted rows over three encoder blocks, the last one partial
        model = toy_model(fusion="none")
        regions, words = toy_batch(seed=7, b=3 * EVAL_BLOCK)
        model.calibrate(regions, words)
        rows = np.random.default_rng(1).permutation(3 * EVAL_BLOCK)
        rows = rows[:2 * EVAL_BLOCK + 3]
        scores = model.eval_similarity(regions, words, rows)
        gathered = model.eval_similarity(Tensor(regions.data[rows]),
                                         Tensor(words.data[rows]))
        assert scores.data.tobytes() == gathered.data.tobytes()

    def test_one_similarity_call_per_ranking(self, monkeypatch):
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
        assert sides == [(pairs, pairs)]

    def test_ranking_peak_memory_is_below_the_full_fine_tensor(self):
        pairs, tokens = 4 * EVAL_BLOCK, 12
        rng = np.random.default_rng(7)
        data = Dataset(
            rng.standard_normal((pairs, tokens, 6)).astype(np.float32),
            rng.standard_normal((pairs, tokens, 5)).astype(np.float32))
        model = toy_model(fusion="none")
        model.calibrate(Tensor(data.regions[:8]), Tensor(data.words[:8]))
        full_fine_bytes = pairs * pairs * tokens * tokens * 4
        _, _, peak = traced(lambda: evaluate_recall(model, data))
        assert peak < full_fine_bytes
