"""The dual-stream retrieval model: two unimodal spike encoders, an optional
training-only fusion module, and the similarity/objective wiring."""

from __future__ import annotations

import numpy as np

from .alignment import similarity
from .attention import UnimodalEncoder
from .config import RunConfig
from .energy import scope
from .fusion import SpikeFusion
from .layers import Module
# infonce_pair is unused here; perfbench/workloads.py wraps it as a global
# of this module
from .losses import infonce_pair, total_loss  # noqa: F401
from .tensor import Tensor, no_grad

# images (rows) and captions (columns) per tile of the evaluation score
# matrix, and samples per encoder call when building it
EVAL_BLOCK = 32


def _pooled_in_chunks(encoder, x: Tensor) -> Tensor:
    """Eval-mode pooled embeddings, ``EVAL_BLOCK`` samples per encoder call
    (batch norm uses running statistics, so samples are independent)."""
    return Tensor(np.concatenate([
        encoder(x[lo:lo + EVAL_BLOCK], train=False).pooled.data
        for lo in range(0, x.shape[0], EVAL_BLOCK)]))


class RetrievalModel(Module):
    """Registry names start ``image/``, ``text/`` and ``fusion/``."""

    def __init__(self, config: RunConfig, region_width: int, word_width: int,
                 n_regions: int | None = None, n_words: int | None = None):
        parts = config.validate().components()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.image = UnimodalEncoder(region_width, parts.generator, parts.lif,
                                     rng, config.ssa_scale)
        self.text = UnimodalEncoder(word_width, parts.generator, parts.lif,
                                    rng, config.ssa_scale)
        self.pool_cfg = parts.pool
        self.loss_weights = parts.loss
        self.fusion: SpikeFusion | None = None
        if parts.fusion is not None:
            if n_regions is not None and n_words is not None:
                parts.fusion.check_token_counts(n_regions, n_words)
            self.fusion = SpikeFusion(parts.fusion, config.d, config.t,
                                      parts.lif, rng, parts.comb_lif)

    def encode(self, regions: Tensor, words: Tensor, train: bool):
        """Both encoders; ledger records are named ``region/`` / ``word/``."""
        with scope("region/"):
            r_out = self.image(regions, train=train)
        with scope("word/"):
            e_out = self.text(words, train=train)
        return r_out, e_out

    def eval_similarity(self, regions: Tensor, words: Tensor) -> Tensor:
        """Inference path: the pooled score matrix, fusion never touched.

        ``s[i, j]`` is filled one ``EVAL_BLOCK`` x ``EVAL_BLOCK`` tile at a
        time, so at most one tile's (b, b, L, N) fine tensor is alive: memory
        is O(EVAL_BLOCK^2 * L * N + P^2), not O(P^2 * L * N).  Every tile's
        scores are bit-identical to those of one full-batch ``similarity``.
        """
        with no_grad():
            r_pooled = _pooled_in_chunks(self.image, regions)
            e_pooled = _pooled_in_chunks(self.text, words)
            s = np.empty((r_pooled.shape[0], e_pooled.shape[0]), np.float32)
            for i in range(0, s.shape[0], EVAL_BLOCK):
                for j in range(0, s.shape[1], EVAL_BLOCK):
                    s[i:i + EVAL_BLOCK, j:j + EVAL_BLOCK] = similarity(
                        e_pooled[j:j + EVAL_BLOCK], r_pooled[i:i + EVAL_BLOCK],
                        self.pool_cfg).data
        return Tensor(s)

    def training_losses(self, regions: Tensor, words: Tensor):
        """The objective on one batch; returns (total, parts dict).  Only
        terms with nonzero weight are computed (the fusion pass only when
        lambda < 1); ``total_loss`` counts the others as 0."""
        r_out, e_out = self.encode(regions, words, train=True)
        lam = self.loss_weights.lam

        def sim(e, r):
            return similarity(e, r, self.pool_cfg)

        sims = {}
        if lam > 0.0:
            sims["early"] = sim(e_out.features, r_out.features)
        if lam < 1.0:
            sims["basic"] = sim(e_out.pooled, r_out.pooled)
        if lam < 1.0 and self.fusion is not None:
            r_bar, e_bar = self.fusion.fuse_and_pool(r_out.spikes, e_out.spikes,
                                                     train=True)
            sims.update(fusion=sim(e_bar, r_bar),
                        inter_er=sim(e_out.pooled, r_bar),
                        inter_re=sim(e_bar, r_out.pooled),
                        intra_e=sim(e_out.pooled, e_bar),
                        intra_r=sim(r_out.pooled, r_bar))
        return total_loss(sims, self.loss_weights)

    def calibrate(self, regions: Tensor, words: Tensor):
        """One train-mode pass to populate batch-norm running statistics."""
        with no_grad():
            self.encode(regions, words, train=True)
