"""The dual-stream retrieval model: two unimodal spike encoders, an optional
training-only fusion module, and the similarity/objective wiring."""

from __future__ import annotations

import numpy as np

from .alignment import PoolConfig, similarity
from .attention import UnimodalEncoder
from .config import RunConfig
from .encoding import GeneratorConfig
from .fusion import FusionConfig, SpikeFusion
from .layers import Module
from .losses import LossWeights, infonce_pair, total_loss
from .neurons import LIFParams
from .tensor import Tensor, no_grad


class RetrievalModel(Module):
    """Registry names start ``image/``, ``text/`` and ``fusion/``."""

    def __init__(self, config: RunConfig, region_width: int, word_width: int,
                 n_regions: int | None = None, n_words: int | None = None):
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        lif = LIFParams(tau=config.tau, v_th=config.v_th, v_reset=config.v_reset,
                        surrogate_alpha=config.surrogate_alpha)
        gen_cfg = GeneratorConfig(variant=config.generator, t=config.t, d=config.d)
        self.image = UnimodalEncoder(region_width, gen_cfg, lif, rng,
                                     config.ssa_scale)
        self.text = UnimodalEncoder(word_width, gen_cfg, lif, rng,
                                    config.ssa_scale)
        self.pool_cfg = PoolConfig(alpha=config.alpha, mode=config.alignment)
        self.loss_weights = LossWeights(lam=config.lam,
                                        temperature=config.temperature)
        self.fusion: SpikeFusion | None = None
        if config.fusion != "none":
            fusion_cfg = FusionConfig(kind=config.fusion, h=config.heads)
            if n_regions is not None and n_words is not None:
                fusion_cfg.check_token_counts(n_regions, n_words)
            comb_lif = lif if config.comb_tau is None else LIFParams(
                tau=config.comb_tau, v_th=config.v_th, v_reset=config.v_reset,
                surrogate_alpha=config.surrogate_alpha)
            self.fusion = SpikeFusion(fusion_cfg, config.d, config.t, lif, rng,
                                      comb_lif)

    def encode(self, regions: Tensor, words: Tensor, train: bool,
               recorder=None):
        r_out = self.image(regions, train=train, recorder=recorder,
                           tag="region/")
        e_out = self.text(words, train=train, recorder=recorder, tag="word/")
        return r_out, e_out

    def eval_similarity(self, regions: Tensor, words: Tensor,
                        recorder=None) -> Tensor:
        """Inference path: pooled similarity only, fusion never touched."""
        r_out, e_out = self.encode(regions, words, train=False,
                                   recorder=recorder)
        return similarity(e_out.pooled, r_out.pooled, self.pool_cfg)

    def training_losses(self, regions: Tensor, words: Tensor):
        """Full objective on one batch; returns (total, parts dict)."""
        r_out, e_out = self.encode(regions, words, train=True)
        lam = self.loss_weights.lam
        tau = self.loss_weights.temperature
        if self.fusion is None:
            # dual-stream objective: early/late mix without fused terms
            zero = Tensor(np.float32(0.0))
            basic = infonce_pair(
                similarity(e_out.pooled, r_out.pooled, self.pool_cfg), tau)
            if lam > 0.0:
                early = infonce_pair(
                    similarity(e_out.features, r_out.features, self.pool_cfg), tau)
            else:
                early = zero
            total = early * np.float32(lam) + basic * np.float32(1.0 - lam)
            parts = {"early": early, "basic": basic, "fusion": zero,
                     "inter": zero, "intra": zero, "total": total}
            return total, parts
        if lam >= 1.0:
            # late terms carry zero weight: skip them (and the fusion pass)
            early = infonce_pair(
                similarity(e_out.features, r_out.features, self.pool_cfg), tau)
            zero = Tensor(np.float32(0.0))
            return early, {"early": early, "basic": zero, "fusion": zero,
                           "inter": zero, "intra": zero, "total": early}
        r_bar, e_bar = self.fusion.fuse_and_pool(r_out.spikes, e_out.spikes,
                                                 train=True)
        sims = {
            "early": similarity(e_out.features, r_out.features, self.pool_cfg),
            "basic": similarity(e_out.pooled, r_out.pooled, self.pool_cfg),
            "fusion": similarity(e_bar, r_bar, self.pool_cfg),
            "inter_er": similarity(e_out.pooled, r_bar, self.pool_cfg),
            "inter_re": similarity(e_bar, r_out.pooled, self.pool_cfg),
            "intra_e": similarity(e_out.pooled, e_bar, self.pool_cfg),
            "intra_r": similarity(r_out.pooled, r_bar, self.pool_cfg),
        }
        return total_loss(sims, self.loss_weights)

    def calibrate(self, regions: Tensor, words: Tensor):
        """One train-mode pass to populate batch-norm running statistics."""
        with no_grad():
            self.encode(regions, words, train=True)
