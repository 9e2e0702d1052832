"""The dual-stream retrieval model: two unimodal spike encoders, an optional
training-only fusion module, and the similarity/objective wiring."""

from __future__ import annotations

import numpy as np

from .alignment import similarity
from .attention import UnimodalEncoder
from .config import RunConfig
from .fusion import SpikeFusion
from .layers import Module
# infonce_pair is unused here; perfbench/workloads.py wraps it as a global
# of this module
from .losses import infonce_pair, total_loss  # noqa: F401
from .tensor import Tensor, no_grad

# samples per encoder call when evaluation encodes a gallery
EVAL_BLOCK = 32


def _pooled_in_chunks(encoder, x: Tensor, rows: np.ndarray | None) -> Tensor:
    """Eval-mode pooled embeddings of ``x`` (or ``x[rows]``), ``EVAL_BLOCK``
    samples per encoder call (eval batch norm keeps samples independent)."""
    n = x.shape[0] if rows is None else rows.size
    return Tensor(np.concatenate([
        encoder(x[lo:lo + EVAL_BLOCK] if rows is None
                else x[rows[lo:lo + EVAL_BLOCK]]).pooled.data
        for lo in range(0, n, EVAL_BLOCK)]))


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
        for path, block in self._walk():
            if isinstance(block, Module):
                block.path = path

    def encode(self, regions: Tensor, words: Tensor):
        """Both encoders; their ledger rows are named by model path."""
        return self.image(regions), self.text(words)

    def eval_similarity(self, regions: Tensor, words: Tensor,
                        rows: np.ndarray | None = None) -> Tensor:
        """Inference path: the pooled score matrix, fusion never touched.
        ``rows`` picks the pairs to score, in order (all by default).

        One ``similarity`` call over the whole gallery; its node walks the
        fine tensor in blocks of at most ``_BLOCK_BYTES`` (see
        ``spikefusion.alignment``), so memory is O(P^2 + P (L + N) D), not
        O(P^2 * L * N).
        """
        with no_grad():
            r_pooled = _pooled_in_chunks(self.image, regions, rows)
            e_pooled = _pooled_in_chunks(self.text, words, rows)
            return similarity(e_pooled, r_pooled, self.pool_cfg)

    def training_losses(self, regions: Tensor, words: Tensor):
        """The objective on one batch; returns (total, parts dict).  Only
        terms with nonzero weight are computed (the fusion pass only when
        lambda < 1); ``total_loss`` counts the others as 0."""
        r_out, e_out = self.encode(regions, words)
        lam = self.loss_weights.lam

        def sim(e, r):
            return similarity(e, r, self.pool_cfg)

        sims = {}
        if lam > 0.0:
            sims["early"] = sim(e_out.features, r_out.features)
        if lam < 1.0:
            sims["basic"] = sim(e_out.pooled, r_out.pooled)
        if lam < 1.0 and self.fusion is not None:
            r_bar, e_bar = self.fusion.fuse_and_pool(r_out.spikes, e_out.spikes)
            sims.update(fusion=sim(e_bar, r_bar),
                        inter_er=sim(e_out.pooled, r_bar),
                        inter_re=sim(e_bar, r_out.pooled),
                        intra_e=sim(e_out.pooled, e_bar),
                        intra_r=sim(r_out.pooled, r_bar))
        return total_loss(sims, self.loss_weights)

    def calibrate(self, regions: Tensor, words: Tensor):
        """Fill batch-norm running stats by a recorded forward, then drop it."""
        self.encode(regions, words)
