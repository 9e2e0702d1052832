"""Spike-level cross-modal fusion, used only while training.

Three mechanisms produce fused embeddings from the two pre-pool spike
streams:

  scca  comb cross attention: token groups of one modality are summed into
        binary "combs" that multiplicatively mask the other modality
  sca   cross attention over binary Q/K/V with no softmax
  scsa  self attention over the token-concatenated stream, split back

Fused spikes are temporally pooled into soft-label embeddings for the
training objective; the inference path never calls into this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import record_mask, record_matmul
from .errors import ConfigError, DimensionError
from .layers import BatchNorm, Linear, Module
from .neurons import LIFParams
from .attention import TemporalPool
from .tensor import Tensor, as_tensor, concat, matmul

FUSION_KINDS = ("scca", "sca", "scsa")


@dataclass(frozen=True)
class FusionConfig:
    kind: str = "scca"
    h: int = 6

    def __post_init__(self):
        if self.kind not in FUSION_KINDS:
            raise ConfigError(
                f"unknown fusion kind {self.kind!r}; expected one of {FUSION_KINDS}"
            )
        if not self.h >= 1:
            raise ConfigError(f"heads must be >= 1, got {self.h}")

    def check_token_counts(self, n_regions: int, n_words: int):
        if self.kind != "scca":
            return
        if n_words % self.h or n_regions % self.h:
            raise ConfigError(
                f"comb count {self.h} must divide both token counts "
                f"({n_words} words, {n_regions} regions)"
            )


def comb_mask(q: Tensor, k: Tensor, h: int, lif: LIFParams) -> Tensor:
    """Comb cross attention: mask ``k`` with combs summarizing ``q``.

    ``q`` (T, B, L, D) is split into ``h`` token groups; each group is summed
    over its tokens and spiked into a comb.  Comb i is duplicated over the
    i-th block of ``k`` (T, B, N, D) and applied as an elementwise binary
    mask.  Cost: one mask multiply per masked element, no attention matrix.
    """
    q, k = as_tensor(q), as_tensor(k)
    t, b, nl, d = q.shape
    nn = k.shape[2]
    if nl % h or nn % h:
        raise ConfigError(
            f"comb count {h} must divide token counts ({nl} and {nn})"
        )
    group = q.reshape((t, b, h, nl // h, d))
    head_sums = group.sum(axis=3)                     # (T, B, h, D)
    combs = lif(head_sums)                            # binary (T, B, h, D)
    record_mask("comb_mask", t * b * nn * d)
    blocks = k.reshape((t, b, h, nn // h, d))
    masked = combs.reshape((t, b, h, 1, d)) * blocks
    return masked.reshape((t, b, nn, d))


def qkv_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Spike attention product Q K^T V with the cheaper association order.

    Both orders give identical results (binary operands keep the arithmetic
    exact); the multiply count decides between (Q K^T) V and Q (K^T V).
    The two products are recorded as ``qk``, ``qk_v`` or ``kv``, ``q_kv``.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    nq, d = q.shape[-2], q.shape[-1]
    nk = k.shape[-2]
    k_t = k.swapaxes(-1, -2)
    if 2 * nq * nk * d <= (nq + nk) * d * d:  # (Q K^T) V vs Q (K^T V)
        qk = matmul(q, k_t)
        record_matmul("qk", q, k_t, 1, "spiking")
        record_matmul("qk_v", qk, v, 1, "spiking")
        return matmul(qk, v)
    kv = matmul(k_t, v)
    record_matmul("kv", k_t, v, 1, "spiking")
    record_matmul("q_kv", q, kv, 1, "spiking")
    return matmul(q, kv)


class _ProjectSpike(Module):
    """{Linear, BN, LIF} stage in front of the fusion attention products."""

    def __init__(self, d: int, lif: LIFParams, rng: np.random.Generator):
        self.linear = Linear(d, d, rng, bias=False)
        self.bn = BatchNorm(d)
        self.lif = lif

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        return self.lif(self.bn(self.linear(x), train))


class SpikeCrossAttention(Module):
    """One direction of spike cross attention: query tokens attend to the
    other modality's keys/values, output keeps the query token count."""

    def __init__(self, d: int, lif: LIFParams, rng: np.random.Generator):
        self.q = _ProjectSpike(d, lif, rng)
        self.k = _ProjectSpike(d, lif, rng)
        self.v = _ProjectSpike(d, lif, rng)
        self.out = Linear(d, d, rng, bias=False)
        self.bn_out = BatchNorm(d)
        self.lif = lif

    def __call__(self, x_q: Tensor, x_kv: Tensor, train: bool) -> Tensor:
        q = self.q(x_q, train)
        k = self.k(x_kv, train)
        v = self.v(x_kv, train)
        attn = qkv_attention(q, k, v)
        return self.lif(self.bn_out(self.out(attn), train))


class ConcatSelfAttention(SpikeCrossAttention):
    """Single-stream fusion: both token sets share one attention pass.

    Same parameter layout as the cross variant (shared Q/K/V/out stages);
    only the data flow differs: tokens are concatenated, attended jointly,
    and split back by modality.
    """

    def __call__(self, r: Tensor, e: Tensor, train: bool):
        r, e = as_tensor(r), as_tensor(e)
        if r.shape[-1] != e.shape[-1] or r.shape[:2] != e.shape[:2]:
            raise DimensionError(
                f"concat fusion needs matching (T, B, ., D); got {r.shape} "
                f"and {e.shape}"
            )
        n = r.shape[2]
        x = concat([r, e], axis=2)
        out = super().__call__(x, x, train)
        return out[:, :, :n, :], out[:, :, n:, :]


class SpikeFusion(Module):
    """Kind-dispatched fusion plus temporal pooling of both fused streams.

    ``call_count`` instruments the training-only contract: evaluation code
    paths must leave it untouched.
    """

    def __init__(self, cfg: FusionConfig, d: int, t: int, lif: LIFParams,
                 rng: np.random.Generator, comb_lif: LIFParams | None = None):
        self.cfg = cfg
        self.pool = TemporalPool(t)
        self.call_count = 0
        self.comb_lif = comb_lif or lif
        if cfg.kind == "sca":
            self.cross_r = SpikeCrossAttention(d, lif, rng)
            self.cross_e = SpikeCrossAttention(d, lif, rng)
        elif cfg.kind == "scsa":
            self.concat = ConcatSelfAttention(d, lif, rng)

    def fuse_and_pool(self, r_spikes: Tensor, e_spikes: Tensor,
                      train: bool = True):
        """Fuse the two pre-pool spike streams and pool each over time.

        Returns (r_bar, e_bar) float embeddings of shapes (B, N, D) and
        (B, L, D).
        """
        self.call_count += 1
        kind = self.cfg.kind
        if kind == "scca":
            # text combs mask images, image combs mask text
            r_fused = comb_mask(e_spikes, r_spikes, self.cfg.h, self.comb_lif)
            e_fused = comb_mask(r_spikes, e_spikes, self.cfg.h, self.comb_lif)
        elif kind == "sca":
            r_fused = self.cross_r(r_spikes, e_spikes, train)
            e_fused = self.cross_e(e_spikes, r_spikes, train)
        else:
            r_fused, e_fused = self.concat(r_spikes, e_spikes, train)
        return self.pool(r_fused), self.pool(e_fused)
