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

from .errors import ConfigError, DimensionError
from .layers import BatchNorm, Linear, Module
from .neurons import LIFNeuron, LIFParams
from .attention import TemporalPool
from .tensor import Tensor, as_tensor, concat, matmul

FUSION_KINDS = ("scca", "sca", "scsa")


@dataclass
class OpCounter:
    """Arithmetic-op ledger for fusion complexity checks."""

    multiplies: int = 0
    additions: int = 0

    def add(self, multiplies: int = 0, additions: int = 0):
        self.multiplies += int(multiplies)
        self.additions += int(additions)


@dataclass(frozen=True)
class FusionConfig:
    kind: str = "scca"
    h: int = 6

    def __post_init__(self):
        if self.kind not in FUSION_KINDS:
            raise ConfigError(
                f"unknown fusion kind {self.kind!r}; expected one of {FUSION_KINDS}"
            )
        if self.kind == "scca" and self.h < 1:
            raise ConfigError(f"comb count must be >= 1, got {self.h}")

    def check_token_counts(self, n_regions: int, n_words: int):
        if self.kind != "scca":
            return
        if n_words % self.h or n_regions % self.h:
            raise ConfigError(
                f"comb count {self.h} must divide both token counts "
                f"({n_words} words, {n_regions} regions)"
            )


def comb_mask(q: Tensor, k: Tensor, h: int, neuron: LIFNeuron,
              counter: OpCounter | None = None) -> Tensor:
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
    combs = neuron(head_sums)                         # binary (T, B, h, D)
    if counter is not None:
        counter.add(multiplies=t * b * nn * d,
                    additions=t * b * (nl - h) * d)
    blocks = k.reshape((t, b, h, nn // h, d))
    masked = combs.reshape((t, b, h, 1, d)) * blocks
    return masked.reshape((t, b, nn, d))


def qkv_attention(q: Tensor, k: Tensor, v: Tensor,
                  counter: OpCounter | None = None) -> Tensor:
    """Spike attention product Q K^T V with the cheaper association order.

    Both orders give identical results (binary operands keep the arithmetic
    exact); the multiply count decides between (Q K^T) V and Q (K^T V).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    nq, d = q.shape[-2], q.shape[-1]
    nk = k.shape[-2]
    batch = int(np.prod(q.shape[:-2], dtype=np.int64))
    cost_outer = 2 * nq * nk * d          # (Q K^T) V
    cost_inner = (nq + nk) * d * d        # Q (K^T V)
    k_t = k.swapaxes(-1, -2)
    if cost_outer <= cost_inner:
        out = matmul(matmul(q, k_t), v)
        if counter is not None:
            counter.add(multiplies=batch * cost_outer)
    else:
        out = matmul(q, matmul(k_t, v))
        if counter is not None:
            counter.add(multiplies=batch * cost_inner)
    return out


class _ProjectSpike(Module):
    """{Linear, BN, LIF} stage in front of the fusion attention products."""

    def __init__(self, d: int, lif: LIFParams, rng: np.random.Generator):
        self.linear = Linear(d, d, rng, bias=False)
        self.bn = BatchNorm(d)
        self.neuron = LIFNeuron(lif)

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        return self.neuron(self.bn(self.linear(x), train))


class SpikeCrossAttention(Module):
    """One direction of spike cross attention: query tokens attend to the
    other modality's keys/values, output keeps the query token count."""

    def __init__(self, d: int, lif: LIFParams, rng: np.random.Generator):
        self.q = _ProjectSpike(d, lif, rng)
        self.k = _ProjectSpike(d, lif, rng)
        self.v = _ProjectSpike(d, lif, rng)
        self.out = Linear(d, d, rng, bias=False)
        self.bn_out = BatchNorm(d)
        self.neuron_out = LIFNeuron(lif)

    def __call__(self, x_q: Tensor, x_kv: Tensor, train: bool,
                 counter: OpCounter | None = None) -> Tensor:
        q = self.q(x_q, train)
        k = self.k(x_kv, train)
        v = self.v(x_kv, train)
        attn = qkv_attention(q, k, v, counter)
        return self.neuron_out(self.bn_out(self.out(attn), train))


class ConcatSelfAttention(SpikeCrossAttention):
    """Single-stream fusion: both token sets share one attention pass.

    Same parameter layout as the cross variant (shared Q/K/V/out stages);
    only the data flow differs: tokens are concatenated, attended jointly,
    and split back by modality.
    """

    def __call__(self, r: Tensor, e: Tensor, train: bool,
                 counter: OpCounter | None = None):
        r, e = as_tensor(r), as_tensor(e)
        if r.shape[-1] != e.shape[-1] or r.shape[:2] != e.shape[:2]:
            raise DimensionError(
                f"concat fusion needs matching (T, B, ., D); got {r.shape} "
                f"and {e.shape}"
            )
        n = r.shape[2]
        x = concat([r, e], axis=2)
        q = self.q(x, train)
        k = self.k(x, train)
        v = self.v(x, train)
        attn = qkv_attention(q, k, v, counter)
        out = self.neuron_out(self.bn_out(self.out(attn), train))
        k_total = out.shape[2]
        r_bar = out[:, :, :n, :]
        e_bar = out[:, :, n:k_total, :]
        return r_bar, e_bar


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
        if cfg.kind == "scca":
            self.comb_to_regions = LIFNeuron(self.comb_lif)  # text combs mask images
            self.comb_to_words = LIFNeuron(self.comb_lif)    # image combs mask text
        elif cfg.kind == "sca":
            self.cross_r = SpikeCrossAttention(d, lif, rng)
            self.cross_e = SpikeCrossAttention(d, lif, rng)
        else:
            self.concat = ConcatSelfAttention(d, lif, rng)

    def fuse_and_pool(self, r_spikes: Tensor, e_spikes: Tensor,
                      train: bool = True, counter: OpCounter | None = None):
        """Fuse the two pre-pool spike streams and pool each over time.

        Returns (r_bar, e_bar) float embeddings of shapes (B, N, D) and
        (B, L, D).
        """
        self.call_count += 1
        kind = self.cfg.kind
        if kind == "scca":
            r_fused = comb_mask(e_spikes, r_spikes, self.cfg.h,
                                self.comb_to_regions, counter)
            e_fused = comb_mask(r_spikes, e_spikes, self.cfg.h,
                                self.comb_to_words, counter)
        elif kind == "sca":
            r_fused = self.cross_r(r_spikes, e_spikes, train, counter)
            e_fused = self.cross_e(e_spikes, r_spikes, train, counter)
        else:
            r_fused, e_fused = self.concat(r_spikes, e_spikes, train, counter)
        return self.pool(r_fused), self.pool(e_fused)
