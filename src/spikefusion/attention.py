"""Intra-modal spike attention: spike self-attention, the spike gated MLP,
temporal pooling, and the unimodal encoder pipeline.

All attention arithmetic stays in the spike domain (no softmax): binary
Q/K/V matrices are multiplied directly and renormalized by batch norm before
each spiking nonlinearity.  The only float tensors in the block are the
gated-MLP value path, the residual sums, and the pooled output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import record_mask, record_matmul
from .errors import UsageError
from .layers import BatchNorm, Linear, Module
from .neurons import LIFParams
from .tensor import Tensor, as_tensor, matmul
from .encoding import GeneratorConfig, SpikeGenerator


class SpikeSelfAttention(Module):
    """Spike Q/K/V attention with binary outputs, shapes (T, B, K, D)."""

    def __init__(self, d: int, lif: LIFParams, rng: np.random.Generator,
                 scale: float):
        self.scale = scale
        self.w_q = Linear(d, d, rng, bias=False)
        self.w_k = Linear(d, d, rng, bias=False)
        self.w_v = Linear(d, d, rng, bias=False)
        self.w_a = Linear(d, d, rng, bias=False)
        self.bn_q = BatchNorm(d)
        self.bn_k = BatchNorm(d)
        self.bn_v = BatchNorm(d)
        self.bn_attn = BatchNorm(d)
        self.bn_out = BatchNorm(d)
        self.lif = lif

    def __call__(self, x_s: Tensor) -> Tensor:
        t = x_s.shape[0]
        q = self.lif(x_s, linear=self.w_q, norm=self.bn_q)
        k = self.lif(x_s, linear=self.w_k, norm=self.bn_k)
        v = self.lif(x_s, linear=self.w_v, norm=self.bn_v)
        k_t = k.swapaxes(-1, -2)
        record_matmul(self.path + "attn_scores", q, k_t, t, "spiking")
        scores = matmul(q, k_t)
        record_matmul(self.path + "attn_apply", scores, v, t, "spiking")
        mixed = matmul(scores, v) * np.float32(self.scale)
        attn = self.lif(mixed, norm=self.bn_attn)
        return self.lif(attn, linear=self.w_a, norm=self.bn_out)


class SpikeGatedMLP(Module):
    """Spiking gate times a float value path: out = SN((G . P) W_o).

    The value path deliberately skips the neuron so pre-activation
    information survives the gate.
    """

    def __init__(self, d: int, lif: LIFParams, rng: np.random.Generator):
        # no norm inside this block: the larger gain keeps the gate drive
        # near threshold at init so the gate and output paths stay trainable
        self.w_g = Linear(d, d, rng, bias=False, gain=3.0)
        self.w_p = Linear(d, d, rng, bias=False)
        self.w_o = Linear(d, d, rng, bias=False, gain=3.0)
        self.lif = lif

    def __call__(self, x_s: Tensor) -> Tensor:
        gate = self.lif(x_s, linear=self.w_g)
        record_matmul(self.w_p.path + "w", x_s, self.w_p.w, x_s.shape[0],
                      "spiking")
        value = self.w_p(x_s)
        gated = gate * value
        record_mask(self.path + "gate_multiply")
        return self.lif(gated, linear=self.w_o)


class TemporalPool(Module):
    """Convex combination over the time axis with learned weights.

    Raw weights are unconstrained; a softmax at application time keeps the
    mix convex (uniform 1/T at init).
    """

    def __init__(self, t: int):
        self.w = Tensor.param(np.zeros(t, dtype=np.float32))

    def weights(self) -> Tensor:
        e = self.w.exp()
        return e / e.sum()

    def __call__(self, x_s: Tensor) -> Tensor:
        x_s = as_tensor(x_s)
        t = self.w.shape[0]
        if x_s.shape[0] != t:
            raise UsageError(
                f"temporal pool got {x_s.shape[0]} steps, expected {t}")
        w = self.weights().reshape((t,) + (1,) * (x_s.ndim - 1))
        return (w * x_s).sum(axis=0)


@dataclass
class EncoderOutput:
    features: Tensor  # projected float tokens (B, K, D), pre-spike
    pooled: Tensor    # temporally pooled embedding (B, K, D)
    spikes: Tensor    # pre-pool spike tensor (T, B, K, D)


class UnimodalEncoder(Module):
    """Linear projection, spike generator, one {SSA + SG-MLP} block, pooling."""

    def __init__(self, d_raw: int, cfg: GeneratorConfig, lif: LIFParams,
                 rng: np.random.Generator, scale: float):
        self.proj = Linear(d_raw, cfg.d, rng)
        self.gen = SpikeGenerator(cfg, lif, rng)
        self.attn = SpikeSelfAttention(cfg.d, lif, rng, scale)
        self.mlp = SpikeGatedMLP(cfg.d, lif, rng)
        self.pool = TemporalPool(cfg.t)

    def __call__(self, x_raw: Tensor) -> EncoderOutput:
        record_matmul(self.proj.path + "w", x_raw, self.proj.w, 1, "float")
        x_f = self.proj(x_raw)
        x_s = self.gen(x_f)
        x_s1 = x_s + self.attn(x_s)
        x_s2 = x_s1 + self.mlp(x_s1)
        pooled = self.pool(x_s2)
        return EncoderOutput(features=x_f, pooled=pooled, spikes=x_s2)
